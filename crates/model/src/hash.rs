//! Fast, deterministic hashing utilities.
//!
//! The workspace deliberately avoids the `rustc-hash` dependency and ships a
//! small Fx-style multiply-rotate hasher instead: the build is offline, and
//! its one external dependency is a vendored test stub (see
//! ARCHITECTURE.md's paragraph on vendored stubs). The hasher
//! is *not* HashDoS-resistant; it is used for account/node keys that are
//! either internal indices or already well-mixed addresses, exactly the
//! situation the Rust Performance Book recommends a fast hasher for.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx-style hasher: `state = (state.rotate_left(5) ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    state: u64,
}

/// Multiplicative seed used by the Firefox/rustc Fx hash family.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            #[expect(
                clippy::expect_used,
                reason = "chunks_exact(8) yields exactly 8 bytes per chunk, so the array conversion is infallible"
            )]
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `HashMap` keyed with the fast Fx-style hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher64>>;
/// `HashSet` keyed with the fast Fx-style hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher64>>;

/// Finalizing 64-bit mixer (splitmix64 finalizer).
///
/// Used wherever the paper relies on "the hash value of the address":
/// the hash-based baseline allocation (`mix64(addr) % k`) and the canonical
/// deterministic node ordering.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of(bytes: &[u8]) -> u64 {
        let bh = BuildHasherDefault::<FxHasher64>::default();
        let mut h = bh.build_hasher();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(b"txallo"), hash_of(b"txallo"));
        assert_eq!(mix64(42), mix64(42));
    }

    #[test]
    fn different_inputs_hash_differently() {
        assert_ne!(hash_of(b"a"), hash_of(b"b"));
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn partial_words_are_padded_not_dropped() {
        // 9 bytes = one full word + 1 remainder byte; the remainder must
        // contribute to the state.
        assert_ne!(
            hash_of(&[1, 2, 3, 4, 5, 6, 7, 8, 9]),
            hash_of(&[1, 2, 3, 4, 5, 6, 7, 8])
        );
    }

    #[test]
    fn mix64_spreads_low_bits() {
        // Sequential inputs must land in different buckets for small moduli.
        let buckets: std::collections::HashSet<u64> = (0..64).map(|i| mix64(i) % 16).collect();
        assert!(buckets.len() > 8, "mix64 should spread sequential keys");
    }

    #[test]
    fn fx_map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&999], 1998);
    }
}
