//! Account and shard identifiers.

use crate::hash::mix64;
use std::fmt;

/// An account address in an account-based blockchain.
///
/// Real Ethereum addresses are 160-bit; for the reproduction a 64-bit opaque
/// identifier is sufficient (the paper only uses addresses as hash inputs
/// and equality keys). The inner value is the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccountId(pub u64);

impl AccountId {
    /// Deterministic 64-bit hash of the address, the stand-in for
    /// `SHA256(address)` used by the hash-based baseline (§II-C) and for
    /// canonical node ordering (§V-B).
    #[inline]
    pub fn address_hash(self) -> u64 {
        mix64(self.0)
    }

    /// Hash-based shard assignment: `hash(address) mod k` (Chainspace-style).
    #[inline]
    pub fn hash_shard(self, shard_count: usize) -> ShardId {
        debug_assert!(shard_count > 0, "shard_count must be positive");
        ShardId((self.address_hash() % shard_count as u64) as u32)
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

impl From<u64> for AccountId {
    fn from(v: u64) -> Self {
        AccountId(v)
    }
}

/// Identifier of a shard, `0..k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard#{}", self.0)
    }
}

impl From<u32> for ShardId {
    fn from(v: u32) -> Self {
        ShardId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_shard_is_stable_and_in_range() {
        for k in [1usize, 2, 7, 60] {
            for a in 0..500u64 {
                let s = AccountId(a).hash_shard(k);
                assert!(s.index() < k);
                assert_eq!(s, AccountId(a).hash_shard(k), "must be deterministic");
            }
        }
    }

    #[test]
    fn hash_shard_is_roughly_uniform() {
        let k = 8usize;
        let mut counts = vec![0usize; k];
        for a in 0..8000u64 {
            counts[AccountId(a).hash_shard(k).index()] += 1;
        }
        let expected = 8000 / k;
        for c in counts {
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 2) as u64,
                "bucket count {c} too far from expected {expected}"
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(AccountId(255).to_string(), "0x00000000000000ff");
        assert_eq!(ShardId(3).to_string(), "shard#3");
    }
}
