//! Versioned, checksummed epoch checkpoints.
//!
//! The paper's serving claim (§V-C) is that A-TxAllo's per-epoch cost is
//! independent of chain length *because* the aggregates survive between
//! epochs. This module extends that survival across process restarts: at
//! an epoch boundary [`EpochLoop`](crate::EpochLoop) writes its whole
//! resumable state — the transaction graph, the epoch count, the recovery
//! rung, the served labels, a warm session's community aggregates and an
//! opaque consumer blob (the chain engine's counters) — as one flat,
//! self-validating record, and a resumed run continues
//! **bit-identically** to one that never stopped.
//!
//! Bit-identity dictates the format: every `f64` is stored as its raw IEEE
//! bits, because the float fields are *chronological accumulations* whose
//! values depend on the order history happened in — recomputing them from
//! the restored graph would be a different (if numerically close) number
//! and break the determinism contract of §IV-A.
//!
//! ## Layout
//!
//! ```text
//! magic u64 | version u32 | graph | epoch u64 | rung u8 | shards u64
//!           | label count u64 + labels u32 | aggregates marker u8
//!           [+ intra f64 × shards + cut f64 × shards + eta f64 + capacity f64]
//!           | consumer len u64 + bytes | checksum u64
//! ```
//!
//! All integers little-endian. The checksum covers every preceding byte
//! (magic and version included), so truncation, bit rot, and
//! wrong-file-entirely all surface as a typed [`CheckpointError`] instead
//! of a silently wrong resume. Decoding reads the magic and the version
//! before it verifies the checksum, so an image of another format version
//! is refused by name ([`CheckpointError::UnsupportedVersion`]).

use txallo_graph::{fit_u32, TxGraph, WeightedGraph};
use txallo_model::AccountId;

use crate::allocation::Allocation;
use crate::streaming::Degradation;

/// File magic: `b"TXALLOCP"` as a little-endian u64.
const MAGIC: u64 = u64::from_le_bytes(*b"TXALLOCP");

/// Current format version. Bumped on any layout change; old images are
/// rejected with [`CheckpointError::UnsupportedVersion`] rather than
/// misread. Version 2 replaced version 1's byte-wise FNV-1a checksum with
/// a word-wise one over four lanes of little-endian `u64` words; version 3
/// writes the epoch, the rung, the shard count and the labels once, in
/// one flat record.
pub const FORMAT_VERSION: u32 = 3;

/// Why a checkpoint image failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The image ended before the declared content did.
    Truncated,
    /// The leading magic is not a TxAllo checkpoint's.
    BadMagic,
    /// The image was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// Structurally invalid content (the named field is inconsistent).
    Malformed(&'static str),
    /// The image was written under another shard count than the restoring
    /// loop serves.
    ShardMismatch {
        /// Shards the restoring loop serves.
        expected: usize,
        /// Shards recorded in the image.
        found: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint image is truncated"),
            CheckpointError::BadMagic => write!(f, "not a TxAllo checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupt image)")
            }
            CheckpointError::Malformed(what) => {
                write!(f, "malformed checkpoint: inconsistent {what}")
            }
            CheckpointError::ShardMismatch { expected, found } => write!(
                f,
                "checkpoint shard count {found} does not match the configured {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The FNV-1a 64 offset basis and prime.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-style step over a whole word: xor, then multiply by the FNV
/// prime. The prime is odd, so the step is a bijection of `h` for a fixed
/// word and of the word for a fixed `h`.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// The little-endian `u64` of an 8-byte chunk.
#[inline]
fn le_word(chunk: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// The image checksum: FNV-style mixing a little-endian `u64` word at a
/// time over four independent lanes (32 bytes per round, so the four
/// multiply chains overlap), then the lanes, the tail words, the
/// zero-padded last bytes and the length folded into one hash. Every step
/// is a bijection of the state it updates, so any change confined to one
/// word — every single-byte flip — always changes the result. Tiny,
/// dependency-free, and plenty for integrity: it guards against
/// corruption, not adversaries.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_BASIS, FNV_BASIS ^ 1, FNV_BASIS ^ 2, FNV_BASIS ^ 3];
    let mut rounds = bytes.chunks_exact(32);
    for round in &mut rounds {
        for (lane, chunk) in lanes.iter_mut().zip(round.chunks_exact(8)) {
            *lane = mix(*lane, le_word(chunk));
        }
    }
    let mut h = lanes.into_iter().fold(FNV_BASIS, mix);
    let mut words = rounds.remainder().chunks_exact(8);
    for chunk in &mut words {
        h = mix(h, le_word(chunk));
    }
    let rest = words.remainder();
    let mut last = [0; 8];
    last[..rest.len()].copy_from_slice(rest);
    h = mix(h, u64::from_le_bytes(last));
    mix(h, bytes.len() as u64)
}

/// Little-endian primitive writer for checkpoint sections.
///
/// Consumers that store opaque blobs inside a checkpoint (the chain
/// engine) use the same primitives, so every number in the image has one
/// encoding.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact round trip —
    /// never a decimal rendering).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes (length is *not* prefixed; callers write it).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Returns the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian primitive reader mirroring [`Encoder`]. Every read is
/// bounds-checked ([`CheckpointError::Truncated`]); [`Decoder::finish`]
/// additionally rejects trailing garbage.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding `bytes` from the beginning.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        #[expect(
            clippy::unwrap_used,
            reason = "take(4) returned exactly 4 bytes, so the array conversion is infallible"
        )]
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(le_word(self.take(8)?))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// A `u64` that must fit the platform's `usize` and stay below a
    /// sanity bound derived from the image size (an honest length field
    /// can never exceed the bytes that are actually present).
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if v > remaining {
            return Err(CheckpointError::Truncated);
        }
        Ok(v as usize)
    }

    /// Ends decoding, rejecting unread trailing bytes.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

/// The per-community aggregates a warm A-TxAllo session carries across
/// epochs — raw accumulations, restored bit-for-bit. Each vector holds one
/// value per shard.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityAggregates {
    /// Internal weight `W_in(c)` per community, chronological accumulation.
    pub intra: Vec<f64>,
    /// Cut weight `W_cut(c)` per community, chronological accumulation.
    pub cut: Vec<f64>,
    /// The η the aggregates were maintained under.
    pub eta: f64,
    /// The capacity `λ` the aggregates were maintained under.
    pub capacity: f64,
}

/// A fully decoded checkpoint image: an [`EpochLoop`](crate::EpochLoop)'s
/// state at an epoch boundary.
#[derive(Debug)]
pub struct Checkpoint {
    /// The transaction graph, restored bit-for-bit.
    pub graph: TxGraph,
    /// Epochs closed since warm-up (drives [`HybridSchedule`] phase).
    ///
    /// [`HybridSchedule`]: crate::HybridSchedule
    pub epoch: u64,
    /// The recovery ladder's rung.
    pub degradation: Degradation,
    /// The served labels and the shard count: one label per graph node,
    /// each below the shard count (decoding checks both).
    pub allocation: Allocation,
    /// A warm session's aggregates; `None` when the stream served without
    /// any (labels only, a batch re-solve, or the scheduler).
    pub community: Option<CommunityAggregates>,
    /// The consumer's opaque section (e.g. the chain engine's counters).
    pub consumer: Vec<u8>,
}

fn encode_graph(e: &mut Encoder, graph: &TxGraph) {
    let n = graph.node_count();
    e.u64(n as u64);
    for &acct in graph.interner().accounts() {
        e.u64(acct.0);
    }
    for v in 0..fit_u32(n) {
        e.f64(graph.self_loop(v));
    }
    for v in 0..fit_u32(n) {
        e.f64(graph.incident_weight(v));
    }
    e.f64(graph.total_weight());
    e.u64(graph.edge_count() as u64);
    e.u64(graph.transaction_count() as u64);
    let (mut ids, mut ws) = (Vec::new(), Vec::new());
    for v in 0..fit_u32(n) {
        ids.clear();
        ws.clear();
        graph.copy_row_into(v, &mut ids, &mut ws);
        e.u32(fit_u32(ids.len()));
        for &u in &ids {
            e.u32(u);
        }
        for &w in &ws {
            e.f64(w);
        }
    }
}

fn decode_graph(d: &mut Decoder<'_>) -> Result<TxGraph, CheckpointError> {
    let n = d.len()?;
    let mut accounts = Vec::with_capacity(n);
    for _ in 0..n {
        accounts.push(AccountId(d.u64()?));
    }
    let mut self_loops = Vec::with_capacity(n);
    for _ in 0..n {
        self_loops.push(d.f64()?);
    }
    let mut incident = Vec::with_capacity(n);
    for _ in 0..n {
        incident.push(d.f64()?);
    }
    let total_weight = d.f64()?;
    let edge_count = d.len()?;
    let transaction_count = d.u64()? as usize;
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let (mut adj_ids, mut adj_ws) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let len = d.u32()? as usize;
        for _ in 0..len {
            let id = d.u32()?;
            if id as usize >= n {
                return Err(CheckpointError::Malformed("adjacency node id"));
            }
            adj_ids.push(id);
        }
        for _ in 0..len {
            adj_ws.push(d.f64()?);
        }
        #[expect(
            clippy::expect_used,
            reason = "offsets starts with a pushed 0 sentinel a few lines up, so last() always exists"
        )]
        let row = &adj_ids[*offsets.last().expect("non-empty")..];
        if !row.windows(2).all(|p| p[0] < p[1]) {
            return Err(CheckpointError::Malformed("adjacency row order"));
        }
        offsets.push(adj_ids.len());
    }
    let mut unique = accounts.clone();
    unique.sort_unstable();
    unique.dedup();
    if unique.len() != n {
        return Err(CheckpointError::Malformed("duplicate accounts"));
    }
    Ok(TxGraph::from_checkpoint_parts(
        &accounts,
        &offsets,
        &adj_ids,
        &adj_ws,
        self_loops,
        incident,
        total_weight,
        edge_count,
        transaction_count,
    ))
}

/// Stable wire code of a [`Degradation`] rung. Code 2 is unused (no image
/// holds it); the others keep the values they had in format version 1.
pub(crate) fn degradation_code(d: Degradation) -> u8 {
    match d {
        Degradation::None => 0,
        Degradation::Invalidated => 1,
        Degradation::HashFallback => 3,
    }
}

pub(crate) fn degradation_from_code(code: u8) -> Result<Degradation, CheckpointError> {
    Ok(match code {
        0 => Degradation::None,
        1 => Degradation::Invalidated,
        3 => Degradation::HashFallback,
        _ => return Err(CheckpointError::Malformed("degradation rung")),
    })
}

/// Serializes one epoch-boundary checkpoint image (see the
/// [module docs](self) for the layout).
///
/// # Panics
/// Panics if `community` does not hold one value per shard of
/// `allocation`.
pub fn encode_checkpoint(
    graph: &TxGraph,
    epoch: u64,
    degradation: Degradation,
    allocation: &Allocation,
    community: Option<&CommunityAggregates>,
    consumer: &[u8],
) -> Vec<u8> {
    let shards = allocation.shard_count();
    let mut e = Encoder::new();
    e.u64(MAGIC);
    e.u32(FORMAT_VERSION);
    encode_graph(&mut e, graph);
    e.u64(epoch);
    e.u8(degradation_code(degradation));
    e.u64(shards as u64);
    e.u64(allocation.len() as u64);
    for &l in allocation.labels() {
        e.u32(l);
    }
    match community {
        None => e.u8(0),
        Some(agg) => {
            assert!(
                agg.intra.len() == shards && agg.cut.len() == shards,
                "aggregates must cover every shard"
            );
            e.u8(1);
            for &w in agg.intra.iter().chain(&agg.cut) {
                e.f64(w);
            }
            e.f64(agg.eta);
            e.f64(agg.capacity);
        }
    }
    e.u64(consumer.len() as u64);
    e.bytes(consumer);
    let mut buf = e.finish();
    let sum = checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Decodes and validates a checkpoint image produced by
/// [`encode_checkpoint`]. Every failure mode is a typed
/// [`CheckpointError`]; on success every field round-trips
/// bit-identically.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    const FOOTER: usize = 8;
    const HEADER: usize = 8 + 4;
    if bytes.len() < HEADER + FOOTER {
        return Err(CheckpointError::Truncated);
    }
    let (content, footer) = bytes.split_at(bytes.len() - FOOTER);
    let mut d = Decoder::new(content);
    if d.u64()? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    if checksum(content) != le_word(footer) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let graph = decode_graph(&mut d)?;
    let epoch = d.u64()?;
    let degradation = degradation_from_code(d.u8()?)?;
    let shards =
        usize::try_from(d.u64()?).map_err(|_| CheckpointError::Malformed("shard count"))?;
    if d.len()? != graph.node_count() {
        return Err(CheckpointError::Malformed("label count"));
    }
    let labels: Vec<u32> = (0..graph.node_count())
        .map(|_| d.u32())
        .collect::<Result<_, _>>()?;
    if labels.iter().any(|&l| l as usize >= shards) {
        return Err(CheckpointError::Malformed("label out of range"));
    }
    let community = match d.u8()? {
        0 => None,
        1 => {
            // Collecting reserves nothing up front, so a forged shard
            // count ends in truncation, not in an allocation of its size.
            let mut floats = |n: usize| (0..n).map(|_| d.f64()).collect::<Result<Vec<_>, _>>();
            Some(CommunityAggregates {
                intra: floats(shards)?,
                cut: floats(shards)?,
                eta: d.f64()?,
                capacity: d.f64()?,
            })
        }
        _ => return Err(CheckpointError::Malformed("community marker")),
    };
    let consumer_len = d.len()?;
    let consumer = d.bytes(consumer_len)?.to_vec();
    d.finish()?;
    Ok(Checkpoint {
        graph,
        epoch,
        degradation,
        allocation: Allocation::new(labels, shards),
        community,
        consumer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::NodeId;
    use txallo_model::Transaction;

    fn sample_graph() -> TxGraph {
        let mut g = TxGraph::new();
        for i in 0..40u64 {
            g.ingest_transaction(&Transaction::transfer(
                AccountId(i % 9),
                AccountId((i * 3) % 13),
            ));
        }
        g.apply_decay(0.8);
        g.ingest_transaction(&Transaction::transfer(AccountId(100), AccountId(0)));
        g
    }

    fn sample_allocation(g: &TxGraph) -> Allocation {
        Allocation::new((0..g.node_count()).map(|v| (v % 3) as u32).collect(), 3)
    }

    fn sample_aggregates() -> CommunityAggregates {
        CommunityAggregates {
            intra: vec![1.25, 0.5, 7.0 / 3.0],
            cut: vec![0.1, 2.5, 0.0],
            eta: 5.0,
            capacity: 12.5,
        }
    }

    /// An image of `g` at epoch 17 on the `Invalidated` rung, labelled
    /// round-robin over three shards, with the sample aggregates.
    fn sample_image(g: &TxGraph, consumer: &[u8]) -> Vec<u8> {
        let aggregates = sample_aggregates();
        let allocation = sample_allocation(g);
        encode_checkpoint(
            g,
            17,
            Degradation::Invalidated,
            &allocation,
            Some(&aggregates),
            consumer,
        )
    }

    /// `bytes` with its trailing checksum recomputed, so a rewritten field
    /// is reached instead of reported as corruption.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let len = bytes.len();
        let sum = checksum(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let g = sample_graph();
        let consumer = vec![1u8, 2, 3, 250, 0, 9];
        let image = sample_image(&g, &consumer);
        let cp = decode_checkpoint(&image).unwrap();
        assert_eq!(cp.epoch, 17);
        assert_eq!(cp.degradation, Degradation::Invalidated);
        assert_eq!(cp.allocation, sample_allocation(&g));
        assert_eq!(cp.community, Some(sample_aggregates()));
        assert_eq!(cp.consumer, consumer);
        assert_eq!(cp.graph.node_count(), g.node_count());
        assert_eq!(
            cp.graph.total_weight().to_bits(),
            g.total_weight().to_bits()
        );
        for v in 0..g.node_count() as NodeId {
            assert_eq!(cp.graph.account(v), g.account(v));
            assert_eq!(cp.graph.self_loop(v).to_bits(), g.self_loop(v).to_bits());
            let mut a = Vec::new();
            let mut b = Vec::new();
            g.for_each_neighbor(v, |u, w| a.push((u, w.to_bits())));
            cp.graph
                .for_each_neighbor(v, |u, w| b.push((u, w.to_bits())));
            assert_eq!(a, b, "row {v}");
        }
        // Re-encoding the restored state reproduces the image byte-for-byte
        // (stability: checkpoints of resumed runs match the original's).
        let again = encode_checkpoint(
            &cp.graph,
            cp.epoch,
            cp.degradation,
            &cp.allocation,
            cp.community.as_ref(),
            &cp.consumer,
        );
        assert_eq!(again, image);
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let g = sample_graph();
        let image = sample_image(&g, &[7u8; 16]);

        assert_eq!(
            decode_checkpoint(&[]).err(),
            Some(CheckpointError::Truncated)
        );
        assert_eq!(
            decode_checkpoint(&image[..image.len() - 3]).err(),
            Some(CheckpointError::ChecksumMismatch),
            "truncation breaks the checksum first"
        );
        let mut flipped = image.clone();
        flipped[40] ^= 0x20;
        assert_eq!(
            decode_checkpoint(&flipped).err(),
            Some(CheckpointError::ChecksumMismatch)
        );

        // Magic / version errors keep a *valid* checksum so they are
        // reached: rewrite the header and re-seal.
        let mut wrong_magic = image.clone();
        wrong_magic[0] = b'Z';
        assert_eq!(
            decode_checkpoint(&reseal(wrong_magic)).err(),
            Some(CheckpointError::BadMagic)
        );
        let mut wrong_version = image.clone();
        wrong_version[8] = 99;
        assert_eq!(
            decode_checkpoint(&reseal(wrong_version)).err(),
            Some(CheckpointError::UnsupportedVersion(99))
        );
        let mut trailing = image.clone();
        let keep = trailing.len() - 8;
        trailing.truncate(keep);
        trailing.push(0xAB);
        trailing.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            decode_checkpoint(&reseal(trailing)).err(),
            Some(CheckpointError::Malformed("trailing bytes"))
        );
    }

    /// Version 1 sealed its images with byte-wise FNV-1a. Such an image is
    /// refused by its version, not misread or reported as corrupt.
    #[test]
    fn a_version_1_image_is_refused() {
        let fnv1a = |bytes: &[u8]| bytes.iter().fold(FNV_BASIS, |h, &b| mix(h, u64::from(b)));
        let g = sample_graph();
        let mut v1 = sample_image(&g, &[]);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let len = v1.len();
        let sum = fnv1a(&v1[..len - 8]);
        v1[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&v1).err(),
            Some(CheckpointError::UnsupportedVersion(1))
        );
    }

    /// Version 2 nested the epoch, the rung and the consumer blob in a
    /// section of their own, under the same checksum. Such an image is
    /// refused by its version, not misread.
    #[test]
    fn a_version_2_image_is_refused() {
        let g = sample_graph();
        let mut v2 = sample_image(&g, &[]);
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&reseal(v2)).err(),
            Some(CheckpointError::UnsupportedVersion(2))
        );
    }

    /// Every single-byte flip and every proper prefix of a small image is
    /// refused with a typed error.
    #[test]
    fn every_byte_flip_and_truncation_is_refused() {
        let mut g = TxGraph::new();
        for i in 0..6u64 {
            g.ingest_transaction(&Transaction::transfer(AccountId(i), AccountId((i * 5) % 7)));
        }
        let image = sample_image(&g, &[1, 2, 3]);
        assert!(decode_checkpoint(&image).is_ok());
        for at in 0..image.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = image.clone();
                bad[at] ^= mask;
                assert!(
                    decode_checkpoint(&bad).is_err(),
                    "flip {mask:#04x} at byte {at} of {}",
                    image.len()
                );
            }
        }
        for len in 0..image.len() {
            assert!(
                decode_checkpoint(&image[..len]).is_err(),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn labels_must_cover_the_graph_and_respect_k() {
        // Stale labels: the graph grew by an account since they were set.
        let mut grown = sample_graph();
        let stale = sample_allocation(&grown);
        grown.ingest_transaction(&Transaction::transfer(AccountId(500), AccountId(0)));
        let image = encode_checkpoint(&grown, 0, Degradation::None, &stale, None, &[]);
        assert_eq!(
            decode_checkpoint(&image).err(),
            Some(CheckpointError::Malformed("label count"))
        );

        // A label equal to the shard count. The labels follow the graph,
        // the epoch (8 bytes), the rung (1), the shard count (8) and the
        // label count (8).
        let g = sample_graph();
        let mut graph = Encoder::new();
        encode_graph(&mut graph, &g);
        let first_label = 8 + 4 + graph.finish().len() + 8 + 1 + 8 + 8;
        let mut image = sample_image(&g, &[]);
        image[first_label..first_label + 4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&reseal(image)).err(),
            Some(CheckpointError::Malformed("label out of range"))
        );
    }

    #[test]
    fn labels_only_state_round_trips() {
        let g = sample_graph();
        let allocation = sample_allocation(&g);
        let image = encode_checkpoint(&g, 4, Degradation::None, &allocation, None, &[]);
        let cp = decode_checkpoint(&image).unwrap();
        assert_eq!(cp.allocation, allocation);
        assert_eq!(cp.community, None);
        assert_eq!((cp.epoch, cp.degradation), (4, Degradation::None));
        assert!(cp.consumer.is_empty());
    }

    #[test]
    fn encoder_decoder_primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.f64(f64::MIN_POSITIVE);
        e.bytes(b"xyz");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(d.bytes(3).unwrap(), b"xyz");
        d.finish().unwrap();

        let mut d = Decoder::new(&buf);
        let _ = d.u8().unwrap();
        assert!(d.finish().is_err(), "unread bytes must be rejected");
        let mut d = Decoder::new(&buf[..2]);
        assert_eq!(d.u32(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn error_display_names_the_failure() {
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(CheckpointError::UnsupportedVersion(4)
            .to_string()
            .contains("version 4"));
        assert!(CheckpointError::Malformed("label count")
            .to_string()
            .contains("label count"));
        assert!(CheckpointError::ShardMismatch {
            expected: 3,
            found: 2
        }
        .to_string()
        .contains("shard count 2"));
        let err: Box<dyn std::error::Error> = Box::new(CheckpointError::BadMagic);
        assert!(err.to_string().contains("magic"));
    }
}
