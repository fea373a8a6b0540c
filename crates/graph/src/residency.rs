//! Cold-row eviction: bounded-memory graph residency for out-of-core
//! streaming replay.
//!
//! A long replay interns every account it ever sees, but an epoch only
//! *writes* the rows of accounts that transacted recently — the decay
//! window already encodes that recency. This module retires the adjacency
//! rows of accounts untouched for more than `window` completed epochs to
//! an append-only in-memory spill log and rehydrates them
//! **bitwise-transparently** when traffic returns, keeping slab bytes
//! `O(active set)` instead of `O(all accounts ever seen)`. The spill log
//! is resident memory too, and it keeps every superseded record, so
//! eviction bounds the slab, not the process.
//!
//! ## One slot per account
//!
//! The index is one `u32` per account. While the row is resident the
//! slot holds the epoch of its last write; while it is evicted it holds
//! `COLD | offset / 4`, where `COLD` is the top bit and `offset` is where
//! the row's spill record starts (records are `8 + 12·len` bytes, so
//! every offset is a multiple of 4). The epoch count and `offset / 4`
//! must each stay below 2³¹, which caps the spill at 8 GiB; both are
//! checked. A rehydrate overwrites the offset, so a write rehydrates the
//! row *before* stamping it, and a rehydrate with no write resets the
//! slot to 0. The row was evicted because its last write is more than
//! `window` epochs old, so 0 keeps it just as evictable: it goes cold
//! again at the next boundary, as it would have had its stamp survived.
//!
//! ## The determinism story
//!
//! Eviction serializes the row's *merged* copy — the exact form the
//! snapshot builders read and [`checkpoint restore`] rebuilds from — and
//! records how many decay factors had been applied at eviction time.
//! Rehydration replays the missed factors **stepwise, in application
//! order** (one multiply per factor per entry, never a combined product:
//! `w·f₁·f₂ ≠ w·(f₁·f₂)` in floats), then lands the row fully merged via
//! [`SortedRunStore::restore_row`]. Both sides of a symmetric edge
//! therefore hold bit-identical weights whether one of them spent epochs
//! cold or not, and every future accumulation proceeds from identical
//! bits — the `with-eviction == without-eviction` proptests pin this.
//!
//! ## The residency read invariant
//!
//! Reads take `&self` and cannot rehydrate, so a cold row reads as
//! *empty* (`neighbor_count == 0`, no entries). Correctness rests on one
//! invariant: **a cold row is never read**. The write path upholds it
//! internally — every ingestion touch rehydrates through
//! [`TxGraph::ensure_node`] — but whole-graph readers (a global G-TxAllo
//! re-solve, a session rebuild, a consistency audit, a checkpoint) must
//! call [`TxGraph::ensure_all_resident`] first. The epoch loop does so at
//! exactly those boundaries; per-node scalars (self-loops, incident
//! weight, `total_weight`) always stay resident, so epoch parameter
//! rescaling and metrics need no rehydration at all.
//!
//! [`checkpoint restore`]: crate::TxGraph::from_checkpoint_parts
//! [`SortedRunStore::restore_row`]: crate::SortedRunStore::restore_row
//! [`TxGraph::ensure_node`]: crate::TxGraph
//! [`TxGraph::ensure_all_resident`]: crate::TxGraph::ensure_all_resident

use crate::slab::SortedRunStore;
use crate::traits::{fit_u32, NodeId};

/// Configuration of the residency layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyConfig {
    /// Evict a row once its account has gone more than this many completed
    /// epochs without a write. Must be ≥ 1 (an account's row always
    /// survives the epoch it transacted in plus `window` full epochs).
    pub window: u32,
}

impl ResidencyConfig {
    /// Residency with the given eviction window; evicted rows spill to an
    /// in-memory log.
    pub fn in_memory(window: u32) -> Self {
        Self { window }
    }
}

/// The top bit of a slot: set while the row is evicted.
const COLD: u32 = 1 << 31;

/// `value` as a slot payload, which must stay below [`COLD`].
fn slot_payload(value: usize, what: &str) -> u32 {
    assert!(
        value < COLD as usize,
        "{what} reached 2^31, the limit of a residency slot"
    );
    fit_u32(value)
}

/// The first `N` bytes of `bytes`, as an array for `from_le_bytes`.
fn word<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&bytes[..N]);
    out
}

/// Per-graph residency state (owned by `TxGraph` when enabled).
#[derive(Debug, Clone)]
pub(crate) struct Residency {
    window: u32,
    /// Completed epochs since residency was enabled.
    epoch: u32,
    /// One slot per node: the epoch of the row's last write while it is
    /// resident, `COLD | offset / 4` while it is evicted.
    slots: Vec<u32>,
    /// Every decay factor applied since enable, in order — the replay
    /// tape for cold rows (8 bytes per decay epoch).
    scale_log: Vec<f64>,
    /// The append-only spill log. A record is an 8-byte header (`len: u32`
    /// entry count, `scale_mark: u32` decay-tape position at eviction)
    /// followed by `len × 4` id bytes and `len × 8` weight bytes, all
    /// little-endian. Re-evicting a row appends a fresh record; the one it
    /// supersedes stays as dead log space (the log grows with eviction
    /// *traffic*, not with live state).
    spill: Vec<u8>,
    cold_rows: usize,
    evicted_total: u64,
    restored_total: u64,
    // Row scratch, reused across evictions and rehydrations.
    ids_scratch: Vec<NodeId>,
    ws_scratch: Vec<f64>,
}

impl Residency {
    pub(crate) fn new(config: &ResidencyConfig, nodes: usize) -> Self {
        assert!(config.window >= 1, "eviction window must be ≥ 1 epoch");
        Self {
            window: config.window,
            epoch: 0,
            slots: vec![0; nodes],
            scale_log: Vec::new(),
            spill: Vec::new(),
            cold_rows: 0,
            evicted_total: 0,
            restored_total: 0,
            ids_scratch: Vec::new(),
            ws_scratch: Vec::new(),
        }
    }

    /// Registers a brand-new node (resident, touched now).
    pub(crate) fn push_node(&mut self) {
        self.slots.push(self.epoch);
    }

    /// Stamps a write touch on `v`'s row, which must be resident.
    #[inline]
    pub(crate) fn touch(&mut self, v: NodeId) {
        debug_assert!(!self.is_cold(v), "rehydrate before stamping a write");
        self.slots[v as usize] = self.epoch;
    }

    #[inline]
    pub(crate) fn is_cold(&self, v: NodeId) -> bool {
        self.slots[v as usize] & COLD != 0
    }

    pub(crate) fn cold_rows(&self) -> usize {
        self.cold_rows
    }

    pub(crate) fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    pub(crate) fn restored_total(&self) -> u64 {
        self.restored_total
    }

    pub(crate) fn spill_bytes(&self) -> u64 {
        self.spill.len() as u64
    }

    pub(crate) fn spill_capacity(&self) -> usize {
        self.spill.capacity()
    }

    /// Records a decay factor every cold row still owes.
    pub(crate) fn on_scale(&mut self, factor: f64) {
        self.scale_log.push(factor);
    }

    /// Brings `v`'s row back into the slab, bitwise-transparently, and
    /// resets its slot to 0 (a caller that writes the row stamps it
    /// afterwards). No-op when already resident.
    pub(crate) fn rehydrate(&mut self, adjacency: &mut SortedRunStore, v: NodeId) {
        let slot = self.slots[v as usize];
        if slot & COLD == 0 {
            return;
        }
        let record = &self.spill[(slot & !COLD) as usize * 4..];
        let n = u32::from_le_bytes(word(record)) as usize;
        let scale_mark = u32::from_le_bytes(word(&record[4..])) as usize;
        let (ids, ws) = record[8..8 + n * 12].split_at(n * 4);
        self.ids_scratch.clear();
        self.ids_scratch
            .extend(ids.chunks_exact(4).map(|c| NodeId::from_le_bytes(word(c))));
        self.ws_scratch.clear();
        self.ws_scratch
            .extend(ws.chunks_exact(8).map(|c| f64::from_le_bytes(word(c))));
        // Replay the decay factors the row missed while cold — stepwise,
        // in application order, matching the in-place multiplies its
        // resident twin received (a combined product would not be
        // bit-identical).
        for &f in &self.scale_log[scale_mark..] {
            for w in &mut self.ws_scratch {
                *w *= f;
            }
        }
        adjacency.restore_row(v as usize, &self.ids_scratch, &self.ws_scratch);
        self.slots[v as usize] = 0;
        self.cold_rows -= 1;
        self.restored_total += 1;
    }

    /// Marks an epoch boundary: evicts every resident, non-empty row whose
    /// account has gone more than `window` completed epochs without a
    /// write. Returns the number of rows evicted.
    pub(crate) fn advance_epoch(&mut self, adjacency: &mut SortedRunStore) -> usize {
        self.epoch = slot_payload(self.epoch as usize + 1, "the residency epoch");
        let mut evicted = 0;
        for v in 0..self.slots.len() {
            let slot = self.slots[v];
            if slot & COLD != 0 || self.epoch - slot <= self.window || adjacency.row_len(v) == 0 {
                continue;
            }
            self.slots[v] = COLD | slot_payload(self.spill.len() / 4, "the spill offset / 4");
            self.ids_scratch.clear();
            self.ws_scratch.clear();
            let n = adjacency.evict_row(v, &mut self.ids_scratch, &mut self.ws_scratch);
            let record = 8 + n * 12;
            if self.spill.len() + record > self.spill.capacity() {
                // Grow by a quarter, not `Vec`'s doubling: the log's
                // capacity counts as resident, so it stays within 25% of
                // the bytes written.
                self.spill.reserve_exact(record.max(self.spill.len() / 4));
            }
            self.spill.extend_from_slice(&fit_u32(n).to_le_bytes());
            self.spill
                .extend_from_slice(&fit_u32(self.scale_log.len()).to_le_bytes());
            for id in &self.ids_scratch {
                self.spill.extend_from_slice(&id.to_le_bytes());
            }
            for w in &self.ws_scratch {
                self.spill.extend_from_slice(&w.to_le_bytes());
            }
            evicted += 1;
        }
        self.cold_rows += evicted;
        self.evicted_total += evicted as u64;
        evicted
    }

    pub(crate) fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of the residency index itself (slots, the decay tape and
    /// scratch) — reported so the accounting surface can't hide its own
    /// overhead.
    pub(crate) fn index_bytes(&self) -> usize {
        self.slots.capacity() * 4
            + self.scale_log.capacity() * 8
            + self.ids_scratch.capacity() * 4
            + self.ws_scratch.capacity() * 8
    }
}

/// A point-in-time memory accounting of a [`TxGraph`](crate::TxGraph) —
/// the surface every BENCH snapshot reports, and what the streaming-replay
/// smoke test asserts its resident-bytes ceiling against.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryFootprint {
    /// Allocated slab arena bytes (entry storage + row metadata +
    /// fingerprints + merge scratch, by vector capacity).
    pub slab_arena_bytes: usize,
    /// Live `(id, weight)` entries across resident rows.
    pub slab_live_entries: usize,
    /// Per-node scalar vectors (self-loops, incident weights).
    pub node_scalar_bytes: usize,
    /// Account interner (id vector + hash map estimate).
    pub interner_bytes: usize,
    /// Residency bookkeeping (one slot per account, decay tape, scratch),
    /// zero when residency is disabled.
    pub residency_index_bytes: usize,
    /// Bytes written to the spill log.
    pub spill_bytes: u64,
    /// Allocated spill log bytes (by vector capacity).
    pub spill_capacity_bytes: usize,
    /// Rows currently resident in the slab.
    pub resident_rows: usize,
    /// Rows currently evicted to the spill.
    pub cold_rows: usize,
    /// Cumulative rows evicted since residency was enabled.
    pub evicted_rows: u64,
    /// Cumulative rows rehydrated since residency was enabled.
    pub restored_rows: u64,
}

impl MemoryFootprint {
    /// Live slab entry bytes — the `O(active set)` quantity the eviction
    /// layer bounds (12 bytes per entry: u32 id + f64 weight).
    pub fn slab_live_bytes(&self) -> usize {
        self.slab_live_entries * 12
    }

    /// Total resident bytes of the graph: slab arena, scalars, interner,
    /// residency index and spill log, each by allocated capacity.
    pub fn resident_bytes(&self) -> usize {
        self.slab_arena_bytes
            + self.node_scalar_bytes
            + self.interner_bytes
            + self.residency_index_bytes
            + self.spill_capacity_bytes
    }
}
