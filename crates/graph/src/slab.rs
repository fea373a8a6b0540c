//! The sorted-run slab store behind [`TxGraph`](crate::TxGraph)'s mutable
//! adjacency.
//!
//! ## Why not a hash map per node
//!
//! The mutable graph used to keep one `FxHashMap<NodeId, f64>` per node.
//! That makes ingestion `O(1)` per repeated pair, but every structure the
//! sweep kernels actually run on — [`CsrGraph`](crate::CsrGraph) and
//! [`DeltaCsr`](crate::DeltaCsr) — wants rows as *ascending-id sorted
//! runs*, so each epoch paid a hash-table iteration plus a per-row sort to
//! re-derive what the adjacency could have maintained all along.
//!
//! ## The layout
//!
//! One shared arena of `(NodeId, f64)` entries (two parallel vectors), with
//! per-node rows carved out of it:
//!
//! ```text
//! ids:  [.. row 3 ..|.. row 0 ..|   dead   |.. row 7 ..| .. ]
//! ws:   [ parallel to ids                                   ]
//! row:  start ──┬─ run (sorted) ─┬─ tail (sorted) ─┬─ slack ─┐
//!               └────────────── cap ───────────────────────┘
//! ```
//!
//! Each row is **two ascending-id sorted runs**: a main run and a small
//! tail. Inserting a brand-new neighbor goes into the tail (a short
//! memmove); once the tail exceeds a bounded fraction of the run
//! (`max(8, run/8)`), the two runs are merged in one linear pass — the
//! classic amortized-merge scheme, `O(1)` amortized per accumulated edge,
//! same ingestion complexity as the hash map. Repeated pairs — the common
//! case for transaction traffic — resolve by binary search and accumulate
//! in place, in chronological order, so per-edge weights are bit-identical
//! to what the hash adjacency accumulated. Membership is decided by those
//! searches alone, with no per-row filter in front of them: a membership
//! byte per row did not pay for itself on the million-account replay's
//! ingest.
//!
//! A row that outgrows its capacity is relocated to the end of the arena
//! with doubled capacity; the abandoned range is dead space, reclaimed by
//! an occasional linear compaction once it exceeds half the arena.
//!
//! ## The invariant the rest of the workspace builds on
//!
//! Iterating a row ([`SortedRunStore::for_each`]) merges the two runs on
//! the fly, so **neighbors always come out in ascending id order** — the
//! mutable graph is CSR-shaped by construction. `DeltaCsr` row assembly and
//! the identity `CsrGraph` snapshot become straight run copies/merges with
//! no sort at all, and every order-dependent float accumulation over the
//! mutable adjacency (community aggregates, incident re-derivation) sees
//! the same ascending order the frozen forms use.

use crate::traits::{fit_u32, NodeId};

/// Tail budget of a row: merges trigger once the tail outgrows this.
#[inline]
fn tail_limit(run_len: usize) -> usize {
    8usize.max(run_len >> 3)
}

/// Arena length (in entries) past which growth switches from amortized
/// doubling to bounded 25% headroom — 2 Mi entries ≈ 24 MB of arena, the
/// point where a doubling spike starts to matter against the
/// peak-resident accounting and the extra realloc copies stop mattering
/// against ingest throughput.
const ARENA_BOUNDED_GROWTH_MIN: usize = 1 << 21;

/// Branch-free lower bound: the first index of `ids` whose value is `>= id`
/// (equivalently `slice::binary_search`'s `Ok(i)` when present and `Err(i)`
/// when absent — the slice never holds duplicates).
///
/// The half-splitting probe advances `base` by an arithmetic select instead
/// of a taken/not-taken branch, so the row lookups on the ingest hot path
/// pay no branch mispredictions (the probe outcome is a coin flip the
/// predictor can't learn). Identical index results as the stdlib search by
/// construction — weight placement, and therefore every accumulated float,
/// is untouched.
#[inline]
fn lower_bound(ids: &[NodeId], id: NodeId) -> usize {
    if ids.is_empty() {
        return 0;
    }
    let mut base = 0usize;
    let mut size = ids.len();
    while size > 1 {
        let half = size / 2;
        base += usize::from(ids[base + half - 1] < id) * half;
        size -= half;
    }
    base + usize::from(ids[base] < id)
}

/// Per-row metadata: the row occupies arena slots
/// `start..start + cap`, with `len` live entries of which the first `run`
/// form the main sorted run and the rest the sorted tail.
#[derive(Debug, Clone, Copy, Default)]
struct RowMeta {
    start: u32,
    cap: u32,
    len: u32,
    run: u32,
}

/// The shared sorted-run arena (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct SortedRunStore {
    ids: Vec<NodeId>,
    ws: Vec<f64>,
    rows: Vec<RowMeta>,
    /// Abandoned entries from row relocations (compaction trigger).
    dead: usize,
    /// Merge scratch: the tail is copied here before the backward merge.
    scratch_ids: Vec<NodeId>,
    scratch_ws: Vec<f64>,
}

impl SortedRunStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends an empty row (capacity is allocated lazily on first insert).
    pub fn push_row(&mut self) {
        self.rows.push(RowMeta::default());
    }

    /// Grows the entry arena for `extra` more slots. Small arenas keep
    /// `Vec`'s amortized doubling (a realloc's copy work is trivial
    /// there, and doubling minimizes realloc count on the from-scratch
    /// ingest path); past [`ARENA_BOUNDED_GROWTH_MIN`] entries the
    /// overshoot is bounded to 25% headroom past the current length —
    /// the arena is the largest allocation in the process, and the
    /// doubling policy's transient capacity spikes (old length × 2 at
    /// the reallocation moment) dominated the peak-resident accounting
    /// of million-account replays. Amortization stays linear — each
    /// bounded reallocation still buys `len / 4` appends. Entry values
    /// never depend on capacity, so this is footprint-only.
    fn reserve_arena(&mut self, extra: usize) {
        let len = self.ids.len();
        if len + extra > self.ids.capacity() {
            let grow = if len < ARENA_BOUNDED_GROWTH_MIN {
                extra.max(len)
            } else {
                extra.max(len / 4)
            };
            self.ids.reserve_exact(grow);
            self.ws.reserve_exact(grow);
        }
    }

    /// Appends a row pre-filled from an ascending-id sorted `(ids, ws)`
    /// pair — the checkpoint-restore path. The row lands fully merged
    /// (`run == len == cap`), which is exactly the state
    /// [`SortedRunStore::for_each`] and the snapshot copies treat as the
    /// fast path, so a restored store behaves identically to one whose
    /// tail merges all happened to have just fired.
    pub fn push_row_from_sorted(&mut self, ids: &[NodeId], ws: &[f64]) {
        assert_eq!(ids.len(), ws.len(), "parallel row arrays");
        debug_assert!(
            ids.windows(2).all(|p| p[0] < p[1]),
            "restored rows must be strictly ascending"
        );
        let start = self.ids.len();
        let len = ids.len();
        assert!(
            start + len <= u32::MAX as usize,
            "adjacency arena exceeds u32 addressing"
        );
        self.reserve_arena(len);
        self.ids.extend_from_slice(ids);
        self.ws.extend_from_slice(ws);
        let len = fit_u32(len);
        self.rows.push(RowMeta {
            start: start as u32,
            cap: len,
            len,
            run: len,
        });
    }

    /// Number of live entries in row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        self.rows[r].len as usize
    }

    /// The row's two sorted runs as `(run_ids, run_ws, tail_ids, tail_ws)`.
    /// Both are ascending by id; their id sets are disjoint.
    #[inline]
    pub fn row_parts(&self, r: usize) -> (&[NodeId], &[f64], &[NodeId], &[f64]) {
        let m = self.rows[r];
        let (s, run, len) = (m.start as usize, m.run as usize, m.len as usize);
        (
            &self.ids[s..s + run],
            &self.ws[s..s + run],
            &self.ids[s + run..s + len],
            &self.ws[s + run..s + len],
        )
    }

    /// Calls `f(id, w)` for every entry of row `r` in ascending id order
    /// (merging the two runs on the fly; a merged row iterates a plain
    /// slice).
    #[inline]
    pub fn for_each(&self, r: usize, mut f: impl FnMut(NodeId, f64)) {
        let (run_ids, run_ws, tail_ids, tail_ws) = self.row_parts(r);
        if tail_ids.is_empty() {
            for (&u, &w) in run_ids.iter().zip(run_ws) {
                f(u, w);
            }
            return;
        }
        let (mut i, mut j) = (0usize, 0usize);
        while i < run_ids.len() && j < tail_ids.len() {
            if run_ids[i] < tail_ids[j] {
                f(run_ids[i], run_ws[i]);
                i += 1;
            } else {
                f(tail_ids[j], tail_ws[j]);
                j += 1;
            }
        }
        for (&u, &w) in run_ids[i..].iter().zip(&run_ws[i..]) {
            f(u, w);
        }
        for (&u, &w) in tail_ids[j..].iter().zip(&tail_ws[j..]) {
            f(u, w);
        }
    }

    /// Appends row `r` merged (ascending ids) to `out_ids`/`out_ws`,
    /// returning the sum of the appended weights folded in that same
    /// ascending order — the straight run copy/merge the snapshot builders
    /// use in place of gather-and-sort.
    pub fn copy_row_into(&self, r: usize, out_ids: &mut Vec<NodeId>, out_ws: &mut Vec<f64>) -> f64 {
        let mut sum = 0.0f64;
        let (run_ids, run_ws, tail_ids, _) = self.row_parts(r);
        if tail_ids.is_empty() {
            out_ids.extend_from_slice(run_ids);
            out_ws.extend_from_slice(run_ws);
            for &w in run_ws {
                sum += w;
            }
            return sum;
        }
        self.for_each(r, |u, w| {
            out_ids.push(u);
            out_ws.push(w);
            sum += w;
        });
        sum
    }

    /// Position of `id` in row `r` as an arena index, if present.
    #[inline]
    fn find(&self, r: usize, id: NodeId) -> Option<usize> {
        let m = self.rows[r];
        let (s, run, len) = (m.start as usize, m.run as usize, m.len as usize);
        let i = lower_bound(&self.ids[s..s + run], id);
        if i < run && self.ids[s + i] == id {
            return Some(s + i);
        }
        let j = lower_bound(&self.ids[s + run..s + len], id);
        if run + j < len && self.ids[s + run + j] == id {
            Some(s + run + j)
        } else {
            None
        }
    }

    /// The weight stored for `id` in row `r`, if present.
    #[inline]
    pub fn get(&self, r: usize, id: NodeId) -> Option<f64> {
        self.find(r, id).map(|i| self.ws[i])
    }

    /// Adds `w` to the entry `(r, id)`, creating it if absent. Returns
    /// `true` when a new entry was created (a brand-new neighbor).
    ///
    /// Repeated ids accumulate in place, in call order — chronological
    /// per-pair accumulation, the same float trajectory a hash-map entry
    /// would produce.
    pub fn add(&mut self, r: usize, id: NodeId, w: f64) -> bool {
        // Fast paths for the hottest ingest cases: the row's last live
        // entry is the pair itself (immediately repeated traffic), or the
        // pair sits in the main run (where merges put it). One probe + one
        // binary search before the tail search.
        let m = self.rows[r];
        let (s, run, len) = (m.start as usize, m.run as usize, m.len as usize);
        if len > 0 && self.ids[s + len - 1] == id {
            self.ws[s + len - 1] += w;
            return false;
        }
        let i = lower_bound(&self.ids[s..s + run], id);
        if i < run && self.ids[s + i] == id {
            self.ws[s + i] += w;
            return false;
        }
        let j = lower_bound(&self.ids[s + run..s + len], id);
        if run + j < len && self.ids[s + run + j] == id {
            self.ws[s + run + j] += w;
            return false;
        }
        if m.len == m.cap {
            self.grow_row(r);
        }
        // Insert into the sorted tail (short memmove — the tail is small by
        // the merge policy). The id is absent, so the tail's lower bound
        // `j` is its insertion slot; a relocation moves the row's start,
        // not its layout.
        let s = self.rows[r].start as usize;
        let pos = s + run + j;
        self.ids.copy_within(pos..s + len, pos + 1);
        self.ws.copy_within(pos..s + len, pos + 1);
        self.ids[pos] = id;
        self.ws[pos] = w;
        self.rows[r].len += 1;
        let tail_len = len + 1 - run;
        if tail_len > tail_limit(run) {
            self.merge_row(r);
        }
        true
    }

    /// Multiplies every stored weight by `factor`.
    ///
    /// Runs over the whole arena — dead ranges included, which is harmless
    /// (they are never read) and keeps the pass one branch-free linear
    /// sweep.
    pub fn scale_all(&mut self, factor: f64) {
        for w in &mut self.ws {
            *w *= factor;
        }
    }

    /// Merges row `r`'s tail into its main run (one backward pass; the
    /// tail is staged in the store-level scratch so the merge is a plain
    /// two-array merge into the row's own storage).
    fn merge_row(&mut self, r: usize) {
        let m = self.rows[r];
        let (s, run, len) = (m.start as usize, m.run as usize, m.len as usize);
        let tail = len - run;
        if tail == 0 {
            return;
        }
        self.scratch_ids.clear();
        self.scratch_ws.clear();
        self.scratch_ids
            .extend_from_slice(&self.ids[s + run..s + len]);
        self.scratch_ws
            .extend_from_slice(&self.ws[s + run..s + len]);
        let (mut i, mut j) = (run as isize - 1, tail as isize - 1);
        let mut dst = len - 1;
        while j >= 0 {
            if i >= 0 && self.ids[s + i as usize] > self.scratch_ids[j as usize] {
                self.ids[s + dst] = self.ids[s + i as usize];
                self.ws[s + dst] = self.ws[s + i as usize];
                i -= 1;
            } else {
                self.ids[s + dst] = self.scratch_ids[j as usize];
                self.ws[s + dst] = self.scratch_ws[j as usize];
                j -= 1;
            }
            dst = dst.wrapping_sub(1);
        }
        self.rows[r].run = fit_u32(len);
    }

    /// Relocates row `r` to the end of the arena with doubled capacity.
    fn grow_row(&mut self, r: usize) {
        let m = self.rows[r];
        let (s, cap, len) = (m.start as usize, m.cap as usize, m.len as usize);
        let new_cap = (cap * 2).max(4);
        let new_start = self.ids.len();
        assert!(
            new_start + new_cap <= u32::MAX as usize,
            "adjacency arena exceeds u32 addressing"
        );
        self.reserve_arena(new_cap);
        self.ids.extend_from_within(s..s + len);
        self.ws.extend_from_within(s..s + len);
        self.ids.resize(new_start + new_cap, 0);
        self.ws.resize(new_start + new_cap, 0.0);
        self.dead += cap;
        self.rows[r].start = new_start as u32;
        self.rows[r].cap = new_cap as u32;
        if self.dead > self.ids.len() / 2 && self.ids.len() > 4096 {
            self.compact();
        }
    }

    /// Rebuilds the arena without dead space (row order by row id; per-row
    /// capacities are preserved, so growth behaviour is unchanged).
    fn compact(&mut self) {
        let live_cap: usize = self.rows.iter().map(|m| m.cap as usize).sum();
        let mut ids = Vec::with_capacity(live_cap);
        let mut ws = Vec::with_capacity(live_cap);
        for m in &mut self.rows {
            let (s, cap, len) = (m.start as usize, m.cap as usize, m.len as usize);
            m.start = fit_u32(ids.len());
            ids.extend_from_slice(&self.ids[s..s + len]);
            ws.extend_from_slice(&self.ws[s..s + len]);
            ids.resize(m.start as usize + cap, 0);
            ws.resize(m.start as usize + cap, 0.0);
        }
        self.ids = ids;
        self.ws = ws;
        self.dead = 0;
    }

    /// Arena bytes currently allocated (entry storage plus per-row
    /// metadata), by vector capacity — what the process actually holds.
    pub fn arena_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.ws.capacity() * std::mem::size_of::<f64>()
            + self.rows.capacity() * std::mem::size_of::<RowMeta>()
            + self.scratch_ids.capacity() * std::mem::size_of::<NodeId>()
            + self.scratch_ws.capacity() * std::mem::size_of::<f64>()
    }

    /// Live entries across all rows (12 bytes each: id + weight).
    pub fn live_entries(&self) -> usize {
        self.rows.iter().map(|m| m.len as usize).sum()
    }

    /// Debug check: every row's runs are strictly ascending and disjoint.
    #[cfg(test)]
    fn assert_sorted(&self) {
        for r in 0..self.rows.len() {
            let (run_ids, _, tail_ids, _) = self.row_parts(r);
            assert!(run_ids.windows(2).all(|p| p[0] < p[1]), "run of row {r}");
            assert!(tail_ids.windows(2).all(|p| p[0] < p[1]), "tail of row {r}");
            for t in tail_ids {
                assert!(run_ids.binary_search(t).is_err(), "dup across runs");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Deterministic pseudo-random stream driver.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x
    }

    #[test]
    fn accumulates_like_a_map_bitwise() {
        let mut store = SortedRunStore::new();
        store.push_row();
        let mut reference: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut x = 7u64;
        for step in 0..5_000 {
            let id = (lcg(&mut x) % 300) as NodeId;
            let w = 0.1 + (lcg(&mut x) % 97) as f64 / 13.0;
            let fresh = store.add(0, id, w);
            assert_eq!(fresh, !reference.contains_key(&id), "freshness at {step}");
            *reference.entry(id).or_insert(0.0) += w;
            if step % 617 == 0 {
                store.assert_sorted();
            }
        }
        store.assert_sorted();
        assert_eq!(store.row_len(0), reference.len());
        // Iteration is ascending and weights are bit-identical to the
        // chronological per-key accumulation the map performed.
        let mut seen: Vec<(NodeId, u64)> = Vec::new();
        store.for_each(0, |u, w| seen.push((u, w.to_bits())));
        let expect: Vec<(NodeId, u64)> =
            reference.iter().map(|(&u, &w)| (u, w.to_bits())).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn add_reports_new_entries_exactly_once() {
        let mut store = SortedRunStore::new();
        store.push_row();
        assert!(store.add(0, 5, 1.0));
        assert!(!store.add(0, 5, 1.0));
        assert!(store.add(0, 3, 1.0));
        assert!(store.add(0, 9, 1.0));
        assert!(!store.add(0, 3, 0.5));
        assert_eq!(store.row_len(0), 3);
        assert_eq!(store.get(0, 3), Some(1.5));
        assert_eq!(store.get(0, 7), None);
    }

    #[test]
    fn many_rows_with_relocation_and_compaction() {
        let mut store = SortedRunStore::new();
        let rows = 50usize;
        for _ in 0..rows {
            store.push_row();
        }
        let mut x = 99u64;
        let mut reference: Vec<BTreeMap<NodeId, f64>> = vec![BTreeMap::new(); rows];
        for _ in 0..30_000 {
            let r = (lcg(&mut x) as usize) % rows;
            let id = (lcg(&mut x) % 2_000) as NodeId;
            let w = 1.0 + (lcg(&mut x) % 5) as f64;
            store.add(r, id, w);
            *reference[r].entry(id).or_insert(0.0) += w;
        }
        store.assert_sorted();
        for (r, map) in reference.iter().enumerate() {
            assert_eq!(store.row_len(r), map.len(), "row {r} length");
            let mut seen = Vec::new();
            store.for_each(r, |u, w| seen.push((u, w.to_bits())));
            let expect: Vec<(NodeId, u64)> = map.iter().map(|(&u, &w)| (u, w.to_bits())).collect();
            assert_eq!(seen, expect, "row {r} contents");
        }
    }

    #[test]
    fn copy_row_into_matches_iteration() {
        let mut store = SortedRunStore::new();
        store.push_row();
        for id in [40u32, 10, 30, 20, 50, 5, 45] {
            store.add(0, id, 1.0 / (id as f64 + 1.0));
        }
        let (mut ids, mut ws) = (Vec::new(), Vec::new());
        let sum = store.copy_row_into(0, &mut ids, &mut ws);
        let mut it_ids = Vec::new();
        let mut it_sum = 0.0;
        store.for_each(0, |u, w| {
            it_ids.push(u);
            it_sum += w;
        });
        assert_eq!(ids, it_ids);
        assert_eq!(sum.to_bits(), it_sum.to_bits());
        assert!(ids.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn restored_rows_behave_like_grown_ones() {
        // Round-trip: a row rebuilt from its merged copy must iterate
        // bit-identically and keep accepting inserts afterwards.
        let mut store = SortedRunStore::new();
        store.push_row();
        for id in [40u32, 10, 30, 20, 50, 5, 45] {
            store.add(0, id, 1.0 / (id as f64 + 1.0));
        }
        let (mut ids, mut ws) = (Vec::new(), Vec::new());
        store.copy_row_into(0, &mut ids, &mut ws);

        let mut restored = SortedRunStore::new();
        restored.push_row_from_sorted(&ids, &ws);
        restored.assert_sorted();
        let collect = |s: &SortedRunStore| {
            let mut out = Vec::new();
            s.for_each(0, |u, w| out.push((u, w.to_bits())));
            out
        };
        assert_eq!(collect(&store), collect(&restored));

        // Both continue to accumulate identically (restored row is at
        // capacity, so the next brand-new neighbor exercises grow_row).
        store.add(0, 25, 2.5);
        restored.add(0, 25, 2.5);
        store.add(0, 10, 0.5);
        restored.add(0, 10, 0.5);
        assert_eq!(collect(&store), collect(&restored));
    }

    #[test]
    fn adds_and_gets_match_a_map_bitwise() {
        // Adds with heavy id reuse against a reference map: same freshness
        // verdicts, same bit-exact weights, same ascending iteration, same
        // lookups.
        let mut store = SortedRunStore::new();
        store.push_row();
        let mut reference: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut x = 31u64;
        for step in 0..8_000 {
            let id = (lcg(&mut x) % 2_048) as NodeId;
            let w = 0.25 + (lcg(&mut x) % 41) as f64 / 7.0;
            let fresh = store.add(0, id, w);
            assert_eq!(fresh, !reference.contains_key(&id), "freshness at {step}");
            *reference.entry(id).or_insert(0.0) += w;
            if step % 911 == 0 {
                store.assert_sorted();
            }
        }
        store.assert_sorted();
        let mut seen: Vec<(NodeId, u64)> = Vec::new();
        store.for_each(0, |u, w| seen.push((u, w.to_bits())));
        let expect: Vec<(NodeId, u64)> =
            reference.iter().map(|(&u, &w)| (u, w.to_bits())).collect();
        assert_eq!(seen, expect);
        for id in 0..2_048u32 {
            assert_eq!(store.get(0, id), reference.get(&id).copied(), "get {id}");
        }
        assert_eq!(store.get(0, 10_000), None, "never-seen id");
    }

    #[test]
    fn lower_bound_matches_stdlib_binary_search() {
        // The branch-free search must land on the exact same indices as
        // `slice::binary_search` (Ok and Err alike) on arbitrary sorted
        // duplicate-free arrays — the pin that keeps weight placement, and
        // therefore every accumulated float, bitwise unchanged.
        let mut x = 1234u64;
        for trial in 0..200 {
            let n = (lcg(&mut x) % 40) as usize;
            let mut ids: Vec<NodeId> = (0..n).map(|_| (lcg(&mut x) % 97) as NodeId).collect();
            ids.sort_unstable();
            ids.dedup();
            for probe in 0..100u32 {
                let expect = match ids.binary_search(&probe) {
                    Ok(i) | Err(i) => i,
                };
                assert_eq!(
                    lower_bound(&ids, probe),
                    expect,
                    "trial {trial}, probe {probe}, ids {ids:?}"
                );
            }
        }
        assert_eq!(lower_bound(&[], 5), 0);
    }

    #[test]
    fn footprint_accessors_track_the_arena() {
        let mut store = SortedRunStore::new();
        store.push_row();
        assert_eq!(store.live_entries(), 0);
        for id in 0..100u32 {
            store.add(0, id, 1.0);
        }
        assert_eq!(store.live_entries(), 100);
        assert!(store.arena_bytes() >= 100 * 12);
        store.push_row_from_sorted(&[0, 1], &[1.0, 2.0]);
        assert_eq!(store.live_entries(), 102);
    }

    #[test]
    fn scale_all_rescales_live_entries() {
        let mut store = SortedRunStore::new();
        store.push_row();
        store.push_row();
        store.add(0, 1, 2.0);
        store.add(1, 0, 4.0);
        store.scale_all(0.5);
        assert_eq!(store.get(0, 1), Some(1.0));
        assert_eq!(store.get(1, 0), Some(2.0));
    }
}
