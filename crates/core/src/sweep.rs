//! The one TxAllo sweep kernel: Algorithm 1's placement and optimization
//! phases (§V-B), which Algorithm 2 (§V-C) runs over the touched set `V̂`
//! instead of every node.
//!
//! [`txallo_sweep`] runs both phases over the rows of a [`SweepRows`] view:
//!
//! 1. **Placement** (Algorithm 1 lines 2–9, Algorithm 2 lines 1–8): every
//!    unassigned row joins the community with the best join gain (Eq. 6),
//!    ties toward the least-loaded community.
//! 2. **Optimization** (Algorithm 1 lines 10–19, Algorithm 2 lines 9–17):
//!    sweep the rows until a sweep gains less than `ε`, moving each node
//!    to its best-gain community (Eq. 8).
//!
//! Two views feed it: G-TxAllo's renumbered [`CsrGraph`] (the
//! `GTxAlloPlan` snapshot), its own sweep order (row `r` is node `r`); and
//! A-TxAllo's [`DeltaCsr`] snapshot of `V̂` in canonical order, whose
//! outside neighbors stay frozen.
//!
//! Phase 2 runs on the [`SweepCache`] that Louvain local moving and METIS
//! FM share, with rows as positions and communities as buckets. A row's
//! decision depends on (a) its per-community link weights, which change
//! only when a neighbor that is itself a row moves, and (b) the state of
//! the communities it touches (Lemma 1). So candidate lists are cached
//! until such a neighbor moves, a row whose candidates *and* touched
//! communities are unchanged since its last evaluation is skipped, and a
//! row that lists no rival community leaves the active set until a
//! neighbor moves. A long stale row is re-gathered only when
//! `CommunityState::certainly_stays` cannot prove, from its cached
//! candidates and the weight of its neighbors' moves since, that a
//! re-gather would leave it in place. All reuse is bit-exact: the
//! trajectory is that of re-gathering every row every sweep, which the
//! golden tests assert against cache-free references.

use txallo_graph::{
    fit_u32, CsrGraph, DeltaCsr, DenseAccumulator, NodeId, SweepCache, WeightedGraph,
};

use crate::atxallo::AtxAlloOutcome;
use crate::params::MAX_SWEEPS;
use crate::state::{CommunityState, UNASSIGNED};

/// The rows a sweep visits, in sweep order: row `r` is the `r`-th node
/// the sweep visits.
pub(crate) trait SweepRows {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Row `r`'s slot in the label vector (its node id).
    fn slot(&self, r: usize) -> usize;
    /// `(w_vv, d_v)` of row `r`: its self-loop and incident weight.
    fn weights(&self, r: usize) -> (f64, f64);
    /// Number of neighbors of row `r`.
    fn row_len(&self, r: usize) -> usize;
    /// Calls `f(label, weight)` for every neighbor of row `r`, ascending
    /// by neighbor id.
    fn for_each_link(&self, r: usize, labels: &[u32], f: impl FnMut(u32, f64));
    /// Calls `f(row, weight)` for every neighbor of row `r` that is itself
    /// a row: the neighbors whose cached links a move of `r` invalidates.
    fn for_each_row_neighbor(&self, r: usize, f: impl FnMut(usize, f64));
}

/// The blocked gather strip of the two slice views ([`DeltaCsr`] and the
/// plan's [`CsrGraph`]): labels for a strip of 8 targets are loaded into a
/// local array first, then `f(label, weight)` runs left to right over the
/// strip — the label loads are the gather's random accesses, and batching
/// them breaks the load→accumulate dependency chain so they overlap. The
/// callback sequence is position-for-position identical to the scalar
/// loop, hence bit-identical accumulation (callers branch on
/// [`UNASSIGNED`] inside `f`).
#[inline]
fn gather_labels_blocked(ids: &[NodeId], ws: &[f64], labels: &[u32], mut f: impl FnMut(u32, f64)) {
    const BLOCK: usize = 8;
    let mut cls = [0u32; BLOCK];
    let mut chunks_i = ids.chunks_exact(BLOCK);
    let mut chunks_w = ws.chunks_exact(BLOCK);
    for (ts, strip) in chunks_i.by_ref().zip(chunks_w.by_ref()) {
        for j in 0..BLOCK {
            cls[j] = labels[ts[j] as usize];
        }
        for j in 0..BLOCK {
            f(cls[j], strip[j]);
        }
    }
    for (&u, &w) in chunks_i.remainder().iter().zip(chunks_w.remainder()) {
        f(labels[u as usize], w);
    }
}

/// A snapshot of `V̂`: its rows in canonical order, neighbors outside it
/// frozen. The `local_of` lookup is paid per committed move, not per edge
/// of the snapshot build.
impl SweepRows for DeltaCsr {
    fn rows(&self) -> usize {
        self.len()
    }

    fn slot(&self, r: usize) -> usize {
        self.global_id(r) as usize
    }

    fn weights(&self, r: usize) -> (f64, f64) {
        (self.self_loop(r), self.incident_weight(r))
    }

    fn row_len(&self, r: usize) -> usize {
        self.row(r).0.len()
    }

    fn for_each_link(&self, r: usize, labels: &[u32], f: impl FnMut(u32, f64)) {
        let (targets, weights) = self.row(r);
        gather_labels_blocked(targets, weights, labels, f);
    }

    fn for_each_row_neighbor(&self, r: usize, mut f: impl FnMut(usize, f64)) {
        let (targets, weights) = self.row(r);
        for (&u, &w) in targets.iter().zip(weights) {
            if let Some(local) = self.local_of(u) {
                f(local as usize, w);
            }
        }
    }
}

/// A graph renumbered into its sweep order, so row `r` is node `r`
/// (`GTxAlloPlan`'s snapshot): no order or position lookups on a visit.
impl SweepRows for CsrGraph {
    fn rows(&self) -> usize {
        self.node_count()
    }

    fn slot(&self, r: usize) -> usize {
        r
    }

    fn weights(&self, r: usize) -> (f64, f64) {
        let v = fit_u32(r);
        (self.self_loop(v), self.incident_weight(v))
    }

    fn row_len(&self, r: usize) -> usize {
        self.neighbor_count(fit_u32(r))
    }

    fn for_each_link(&self, r: usize, labels: &[u32], f: impl FnMut(u32, f64)) {
        let v = fit_u32(r);
        gather_labels_blocked(self.neighbor_ids(v), self.neighbor_weights(v), labels, f);
    }

    fn for_each_row_neighbor(&self, r: usize, mut f: impl FnMut(usize, f64)) {
        self.for_each_neighbor(fit_u32(r), |u, w| f(u as usize, w));
    }
}

/// Reusable buffers of the sweep: the dense gather accumulator and the
/// sweep cache. A serving session carries one across epochs, so once
/// capacities have warmed up an epoch allocates nothing here;
/// [`SweepCache::reset`] makes a warm cache observationally identical to
/// a fresh one.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepScratch {
    acc: DenseAccumulator,
    cache: SweepCache,
}

impl SweepScratch {
    /// Approximate resident bytes across every retained buffer
    /// (capacity-based).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.acc.approx_bytes() + self.cache.approx_bytes()
    }
}

/// Gathers row `r`'s per-community link weights into `acc`, sorted
/// ascending on return, with weights toward [`UNASSIGNED`] neighbors kept
/// out of the candidate set.
#[inline]
fn gather(rows: &impl SweepRows, r: usize, labels: &[u32], k: usize, acc: &mut DenseAccumulator) {
    acc.begin(k);
    rows.for_each_link(r, labels, |c, w| {
        if c != UNASSIGNED {
            acc.add(c, w);
        }
    });
    acc.sort_touched();
}

/// Runs both phases over `rows`, committing moves into `labels` (indexed
/// by [`SweepRows::slot`]) and `state`. `epsilon` and [`MAX_SWEEPS`]
/// bound the phase-2 loop.
pub(crate) fn txallo_sweep(
    rows: &impl SweepRows,
    labels: &mut [u32],
    state: &mut CommunityState,
    epsilon: f64,
    scratch: &mut SweepScratch,
) -> AtxAlloOutcome {
    let k = state.community_count();
    let SweepScratch { acc, cache } = scratch;
    let mut out = AtxAlloOutcome::default();

    // ---- Phase 1: place the unassigned rows.
    for r in 0..rows.rows() {
        let v = rows.slot(r);
        if labels[v] != UNASSIGNED {
            continue;
        }
        out.new_nodes += 1;
        gather(rows, r, labels, k, acc);
        let (self_w, d_v) = rows.weights(r);
        // C_v = ∅ considers every community.
        let q = state.best_join(self_w, d_v, acc.entries());
        state.apply_join(q, self_w, d_v, acc.get(q));
        labels[v] = q;
        out.moves += 1;
    }

    // ---- Phase 2: optimize on the sweep cache.
    cache.reset(k, (0..rows.rows()).map(|r| rows.row_len(r)));
    loop {
        let mut delta = 0.0;
        let mut next = 0;
        while let Some(r) = cache.next_active(next) {
            next = r + 1;
            let v = rows.slot(r);
            let p = labels[v];
            let (self_w, d_v) = rows.weights(r);
            if cache.is_stale(r) {
                let row_len = rows.row_len(r);
                if let Some(entries) = state.certified_skip(cache, r, p, self_w, d_v, row_len) {
                    out.entries_certified += entries;
                    continue; // A re-gather could not move v.
                }
                gather(rows, r, labels, k, acc);
                cache.store(r, acc.entries());
                out.rows_gathered += 1;
                out.entries_gathered += row_len;
            } else if cache.unchanged_since_eval(r, p) {
                continue; // Inputs unchanged: evaluation would no-op.
            }
            let Some(cand) = cache.evaluate(r, p) else {
                continue; // C_v = ∅ or v only touches its own community.
            };
            if let Some(mv) = state.best_move(p, self_w, d_v, cand.iter().copied()) {
                state.apply_move(&mv);
                labels[v] = mv.to;
                delta += mv.gain;
                out.total_gain += mv.gain;
                out.moves += 1;
                cache.commit_move(p, mv.to);
                rows.for_each_row_neighbor(r, |u, w| cache.invalidate(u, w));
            }
        }
        out.sweeps += 1;
        if delta < epsilon || out.sweeps >= MAX_SWEEPS {
            break;
        }
    }

    out
}
