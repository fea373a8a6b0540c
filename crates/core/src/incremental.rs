//! The shared epoch-update sweep kernel behind A-TxAllo (Algorithm 2).
//!
//! It runs the two phases of Algorithm 2 over the rows of the epoch's
//! [`DeltaCsr`] snapshot (the touched set `V̂` only):
//!
//! 1. **Placement** (lines 1–8): brand-new accounts join the community
//!    with the best join gain (Eq. 6), ties toward the least-loaded
//!    community.
//! 2. **Optimization** (lines 9–17): sweep `V̂` until the total gain of a
//!    sweep drops below `ε`, moving each node to its best-gain community
//!    (Eq. 8).
//!
//! Phase 2 runs on the same [`SweepCache`] as the other three sweep
//! kernels (Louvain local moving, the G-TxAllo optimizer, METIS FM), with
//! snapshot rows as positions and communities as buckets. A node's
//! decision depends on (a) its per-community link weights — which change
//! only when a *snapshot neighbor* moves, external neighbors being frozen
//! for the epoch — and (b) the accounting state of the communities it
//! touches (Lemma 1). Candidate lists are cached until a snapshot
//! neighbor moves (`DeltaCsr::local_of` identifies the propagation
//! edges), a node whose candidates *and* touched communities are
//! unchanged since its last evaluation is skipped outright, and a node
//! whose candidates list no rival community leaves the active set until a
//! snapshot neighbor moves. All reuse is bit-exact: the trajectory is
//! identical to re-gathering every node every sweep, which the golden
//! tests assert against a cache-free reference.

use txallo_graph::{DeltaCsr, DenseAccumulator, SweepCache};

use crate::params::MAX_SWEEPS;
use crate::state::{gather_labels_blocked, CommunityState, UNASSIGNED};

/// Counters reported by one epoch sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpochSweepOutcome {
    /// Brand-new accounts placed in phase 1.
    pub new_nodes: usize,
    /// Optimization sweeps executed in phase 2.
    pub sweeps: usize,
    /// Total throughput gain accumulated in phase 2.
    pub total_gain: f64,
    /// Node moves committed across both phases.
    pub moves: usize,
}

/// Reusable buffers of the epoch sweep: the dense gather accumulator and
/// the sweep cache. A serving session carries one across epochs, so once
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

/// Gathers row `local`'s per-community link weights into `acc` (sorted
/// ascending on return), mirroring `CommunityState::gather_links` but over
/// snapshot rows: canonical neighbor order, weights toward [`UNASSIGNED`]
/// neighbors kept out of the candidate set. Runs the shared blocked
/// gather strip ([`gather_labels_blocked`]) — bit-identical to the scalar
/// loop, addressing the PR 4 "gather dominates gain evaluation" lead.
#[inline]
fn gather_row(snap: &DeltaCsr, local: usize, labels: &[u32], k: usize, acc: &mut DenseAccumulator) {
    acc.begin(k);
    let (targets, weights) = snap.row(local);
    gather_labels_blocked(targets, weights, labels, |cu, w| {
        if cu != UNASSIGNED {
            acc.add(cu, w);
        }
    });
    acc.sort_touched();
}

/// Runs both phases of Algorithm 2 over `snap`, committing moves into
/// `labels` (global node-id space) and `state`.
///
/// `epsilon` and [`MAX_SWEEPS`] bound the phase-2 loop exactly as in the
/// classic implementation.
pub(crate) fn epoch_sweep(
    snap: &DeltaCsr,
    labels: &mut [u32],
    state: &mut CommunityState,
    epsilon: f64,
    scratch: &mut SweepScratch,
) -> EpochSweepOutcome {
    let t = snap.len();
    let k = state.community_count();
    let SweepScratch { acc, cache } = scratch;
    let mut out = EpochSweepOutcome::default();

    // ---- Phase 1 (lines 1–8): place brand-new nodes.
    for i in 0..t {
        let g = snap.global_id(i) as usize;
        if labels[g] != UNASSIGNED {
            continue;
        }
        out.new_nodes += 1;
        gather_row(snap, i, labels, k, acc);
        let self_w = snap.self_loop(i);
        let d_v = snap.incident_weight(i);
        // C_v = ∅ considers every community (lines 3–5).
        let q = state.best_join(self_w, d_v, acc.entries());
        let w_vq = acc.get(q);
        state.apply_join(q, self_w, d_v, w_vq);
        labels[g] = q;
        out.moves += 1;
    }

    // ---- Phase 2 (lines 9–17): optimize over V̂ on the sweep cache.
    cache.reset(k, snap.offsets().windows(2).map(|w| (w[1] - w[0]) as usize));
    loop {
        let mut delta = 0.0;
        let mut next = 0;
        while let Some(i) = cache.next_active(next) {
            next = i + 1;
            let g = snap.global_id(i) as usize;
            let p = labels[g];
            if cache.is_stale(i) {
                gather_row(snap, i, labels, k, acc);
                cache.store(i, acc.entries());
            } else if cache.unchanged_since_eval(i, p) {
                continue; // Inputs unchanged: evaluation would no-op.
            }
            let Some(cand) = cache.evaluate(i, p) else {
                continue; // C_v = ∅ or v only touches its own community.
            };
            let (self_w, d_v) = (snap.self_loop(i), snap.incident_weight(i));
            if let Some(mv) = state.best_move(p, self_w, d_v, cand.iter().copied()) {
                state.apply_move(&mv);
                labels[g] = mv.to;
                delta += mv.gain;
                out.total_gain += mv.gain;
                out.moves += 1;
                cache.commit_move(p, mv.to);
                // Only snapshot members can move, so only they cache link
                // weights that just went stale. The `local_of` lookup is
                // paid per committed move, not per edge of the snapshot
                // build.
                for &u in snap.row(i).0 {
                    if let Some(lt) = snap.local_of(u) {
                        cache.invalidate(lt as usize);
                    }
                }
            }
        }
        out.sweeps += 1;
        if delta < epsilon || out.sweeps >= MAX_SWEEPS {
            break;
        }
    }

    out
}
