//! The shared epoch-update sweep kernel behind A-TxAllo (Algorithm 2).
//!
//! Both A-TxAllo paths — the incremental delta-CSR snapshot and the
//! full-graph fallback — produce the same [`DeltaCsr`] row layout, so one
//! kernel serves both. It runs the two phases of Algorithm 2 over the
//! snapshot rows:
//!
//! 1. **Placement** (lines 1–8): brand-new accounts join the community
//!    with the best join gain (Eq. 6), ties toward the least-loaded
//!    community.
//! 2. **Optimization** (lines 9–17): sweep `V̂` until the total gain of a
//!    sweep drops below `ε`, moving each node to its best-gain community
//!    (Eq. 8).
//!
//! Phase 2 reuses the exact stamp-based skipping scheme proven out on the
//! G-TxAllo optimization sweep (see `gtxallo.rs`): a node's decision
//! depends on (a) its per-community link weights — which change only when
//! a *snapshot neighbor* moves, external neighbors being frozen for the
//! epoch — and (b) the accounting state of the communities it touches
//! (Lemma 1). Candidate lists are cached until a snapshot neighbor moves
//! (`DeltaCsr::local_of` identifies the propagation edges), and a node
//! whose candidates *and* touched communities are unchanged since its last
//! evaluation is skipped outright. All reuse is bit-exact: the trajectory
//! is identical to re-gathering every node every sweep, which the golden
//! tests assert against a cache-free reference.

use txallo_graph::{DeltaCsr, DenseAccumulator};
use txallo_louvain::GAIN_EPS;

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

/// Reusable buffers of the epoch sweep — the per-row stamp arrays, the
/// candidate caches and the dense gather accumulator. A serving session
/// carries one of these across epochs so the per-epoch cost contains no
/// buffer allocation at all once capacities have warmed up (the satellite
/// of the delta-CSR buffer reuse, same contract: a warm scratch is
/// observationally identical to fresh ones — every array is re-initialized
/// to the values a fresh allocation would hold, only capacity survives).
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepScratch {
    acc: DenseAccumulator,
    last_eval: Vec<u64>,
    gathered_at: Vec<u64>,
    links_dirty: Vec<u64>,
    comm_stamp: Vec<u64>,
    /// Cached candidate lists; inner vectors keep their capacity across
    /// epochs.
    cand_cache: Vec<Vec<(u32, f64)>>,
}

impl SweepScratch {
    /// Re-initializes every buffer for a sweep over `t` snapshot rows and
    /// `k` communities.
    fn reset(&mut self, t: usize, k: usize) {
        reset_fill(&mut self.last_eval, t, 0);
        reset_fill(&mut self.gathered_at, t, 0);
        reset_fill(&mut self.links_dirty, t, 1);
        reset_fill(&mut self.comm_stamp, k, 1);
        for cache in self.cand_cache.iter_mut().take(t) {
            cache.clear();
        }
        if self.cand_cache.len() < t {
            self.cand_cache.resize_with(t, Vec::new);
        }
    }

    /// Approximate resident bytes across every retained buffer
    /// (capacity-based), including the candidate-cache inner vectors.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let stamps = (self.last_eval.capacity()
            + self.gathered_at.capacity()
            + self.links_dirty.capacity()
            + self.comm_stamp.capacity())
            * size_of::<u64>();
        let caches = self.cand_cache.capacity() * size_of::<Vec<(u32, f64)>>()
            + self
                .cand_cache
                .iter()
                .map(|c| c.capacity() * size_of::<(u32, f64)>())
                .sum::<usize>();
        self.acc.approx_bytes() + stamps + caches
    }
}

/// `vec![value; len]` semantics over a retained buffer.
fn reset_fill(buf: &mut Vec<u64>, len: usize, value: u64) {
    buf.clear();
    buf.resize(len, value);
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
/// `epsilon`/`max_sweeps` bound the phase-2 loop exactly as in the classic
/// implementation.
pub(crate) fn epoch_sweep(
    snap: &DeltaCsr,
    labels: &mut [u32],
    state: &mut CommunityState,
    epsilon: f64,
    max_sweeps: usize,
    scratch: &mut SweepScratch,
) -> EpochSweepOutcome {
    let t = snap.len();
    let k = state.community_count();
    scratch.reset(t, k);
    let SweepScratch {
        acc,
        last_eval,
        gathered_at,
        links_dirty,
        comm_stamp,
        cand_cache,
    } = scratch;
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

    // ---- Phase 2 (lines 9–17): optimize over V̂ with stamp skipping.
    // (The stamp arrays and the candidate caches — ascending community
    // order, straight from the gather, reused until a snapshot neighbor
    // moves — live in the caller-provided scratch.)
    let mut move_stamp: u64 = 1; // bumped on every committed move
    loop {
        let mut delta = 0.0;
        for i in 0..t {
            let g = snap.global_id(i) as usize;
            let p = labels[g];
            let links_fresh = links_dirty[i] <= gathered_at[i];
            if links_fresh {
                let seen = last_eval[i];
                if comm_stamp[p as usize] <= seen
                    && cand_cache[i]
                        .iter()
                        .all(|&(c, _)| comm_stamp[c as usize] <= seen)
                {
                    continue; // Inputs unchanged: evaluation would no-op.
                }
            } else {
                gather_row(snap, i, labels, k, acc);
                gathered_at[i] = move_stamp;
                cand_cache[i].clear();
                cand_cache[i].extend(acc.entries());
            }
            last_eval[i] = move_stamp;
            let cand = &cand_cache[i];
            if cand.is_empty() || (cand.len() == 1 && cand[0].0 == p) {
                continue; // C_v = ∅ or v only touches its own community.
            }
            let self_w = snap.self_loop(i);
            let d_v = snap.incident_weight(i);
            let w_vp = cand.iter().find(|&&(c, _)| c == p).map_or(0.0, |&(_, w)| w);
            let leave = state.leave_gain(p, self_w, d_v, w_vp);

            // Candidates are sorted ascending; a later candidate must beat
            // the best by > GAIN_EPS.
            let mut best: Option<(u32, f64, f64)> = None; // (q, gain, w_vq)
            for &(q, w_vq) in cand {
                if q == p {
                    continue;
                }
                let gain = leave + state.join_gain(q, self_w, d_v, w_vq);
                match best {
                    Some((_, bg, _)) if gain <= bg + GAIN_EPS => {}
                    _ => best = Some((q, gain, w_vq)),
                }
            }
            if let Some((q, gain, w_vq)) = best {
                if gain > 0.0 {
                    state.apply_leave(p, self_w, d_v, w_vp);
                    state.apply_join(q, self_w, d_v, w_vq);
                    labels[g] = q;
                    delta += gain;
                    out.total_gain += gain;
                    out.moves += 1;
                    move_stamp += 1;
                    comm_stamp[p as usize] = move_stamp;
                    comm_stamp[q as usize] = move_stamp;
                    // Only snapshot members can move, so only they cache
                    // link weights that just went stale. The `local_of`
                    // lookup is paid per committed move, not per edge of
                    // the snapshot build.
                    let (targets, _) = snap.row(i);
                    for &u in targets {
                        if let Some(lt) = snap.local_of(u) {
                            links_dirty[lt as usize] = move_stamp;
                        }
                    }
                }
            }
        }
        out.sweeps += 1;
        if delta < epsilon || out.sweeps >= max_sweeps {
            break;
        }
    }

    out
}
