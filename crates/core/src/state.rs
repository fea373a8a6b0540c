//! Per-community workload/throughput accounting and the §V-B gain formulas.

use txallo_graph::{fit_u32, DenseAccumulator, NodeId, SweepCache, WeightedGraph};
use txallo_louvain::GAIN_EPS;

/// Label value for nodes not yet assigned to any community.
///
/// A-TxAllo sees brand-new accounts; during G-TxAllo's initialization the
/// members of truncated small communities pass through this state. Edges
/// toward unassigned nodes are counted as *cut* from the assigned side —
/// the conservative reading (such a transaction is cross-shard unless the
/// counterparty lands in the same shard, at which point the join delta
/// flips the edge to intra).
pub const UNASSIGNED: u32 = u32::MAX;

/// Mutable per-community accounting: intra-community weight and cut weight
/// for each community, from which the paper's quantities derive:
///
/// * workload  `σᵢ = intra᙮ + η · cutᵢ` (Eq. 5)
/// * uncapped throughput `Λ̂ᵢ = intraᵢ + cutᵢ / 2`
/// * capped throughput (Eq. 3) and the move deltas (Eq. 6–8).
#[derive(Debug, Clone)]
pub struct CommunityState {
    intra: Vec<f64>,
    cut: Vec<f64>,
    eta: f64,
    capacity: f64,
    /// Cached workload `σ_c = intra + η·cut` per community, kept in
    /// lock-step with `intra`/`cut` (see the cache invariant below).
    sigma: Vec<f64>,
    /// Cached uncapped throughput `Λ̂_c = intra + cut/2`, lock-step.
    lambda_hat: Vec<f64>,
    /// Cached capped throughput per community, kept in lock-step with
    /// `intra`/`cut` (recomputed for the touched community on every
    /// mutation — bit-identical to computing it on demand, but read
    /// thousands of times per sweep in the gain formulas). In the
    /// uncapped regime (`σ_c ≤ λ`) it is bit-for-bit `lambda_hat[c]`.
    throughput: Vec<f64>,
}
// Cache invariant (determinism contract, see ARCHITECTURE.md): after every
// mutation that closes a batch (`apply_join`/`apply_leave` per move,
// `refresh_throughput` after `apply_*_delta` folds, `set_limits`,
// `scale_aggregates`), each cached `sigma[c]`, `lambda_hat[c]` and
// `throughput[c]` equals — bit-for-bit — what
// recomputing it from `intra[c]`/`cut[c]` with the exact expressions of
// `recompute_community` would produce. The gain formulas below only ever
// *read* the caches with the same expressions the pre-cache code inlined,
// so the fast path is byte-identical to the formula path (golden-tested
// in `tests/golden.rs` and `tests/atxallo_golden.rs`).

/// Rounding slack of [`CommunityState::certainly_stays`], relative to the
/// magnitudes a gain is computed from. Evaluating Eq. 8 at a link weight,
/// against the current aggregates, rounds by at most a few ulps of them;
/// 64 ulps leaves an eightfold margin over that bound.
const CERTIFY_SLACK: f64 = 64.0 * f64::EPSILON;

/// One node's move out of its community, chosen by
/// [`CommunityState::best_move`] and committed by
/// [`CommunityState::apply_move`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Move {
    /// The community the node leaves (`p`).
    pub(crate) from: u32,
    /// The community the node joins (`q`).
    pub(crate) to: u32,
    /// The move's throughput gain `Δ_{(v,p,q)}Λ` (Eq. 8), positive.
    pub(crate) gain: f64,
    self_w: f64,
    d_v: f64,
    w_from: f64,
    w_to: f64,
}

/// Scratch buffers for evaluating one node's candidate moves, reused across
/// the sweep.
///
/// Link weights live in a dense [`DenseAccumulator`] indexed by community
/// id — O(1) add/get with no hashing or per-node allocation. After
/// [`CommunityState::gather_links`] the touched-list is sorted, so
/// [`MoveScratch::candidates`] enumerates the connected communities `C_v`
/// (Eq. 9) in ascending id order, which is the deterministic candidate
/// order the sweep algorithms' tie-breaking contract requires (see
/// `txallo_louvain::GAIN_EPS`).
#[derive(Debug, Default)]
pub struct MoveScratch {
    /// Weight from the node to each connected community.
    link: DenseAccumulator,
}

impl MoveScratch {
    /// Weight from the node to community `c` (0 if unconnected).
    #[inline]
    pub fn weight_to(&self, c: u32) -> f64 {
        self.link.get(c)
    }

    /// Whether the node touches no assigned community (`C_v = ∅`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.link.is_empty()
    }

    /// Whether `c` is the *only* community the node touches (no move can
    /// change anything; the sweep skips such nodes).
    #[inline]
    pub fn only_touches(&self, c: u32) -> bool {
        self.link.len() == 1 && self.link.contains(c)
    }

    /// `(community, weight)` candidates in ascending community order.
    pub fn candidates(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.link.entries()
    }
}

impl CommunityState {
    /// Builds the state for `labels` over `graph`.
    ///
    /// `labels[v]` may be [`UNASSIGNED`]; such nodes contribute only to the
    /// `cut` of their assigned neighbors.
    pub fn from_labels(
        graph: &impl WeightedGraph,
        labels: &[u32],
        community_count: usize,
        eta: f64,
        capacity: f64,
    ) -> Self {
        assert_eq!(labels.len(), graph.node_count());
        let mut intra = vec![0.0f64; community_count];
        let mut cut = vec![0.0f64; community_count];
        for v in 0..fit_u32(graph.node_count()) {
            let cv = labels[v as usize];
            if cv == UNASSIGNED {
                continue;
            }
            let c = cv as usize;
            intra[c] += graph.self_loop(v);
            graph.for_each_neighbor(v, |u, w| {
                let cu = labels[u as usize];
                if cu == cv {
                    if u > v {
                        intra[c] += w;
                    }
                } else {
                    // Includes cu == UNASSIGNED: cut from v's side.
                    cut[c] += w;
                }
            });
        }
        let mut state = Self {
            intra,
            cut,
            eta,
            capacity,
            sigma: vec![0.0; community_count],
            lambda_hat: vec![0.0; community_count],
            throughput: vec![0.0; community_count],
        };
        state.refresh_throughput();
        state
    }

    /// Rebuilds the state from checkpointed aggregates: `intra`/`cut` are
    /// adopted bit-for-bit (they are chronological float accumulations and
    /// must *not* be recomputed), and every cached scalar is re-derived
    /// through the exact expressions of the cache invariant — identical to
    /// what a state that never stopped would hold.
    pub fn from_raw(intra: Vec<f64>, cut: Vec<f64>, eta: f64, capacity: f64) -> Self {
        assert_eq!(
            intra.len(),
            cut.len(),
            "intra/cut must cover the same communities"
        );
        let k = intra.len();
        let mut state = Self {
            intra,
            cut,
            eta,
            capacity,
            sigma: vec![0.0; k],
            lambda_hat: vec![0.0; k],
            throughput: vec![0.0; k],
        };
        state.refresh_throughput();
        state
    }

    /// Recomputes every cached scalar of community `c` from `intra`/`cut`.
    /// The expressions here *define* the cache invariant — every cached
    /// read must be bit-identical to evaluating them fresh.
    #[inline]
    fn recompute_community(&mut self, c: u32) {
        let ci = c as usize;
        let sigma = self.intra[ci] + self.eta * self.cut[ci];
        let hat = self.intra[ci] + self.cut[ci] / 2.0;
        self.sigma[ci] = sigma;
        self.lambda_hat[ci] = hat;
        self.throughput[ci] = capped_throughput(sigma, hat, self.capacity);
    }

    /// Number of communities tracked.
    pub fn community_count(&self) -> usize {
        self.intra.len()
    }

    /// η used by this state.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// λ used by this state.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Intra-community weight of `c`.
    pub fn intra(&self, c: u32) -> f64 {
        self.intra[c as usize]
    }

    /// Cut weight of `c`.
    pub fn cut(&self, c: u32) -> f64 {
        self.cut[c as usize]
    }

    /// Workload `σ_c = intra + η·cut` (Eq. 5). Cached — bit-identical to
    /// recomputing from `intra`/`cut` (see the cache invariant).
    #[inline]
    pub fn sigma(&self, c: u32) -> f64 {
        self.sigma[c as usize]
    }

    /// Uncapped throughput `Λ̂_c = intra + cut/2`. Cached, bit-identical.
    #[inline]
    pub fn lambda_hat(&self, c: u32) -> f64 {
        self.lambda_hat[c as usize]
    }

    /// Capacity-capped throughput of `c` (Eq. 3).
    #[inline]
    pub fn throughput(&self, c: u32) -> f64 {
        self.throughput[c as usize]
    }

    /// Total system throughput `Λ = Σ Λᵢ` (Eq. 2).
    pub fn total_throughput(&self) -> f64 {
        (0..fit_u32(self.intra.len()))
            .map(|c| self.throughput(c))
            .sum()
    }

    /// Approximate resident bytes of the per-community aggregate arrays
    /// (capacity-based; all five are `O(communities)`).
    pub fn approx_bytes(&self) -> usize {
        (self.intra.capacity()
            + self.cut.capacity()
            + self.sigma.capacity()
            + self.lambda_hat.capacity()
            + self.throughput.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Gathers the per-community link weights of `v` into `scratch`;
    /// weights toward [`UNASSIGNED`] neighbors stay out of the candidates.
    ///
    /// On return the scratch's candidate list is sorted ascending, ready
    /// for a deterministic sweep over `C_v`.
    pub fn gather_links(
        &self,
        graph: &impl WeightedGraph,
        labels: &[u32],
        v: NodeId,
        scratch: &mut MoveScratch,
    ) {
        scratch.link.begin(self.intra.len());
        graph.for_each_neighbor(v, |u, w| {
            let cu = labels[u as usize];
            if cu != UNASSIGNED {
                scratch.link.add(cu, w);
            }
        });
        scratch.link.sort_touched();
    }

    /// Throughput gain `Δ_{join} Λ_q` of `v` joining `q` (Eq. 6), where `v`
    /// is currently outside every community (left already / brand new).
    ///
    /// * `self_w` — self-loop weight `w{v,v}`;
    /// * `d_v` — total incident weight of `v` (self-loop once);
    /// * `w_vq` — weight between `v` and community `q`.
    ///
    /// This is the innermost expression of every sweep (one evaluation per
    /// candidate per node per sweep), so it reads the cached `σ_q`/`Λ̂_q`
    /// instead of re-deriving them from `intra`/`cut`, and in the common
    /// uncapped regime resolves with a single compare against `λ` and no
    /// division — byte-identical to the formula path by the cache
    /// invariant.
    #[inline]
    pub fn join_gain(&self, q: u32, self_w: f64, d_v: f64, w_vq: f64) -> f64 {
        let (sigma_new, hat_new) = self.joined_state(q, self_w, d_v, w_vq);
        self.gain_vs_current(q, sigma_new, hat_new)
    }

    fn joined_state(&self, q: u32, self_w: f64, d_v: f64, w_vq: f64) -> (f64, f64) {
        // σ'_q = σ_q + w_vv + η(d_v − w_vv − w_vq) + (1−η) w_vq
        let sigma_new =
            self.sigma(q) + self_w + self.eta * (d_v - self_w - w_vq) + (1.0 - self.eta) * w_vq;
        // Λ̂'_q = Λ̂_q + w_vv + (d_v − w_vv)/2
        let hat_new = self.lambda_hat(q) + self_w + (d_v - self_w) / 2.0;
        (sigma_new, hat_new)
    }

    /// The placement rule (D2) of the TxAllo sweep kernel's phase 1
    /// (G-TxAllo's initialization phase, A-TxAllo's placement): the
    /// community `v` should join, by join gain (Eq. 6) over `candidates` —
    /// `(community, w_vq)` in ascending community order — or over every
    /// community at `w_vq = 0` when there are none (`C_v = ∅`, Algorithm 1
    /// lines 4–6).
    ///
    /// Ties on the gain (within [`GAIN_EPS`]) are broken toward the
    /// *least-loaded* community (then the earlier candidate). This matters:
    /// nodes from dissolved small communities often have identical gains
    /// across every candidate, and an id-based tie-break would funnel them
    /// all — plus their neighbors, by cascade — into community 0, wrecking
    /// the balance the objective is supposed to protect. Ties are judged
    /// against the running *maximum* gain (not the selected candidate's
    /// gain), so the selected community is always within `GAIN_EPS` of the
    /// true best — the tie window cannot slide downward across a chain of
    /// near-ties. When a new maximum pushes the selected candidate below
    /// `max − GAIN_EPS`, the max-holder takes over.
    pub(crate) fn best_join(
        &self,
        self_w: f64,
        d_v: f64,
        candidates: impl IntoIterator<Item = (u32, f64)>,
    ) -> u32 {
        let mut candidates = candidates.into_iter().peekable();
        let every = if candidates.peek().is_none() {
            fit_u32(self.community_count())
        } else {
            0
        };
        let mut best: Option<(u32, f64, f64)> = None; // (q, gain, sigma)
        let mut max_gain = f64::NEG_INFINITY;
        for (q, w_vq) in candidates.chain((0..every).map(|q| (q, 0.0))) {
            let gain = self.join_gain(q, self_w, d_v, w_vq);
            let sigma = self.sigma(q);
            if gain > max_gain {
                max_gain = gain;
            }
            let better = match best {
                None => true,
                Some((_, bg, bs)) => {
                    bg < max_gain - GAIN_EPS || (gain >= max_gain - GAIN_EPS && sigma < bs)
                }
            };
            if better {
                best = Some((q, gain, sigma));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "with no candidates the scan visits every community 0..k and k >= 1, so best is always set"
        )]
        best.expect("k ≥ 1 guarantees a candidate").0
    }

    /// Throughput gain `Δ_{leave} Λ_p` of `v` leaving its community `p`
    /// (the leaving half of Eq. 8). `w_vp` is the weight between `v` and
    /// the *other* members of `p` (`w{v, V_p \ v}`). Same fast path as
    /// [`CommunityState::join_gain`].
    #[inline]
    pub fn leave_gain(&self, p: u32, self_w: f64, d_v: f64, w_vp: f64) -> f64 {
        let (sigma_new, hat_new) = self.left_state(p, self_w, d_v, w_vp);
        self.gain_vs_current(p, sigma_new, hat_new)
    }

    fn left_state(&self, p: u32, self_w: f64, d_v: f64, w_vp: f64) -> (f64, f64) {
        // σ'_p = σ_p − w_vv − η(d_v − w_vv − w_vp) + (η−1) w_vp
        let sigma_new =
            self.sigma(p) - self_w - self.eta * (d_v - self_w - w_vp) + (self.eta - 1.0) * w_vp;
        // Λ̂'_p = Λ̂_p − w_vv − (d_v − w_vv)/2
        let hat_new = self.lambda_hat(p) - self_w - (d_v - self_w) / 2.0;
        (sigma_new, hat_new)
    }

    /// `Λ(σ', Λ̂') − Λ_c`: Eq. 3 on the hypothetical state minus the
    /// community's cached current throughput. One select: when `σ' ≤ λ`,
    /// Eq. 3 is the identity, so the common case is one compare and one
    /// subtraction, with no division. `Λ_c` needs no regime test of its
    /// own: in the uncapped regime the cache holds `Λ̂_c`, bit for bit.
    #[inline]
    fn gain_vs_current(&self, c: u32, sigma_new: f64, hat_new: f64) -> f64 {
        capped_throughput(sigma_new, hat_new, self.capacity) - self.throughput[c as usize]
    }

    /// Full move gain `Δ_{(i,p,q)}Λ = Δ_{leave}Λ_p + Δ_{join}Λ_q` (Eq. 8).
    pub fn move_gain(&self, p: u32, q: u32, self_w: f64, d_v: f64, w_vp: f64, w_vq: f64) -> f64 {
        debug_assert_ne!(p, q);
        self.leave_gain(p, self_w, d_v, w_vp) + self.join_gain(q, self_w, d_v, w_vq)
    }

    /// The move rule (Eq. 8) shared by every optimization sweep: phase 2 of
    /// the TxAllo sweep kernel (both algorithms) and the full-scan
    /// ablation. `v` sits in
    /// community `p`; `candidates` lists `(community, w_vq)` in ascending
    /// community order, and an entry for `p` itself only supplies `w_vp`.
    ///
    /// Each rival's gain is the leave gain of `p` plus its join gain. A
    /// later rival must beat the best so far by more than [`GAIN_EPS`], so
    /// ties go to the earlier rival. The best move is returned only when
    /// its gain is positive; commit it with [`CommunityState::apply_move`].
    ///
    /// Always inlined: it runs once per evaluated row, and the sweep
    /// kernel's two row views share one instantiation, which the
    /// compiler otherwise keeps as an out-of-line call.
    #[inline(always)]
    pub(crate) fn best_move(
        &self,
        p: u32,
        self_w: f64,
        d_v: f64,
        candidates: impl IntoIterator<Item = (u32, f64)> + Clone,
    ) -> Option<Move> {
        let w_vp = candidates
            .clone()
            .into_iter()
            .find(|&(c, _)| c == p)
            .map_or(0.0, |(_, w)| w);
        let leave = self.leave_gain(p, self_w, d_v, w_vp);
        let mut best: Option<(u32, f64, f64)> = None; // (q, gain, w_vq)
        for (q, w_vq) in candidates {
            if q == p {
                continue;
            }
            let gain = leave + self.join_gain(q, self_w, d_v, w_vq);
            match best {
                Some((_, bg, _)) if gain <= bg + GAIN_EPS => {}
                _ => best = Some((q, gain, w_vq)),
            }
        }
        let (to, gain, w_to) = best?;
        (gain > 0.0).then_some(Move {
            from: p,
            to,
            gain,
            self_w,
            d_v,
            w_from: w_vp,
            w_to,
        })
    }

    /// The certified skip of the TxAllo sweep kernel: `Some(entries)` when
    /// stale row `r` (`row_len` entries, `v` in `p`) need not be
    /// re-gathered because [`CommunityState::certainly_stays`] proves it
    /// stays, `None` when the caller must gather it. `entries` is
    /// `row_len` when a cache without certificates would have re-gathered
    /// the row at this visit, else 0. Only rows of at least `max(64, 3k)`
    /// entries are tried, and only after their first gather: the test
    /// costs about one gain evaluation per community, a gather one label
    /// load per entry.
    #[inline]
    pub(crate) fn certified_skip(
        &self,
        cache: &mut SweepCache,
        r: usize,
        p: u32,
        self_w: f64,
        d_v: f64,
        row_len: usize,
    ) -> Option<usize> {
        if row_len < (3 * self.community_count()).max(64) {
            return None;
        }
        let (cached, drift) = cache.cached_with_drift(r)?;
        if !self.certainly_stays(p, self_w, d_v, row_len, cached, drift) {
            return None;
        }
        Some(if cache.certify(r) { row_len } else { 0 })
    }

    /// Whether a re-gather of a stale row could produce a move: `false`
    /// unless [`CommunityState::best_move`] provably returns `None` for
    /// every candidate list a re-gather could produce. `v` sits in `p`;
    /// `cached` is its last gather of `row_len` entries (ascending
    /// communities) and `drift` the summed weight of its neighbors' moves
    /// since.
    ///
    /// Each community's link weight now lies within `drift` of its cached
    /// one (0 when unlisted), so every community is a possible rival. The
    /// interval is first widened by the re-summation rounding bound, then
    /// clipped to `[0, d_v]`. Eq. 8 is the leave gain plus the join gain,
    /// and each half is monotone in its link weight: `σ'` is affine in it,
    /// `Λ̂'` does not depend on it, and Eq. 3 is non-increasing in `σ'`
    /// when `λ > 0` and `Λ̂' ≥ 0`. So each half peaks at the end of its
    /// interval that the sign of `2η − 1` picks, for any η, and the row
    /// certainly stays when every rival's peak sum is below `−slack`, the
    /// rounding slack of the gain arithmetic. When a precondition fails
    /// (non-positive or NaN `λ`, a non-finite η, `Λ̂' < 0`) it answers
    /// `false`, and the caller gathers.
    pub(crate) fn certainly_stays(
        &self,
        p: u32,
        self_w: f64,
        d_v: f64,
        row_len: usize,
        cached: &[(u32, f64)],
        drift: f64,
    ) -> bool {
        if self.capacity.is_nan() || self.capacity <= 0.0 || !self.eta.is_finite() {
            return false;
        }
        // The cached and the re-gathered weight of a community each sum at
        // most `row_len` entries of a row weighing at most `d_v`; the
        // `drift` term covers the interval arithmetic's own rounding.
        let resum = 2.0 * (row_len as f64 + 2.0) * f64::EPSILON * (d_v + drift);
        let reach = drift + resum;
        let top = d_v + resum;
        let low = |w: f64| (w - reach).max(0.0);
        let high = |w: f64| (w + reach).min(top);
        // Eq. 3 is non-increasing in `σ'`, which moves with the link weight
        // at slope `1 − 2η` on a join and `2η − 1` on a leave. So for
        // η ≥ 1/2 a join gain peaks at the top of its interval and the
        // leave gain at the bottom; for η < 1/2 the other way round.
        let join_peaks_high = self.eta >= 0.5;
        let w_p = cached
            .iter()
            .find(|&&(c, _)| c == p)
            .map_or(0.0, |&(_, w)| w);
        let w_p = if join_peaks_high { low(w_p) } else { high(w_p) };
        let Some((leave, leave_scale)) =
            self.gain_bound(p, d_v, top, self.left_state(p, self_w, d_v, w_p))
        else {
            return false;
        };
        let mut listed = cached.iter().peekable();
        (0..fit_u32(self.community_count())).all(|q| {
            let w_q = listed.next_if(|&&(c, _)| c == q).map_or(0.0, |&(_, w)| w);
            let w_q = if join_peaks_high { high(w_q) } else { low(w_q) };
            q == p
                || self
                    .gain_bound(q, d_v, top, self.joined_state(q, self_w, d_v, w_q))
                    .is_some_and(|(join, scale)| {
                        leave + join < -CERTIFY_SLACK * (leave_scale + scale)
                    })
        })
    }

    /// Community `c`'s gain at its peak state `(σ', Λ̂')` (Eq. 3 on it minus
    /// the current throughput), with the magnitude its rounding error
    /// scales with, or `None` when `Λ̂' < 0` (or NaN) voids the
    /// monotonicity in the link weight. `top` bounds the link weight.
    #[inline]
    fn gain_bound(
        &self,
        c: u32,
        d_v: f64,
        top: f64,
        (sigma_new, hat_new): (f64, f64),
    ) -> Option<(f64, f64)> {
        if hat_new.is_nan() || hat_new < 0.0 {
            return None;
        }
        let gain = self.gain_vs_current(c, sigma_new, hat_new);
        // `σ'` rounds against the sum of its terms, and the capped regime
        // passes that error on with weight at most `Λ̂'/λ`.
        let sigma_terms = self.sigma(c).abs() + (2.0 + 2.0 * self.eta.abs()) * (d_v + top);
        let scale = self.lambda_hat(c).abs()
            + 2.0 * d_v
            + hat_new
            + self.throughput(c).abs()
            + hat_new / self.capacity * sigma_terms;
        Some((gain, scale))
    }

    /// Commits a move chosen by [`CommunityState::best_move`]: `v` leaves
    /// `from` and joins `to`. The caller updates the label vector.
    #[inline]
    pub(crate) fn apply_move(&mut self, mv: &Move) {
        self.apply_leave(mv.from, mv.self_w, mv.d_v, mv.w_from);
        self.apply_join(mv.to, mv.self_w, mv.d_v, mv.w_to);
    }

    /// Commits `v` joining community `q` (updates `intra`/`cut`). The caller
    /// updates the label vector.
    pub fn apply_join(&mut self, q: u32, self_w: f64, d_v: f64, w_vq: f64) {
        self.intra[q as usize] += self_w + w_vq;
        self.cut[q as usize] += (d_v - self_w - w_vq) - w_vq;
        self.recompute_community(q);
    }

    /// Commits `v` leaving community `p`.
    pub fn apply_leave(&mut self, p: u32, self_w: f64, d_v: f64, w_vp: f64) {
        self.intra[p as usize] -= self_w + w_vp;
        self.cut[p as usize] -= (d_v - self_w - w_vp) - w_vp;
        self.recompute_community(p);
    }

    /// Updates the `η`/`λ` limits (per-epoch parameter refresh — `λ = |T|/k`
    /// grows with the graph) and recomputes every cached scalar (`σ`
    /// depends on `η`; throughput and regime depend on both). The
    /// `intra`/`cut` aggregates are limit-independent and keep their values.
    pub fn set_limits(&mut self, eta: f64, capacity: f64) {
        self.eta = eta;
        self.capacity = capacity;
        self.refresh_throughput();
    }

    /// Folds a freshly-ingested edge-weight delta into the accounting:
    /// weight `w` was added between two *distinct* nodes currently labelled
    /// `la` and `lb` (either may be [`UNASSIGNED`]; edges toward unassigned
    /// nodes count as cut from the assigned side, matching
    /// [`CommunityState::from_labels`]).
    ///
    /// Leaves the cached scalars (`σ`, `Λ̂`, throughput, regime) stale —
    /// call [`CommunityState::refresh_throughput`] once per batch before
    /// reading any of them.
    pub fn apply_edge_delta(&mut self, la: u32, lb: u32, w: f64) {
        if la == lb {
            if la != UNASSIGNED {
                self.intra[la as usize] += w;
            }
            return;
        }
        if la != UNASSIGNED {
            self.cut[la as usize] += w;
        }
        if lb != UNASSIGNED {
            self.cut[lb as usize] += w;
        }
    }

    /// Folds a freshly-ingested self-loop delta on a node labelled `la`
    /// into the accounting (companion of [`CommunityState::apply_edge_delta`];
    /// same staleness contract).
    pub fn apply_self_loop_delta(&mut self, la: u32, w: f64) {
        if la != UNASSIGNED {
            self.intra[la as usize] += w;
        }
    }

    /// Recomputes every cached scalar (`σ`, `Λ̂`, capped throughput) from
    /// the current `intra`/`cut` (`O(k)`), closing
    /// a batch of `apply_*_delta` calls.
    pub fn refresh_throughput(&mut self) {
        for c in 0..fit_u32(self.intra.len()) {
            self.recompute_community(c);
        }
    }

    /// Scales every `intra`/`cut` aggregate by `factor` and refreshes every
    /// cached scalar — the accounting image of a uniform edge-weight
    /// rescale of the underlying graph (exponential decay). The limits
    /// `η`/`λ` are left untouched; callers refresh them separately (the
    /// per-epoch [`CommunityState::set_limits`] pass re-derives `λ = |T|/k`
    /// from the decayed total).
    ///
    /// Sign safety: the fold is a multiplication by a positive factor, so
    /// non-negative aggregates can *never* drift below zero no matter how
    /// many small factors are folded in sequence (pinned by
    /// `repeated_decay_folds_stay_nonnegative` below and the ≥100-fold
    /// golden stream in `tests/atxallo_golden.rs`).
    pub fn scale_aggregates(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite"
        );
        for v in &mut self.intra {
            *v *= factor;
        }
        for v in &mut self.cut {
            *v *= factor;
        }
        self.refresh_throughput();
    }

    /// Verifies Lemma 1 numerically: only `p` and `q` change. Debug aid for
    /// tests; O(k).
    #[cfg(test)]
    fn snapshot(&self) -> (Vec<f64>, Vec<f64>) {
        (self.intra.clone(), self.cut.clone())
    }
}

/// The capacity-capped shard throughput of Eq. 3:
/// `Λ = Λ̂` when `σ ≤ λ`, else `Λ = (λ/σ)·Λ̂`.
///
/// Total over degenerate inputs (a shard model must never emit NaN into
/// the gain comparisons, where it would poison every `GAIN_EPS` decision):
///
/// * `capacity ≤ 0` (or NaN) — a shard with no processing capacity serves
///   nothing: `Λ = 0`. The old code took the identity branch whenever
///   `σ ≤ λ`, which reported *positive* throughput for a zero-capacity
///   shard with `σ = 0 < Λ̂` inputs and *negative* throughput when
///   `σ > λ ≥ 0 > Λ̂·λ/σ` flipped the scale's sign.
/// * `σ = 0` with `Λ̂ > 0` can only reach the scaling branch when
///   `capacity < 0`, which the guard above now absorbs — no more `λ/0`
///   infinities.
/// * NaN `σ` (degenerate η upstream): `σ ≤ λ` is false, and the scale
///   `λ/σ` is NaN — reported as `Λ = 0` instead of propagating.
#[inline]
pub fn capped_throughput(sigma: f64, lambda_hat: f64, capacity: f64) -> f64 {
    if capacity <= 0.0 || capacity.is_nan() {
        return 0.0;
    }
    if sigma <= capacity {
        lambda_hat
    } else {
        let scaled = capacity / sigma * lambda_hat;
        if scaled.is_nan() {
            0.0
        } else {
            scaled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use txallo_graph::CsrGraph;

    /// Line graph 0-1-2-3 plus a self-loop on 0; labels {0,1} per pair.
    fn fixture() -> (CsrGraph, Vec<u32>) {
        let g = CsrGraph::from_edges(
            4,
            vec![(0u32, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 0, 0.5)],
        );
        (g, vec![0, 0, 1, 1])
    }

    #[test]
    fn from_labels_accounts_intra_and_cut() {
        let (g, labels) = fixture();
        let s = CommunityState::from_labels(&g, &labels, 2, 2.0, 100.0);
        // Community 0: intra = edge(0,1) + loop(0) = 1.5, cut = edge(1,2) = 2.
        assert!((s.intra(0) - 1.5).abs() < 1e-12);
        assert!((s.cut(0) - 2.0).abs() < 1e-12);
        assert!((s.intra(1) - 1.0).abs() < 1e-12);
        assert!((s.cut(1) - 2.0).abs() < 1e-12);
        assert!((s.sigma(0) - 5.5).abs() < 1e-12, "σ₀ = 1.5 + 2η");
        assert!((s.lambda_hat(0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn unassigned_neighbors_count_as_cut() {
        let (g, mut labels) = fixture();
        labels[2] = UNASSIGNED;
        let s = CommunityState::from_labels(&g, &labels, 2, 2.0, 100.0);
        // Community 1 = {3}: its only neighbor 2 is unassigned => cut 1.
        assert!((s.intra(1) - 0.0).abs() < 1e-12);
        assert!((s.cut(1) - 1.0).abs() < 1e-12);
        // Community 0 unchanged: node 1's edge to 2 is still cut.
        assert!((s.cut(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capped_throughput_cases() {
        assert_eq!(
            capped_throughput(5.0, 4.0, 10.0),
            4.0,
            "sufficient capacity"
        );
        assert!(
            (capped_throughput(20.0, 4.0, 10.0) - 2.0).abs() < 1e-12,
            "halved"
        );
        assert_eq!(capped_throughput(0.0, 0.0, 10.0), 0.0);
    }

    #[test]
    fn capped_throughput_degenerate_capacity() {
        // A shard with no capacity serves nothing, whatever σ/Λ̂ claim.
        assert_eq!(capped_throughput(0.0, 4.0, 0.0), 0.0);
        assert_eq!(capped_throughput(5.0, 4.0, 0.0), 0.0);
        assert_eq!(capped_throughput(5.0, 4.0, -1.0), 0.0);
        assert_eq!(capped_throughput(-2.0, 4.0, -1.0), 0.0);
        assert_eq!(capped_throughput(5.0, 4.0, f64::NAN), 0.0);
        // In particular no λ/0 infinity: σ = 0 under a negative capacity.
        assert_eq!(capped_throughput(0.0, 3.0, -1.0), 0.0);
    }

    #[test]
    fn capped_throughput_zero_lambda_hat_with_positive_sigma() {
        // All-cut pathological state: Λ̂ = 0 but σ > 0; both regimes must
        // report exactly zero, never a signed artifact.
        assert_eq!(capped_throughput(3.0, 0.0, 10.0), 0.0);
        assert_eq!(capped_throughput(30.0, 0.0, 10.0), 0.0);
        assert_eq!(capped_throughput(f64::INFINITY, 0.0, 10.0), 0.0);
    }

    #[test]
    fn capped_throughput_never_propagates_nan_sigma() {
        // Degenerate η upstream turns σ into NaN; the throughput must
        // degrade to zero instead of poisoning every gain comparison.
        assert_eq!(capped_throughput(f64::NAN, 4.0, 10.0), 0.0);
        assert_eq!(capped_throughput(f64::NAN, 0.0, 10.0), 0.0);
    }

    /// The cache invariant: after arbitrary joins/leaves, every cached
    /// scalar equals — bit-for-bit — recomputation from `intra`/`cut`.
    #[test]
    fn cached_scalars_match_recomputation_bitwise() {
        let (g, labels) = fixture();
        let (eta, cap) = (2.0, 2.5); // tight capacity: both regimes occur
        let mut s = CommunityState::from_labels(&g, &labels, 2, eta, cap);
        // A churny sequence of moves (including ones that saturate).
        let moves = [(0u32, 1u32, 2u32), (1, 0, 1), (0, 1, 3), (1, 0, 2)];
        for &(p, q, v) in &moves {
            let (self_w, d_v) = (g.self_loop(v), g.incident_weight(v));
            let mut scratch = MoveScratch::default();
            s.gather_links(&g, &labels, v, &mut scratch);
            s.apply_leave(p, self_w, d_v, scratch.weight_to(p));
            s.apply_join(q, self_w, d_v, scratch.weight_to(q));
            for c in 0..2u32 {
                let sigma = s.intra(c) + eta * s.cut(c);
                let hat = s.intra(c) + s.cut(c) / 2.0;
                assert_eq!(s.sigma(c).to_bits(), sigma.to_bits(), "σ cache");
                assert_eq!(s.lambda_hat(c).to_bits(), hat.to_bits(), "Λ̂ cache");
                assert_eq!(
                    s.throughput(c).to_bits(),
                    capped_throughput(sigma, hat, cap).to_bits(),
                    "Λ cache"
                );
            }
        }
    }

    /// The gain fast path must be bit-identical to evaluating the raw
    /// Eq. 6/8 formulas through [`capped_throughput`].
    #[test]
    fn gain_fast_path_matches_formula_bitwise() {
        let (g, labels) = fixture();
        for cap in [100.0, 2.5, 1.0, 0.1] {
            let eta = 2.0;
            let s = CommunityState::from_labels(&g, &labels, 2, eta, cap);
            let mut scratch = MoveScratch::default();
            for v in 0..4u32 {
                let (self_w, d_v) = (g.self_loop(v), g.incident_weight(v));
                s.gather_links(&g, &labels, v, &mut scratch);
                for c in 0..2u32 {
                    let w_vc = scratch.weight_to(c);
                    let sigma_c = s.intra(c) + eta * s.cut(c);
                    let hat_c = s.intra(c) + s.cut(c) / 2.0;
                    let thr_c = capped_throughput(sigma_c, hat_c, cap);

                    let sj = sigma_c + self_w + eta * (d_v - self_w - w_vc) + (1.0 - eta) * w_vc;
                    let hj = hat_c + self_w + (d_v - self_w) / 2.0;
                    let join_ref = capped_throughput(sj, hj, cap) - thr_c;
                    assert_eq!(
                        s.join_gain(c, self_w, d_v, w_vc).to_bits(),
                        join_ref.to_bits(),
                        "join_gain(v={v}, c={c}, cap={cap})"
                    );

                    let sl = sigma_c - self_w - eta * (d_v - self_w - w_vc) + (eta - 1.0) * w_vc;
                    let hl = hat_c - self_w - (d_v - self_w) / 2.0;
                    let leave_ref = capped_throughput(sl, hl, cap) - thr_c;
                    assert_eq!(
                        s.leave_gain(c, self_w, d_v, w_vc).to_bits(),
                        leave_ref.to_bits(),
                        "leave_gain(v={v}, c={c}, cap={cap})"
                    );
                }
            }
        }
    }

    /// Repeated small decay folds can shrink the aggregates toward zero
    /// but never push a non-negative value below it, and every cached
    /// scalar stays in lock-step through the stream.
    #[test]
    fn repeated_decay_folds_stay_nonnegative() {
        let (g, labels) = fixture();
        let cap = 2.0;
        let mut s = CommunityState::from_labels(&g, &labels, 2, 2.0, cap);
        for i in 0..200 {
            s.scale_aggregates(0.97);
            for c in 0..2u32 {
                assert!(s.intra(c) >= 0.0, "fold {i}: intra({c}) negative");
                assert!(s.cut(c) >= 0.0, "fold {i}: cut({c}) negative");
                assert!(s.throughput(c) >= 0.0, "fold {i}: Λ({c}) negative");
                let sigma = s.intra(c) + 2.0 * s.cut(c);
                let hat = s.intra(c) + s.cut(c) / 2.0;
                assert_eq!(
                    s.throughput(c).to_bits(),
                    capped_throughput(sigma, hat, cap).to_bits(),
                    "fold {i}: throughput cache stale"
                );
            }
        }
    }

    #[test]
    fn join_then_leave_is_identity() {
        let (g, labels) = fixture();
        let mut s = CommunityState::from_labels(&g, &labels, 2, 3.0, 100.0);
        let before = s.snapshot();
        // Move node 1 (community 0): self_w=0, d_v=3, w_to_0 = 1 (node 0), w_to_1 = 2 (node 2).
        s.apply_leave(0, 0.0, 3.0, 1.0);
        s.apply_join(0, 0.0, 3.0, 1.0);
        let after = s.snapshot();
        for (a, b) in before.0.iter().zip(after.0.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in before.1.iter().zip(after.1.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn gain_matches_recomputation() {
        // Move node 2 from community 1 to community 0 and compare the
        // incremental gain against a from-scratch recomputation.
        let (g, labels) = fixture();
        let eta = 2.0;
        let cap = 2.0; // tight capacity so the capped branch is exercised
        let s = CommunityState::from_labels(&g, &labels, 2, eta, cap);
        let v: NodeId = 2;
        let self_w = g.self_loop(v);
        let d_v = g.incident_weight(v);
        let mut scratch = MoveScratch::default();
        s.gather_links(&g, &labels, v, &mut scratch);
        let w_vp = scratch.weight_to(1);
        let w_vq = scratch.weight_to(0);
        let predicted = s.move_gain(1, 0, self_w, d_v, w_vp, w_vq);

        let mut new_labels = labels.clone();
        new_labels[v as usize] = 0;
        let s2 = CommunityState::from_labels(&g, &new_labels, 2, eta, cap);
        let actual = s2.total_throughput() - s.total_throughput();
        assert!(
            (predicted - actual).abs() < 1e-9,
            "delta formula ({predicted}) must equal recomputation ({actual})"
        );
    }

    #[test]
    fn lemma1_only_two_communities_change() {
        // Three communities; moving a node between 0 and 1 must not touch 2.
        let g = CsrGraph::from_edges(
            6,
            vec![
                (0u32, 1, 1.0),
                (2, 3, 1.0),
                (4, 5, 1.0),
                (1, 2, 0.5),
                (3, 4, 0.5),
            ],
        );
        let labels = vec![0, 0, 1, 1, 2, 2];
        let mut s = CommunityState::from_labels(&g, &labels, 3, 2.0, 10.0);
        let before_2 = (s.intra(2), s.cut(2));
        // Move node 2 from community 1 to community 0.
        let (self_w, d_v) = (g.self_loop(2), g.incident_weight(2));
        s.apply_leave(1, self_w, d_v, 1.0);
        s.apply_join(0, self_w, d_v, 0.5);
        assert_eq!(
            (s.intra(2), s.cut(2)),
            before_2,
            "community 2 untouched (Lemma 1)"
        );
    }

    #[test]
    fn apply_join_matches_from_labels() {
        // Incremental updates must agree with a from-scratch rebuild.
        let (g, labels) = fixture();
        let mut labels2 = labels.clone();
        let mut s = CommunityState::from_labels(&g, &labels, 2, 2.0, 100.0);
        let v: NodeId = 1;
        let (self_w, d_v) = (g.self_loop(v), g.incident_weight(v));
        let mut scratch = MoveScratch::default();
        s.gather_links(&g, &labels, v, &mut scratch);
        let w_vp = scratch.weight_to(0);
        let w_vq = scratch.weight_to(1);
        s.apply_leave(0, self_w, d_v, w_vp);
        s.apply_join(1, self_w, d_v, w_vq);
        labels2[v as usize] = 1;
        let rebuilt = CommunityState::from_labels(&g, &labels2, 2, 2.0, 100.0);
        for c in 0..2u32 {
            assert!((s.intra(c) - rebuilt.intra(c)).abs() < 1e-12, "intra({c})");
            assert!((s.cut(c) - rebuilt.cut(c)).abs() < 1e-12, "cut({c})");
        }
    }

    /// A seeded draw stream for the certificate cases.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        /// Uniform in `[lo, hi]`.
        fn real(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() % 4097) as f64 / 4096.0
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.next() as usize % items.len()]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Soundness of the no-move certificate. Each case draws random
        /// aggregates (λ below, near and above the mean σ, so both Eq. 3
        /// regimes occur), η ∈ {0.5, 1, 2, 4}, and a row of `v` in `p`
        /// with its cached list and drift. Whenever `certainly_stays`
        /// certifies the row, `best_move` returns `None` on every drawn
        /// candidate list whose weights lie within the drift of the cached
        /// ones, new rivals of weight at most the drift included.
        #[test]
        fn certified_rows_never_move(seed in any::<u64>()) {
            let mut draw = Draw(seed);
            let k = 2 + draw.next() as usize % 5;
            let eta = draw.pick(&[0.5, 1.0, 2.0, 4.0]);
            let p = (draw.next() % k as u64) as u32;
            let self_w = draw.real(0.0, 3.0) * (draw.next() % 2) as f64;
            let cached_w: Vec<Option<f64>> = (0..k)
                .map(|_| (!draw.next().is_multiple_of(3)).then(|| draw.real(0.0, 40.0)))
                .collect();
            let cached: Vec<(u32, f64)> = cached_w
                .iter()
                .enumerate()
                .filter_map(|(c, w)| w.map(|w| (c as u32, w)))
                .collect();
            let unassigned = draw.real(0.0, 4.0) * (draw.next() % 2) as f64;
            let d_v = self_w + cached.iter().map(|&(_, w)| w).sum::<f64>() + unassigned;
            let row_len = cached.len() + draw.next() as usize % 200;
            let reach = draw.pick(&[0.0, 1.0, 8.0]);
            let drift = draw.real(0.0, reach);
            // `v` belongs to `p`: its community holds at least its links.
            let mut intra: Vec<f64> = (0..k).map(|_| draw.real(0.0, 100.0)).collect();
            let cut: Vec<f64> = (0..k).map(|_| draw.real(0.0, 100.0)).collect();
            intra[p as usize] += d_v;
            let mean_sigma = (0..k).map(|c| intra[c] + eta * cut[c]).sum::<f64>() / k as f64;
            let (lo, hi) = draw.pick(&[(0.2, 0.95), (0.95, 1.05), (1.05, 2.0)]);
            let load = draw.real(lo, hi);
            let state = CommunityState::from_raw(intra, cut, eta, load * mean_sigma);
            if !state.certainly_stays(p, self_w, d_v, row_len, &cached, drift) {
                return Ok(());
            }
            for _ in 0..64 {
                let mut list = Vec::new();
                for (c, listed) in cached_w.iter().enumerate() {
                    let base = listed.unwrap_or(0.0);
                    let (lo, hi) = ((base - drift).max(0.0), (base + drift).min(d_v));
                    let w = match draw.next() % 4 {
                        0 => lo,
                        1 => hi,
                        _ => draw.real(lo, hi),
                    };
                    if w > 0.0 || (listed.is_some() && draw.next().is_multiple_of(2)) {
                        list.push((c as u32, w));
                    }
                }
                let mv = state.best_move(p, self_w, d_v, list.iter().copied());
                prop_assert!(
                    mv.is_none(),
                    "certified row moves: {:?} on {:?}",
                    mv.map(|m| (m.to, m.gain)),
                    list
                );
            }
        }
    }

    /// A hub row firmly inside an over-capacity community is certified; a
    /// drift as large as its whole row is not.
    #[test]
    fn certificate_holds_for_a_settled_row_and_fails_under_large_drift() {
        // Community 0 is over capacity and holds `v`; 1 and 2 have room.
        let state = CommunityState::from_raw(
            vec![400.0, 150.0, 150.0],
            vec![50.0, 60.0, 60.0],
            2.0,
            300.0,
        );
        let cached = [(0u32, 90.0), (1, 3.0), (2, 2.0)];
        let d_v = 95.0;
        assert!(state.certainly_stays(0, 0.0, d_v, 200, &cached, 1.0));
        assert!(state
            .best_move(0, 0.0, d_v, cached.iter().copied())
            .is_none());
        assert!(!state.certainly_stays(0, 0.0, d_v, 200, &cached, d_v));
        // No limit, no certificate.
        let unlimited = CommunityState::from_raw(vec![400.0, 150.0], vec![50.0, 60.0], 2.0, 0.0);
        assert!(!unlimited.certainly_stays(0, 0.0, d_v, 200, &cached[..2], 0.0));
    }

    #[test]
    fn gather_links_separates_unassigned() {
        let (g, mut labels) = fixture();
        labels[3] = UNASSIGNED;
        let s = CommunityState::from_labels(&g, &labels, 2, 2.0, 100.0);
        let mut scratch = MoveScratch::default();
        s.gather_links(&g, &labels, 2, &mut scratch);
        // Node 2 links to node 1 (community 0, weight 2) and to the
        // unassigned node 3 (weight 1), which is no candidate.
        assert_eq!(scratch.candidates().collect::<Vec<_>>(), vec![(0, 2.0)]);
    }
}
