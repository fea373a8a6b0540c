//! A long-lived A-TxAllo serving session: community accounting carried
//! across epochs instead of re-derived per update.
//!
//! The stateless [`AtxAllo::update`](crate::AtxAllo::update) rebuilds the
//! per-community `intra`/`cut` aggregates from the whole graph on every
//! call — an `O(n + m)` hash-adjacency walk that dwarfs the actual sweep
//! once the chain is long and epochs touch only a small `V̂`. A serving
//! allocator processes an unbounded stream of epochs over one growing
//! graph, so the aggregates should be *maintained*, not recomputed:
//!
//! 1. [`AtxAlloSession::new`] pays the full walk once (warm-up);
//! 2. each epoch, [`AtxAlloSession::apply_block`] folds the freshly
//!    ingested transaction deltas into the aggregates in `O(block edges)`
//!    — the same clique-expansion weights [`TxGraph::ingest_block`] just
//!    added to the graph, classified by the *current* labels;
//! 3. [`AtxAlloSession::update`] then runs the same delta-CSR epoch sweep
//!    as the stateless path (the private `incremental` kernel), which
//!    keeps the aggregates in lock-step via `apply_join`/`apply_leave` as
//!    it moves nodes.
//!
//! The per-epoch cost becomes `O(|V̂| log |V̂| + Σ_{v∈V̂} deg v)` — fully
//! independent of chain length, which is the §V-C promise A-TxAllo makes
//! on paper.
//!
//! ## Consistency contract
//!
//! After every `apply_block`/`update` cycle the aggregates equal (up to
//! float rounding of the different summation order) what
//! `CommunityState::from_labels` would recompute from scratch;
//! [`AtxAlloSession::consistency_error`] measures the drift and the sim
//! tests bound it. Out-of-band graph edits split in two:
//!
//! * **uniform rescaling** (exponential decay) *folds* into the session —
//!   [`AtxAlloSession::apply_decay`] scales the aggregates by the same
//!   factor, exactly, because they are linear in the edge weights
//!   (golden-tested against the rebuild path);
//! * **non-uniform edits** (sliding-window eviction, edge dropping)
//!   cannot be folded: drop the session and build a fresh one (the
//!   streaming layer's `AdaptiveStream::invalidate`, and every global
//!   G-TxAllo refresh, do exactly that).

use txallo_graph::{BlockNodes, DeltaCsr, NodeId, TxGraph, WeightedGraph};
use txallo_model::Block;

use crate::allocation::Allocation;
use crate::atxallo::{AtxAlloOutcome, UpdatePath};
use crate::incremental::{epoch_sweep, SweepScratch};
use crate::params::TxAlloParams;
use crate::state::{CommunityState, UNASSIGNED};

/// Epoch-serving A-TxAllo state: the label vector and the per-community
/// accounting, both surviving across epochs (see the module docs).
#[derive(Debug, Clone)]
pub struct AtxAlloSession {
    shards: usize,
    labels: Vec<u32>,
    state: CommunityState,
    /// Snapshot buffer, refilled per epoch ([`DeltaCsr::refill_touched`])
    /// so row storage is allocated once per session, not once per epoch.
    snap: DeltaCsr,
    /// Sweep-kernel buffers (stamp arrays, candidate caches), same deal.
    scratch: SweepScratch,
}

impl AtxAlloSession {
    /// Opens a session from the current graph and its allocation, paying
    /// the one-off `O(n + m)` aggregate construction.
    pub fn new(graph: &TxGraph, allocation: &Allocation, params: &TxAlloParams) -> Self {
        let k = params.shards;
        assert_eq!(
            allocation.shard_count(),
            k,
            "allocation/params disagree on k"
        );
        assert!(
            allocation.len() <= graph.node_count(),
            "allocation labels unknown nodes"
        );
        let mut labels: Vec<u32> = Vec::with_capacity(graph.node_count());
        labels.extend_from_slice(allocation.labels());
        labels.resize(graph.node_count(), UNASSIGNED);
        let state = CommunityState::from_labels(graph, &labels, k, params.eta, params.capacity);
        Self {
            shards: k,
            labels,
            state,
            snap: DeltaCsr::default(),
            scratch: SweepScratch::default(),
        }
    }

    /// Reopens a session from checkpointed parts: the label vector and
    /// the maintained aggregates, both adopted bit-for-bit (never
    /// recomputed — they are chronological float accumulations). The
    /// snapshot and sweep buffers are per-epoch scratch, refilled before
    /// first use, so a resumed session is indistinguishable from one that
    /// never stopped. The caller vouches for the labels/aggregates pair
    /// being consistent ([`AtxAlloSession::consistency_error`] audits it).
    pub fn from_parts(shards: usize, labels: Vec<u32>, state: CommunityState) -> Self {
        assert_eq!(
            state.community_count(),
            shards,
            "aggregates must cover every shard"
        );
        Self {
            shards,
            labels,
            state,
            snap: DeltaCsr::default(),
            scratch: SweepScratch::default(),
        }
    }

    /// The maintained per-community aggregates (checkpoint export).
    pub fn state(&self) -> &CommunityState {
        &self.state
    }

    /// The current account-shard mapping.
    pub fn allocation(&self) -> Allocation {
        Allocation::new(self.labels.clone(), self.shards)
    }

    /// The raw label vector (index = node id; nodes ingested since the
    /// last sweep report [`UNASSIGNED`]). Borrowed view of
    /// [`AtxAlloSession::allocation`] for diffing without a clone.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Approximate resident bytes of the whole session: labels, community
    /// aggregates, the warm snapshot buffer, and the sweep scratch. All
    /// capacity-based, so it reports the high-water mark a long-lived
    /// session actually holds.
    pub fn approx_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<u32>()
            + self.state.approx_bytes()
            + self.snap.approx_bytes()
            + self.scratch.approx_bytes()
    }

    /// Folds a uniform out-of-band rescale of every edge weight (decay
    /// factor `f ∈ (0, 1]`) into the maintained aggregates.
    ///
    /// The `intra`/`cut` sums are linear in the edge weights, so a uniform
    /// graph rescale maps to exactly `aggregate × f` — the session
    /// survives decay epochs instead of paying the `O(n + m)` rebuild it
    /// used to. The only divergence from a from-scratch recomputation is
    /// floating-point rounding (`Σ(wᵢ·f)` vs `(Σwᵢ)·f`), which is the same
    /// class of drift the incremental delta folding already accepts and
    /// [`AtxAlloSession::consistency_error`] bounds; the decay golden
    /// tests assert the resulting *allocations* match the rebuild path
    /// exactly.
    ///
    /// Non-uniform edits (e.g. [`TxGraph::prune_dust`] dropping edges)
    /// cannot be folded — drop the session and rebuild instead.
    pub fn apply_decay(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "decay factor must be in (0, 1], got {factor}"
        );
        self.state.scale_aggregates(factor);
    }

    /// Label of `node` (new nodes the sweep has not placed yet report
    /// [`UNASSIGNED`]).
    #[inline]
    fn label_of(&self, node: NodeId) -> u32 {
        self.labels
            .get(node as usize)
            .copied()
            .unwrap_or(UNASSIGNED)
    }

    /// Folds one freshly-ingested block into the aggregates.
    ///
    /// Call *after* [`TxGraph::ingest_block`] for the same block (the
    /// accounts must be interned) and *before* [`AtxAlloSession::update`]
    /// for the epoch. Replays the exact clique-expansion weights ingestion
    /// used, classified by the current labels, in `O(block edges)`.
    ///
    /// Only the `intra`/`cut` aggregates are folded here; the cached
    /// capped throughputs go stale and are refreshed once per epoch by
    /// [`AtxAlloSession::update`] (via the `set_limits` parameter
    /// refresh), not once per block.
    pub fn apply_block(&mut self, graph: &TxGraph, block: &Block) {
        for tx in block.transactions() {
            // Plain transfers — the overwhelming share of a block — fold
            // without the `account_set` allocation/sort: a 1↔1 transaction
            // is one unit edge (or one unit self-loop), exactly what the
            // general clique-expansion path below computes for it.
            if let ([a], [b]) = (tx.inputs(), tx.outputs()) {
                let na = graph.node_of(*a).expect("block accounts are interned"); // txallo-lint: allow(lib-unwrap) — on_block's contract: ingest_block interned every account of this block first
                if a == b {
                    self.state.apply_self_loop_delta(self.label_of(na), 1.0);
                } else {
                    let nb = graph.node_of(*b).expect("block accounts are interned"); // txallo-lint: allow(lib-unwrap) — on_block's contract: ingest_block interned every account of this block first
                    self.state
                        .apply_edge_delta(self.label_of(na), self.label_of(nb), 1.0);
                }
                continue;
            }
            let set = tx.account_set();
            if set.len() == 1 {
                let n = graph.node_of(set[0]).expect("block accounts are interned"); // txallo-lint: allow(lib-unwrap) — on_block's contract: ingest_block interned every account of this block first
                self.state.apply_self_loop_delta(self.label_of(n), 1.0);
                continue;
            }
            let w = 1.0 / (set.len() * (set.len() - 1) / 2) as f64;
            for (i, &acct_a) in set.iter().enumerate() {
                let a = graph.node_of(acct_a).expect("block accounts are interned"); // txallo-lint: allow(lib-unwrap) — on_block's contract: ingest_block interned every account of this block first
                let la = self.label_of(a);
                for &acct_b in &set[(i + 1)..] {
                    let b = graph.node_of(acct_b).expect("block accounts are interned"); // txallo-lint: allow(lib-unwrap) — on_block's contract: ingest_block interned every account of this block first
                    self.state.apply_edge_delta(la, self.label_of(b), w);
                }
            }
        }
    }

    /// [`AtxAlloSession::apply_block`] over the interned view
    /// [`TxGraph::ingest_block_nodes`] returned for the same block: the
    /// per-transaction dense node ids are already resolved, so the fold
    /// pays zero interner (account-hash) lookups. Bit-identical to
    /// [`AtxAlloSession::apply_block`]: the per-transaction weights and
    /// the delta application order are exactly the clique expansion over
    /// `account_set`, which is what `tx_nodes` mirrors (a plain 1↔1
    /// transfer is a 2-element set with pair weight exactly `1.0`, the
    /// same delta the transfer fast path applied).
    pub fn apply_block_nodes(&mut self, nodes: &BlockNodes) {
        for i in 0..nodes.tx_count() {
            let set = nodes.tx_nodes(i);
            if set.len() == 1 {
                self.state.apply_self_loop_delta(self.label_of(set[0]), 1.0);
                continue;
            }
            let w = 1.0 / (set.len() * (set.len() - 1) / 2) as f64;
            for (a_idx, &a) in set.iter().enumerate() {
                let la = self.label_of(a);
                for &b in &set[(a_idx + 1)..] {
                    self.state.apply_edge_delta(la, self.label_of(b), w);
                }
            }
        }
    }

    /// Runs the epoch update over `touched`, mutating the session's labels
    /// and aggregates in place and reporting the same outcome as the
    /// stateless [`AtxAllo::update`](crate::AtxAllo::update).
    ///
    /// `params` is taken fresh each epoch because `λ = |T|/k` and `ε`
    /// scale with the accumulated weight; the snapshot route follows
    /// [`TxAlloParams::incremental_threshold`] exactly like the stateless
    /// path.
    pub fn update(
        &mut self,
        graph: &TxGraph,
        touched: &[NodeId],
        params: &TxAlloParams,
    ) -> AtxAlloOutcome {
        let n = graph.node_count();
        let frac = if n == 0 {
            0.0
        } else {
            touched.len() as f64 / n as f64
        };
        let path = if frac <= params.incremental_threshold {
            UpdatePath::Incremental
        } else {
            UpdatePath::Full
        };
        self.update_with_route(graph, touched, params, path)
    }

    /// [`AtxAlloSession::update`] with the snapshot route forced — the
    /// single epoch-update driver behind both the session and the
    /// stateless [`AtxAllo`](crate::AtxAllo) entry points (and the golden
    /// tests' route-equivalence comparisons).
    pub(crate) fn update_with_route(
        &mut self,
        graph: &TxGraph,
        touched: &[NodeId],
        params: &TxAlloParams,
        path: UpdatePath,
    ) -> AtxAlloOutcome {
        assert_eq!(
            params.shards, self.shards,
            "shard count is fixed per session"
        );
        self.labels.resize(graph.node_count(), UNASSIGNED);
        self.state.set_limits(params.eta, params.capacity);

        match path {
            UpdatePath::Incremental => self.snap.refill_touched(graph, touched),
            UpdatePath::Full => self.snap.refill_full(graph, touched),
        }
        let out = epoch_sweep(
            &self.snap,
            &mut self.labels,
            &mut self.state,
            params.epsilon,
            params.max_sweeps,
            &mut self.scratch,
        );

        AtxAlloOutcome {
            allocation: Allocation::new(self.labels.clone(), self.shards),
            new_nodes: out.new_nodes,
            sweeps: out.sweeps,
            total_gain: out.total_gain,
            moves: out.moves,
            path,
        }
    }

    /// Maximum absolute difference between the maintained aggregates and a
    /// from-scratch recomputation over `graph` — the float drift of the
    /// incremental accounting. `O(n + m)`; a diagnostics/testing aid, not
    /// part of the serving path.
    pub fn consistency_error(&self, graph: &TxGraph) -> f64 {
        // Nodes ingested since the last sweep are unassigned either way.
        let mut labels = self.labels.clone();
        labels.resize(graph.node_count(), UNASSIGNED);
        let fresh = CommunityState::from_labels(
            graph,
            &labels,
            self.shards,
            self.state.eta(),
            self.state.capacity(),
        );
        let mut err = 0.0f64;
        for c in 0..self.shards as u32 {
            err = err.max((fresh.intra(c) - self.state.intra(c)).abs());
            err = err.max((fresh.cut(c) - self.state.cut(c)).abs());
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atxallo::AtxAllo;
    use crate::gtxallo::GTxAllo;
    use txallo_model::{AccountId, Transaction};

    fn base_graph() -> TxGraph {
        let mut g = TxGraph::new();
        for base in [0u64, 10] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        g
    }

    fn epoch_block(h: u64, pairs: &[(u64, u64)]) -> Block {
        Block::new(
            h,
            pairs
                .iter()
                .map(|&(a, b)| Transaction::transfer(AccountId(a), AccountId(b)))
                .collect(),
        )
    }

    #[test]
    fn session_matches_stateless_across_epochs() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let mut session = AtxAlloSession::new(&g, &prev, &params);

        let mut stateless_prev = prev;
        let epochs: Vec<Vec<(u64, u64)>> = vec![
            vec![(100, 0), (100, 1), (3, 12)],
            vec![(100, 2), (101, 100), (13, 14)],
            vec![(0, 10), (101, 11), (200, 200)],
        ];
        for (h, pairs) in epochs.iter().enumerate() {
            let block = epoch_block(h as u64, pairs);
            let touched = g.ingest_block(&block);
            let params = TxAlloParams::for_graph(&g, 2);

            session.apply_block(&g, &block);
            let from_session = session.update(&g, &touched, &params);
            let from_stateless = AtxAllo::new(params).update(&g, &stateless_prev, &touched);

            assert_eq!(
                from_session.allocation, from_stateless.allocation,
                "epoch {h}: session diverged from stateless"
            );
            assert!(
                session.consistency_error(&g) < 1e-9,
                "epoch {h}: aggregates drifted"
            );
            stateless_prev = from_stateless.allocation;
        }
    }

    #[test]
    fn apply_block_tracks_recomputation() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let mut session = AtxAlloSession::new(&g, &prev, &params);
        // Mix of intra, cross, new-account and self-loop transactions, plus
        // a multi-account transfer.
        let mut txs: Vec<Transaction> = vec![
            Transaction::transfer(AccountId(0), AccountId(1)),
            Transaction::transfer(AccountId(0), AccountId(10)),
            Transaction::transfer(AccountId(300), AccountId(301)),
            Transaction::transfer(AccountId(4), AccountId(4)),
        ];
        txs.push(Transaction::new(vec![AccountId(0)], vec![AccountId(11), AccountId(12)]).unwrap());
        let block = Block::new(0, txs);
        g.ingest_block(&block);
        session.apply_block(&g, &block);
        assert!(
            session.consistency_error(&g) < 1e-12,
            "delta accounting must match recomputation"
        );
    }

    #[test]
    fn apply_block_nodes_matches_apply_block_bitwise() {
        // The interned fold must be bit-identical to the account-hashing
        // fold: same aggregates after the same block, transfer fast path
        // and clique expansion included.
        let mut g1 = base_graph();
        let mut g2 = base_graph();
        let params = TxAlloParams::for_graph(&g1, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g1);
        let mut s1 = AtxAlloSession::new(&g1, &prev, &params);
        let mut s2 = AtxAlloSession::new(&g2, &prev, &params);
        let mut txs: Vec<Transaction> = vec![
            Transaction::transfer(AccountId(0), AccountId(1)),
            Transaction::transfer(AccountId(0), AccountId(10)),
            Transaction::transfer(AccountId(300), AccountId(301)),
            Transaction::transfer(AccountId(4), AccountId(4)),
        ];
        txs.push(Transaction::new(vec![AccountId(0)], vec![AccountId(11), AccountId(12)]).unwrap());
        let block = Block::new(0, txs);
        let nodes = g1.ingest_block_nodes(&block);
        g2.ingest_block(&block);
        s1.apply_block_nodes(&nodes);
        s2.apply_block(&g2, &block);
        for c in 0..2u32 {
            assert_eq!(s1.state.intra(c).to_bits(), s2.state.intra(c).to_bits());
            assert_eq!(s1.state.cut(c).to_bits(), s2.state.cut(c).to_bits());
        }
    }

    #[test]
    fn empty_epoch_is_noop() {
        let g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let mut session = AtxAlloSession::new(&g, &prev, &params);
        let out = session.update(&g, &[], &params);
        assert_eq!(out.allocation, prev);
        assert_eq!(out.moves, 0);
    }
}
