//! A long-lived A-TxAllo serving session: community accounting carried
//! across epochs instead of re-derived per update.
//!
//! This is the one A-TxAllo entry point (Algorithm 2). Rebuilding the
//! per-community `intra`/`cut` aggregates from the whole graph is an
//! `O(n + m)` walk that dwarfs the actual sweep once the chain is long and
//! epochs touch only a small `V̂`. A serving allocator processes an
//! unbounded stream of epochs over one growing graph, so the aggregates
//! are *maintained*, not recomputed:
//!
//! 1. [`AtxAlloSession::new`] pays the full walk once (warm-up);
//! 2. each block, [`AtxAlloSession::apply_block_nodes`] folds the freshly
//!    ingested transaction deltas into the aggregates in `O(block edges)`
//!    — the same clique-expansion weights [`TxGraph::ingest_block_nodes`]
//!    just added to the graph, classified by the *current* labels;
//! 3. [`AtxAlloSession::update`] then freezes the touched rows into the
//!    session's [`DeltaCsr`] and runs the epoch sweep over them (the
//!    private `incremental` kernel), which keeps the aggregates in
//!    lock-step via `apply_join`/`apply_leave` as it moves nodes.
//!
//! The per-epoch cost becomes `O(|V̂| log |V̂| + Σ_{v∈V̂} deg v)` — fully
//! independent of chain length, which is the §V-C promise A-TxAllo makes
//! on paper. A one-shot update is a session opened on the previous
//! allocation and updated once.
//!
//! ## Consistency contract
//!
//! After every `apply_block_nodes`/`update` cycle the aggregates equal (up
//! to float rounding of the different summation order) what
//! `CommunityState::from_labels` would recompute from scratch;
//! [`AtxAlloSession::consistency_error`] measures the drift and the sim
//! tests bound it. The graph's one out-of-band edit, **uniform
//! rescaling** (exponential decay), *folds* into the session:
//! [`AtxAlloSession::apply_decay`] scales the aggregates by the same
//! factor, exactly, because they are linear in the edge weights
//! (golden-tested against the rebuild path). The graph never drops
//! edges. Anything the session cannot fold means building a fresh one:
//! the streaming layer's `HybridStream` does exactly that after
//! `StreamingAllocator::invalidate_state` (a failed audit), and at every
//! global G-TxAllo refresh.

use txallo_graph::{BlockNodes, DeltaCsr, NodeId, TxGraph, WeightedGraph};

use crate::allocation::Allocation;
use crate::atxallo::AtxAlloOutcome;
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
    /// Sweep-kernel buffers (gather accumulator, sweep cache), same deal.
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

    /// Folds one freshly-ingested block into the aggregates, from the
    /// interned view [`TxGraph::ingest_block_nodes`] returned for it: the
    /// per-transaction dense node ids are already resolved, so the fold
    /// pays zero interner (account-hash) lookups. It replays the exact
    /// clique expansion ingestion performed over `account_set`, classified
    /// by the current labels, in `O(block edges)`.
    ///
    /// Call before [`AtxAlloSession::update`] for the epoch. Only the
    /// `intra`/`cut` aggregates are folded here; the cached capped
    /// throughputs go stale and are refreshed once per epoch by `update`
    /// (via the `set_limits` parameter refresh), not once per block.
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

    /// Runs the epoch update over `touched` (the epoch's deduplicated
    /// `V̂`), mutating the session's labels and aggregates in place and
    /// returning the sweep's counters; read the labels through
    /// [`AtxAlloSession::labels`].
    ///
    /// `params` is taken fresh each epoch because `λ = |T|/k` and `ε`
    /// scale with the accumulated weight. The snapshot holds the touched
    /// rows only ([`DeltaCsr::refill_touched`]), so the update never
    /// reads an untouched row.
    pub fn update(
        &mut self,
        graph: &TxGraph,
        touched: &[NodeId],
        params: &TxAlloParams,
    ) -> AtxAlloOutcome {
        assert_eq!(
            params.shards, self.shards,
            "shard count is fixed per session"
        );
        self.labels.resize(graph.node_count(), UNASSIGNED);
        self.state.set_limits(params.eta, params.capacity);
        self.snap.refill_touched(graph, touched);
        let out = epoch_sweep(
            &self.snap,
            &mut self.labels,
            &mut self.state,
            params.epsilon,
            &mut self.scratch,
        );
        AtxAlloOutcome {
            new_nodes: out.new_nodes,
            sweeps: out.sweeps,
            total_gain: out.total_gain,
            moves: out.moves,
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
    use crate::gtxallo::GTxAllo;
    use txallo_model::{AccountId, Block, Transaction};

    /// The re-hashing block fold: [`AtxAlloSession::apply_block_nodes`]
    /// resolved through the interner instead of the ids ingestion
    /// returned, with a fast path for plain transfers. Kept only as the
    /// bitwise reference the interned fold is pinned against. Call after
    /// [`TxGraph::ingest_block`] for the same block.
    fn apply_block(session: &mut AtxAlloSession, graph: &TxGraph, block: &Block) {
        let node = |a: &AccountId| graph.node_of(*a).expect("block accounts are interned");
        for tx in block.transactions() {
            // A 1↔1 transaction is one unit edge (or one unit self-loop),
            // exactly what the clique expansion below computes for it.
            if let ([a], [b]) = (tx.inputs(), tx.outputs()) {
                let la = session.label_of(node(a));
                if a == b {
                    session.state.apply_self_loop_delta(la, 1.0);
                } else {
                    let lb = session.label_of(node(b));
                    session.state.apply_edge_delta(la, lb, 1.0);
                }
                continue;
            }
            let set = tx.account_set();
            if set.len() == 1 {
                let la = session.label_of(node(&set[0]));
                session.state.apply_self_loop_delta(la, 1.0);
                continue;
            }
            let w = 1.0 / (set.len() * (set.len() - 1) / 2) as f64;
            for (i, a) in set.iter().enumerate() {
                let la = session.label_of(node(a));
                for b in &set[(i + 1)..] {
                    let lb = session.label_of(node(b));
                    session.state.apply_edge_delta(la, lb, w);
                }
            }
        }
    }

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

    /// A block mixing intra, cross, new-account and self-loop transfers
    /// with a multi-account transaction.
    fn mixed_block() -> Block {
        let mut txs: Vec<Transaction> = vec![
            Transaction::transfer(AccountId(0), AccountId(1)),
            Transaction::transfer(AccountId(0), AccountId(10)),
            Transaction::transfer(AccountId(300), AccountId(301)),
            Transaction::transfer(AccountId(4), AccountId(4)),
        ];
        txs.push(Transaction::new(vec![AccountId(0)], vec![AccountId(11), AccountId(12)]).unwrap());
        Block::new(0, txs)
    }

    /// A warm session carried across epochs matches a session opened
    /// fresh on the previous epoch's labels every epoch (the one-shot
    /// update, which rebuilds the aggregates from the graph).
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
            let nodes = g.ingest_block_nodes(&epoch_block(h as u64, pairs));
            let params = TxAlloParams::for_graph(&g, 2);

            session.apply_block_nodes(&nodes);
            session.update(&g, nodes.touched(), &params);
            let mut stateless = AtxAlloSession::new(&g, &stateless_prev, &params);
            stateless.update(&g, nodes.touched(), &params);

            assert_eq!(
                session.allocation(),
                stateless.allocation(),
                "epoch {h}: session diverged from stateless"
            );
            assert!(
                session.consistency_error(&g) < 1e-9,
                "epoch {h}: aggregates drifted"
            );
            stateless_prev = stateless.allocation();
        }
    }

    #[test]
    fn apply_block_tracks_recomputation() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let mut session = AtxAlloSession::new(&g, &prev, &params);
        let nodes = g.ingest_block_nodes(&mixed_block());
        session.apply_block_nodes(&nodes);
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
        let block = mixed_block();
        let nodes = g1.ingest_block_nodes(&block);
        g2.ingest_block(&block);
        s1.apply_block_nodes(&nodes);
        apply_block(&mut s2, &g2, &block);
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
        assert_eq!(session.allocation(), prev);
        assert_eq!(out.moves, 0);
    }
}
