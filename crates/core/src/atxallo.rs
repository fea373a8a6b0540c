//! A-TxAllo — the adaptive allocation algorithm (Algorithm 2).
//!
//! Starting from the previous allocation, A-TxAllo (1) places the
//! brand-new accounts of the freshly committed blocks and (2) re-optimizes
//! only the touched node set `V̂`, giving `O(|V̂|·k)` running time —
//! constant in chain length (§V-C). Its one entry point is
//! [`AtxAlloSession`](crate::AtxAlloSession), which carries the community
//! aggregates across epochs; a one-shot update is a session opened on the
//! previous allocation and updated once.
//!
//! The epoch sweep never runs on the mutable adjacency: the touched rows
//! are frozen into a [`DeltaCsr`](txallo_graph::DeltaCsr) snapshot first
//! (the one snapshot route; nothing outside `V̂` is read), and the sweep
//! iterates its flat rows on the shared
//! [`SweepCache`](txallo_graph::SweepCache) (see `crate::incremental`).

/// The snapshot route of an adaptive update, as reported in
/// [`AllocationUpdate::path`](crate::AllocationUpdate::path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePath {
    /// Delta-CSR snapshot of the touched rows
    /// ([`DeltaCsr::refill_touched`](txallo_graph::DeltaCsr::refill_touched)):
    /// the route of every adaptive update.
    Incremental,
    /// Never produced. The full-graph route is gone; the variant is kept
    /// only because the frozen benchmark harness (`perfbench/`) still
    /// matches on it.
    Full,
}

/// The counters of one adaptive update. The updated labels stay in the
/// session ([`AtxAlloSession::labels`](crate::AtxAlloSession::labels)),
/// so an epoch copies no `O(n)` label vector.
#[derive(Debug, Clone)]
pub struct AtxAlloOutcome {
    /// How many brand-new accounts were placed (phase 1).
    pub new_nodes: usize,
    /// Optimization sweeps over `V̂` (phase 2).
    pub sweeps: usize,
    /// Total throughput gain accumulated in phase 2.
    pub total_gain: f64,
    /// Node moves committed across both phases.
    pub moves: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::gtxallo::GTxAllo;
    use crate::params::TxAlloParams;
    use crate::session::AtxAlloSession;
    use txallo_graph::{NodeId, TxGraph, WeightedGraph};
    use txallo_model::{AccountId, Block, Transaction};

    fn base_graph() -> TxGraph {
        let mut g = TxGraph::new();
        // Two clusters: {0..5} and {10..15}.
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

    /// One adaptive update from `prev`: a session opened on it, updated
    /// once over `touched`.
    fn update(
        g: &TxGraph,
        prev: &Allocation,
        touched: &[NodeId],
        params: &TxAlloParams,
    ) -> (AtxAlloOutcome, Allocation) {
        let mut session = AtxAlloSession::new(g, prev, params);
        let out = session.update(g, touched, params);
        (out, session.allocation())
    }

    #[test]
    fn new_account_joins_its_cluster() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);

        // New account 100 transacts heavily with cluster 0.
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(100), AccountId(0)),
                Transaction::transfer(AccountId(100), AccountId(1)),
                Transaction::transfer(AccountId(100), AccountId(2)),
            ],
        );
        let touched = g.ingest_block(&block);
        let (out, allocation) = update(&g, &prev, &touched, &params);
        assert_eq!(out.new_nodes, 1);
        let n100 = g.node_of(AccountId(100)).unwrap();
        let n0 = g.node_of(AccountId(0)).unwrap();
        assert_eq!(
            allocation.shard_of(n100),
            allocation.shard_of(n0),
            "account 100 must join cluster 0's shard"
        );
    }

    #[test]
    fn preserves_untouched_assignments() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(
            0,
            vec![Transaction::transfer(AccountId(200), AccountId(201))],
        );
        let touched = g.ingest_block(&block);
        let (_, allocation) = update(&g, &prev, &touched, &params);
        // Every pre-existing node keeps its shard (none were touched).
        for v in 0..prev.len() as NodeId {
            assert_eq!(allocation.shard_of(v), prev.shard_of(v), "node {v} moved");
        }
    }

    #[test]
    fn migrating_account_follows_its_new_partners() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let n0 = g.node_of(AccountId(0)).unwrap();
        let n10 = g.node_of(AccountId(10)).unwrap();
        assert_ne!(
            prev.shard_of(n0),
            prev.shard_of(n10),
            "clusters start apart"
        );

        // Account 0 now interacts overwhelmingly with cluster 1.
        let txs: Vec<Transaction> = (0..40)
            .map(|i| Transaction::transfer(AccountId(0), AccountId(10 + (i % 5))))
            .collect();
        let block = Block::new(0, txs);
        let touched = g.ingest_block(&block);
        let (out, allocation) = update(&g, &prev, &touched, &params);
        assert_eq!(
            allocation.shard_of(n0),
            allocation.shard_of(n10),
            "account 0 must migrate"
        );
        assert!(out.total_gain > 0.0);
    }

    #[test]
    fn disconnected_new_account_is_still_placed() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(
            0,
            vec![Transaction::transfer(AccountId(500), AccountId(500))],
        );
        let touched = g.ingest_block(&block);
        let (_, allocation) = update(&g, &prev, &touched, &params);
        let n = g.node_of(AccountId(500)).unwrap();
        assert!(allocation.shard_of(n).index() < 2);
        assert_eq!(allocation.len(), g.node_count());
    }

    #[test]
    fn is_deterministic() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(100), AccountId(0)),
                Transaction::transfer(AccountId(101), AccountId(10)),
                Transaction::transfer(AccountId(100), AccountId(101)),
            ],
        );
        let touched = g.ingest_block(&block);
        let (_, a) = update(&g, &prev, &touched, &params);
        let (_, b) = update(&g, &prev, &touched, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_touched_set_is_a_noop() {
        let g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let (out, allocation) = update(&g, &prev, &[], &params);
        assert_eq!(allocation, prev);
        assert_eq!(out.new_nodes, 0);
        assert_eq!(out.moves, 0);
    }
}
