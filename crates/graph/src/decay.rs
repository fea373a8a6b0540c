//! Exponential time-decay of edge weights.
//!
//! §VI-A recommends initializing from recent history "to prevent noise
//! from out-of-date transactions", and the paper's future work is
//! predicting future transaction patterns. Exponential decay is the
//! standard middle ground between those: old interactions fade smoothly
//! instead of falling off a cliff at a window boundary, so the graph is a
//! recency-weighted estimate of the *next* epoch's pattern.
//!
//! Usage: call [`TxGraph::apply_decay`] once per epoch before ingesting
//! the epoch's blocks. The graph then holds `Σ decay^age · weight(block)`.
//! Decayed edges are never dropped, so node ids and edge counts only grow.
//! Every row is in core, so one pass over the slab arena rescales the
//! whole graph. There is no wrapper type: callers such as the epoch loop
//! apply the decay themselves.

use crate::txgraph::TxGraph;

impl TxGraph {
    /// Multiplies every edge, self-loop and derived weight by `factor`
    /// (`0 < factor ≤ 1`), in `O(V + E)`.
    ///
    /// `transaction_count` still counts raw ingested transactions;
    /// `total_weight` becomes the decayed effective weight (callers using
    /// `λ = total_weight / k` automatically adapt).
    pub fn apply_decay(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "decay factor must be in (0, 1], got {factor}"
        );
        if factor == 1.0 {
            return;
        }
        self.scale_all_weights(factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{NodeId, WeightedGraph};
    use txallo_model::{AccountId, Block, Transaction};

    fn tx(a: u64, b: u64) -> Transaction {
        Transaction::transfer(AccountId(a), AccountId(b))
    }

    #[test]
    fn decay_scales_everything_consistently() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&tx(1, 2));
        g.ingest_transaction(&tx(2, 3));
        g.ingest_transaction(&tx(4, 4));
        g.apply_decay(0.5);
        assert!((g.total_weight() - 1.5).abs() < 1e-12);
        let n2 = g.node_of(AccountId(2)).unwrap();
        assert!((g.incident_weight(n2) - 1.0).abs() < 1e-12);
        let n4 = g.node_of(AccountId(4)).unwrap();
        assert!((g.self_loop(n4) - 0.5).abs() < 1e-12);
        // Invariant: incident = Σ neighbors + loop, for every node.
        for v in 0..g.node_count() as NodeId {
            let mut s = g.self_loop(v);
            g.for_each_neighbor(v, |_, w| s += w);
            assert!((s - g.incident_weight(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn decay_of_one_is_identity() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&tx(1, 2));
        g.apply_decay(1.0);
        assert!((g.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn zero_decay_panics() {
        TxGraph::new().apply_decay(0.0);
    }

    /// Decays, then ingests one epoch of blocks — the per-epoch call order
    /// the epoch loop uses.
    fn push_epoch(g: &mut TxGraph, factor: f64, blocks: &[Block]) {
        g.apply_decay(factor);
        for b in blocks {
            g.ingest_block(b);
        }
    }

    #[test]
    fn decaying_graph_prefers_recent_patterns() {
        // Epoch 1: account 1 trades heavily with 2. Epoch 2: with 3.
        // After strong decay, edge (1,3) must dominate (1,2).
        let mut g = TxGraph::new();
        let old: Vec<Transaction> = (0..10).map(|_| tx(1, 2)).collect();
        push_epoch(&mut g, 0.2, &[Block::new(0, old)]);
        let new: Vec<Transaction> = (0..4).map(|_| tx(1, 3)).collect();
        push_epoch(&mut g, 0.2, &[Block::new(1, new)]);
        let n1 = g.node_of(AccountId(1)).unwrap();
        let n2 = g.node_of(AccountId(2)).unwrap();
        let n3 = g.node_of(AccountId(3)).unwrap();
        let w_old = g.weight_between(n1, n2); // 10 · 0.2 = 2
        let w_new = g.weight_between(n1, n3); // 4
        assert!(
            w_new > w_old,
            "recent pattern must dominate: old {w_old} vs new {w_new}"
        );
        assert_eq!(g.transaction_count(), 14);
    }

    #[test]
    fn decayed_allocation_follows_the_drift() {
        // A raw graph still sees the stale heavy edge as dominant; the
        // decayed graph re-weights toward the new partner. This is the
        // behavioural difference that matters for allocation.
        let mut raw = TxGraph::new();
        let mut decayed = TxGraph::new();
        let old: Vec<Transaction> = (0..20).map(|_| tx(1, 2)).collect();
        let old_block = Block::new(0, old);
        raw.ingest_block(&old_block);
        push_epoch(&mut decayed, 0.1, &[old_block]);
        let new: Vec<Transaction> = (0..5).map(|_| tx(1, 3)).collect();
        let new_block = Block::new(1, new);
        raw.ingest_block(&new_block);
        push_epoch(&mut decayed, 0.1, &[new_block]);

        let stronger = |g: &TxGraph| {
            let n1 = g.node_of(AccountId(1)).unwrap();
            let n2 = g.node_of(AccountId(2)).unwrap();
            let n3 = g.node_of(AccountId(3)).unwrap();
            g.weight_between(n1, n3) > g.weight_between(n1, n2)
        };
        assert!(
            !stronger(&raw),
            "raw history is dominated by the stale edge"
        );
        assert!(stronger(&decayed), "decayed history follows the drift");
    }
}
