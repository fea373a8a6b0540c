//! The hash-based random allocation baseline (§II-C).
//!
//! Chainspace, Monoxide, OmniLedger and RapidChain all allocate accounts by
//! hashing their address: `shard = H(address) mod k`. It ignores history
//! entirely, which is why ~`1 − 1/k` of transactions end up cross-shard.

use crate::allocation::Allocation;
use txallo_graph::{fit_u32, TxGraph, WeightedGraph};

/// Hash-based account allocator.
#[derive(Debug, Clone)]
pub struct HashAllocator {
    shards: usize,
}

impl HashAllocator {
    /// Creates the allocator for `shards` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        Self { shards }
    }

    /// Allocates every account of `graph` by address hash.
    pub fn allocate_graph(&self, graph: &TxGraph) -> Allocation {
        let labels: Vec<u32> = (0..fit_u32(graph.node_count()))
            .map(|v| graph.account(v).hash_shard(self.shards).0)
            .collect();
        Allocation::new(labels, self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsReport;
    use crate::params::TxAlloParams;
    use txallo_model::{AccountId, Transaction};

    fn random_traffic(pairs: u64) -> TxGraph {
        let mut g = TxGraph::new();
        for i in 0..pairs {
            // Spread transfers over many distinct account pairs.
            g.ingest_transaction(&Transaction::transfer(
                AccountId(i * 2 + 1),
                AccountId(i * 2 + 2),
            ));
        }
        g
    }

    #[test]
    fn produces_valid_labels() {
        let g = random_traffic(100);
        let alloc = HashAllocator::new(7).allocate_graph(&g);
        assert_eq!(alloc.len(), g.node_count());
        assert!(alloc.labels().iter().all(|&l| l < 7));
    }

    #[test]
    fn cross_shard_ratio_approaches_one_minus_inverse_k() {
        // For independent uniform hashing, P(both endpoints same shard) = 1/k.
        let g = random_traffic(4000);
        for k in [2usize, 10, 20] {
            let alloc = HashAllocator::new(k).allocate_graph(&g);
            let params = TxAlloParams::for_graph(&g, k);
            let r = MetricsReport::compute(&g, &alloc, &params);
            let expected = 1.0 - 1.0 / k as f64;
            assert!(
                (r.cross_shard_ratio - expected).abs() < 0.06,
                "k={k}: γ = {} vs expected ≈ {expected}",
                r.cross_shard_ratio
            );
        }
    }

    #[test]
    fn is_deterministic() {
        let g = random_traffic(50);
        let a = HashAllocator::new(5).allocate_graph(&g);
        let b = HashAllocator::new(5).allocate_graph(&g);
        assert_eq!(a, b);
    }
}
