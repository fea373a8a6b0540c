//! The METIS-based graph allocation baseline (\[17\]–\[19\]).
//!
//! Thin adapter that feeds the transaction graph to the
//! [`txallo_metis`] multilevel partitioner, the backbone of Fynn et al.
//! and BrokerChain. It minimizes edge cut under *vertex-weight* balance —
//! precisely the objective mismatch (§II-C) TxAllo improves upon.

use txallo_metis::metis_partition;

use crate::allocation::Allocation;
use txallo_graph::TxGraph;

/// METIS-style allocator.
#[derive(Debug, Clone)]
pub struct MetisAllocator {
    shards: usize,
}

impl MetisAllocator {
    /// Creates the allocator for `shards` shards (direct k-way
    /// partitioning).
    pub fn new(shards: usize) -> Self {
        Self { shards }
    }

    /// Partitions the accounts of `graph`.
    pub fn allocate_graph(&self, graph: &TxGraph) -> Allocation {
        Allocation::new(metis_partition(graph, self.shards).parts, self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsReport;
    use crate::params::TxAlloParams;
    use txallo_model::{AccountId, Transaction};

    #[test]
    fn partitions_clusters_cleanly() {
        let mut g = TxGraph::new();
        for base in [0u64, 100, 200] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        g.ingest_transaction(&Transaction::transfer(AccountId(0), AccountId(100)));
        g.ingest_transaction(&Transaction::transfer(AccountId(100), AccountId(200)));
        let alloc = MetisAllocator::new(3).allocate_graph(&g);
        let params = TxAlloParams::for_graph(&g, 3);
        let r = MetricsReport::compute(&g, &alloc, &params);
        assert!(r.cross_shard_ratio < 0.25, "γ = {}", r.cross_shard_ratio);
    }

    #[test]
    fn is_deterministic() {
        let mut g = TxGraph::new();
        for i in 0..40u64 {
            g.ingest_transaction(&Transaction::transfer(
                AccountId(i),
                AccountId((i * 3) % 40),
            ));
        }
        let a = MetisAllocator::new(4).allocate_graph(&g);
        let b = MetisAllocator::new(4).allocate_graph(&g);
        assert_eq!(a, b);
    }
}
