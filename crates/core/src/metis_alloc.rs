//! The METIS-based graph allocation baseline (\[17\]–\[19\]).
//!
//! Thin adapter that feeds the transaction graph to the
//! [`txallo_metis`] multilevel partitioner, the backbone of Fynn et al.
//! and BrokerChain. It minimizes edge cut under *vertex-weight* balance —
//! precisely the objective mismatch (§II-C) TxAllo improves upon.

use txallo_metis::{metis_partition, recursive_bisection_partition, MetisConfig};

use crate::allocation::Allocation;
use crate::dataset::Dataset;
use crate::params::TxAlloParams;
use crate::Allocator;
use txallo_graph::TxGraph;

/// METIS-style allocator.
#[derive(Debug, Clone)]
pub struct MetisAllocator {
    config: MetisConfig,
    recursive: bool,
}

impl MetisAllocator {
    /// Creates the allocator for `shards` shards with METIS defaults
    /// (direct k-way partitioning).
    pub fn new(shards: usize) -> Self {
        Self {
            config: MetisConfig::new(shards),
            recursive: false,
        }
    }

    /// Creates the allocator in recursive-bisection mode — the strategy
    /// real `pmetis` uses, with `⌈log₂ k⌉` multilevel passes (slower,
    /// often slightly better cuts).
    pub fn recursive(shards: usize) -> Self {
        Self {
            config: MetisConfig::new(shards),
            recursive: true,
        }
    }

    /// Creates the allocator for `params.shards` shards whose partitioner
    /// runs on `params.threads` workers (the partition is the same at
    /// every count): direct k-way, or recursive bisection when `recursive`.
    pub fn for_params(params: &TxAlloParams, recursive: bool) -> Self {
        Self {
            config: MetisConfig::new(params.shards).with_threads(params.threads),
            recursive,
        }
    }

    /// Creates the allocator with a custom partitioner configuration.
    pub fn with_config(config: MetisConfig) -> Self {
        Self {
            config,
            recursive: false,
        }
    }

    /// Partitions the accounts of `graph`.
    pub fn allocate_graph(&self, graph: &TxGraph) -> Allocation {
        let result = if self.recursive {
            recursive_bisection_partition(graph, &self.config)
        } else {
            metis_partition(graph, &self.config)
        };
        Allocation::new(result.parts, self.config.parts)
    }
}

impl Allocator for MetisAllocator {
    fn name(&self) -> &str {
        "Metis"
    }

    fn allocate(&mut self, dataset: &Dataset) -> Allocation {
        self.allocate_graph(dataset.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsReport;
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

    #[test]
    fn params_constructor_carries_the_thread_count() {
        let mut g = TxGraph::new();
        for i in 0..60u64 {
            g.ingest_transaction(&Transaction::transfer(
                AccountId(i),
                AccountId((i * 7 + 1) % 60),
            ));
        }
        let serial = TxAlloParams::for_graph(&g, 4).with_threads(1);
        for recursive in [false, true] {
            let expected = if recursive {
                MetisAllocator::recursive(4)
            } else {
                MetisAllocator::new(4)
            }
            .allocate_graph(&g);
            for threads in [1usize, 3] {
                let params = serial.clone().with_threads(threads);
                let alloc = MetisAllocator::for_params(&params, recursive);
                assert_eq!(alloc.config.threads, threads);
                assert_eq!(alloc.config.parts, 4);
                assert_eq!(alloc.recursive, recursive);
                assert_eq!(alloc.allocate_graph(&g), expected, "{threads} threads");
            }
        }
    }
}
