//! Name-based construction of allocators — the single wiring point for
//! every consumer (CLI, bench harness, simulator, chain engine, examples).
//!
//! Each registered name resolves to *both* entry points of the two-level
//! allocation API: a batch [`Allocator`] (the one-shot §V-B call) and a
//! [`StreamingAllocator`] (the epoch-driven §V-C service). Consumers stop
//! hand-maintaining `match method { "txallo" | "hash" | ... }` lists: they
//! look names up here, and unknown-name errors enumerate what is actually
//! registered.

use std::collections::BTreeMap;
use std::fmt;

use crate::params::TxAlloParams;
use crate::scheduler::{SchedulerConfig, ShardScheduler};
use crate::streaming::{
    AdaptiveStream, GlobalStream, HybridSchedule, HybridStream, SchedulerStream, StreamingAllocator,
};
use crate::{Allocator, GTxAllo, HashAllocator, MetisAllocator};

/// Builds the batch entry point for one registered allocator.
pub type BatchBuilder = Box<dyn Fn(&TxAlloParams) -> Box<dyn Allocator> + Send + Sync>;

/// Builds the streaming entry point for one registered allocator. The
/// [`HybridSchedule`] parameterizes TxAllo's global-refresh policy;
/// schedule-free allocators ignore it.
pub type StreamBuilder =
    Box<dyn Fn(&TxAlloParams, HybridSchedule) -> Box<dyn StreamingAllocator> + Send + Sync>;

/// Lookup failure: the requested name is not registered. The display
/// message enumerates the registered names, so CLI errors stay accurate
/// as registrations change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAllocator {
    /// The name that failed to resolve.
    pub requested: String,
    /// Every registered name, sorted.
    pub registered: Vec<String>,
}

impl fmt::Display for UnknownAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown method {:?} (registered: {})",
            self.requested,
            self.registered.join("|")
        )
    }
}

impl std::error::Error for UnknownAllocator {}

struct Entry {
    batch: BatchBuilder,
    streaming: StreamBuilder,
}

/// The name → builder table (see the [module docs](self)).
///
/// [`AllocatorRegistry::builtin`] registers the paper's four methods;
/// [`AllocatorRegistry::register`] adds custom ones (e.g. experimental
/// allocators in downstream crates) without touching any consumer.
pub struct AllocatorRegistry {
    entries: BTreeMap<String, Entry>,
}

impl fmt::Debug for AllocatorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AllocatorRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl AllocatorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// The methods of the paper's comparison (legend of Figs. 2–8), plus
    /// the recursive-bisection METIS variant of the §VI-B6 running-time
    /// table:
    ///
    /// | name              | batch              | streaming                       |
    /// |-------------------|--------------------|---------------------------------|
    /// | `txallo`          | [`GTxAllo`]        | [`HybridStream`] (per schedule) |
    /// | `hash`            | [`HashAllocator`]  | [`GlobalStream`] re-hash        |
    /// | `metis`           | [`MetisAllocator`] | [`GlobalStream`] re-partition   |
    /// | `metis-recursive` | [`MetisAllocator::recursive`] | [`GlobalStream`]     |
    /// | `scheduler`       | [`ShardScheduler`] | [`SchedulerStream`] (tx-level)  |
    pub fn builtin() -> Self {
        let mut registry = Self::new();
        registry.register(
            "txallo",
            Box::new(|params| Box::new(GTxAllo::new(params.clone()))),
            Box::new(|params, schedule| match schedule {
                HybridSchedule::AlwaysAdaptive => Box::new(AdaptiveStream::new(params.clone())),
                _ => Box::new(HybridStream::new(params.clone(), schedule)),
            }),
        );
        registry.register(
            "hash",
            Box::new(|params| Box::new(HashAllocator::new(params.shards))),
            Box::new(|params, _| {
                Box::new(GlobalStream::new(
                    "Random",
                    params.clone(),
                    Box::new(|graph, p| HashAllocator::new(p.shards).allocate_graph(graph)),
                ))
            }),
        );
        registry.register(
            "metis",
            Box::new(|params| Box::new(MetisAllocator::new(params.shards))),
            Box::new(|params, _| {
                Box::new(GlobalStream::new(
                    "Metis",
                    params.clone(),
                    Box::new(|graph, p| MetisAllocator::new(p.shards).allocate_graph(graph)),
                ))
            }),
        );
        registry.register(
            "metis-recursive",
            Box::new(|params| Box::new(MetisAllocator::recursive(params.shards))),
            Box::new(|params, _| {
                Box::new(GlobalStream::new(
                    "Metis (recursive bisection)",
                    params.clone(),
                    Box::new(|graph, p| MetisAllocator::recursive(p.shards).allocate_graph(graph)),
                ))
            }),
        );
        registry.register(
            "scheduler",
            Box::new(|params| {
                // `λ = |T|/k` is exactly `params.capacity`, so the
                // scheduler's paper configuration derives from the shared
                // hyper-parameters without a separate total-weight plumb.
                Box::new(ShardScheduler::new(SchedulerConfig {
                    shards: params.shards,
                    eta: params.eta,
                    capacity: params.capacity,
                    buffer_ratio: 1.0,
                }))
            }),
            Box::new(|_, _| Box::new(SchedulerStream::new())),
        );
        registry
    }

    /// Registers (or replaces) `name` with its two builders.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        batch: BatchBuilder,
        streaming: StreamBuilder,
    ) {
        self.entries.insert(name.into(), Entry { batch, streaming });
    }

    /// Every registered name, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    fn entry(&self, name: &str) -> Result<&Entry, UnknownAllocator> {
        self.entries.get(name).ok_or_else(|| UnknownAllocator {
            requested: name.to_string(),
            registered: self.names(),
        })
    }

    /// Builds the batch entry point for `name`.
    pub fn batch(
        &self,
        name: &str,
        params: &TxAlloParams,
    ) -> Result<Box<dyn Allocator>, UnknownAllocator> {
        Ok((self.entry(name)?.batch)(params))
    }

    /// Builds the streaming entry point for `name` with the given
    /// global-refresh policy (ignored by schedule-free allocators).
    pub fn streaming(
        &self,
        name: &str,
        params: &TxAlloParams,
        schedule: HybridSchedule,
    ) -> Result<Box<dyn StreamingAllocator>, UnknownAllocator> {
        Ok((self.entry(name)?.streaming)(params, schedule))
    }
}

impl Default for AllocatorRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;
    use txallo_model::{AccountId, Block, Ledger, Transaction};

    fn tiny_dataset() -> Dataset {
        let txs: Vec<Transaction> = (0..20u64)
            .map(|i| Transaction::transfer(AccountId(i % 5), AccountId(5 + i % 7)))
            .collect();
        Dataset::from_ledger(Ledger::from_blocks(vec![Block::new(0, txs)]).unwrap())
    }

    #[test]
    fn builtin_has_the_papers_methods() {
        let registry = AllocatorRegistry::builtin();
        assert_eq!(
            registry.names(),
            vec!["hash", "metis", "metis-recursive", "scheduler", "txallo"]
        );
        assert!(registry.contains("txallo"));
        assert!(!registry.contains("nope"));
    }

    #[test]
    fn unknown_name_error_lists_registrations() {
        let registry = AllocatorRegistry::builtin();
        let params = TxAlloParams::for_total_weight(10.0, 2);
        let err = match registry.batch("nope", &params) {
            Err(err) => err,
            Ok(_) => panic!("lookup must fail"),
        };
        let message = err.to_string();
        assert!(message.contains("unknown method"), "{message}");
        assert!(
            message.contains("hash|metis|metis-recursive|scheduler|txallo"),
            "error must enumerate dynamically: {message}"
        );
    }

    #[test]
    fn custom_registration_resolves() {
        let mut registry = AllocatorRegistry::builtin();
        registry.register(
            "always-zero",
            Box::new(|params| Box::new(HashAllocator::new(params.shards.min(1)))),
            Box::new(|params, _| {
                Box::new(GlobalStream::new(
                    "always-zero",
                    params.clone(),
                    Box::new(|graph, _| {
                        Allocation::new(vec![0; txallo_graph::WeightedGraph::node_count(graph)], 1)
                    }),
                ))
            }),
        );
        assert!(registry.contains("always-zero"));
        assert_eq!(registry.names().len(), 6);
        let dataset = tiny_dataset();
        let params = TxAlloParams::for_graph(dataset.graph(), 1);
        let mut batch = registry.batch("always-zero", &params).unwrap();
        let allocation = batch.allocate(&dataset);
        assert!(allocation.labels().iter().all(|&l| l == 0));
    }

    use crate::allocation::Allocation;

    #[test]
    fn batch_builders_match_direct_construction() {
        let dataset = tiny_dataset();
        let k = 3;
        let params = TxAlloParams::for_graph(dataset.graph(), k);
        let registry = AllocatorRegistry::builtin();
        for (name, expected) in [
            (
                "txallo",
                GTxAllo::new(params.clone()).allocate_graph(dataset.graph()),
            ),
            (
                "hash",
                HashAllocator::new(k).allocate_graph(dataset.graph()),
            ),
            (
                "metis",
                MetisAllocator::new(k).allocate_graph(dataset.graph()),
            ),
        ] {
            let mut allocator = registry.batch(name, &params).unwrap();
            assert_eq!(
                allocator.allocate(&dataset),
                expected,
                "{name} diverged from direct construction"
            );
        }
        // Scheduler: registry config must equal the paper's `new(k, |T|)`.
        let mut from_registry = registry.batch("scheduler", &params).unwrap();
        let direct = ShardScheduler::new(SchedulerConfig::new(
            k,
            txallo_graph::WeightedGraph::total_weight(dataset.graph()),
        ))
        .allocate_dataset(&dataset);
        assert_eq!(from_registry.allocate(&dataset), direct);
    }
}
