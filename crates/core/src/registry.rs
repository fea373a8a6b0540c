//! Name-based resolution of allocators — the single wiring point for
//! every consumer (CLI, bench harness, simulator, chain engine, examples).
//!
//! Each name resolves to *both* entry points of the two-level allocation
//! API: a one-shot batch allocation ([`AllocatorRegistry::allocate`], the
//! §V-B call) and a [`StreamingAllocator`] (the epoch-driven §V-C
//! service). Consumers stop hand-maintaining `match method { "txallo" |
//! "hash" | ... }` lists: they look names up here, and unknown-name errors
//! enumerate what the table holds.

use std::fmt;

use crate::allocation::Allocation;
use crate::dataset::Dataset;
use crate::params::TxAlloParams;
use crate::scheduler::ShardScheduler;
use crate::streaming::{
    BatchSolver, GlobalStream, HybridSchedule, HybridStream, SchedulerStream, StreamingAllocator,
};
use crate::{GTxAllo, HashAllocator, MetisAllocator};

/// Every name the table holds, sorted.
const NAMES: [&str; 4] = ["hash", "metis", "scheduler", "txallo"];

/// Lookup failure: the requested name is not in the table. The display
/// message enumerates the known names, so CLI errors stay accurate as the
/// table changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAllocator {
    /// The name that failed to resolve.
    pub requested: String,
}

impl fmt::Display for UnknownAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown method {:?} (registered: {})",
            self.requested,
            NAMES.join("|")
        )
    }
}

impl std::error::Error for UnknownAllocator {}

/// The closed name → allocator table (see the [module docs](self)): the
/// methods of the paper's comparison (legend of Figs. 2–8).
///
/// | name        | batch                                | streaming                       |
/// |-------------|--------------------------------------|---------------------------------|
/// | `txallo`    | [`GTxAllo::allocate_graph`]          | [`HybridStream`] (per schedule) |
/// | `hash`      | [`HashAllocator::allocate_graph`]    | [`GlobalStream`] re-hash        |
/// | `metis`     | [`MetisAllocator::allocate_graph`]   | [`GlobalStream`] re-partition   |
/// | `scheduler` | [`ShardScheduler::allocate_dataset`] | [`SchedulerStream`] (tx-level)  |
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocatorRegistry;

impl AllocatorRegistry {
    /// The table.
    pub fn builtin() -> Self {
        Self
    }

    /// Every name, sorted.
    pub fn names(&self) -> &'static [&'static str] {
        &NAMES
    }

    /// Whether `name` is in the table.
    pub fn contains(&self, name: &str) -> bool {
        NAMES.contains(&name)
    }

    fn unknown(&self, name: &str) -> UnknownAllocator {
        UnknownAllocator {
            requested: name.to_string(),
        }
    }

    /// Allocates every account of `dataset` with the method `name`: the
    /// one-shot batch entry point.
    pub fn allocate(
        &self,
        name: &str,
        params: &TxAlloParams,
        dataset: &Dataset,
    ) -> Result<Allocation, UnknownAllocator> {
        let graph = dataset.graph();
        Ok(match name {
            "txallo" => GTxAllo::new(params.clone()).allocate_graph(graph),
            "hash" => HashAllocator::new(params.shards).allocate_graph(graph),
            "metis" => MetisAllocator::new(params.shards).allocate_graph(graph),
            "scheduler" => ShardScheduler::new(params).allocate_dataset(dataset),
            _ => return Err(self.unknown(name)),
        })
    }

    /// Builds the streaming entry point for `name` with the given
    /// global-refresh policy (ignored by schedule-free allocators).
    pub fn streaming(
        &self,
        name: &str,
        params: &TxAlloParams,
        schedule: HybridSchedule,
    ) -> Result<Box<dyn StreamingAllocator>, UnknownAllocator> {
        let solver = match name {
            "txallo" => return Ok(Box::new(HybridStream::new(params.clone(), schedule))),
            "scheduler" => return Ok(Box::new(SchedulerStream::new())),
            "hash" => BatchSolver::Hash,
            "metis" => BatchSolver::Metis,
            _ => return Err(self.unknown(name)),
        };
        Ok(Box::new(GlobalStream::new(params.clone(), solver)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(registry.names(), ["hash", "metis", "scheduler", "txallo"]);
        assert!(registry.contains("txallo"));
        assert!(!registry.contains("nope"));
    }

    #[test]
    fn unknown_name_error_lists_registrations() {
        let registry = AllocatorRegistry::builtin();
        let params = TxAlloParams::for_total_weight(10.0, 2);
        let err = registry
            .allocate("nope", &params, &tiny_dataset())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"unknown method "nope" (registered: hash|metis|scheduler|txallo)"#,
            "the error must enumerate the table"
        );
    }

    #[test]
    fn batch_builders_match_direct_construction() {
        let dataset = tiny_dataset();
        let (graph, k) = (dataset.graph(), 3);
        let params = TxAlloParams::for_graph(graph, k);
        let registry = AllocatorRegistry::builtin();
        for (name, direct) in [
            ("hash", HashAllocator::new(k).allocate_graph(graph)),
            ("metis", MetisAllocator::new(k).allocate_graph(graph)),
            (
                "scheduler",
                ShardScheduler::new(&params).allocate_dataset(&dataset),
            ),
            ("txallo", GTxAllo::new(params.clone()).allocate_graph(graph)),
        ] {
            assert_eq!(
                registry.allocate(name, &params, &dataset),
                Ok(direct),
                "{name} diverged from its direct entry point"
            );
        }
    }
}
