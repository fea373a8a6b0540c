//! Name-based construction of allocators — the single wiring point for
//! every consumer (CLI, bench harness, simulator, chain engine, examples).
//!
//! Each name resolves to *both* entry points of the two-level allocation
//! API: a batch [`Allocator`] (the one-shot §V-B call) and a
//! [`StreamingAllocator`] (the epoch-driven §V-C service). Consumers stop
//! hand-maintaining `match method { "txallo" | "hash" | ... }` lists: they
//! look names up here, and unknown-name errors enumerate what the table
//! holds.

use std::fmt;

use crate::params::TxAlloParams;
use crate::scheduler::ShardScheduler;
use crate::streaming::{
    BatchSolver, GlobalStream, HybridSchedule, HybridStream, SchedulerStream, StreamingAllocator,
};
use crate::{Allocator, GTxAllo, HashAllocator, MetisAllocator};

/// Every name the table holds, sorted.
const NAMES: [&str; 4] = ["hash", "metis", "scheduler", "txallo"];

/// Lookup failure: the requested name is not in the table. The display
/// message enumerates the known names, so CLI errors stay accurate as the
/// table changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAllocator {
    /// The name that failed to resolve.
    pub requested: String,
    /// Every known name, sorted.
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

/// The closed name → allocator table (see the [module docs](self)): the
/// methods of the paper's comparison (legend of Figs. 2–8).
///
/// | name        | batch              | streaming                       |
/// |-------------|--------------------|---------------------------------|
/// | `txallo`    | [`GTxAllo`]        | [`HybridStream`] (per schedule) |
/// | `hash`      | [`HashAllocator`]  | [`GlobalStream`] re-hash        |
/// | `metis`     | [`MetisAllocator`] | [`GlobalStream`] re-partition   |
/// | `scheduler` | [`ShardScheduler`] | [`SchedulerStream`] (tx-level)  |
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocatorRegistry;

impl AllocatorRegistry {
    /// The table.
    pub fn builtin() -> Self {
        Self
    }

    /// Every name, sorted.
    pub fn names(&self) -> Vec<String> {
        NAMES.iter().map(|name| name.to_string()).collect()
    }

    /// Whether `name` is in the table.
    pub fn contains(&self, name: &str) -> bool {
        NAMES.contains(&name)
    }

    fn unknown(&self, name: &str) -> UnknownAllocator {
        UnknownAllocator {
            requested: name.to_string(),
            registered: self.names(),
        }
    }

    /// Builds the batch entry point for `name`.
    pub fn batch(
        &self,
        name: &str,
        params: &TxAlloParams,
    ) -> Result<Box<dyn Allocator>, UnknownAllocator> {
        Ok(match name {
            "txallo" => Box::new(GTxAllo::new(params.clone())),
            "hash" => Box::new(HashAllocator::new(params.shards)),
            "metis" => Box::new(MetisAllocator::new(params.shards)),
            "scheduler" => Box::new(ShardScheduler::new(params)),
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
        let (label, solver) = match name {
            "txallo" => return Ok(Box::new(HybridStream::new(params.clone(), schedule))),
            "scheduler" => return Ok(Box::new(SchedulerStream::new())),
            "hash" => ("Random", BatchSolver::Hash),
            "metis" => ("Metis", BatchSolver::Metis),
            _ => return Err(self.unknown(name)),
        };
        Ok(Box::new(GlobalStream::new(label, params.clone(), solver)))
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
            vec!["hash", "metis", "scheduler", "txallo"]
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
            message.contains("hash|metis|scheduler|txallo"),
            "error must enumerate dynamically: {message}"
        );
    }

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
        let mut from_registry = registry.batch("scheduler", &params).unwrap();
        let direct = ShardScheduler::new(&params).allocate_dataset(&dataset);
        assert_eq!(from_registry.allocate(&dataset), direct);
    }
}
