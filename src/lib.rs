//! # TxAllo
//!
//! A Rust reproduction of **"TxAllo: Dynamic Transaction Allocation in
//! Sharded Blockchain Systems"** (Zhang, Pan, Yu — ICDE 2023,
//! [arXiv:2212.11584](https://arxiv.org/abs/2212.11584)).
//!
//! TxAllo reduces the number of expensive cross-shard transactions in a
//! sharded account-based blockchain by treating account-to-shard assignment
//! as community detection on a weighted transaction graph, directly
//! optimizing a capacity-capped throughput objective.
//!
//! This facade crate re-exports the workspace's sub-crates:
//!
//! * [`model`] — blockchain domain model (accounts, transactions, blocks).
//! * [`graph`] — the weighted transaction graph (Definition 2).
//! * [`louvain`] — Louvain community detection (G-TxAllo initialization).
//! * [`metis`] — a METIS-style multilevel partitioner (baseline).
//! * [`core`] — metrics, the allocation framework, G-TxAllo, A-TxAllo and
//!   the baseline allocators.
//! * [`workload`] — synthetic Ethereum-like trace generation and CSV I/O.
//! * [`sim`] — the epoch-driven sharded-blockchain simulator.
//! * [`chain`] — the consensus substrate: per-shard PBFT, cross-shard
//!   Atomix and validator reshuffling (measures η empirically).
//!
//! ## Quickstart
//!
//! ```
//! use txallo::prelude::*;
//!
//! // Generate a small Ethereum-like trace and build its transaction graph.
//! let config = WorkloadConfig {
//!     accounts: 2_000,
//!     transactions: 10_000,
//!     block_size: 100,
//!     groups: 40,
//!     ..WorkloadConfig::default()
//! };
//! let ledger = StreamingWorkload::new(config, 42).ledger(100);
//! let dataset = Dataset::from_ledger(ledger);
//!
//! // Allocate accounts to 8 shards with G-TxAllo (resolved by name
//! // through the registry) and inspect the metrics.
//! let params = TxAlloParams::for_graph(dataset.graph(), 8);
//! let registry = AllocatorRegistry::builtin();
//! let allocation = registry.allocate("txallo", &params, &dataset).unwrap();
//! let report = MetricsReport::compute(dataset.graph(), &allocation, &params);
//!
//! // The graph has community structure, so TxAllo beats hashing easily.
//! assert!(report.cross_shard_ratio < 0.6);
//! assert!(report.throughput_normalized > 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub use txallo_chain as chain;
pub use txallo_core as core;
pub use txallo_graph as graph;
pub use txallo_louvain as louvain;
pub use txallo_metis as metis;
pub use txallo_model as model;
pub use txallo_sim as sim;
pub use txallo_workload as workload;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use txallo_chain::{
        ChainEngine, ChainEngineConfig, ChainService, ChainServiceConfig, EngineReport,
    };
    pub use txallo_core::{
        Allocation, AllocationUpdate, AllocatorRegistry, Dataset, EpochKind, MetricsReport,
        StateCarry, StreamingAllocator, TxAlloParams, UpdateKind,
    };
    pub use txallo_graph::{CsrGraph, GraphStats, NodeId, TxGraph, WeightedGraph};
    pub use txallo_model::{AccountId, Block, Ledger, ShardId, Transaction};
    pub use txallo_sim::{EpochReport, HybridSchedule, ShardedChainSim, SimConfig};
    pub use txallo_workload::{StreamingWorkload, WorkloadConfig};
}
