//! The TxAllo allocation framework (§III–§V of the paper).
//!
//! This crate holds the paper's primary contribution:
//!
//! * the blockchain-level performance model — cross-shard ratio `γ`,
//!   per-shard workload `σᵢ`, balance `ρ`, capacity-capped throughput `Λ`
//!   and confirmation latency `ζ` ([`metrics`]);
//! * the per-community accounting and the throughput-gain delta formulas
//!   of §V-B ([`state`]);
//! * the two TxAllo algorithms — global [`GTxAllo`] (Algorithm 1) and
//!   adaptive A-TxAllo (Algorithm 2), served by an [`AtxAlloSession`];
//! * the evaluation baselines: hash-based random allocation
//!   ([`HashAllocator`]), the METIS-backed graph partitioner
//!   ([`MetisAllocator`]) and the transaction-level
//!   [`ShardScheduler`].
//!
//! The allocation API is two-level:
//!
//! * **batch** (§V-B): every algorithm implements [`Allocator`] over a
//!   [`Dataset`] (ledger + transaction graph), for one-shot allocation;
//! * **streaming** (§V-C): [`StreamingAllocator`] serves an epoch-driven
//!   chain — `begin` on the warm-up history, `on_block_nodes` per
//!   committed block, `end_epoch` returning the [`AllocationUpdate`]
//!   *diff* of moved accounts (see [`streaming`]), served by the one
//!   [`EpochLoop`] every consumer drives.
//!
//! Consumers resolve either entry point by name through the
//! [`AllocatorRegistry`] instead of constructing algorithms directly.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod ablation;
pub mod allocation;
pub mod atxallo;
pub mod broker;
pub mod checkpoint;
pub mod dataset;
pub mod epoch_loop;
pub mod gtxallo;
pub mod hash_alloc;
mod incremental;
pub mod metis_alloc;
pub mod metrics;
pub mod params;
pub mod registry;
pub mod scheduler;
pub mod session;
pub mod state;
pub mod streaming;

pub use ablation::{gtxallo_full_scan, gtxallo_with_init_strategy, InitStrategy};
pub use allocation::Allocation;
pub use atxallo::{AtxAlloOutcome, UpdatePath};
pub use broker::{
    allocate_with_brokers, evaluate_with_brokers, select_split_accounts, BrokerConfig,
    BrokeredReport, MaskedGraph,
};
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointError, CommunityAggregates,
    StreamState,
};
pub use dataset::Dataset;
pub use epoch_loop::EpochLoop;
pub use gtxallo::{GTxAllo, GTxAlloOutcome, GTxAlloPlan};
pub use hash_alloc::HashAllocator;
pub use metis_alloc::MetisAllocator;
pub use metrics::{latency_of_normalized_load, MetricsReport};
pub use params::{TxAlloParams, MAX_SWEEPS};
pub use registry::{AllocatorRegistry, UnknownAllocator};
pub use scheduler::{SchedulerConfig, SchedulerState, ShardScheduler};
pub use session::AtxAlloSession;
pub use state::{CommunityState, MoveScratch};
pub use streaming::{
    AccountMove, AllocationUpdate, Degradation, EpochKind, GlobalStream, HybridSchedule,
    HybridStream, SchedulerStream, StateCarry, StreamingAllocator, UpdateKind,
};
// The shared gain tie-break tolerance: one constant across Louvain and the
// TxAllo sweeps (see its docs in `txallo_louvain` for the determinism
// contract).
pub use txallo_louvain::GAIN_EPS;

/// A transaction-allocation algorithm: maps a dataset to an account-shard
/// assignment (Definition 1 of the paper).
pub trait Allocator {
    /// Human-readable name used in experiment output (matches the legend
    /// labels of the paper's figures).
    fn name(&self) -> &str;

    /// Computes the account-shard mapping for `dataset`.
    fn allocate(&mut self, dataset: &Dataset) -> Allocation;
}
