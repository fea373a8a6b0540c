//! Epoch-driven simulation of a sharded blockchain under dynamic
//! transaction allocation (the §VI-C experiments).
//!
//! The simulator consumes a block stream in *epochs* of `τ₁` blocks
//! (paper: 300 blocks ≈ one hour of Ethereum). At the end of each epoch it
//! updates the account-shard mapping — adaptively with A-TxAllo, or
//! globally with G-TxAllo every `τ₂` epochs — and then scores the epoch's
//! transactions under the updated mapping using the blockchain-level
//! definitions of §III-B (per-transaction `µ`, capacity-capped
//! throughput). Wall-clock time of every update is recorded, reproducing
//! Fig. 9 (throughput evolution) and Fig. 10 (running time).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod driver;
pub mod epoch;
pub mod queue;

pub use driver::{ShardedChainSim, SimConfig};
pub use epoch::{epoch_metrics, EpochMetrics, EpochReport, UpdateKind};
pub use queue::{QueueStats, ShardQueueSim};
pub use txallo_core::HybridSchedule;
