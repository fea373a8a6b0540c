//! The sharded-blockchain substrate TxAllo runs on.
//!
//! The paper's model (§II-B, §III-A, §IV-A) presumes a permissionless
//! sharded chain with:
//!
//! * a **BFT consensus instance per shard** (PBFT-style; an intra-shard
//!   transaction commits in one 3-phase round);
//! * a **cross-shard atomic-commit protocol** (OmniLedger's client-driven
//!   Atomix: lock in every input shard, then commit/abort everywhere) —
//!   the reason a cross-shard transaction costs "an extra round of
//!   consensus" and motivates the workload parameter `η > 1`;
//! * **periodic miner reshuffling** to prevent single-shard take-over
//!   (Elastico-style), which is why every shard has statistically equal
//!   processing capacity `λ` — the assumption behind Eq. 3.
//!
//! This crate implements that substrate as a deterministic message-level
//! simulation. Beyond making the model concrete, it lets us *measure* `η`:
//! [`engine::ChainEngine`] tallies the per-shard work (consensus messages
//! and rounds) of intra vs cross transactions, and the
//! `experiments measure-eta` harness reports the observed ratio — landing
//! in the 2–10 band the paper sweeps.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod atomix;
pub mod engine;
pub mod error;
pub mod fault;
pub mod pbft;
pub mod service;
pub mod validator;

pub use atomix::{AtomixOutcome, AtomixProtocol};
pub use engine::{ChainEngine, ChainEngineConfig, EngineReport};
pub use error::ChainError;
pub use fault::{FaultInjector, FaultPlan};
pub use pbft::{ConsensusOutcome, PbftShard};
pub use service::{ChainService, ChainServiceConfig};
pub use validator::{Validator, ValidatorId, ValidatorSet};
