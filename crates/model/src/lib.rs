//! Blockchain domain model for the TxAllo reproduction.
//!
//! This crate defines the account-based blockchain abstractions from §III-A
//! of the paper: accounts, multi-input/multi-output transactions, blocks and
//! the ledger, plus the shard identifiers used by every allocator.
//!
//! Design notes:
//! * Accounts are 64-bit opaque addresses ([`AccountId`]); the deterministic
//!   ordering required by the paper (§V-B, "the hash value of the accounts
//!   can determine the order of node sequence") is provided by
//!   [`hash::mix64`].
//! * Transactions keep their raw input/output lists; the deduplicated
//!   account set `A_Tx` is computed here so every consumer agrees on it.
//!   The transaction graph's clique expansion (each of the `C(|A_Tx|, 2)`
//!   pairs weighted `1/C(|A_Tx|, 2)`) is `txallo_graph`'s ingestion.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod account;
pub mod block;
pub mod error;
pub mod hash;
pub mod ledger;
pub mod transaction;

pub use account::{AccountId, ShardId};
pub use block::{Block, BlockHeight};
pub use error::ModelError;
pub use hash::{FxHashMap, FxHashSet};
pub use ledger::{Ledger, LedgerStats};
pub use transaction::Transaction;
