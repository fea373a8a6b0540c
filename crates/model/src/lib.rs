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
//!   account set `A_Tx` and the clique-expansion pair count `π(Tx)` used by
//!   the transaction graph are computed here so every consumer agrees on
//!   them.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

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
