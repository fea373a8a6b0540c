//! Synthetic Ethereum-like workloads and trace I/O.
//!
//! The paper evaluates on 91.8M real Ethereum transactions (blocks
//! 10,000,000–10,600,000). That dataset is not redistributable, so this
//! crate synthesizes a *statistically equivalent* trace with
//! [`StreamingWorkload`] (see PAPER.md, "Deviations and reproduction
//! notes"), with the properties the evaluation depends on:
//!
//! * **long-tailed account activity** — Zipf-distributed participation with
//!   a single dominant account (paper: ≈11% of all transactions);
//! * **latent community structure** — accounts belong to power-law-sized
//!   groups and prefer in-group counterparties, which is what graph-based
//!   allocators exploit;
//! * **multi-input/multi-output transactions** and **self-loops**;
//! * **temporal drift** — group popularity rotates slowly and new accounts
//!   are born over time, so adaptive re-allocation has real work to do.
//!
//! Every block is a pure function of `(config, seed, height)`, so tests,
//! figures, `txallo generate` and the streamed replays all draw the same
//! trace from the same flags.
//!
//! Real traces can also be round-tripped through a simple CSV format
//! ([`csvio`]) for replaying actual Ethereum exports.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod config;
pub mod csvio;
pub mod etl;
pub mod stream;
pub mod zipf;

pub use config::WorkloadConfig;
pub use csvio::{read_ledger_csv, write_ledger_csv, CsvError};
pub use etl::{address_to_account, read_ethereum_etl_csv};
pub use stream::StreamingWorkload;
pub use zipf::ZipfTable;
