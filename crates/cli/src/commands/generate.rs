//! `txallo generate` — write a synthetic Ethereum-like trace to CSV.

use std::fs::File;
use std::io::BufWriter;

use txallo_workload::{write_ledger_csv, StreamingWorkload, WorkloadConfig};

use crate::args::ArgMap;

/// The flags [`run`] reads.
pub const FLAGS: &[&str] = &[
    "out",
    "accounts",
    "transactions",
    "block-size",
    "groups",
    "hot-share",
    "intra-prob",
    "seed",
];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<(), String> {
    let out = args.required("out")?;
    let defaults = WorkloadConfig::default();
    let config = WorkloadConfig {
        accounts: args.parsed_or("accounts", defaults.accounts)?,
        transactions: args.parsed_or("transactions", defaults.transactions)?,
        block_size: args.parsed_or("block-size", defaults.block_size)?,
        groups: args.parsed_or("groups", defaults.groups)?,
        hot_account_share: args.parsed_or("hot-share", defaults.hot_account_share)?,
        intra_group_prob: args.parsed_or("intra-prob", defaults.intra_group_prob)?,
        ..defaults
    };
    let seed: u64 = args.parsed_or("seed", 42)?;
    config.check()?;

    let blocks = config.block_count();
    if blocks == 0 {
        return Err(format!(
            "--transactions {} fills no block of --block-size {}, so the trace would be empty",
            config.transactions, config.block_size
        ));
    }
    let ledger = StreamingWorkload::new(config, seed).ledger(blocks);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_ledger_csv(&ledger, BufWriter::new(file)).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} transactions in {} blocks ({} accounts) to {out}",
        ledger.transaction_count(),
        ledger.block_count(),
        ledger.stats().account_count
    );
    Ok(())
}
