//! `txallo` — command-line interface to the TxAllo toolkit.
//!
//! ```text
//! txallo generate  --out trace.csv [--accounts N] [--transactions N] [--seed S]
//!                  [--block-size N] [--groups N] [--hot-share F] [--intra-prob F]
//! txallo stats     --trace trace.csv
//! txallo allocate  --trace trace.csv --method <name>
//!                  [-k N] [--eta F] [--out mapping.csv]
//! txallo evaluate  --trace trace.csv --mapping mapping.csv [--eta F]
//! txallo simulate  [--method <name>] [--shards N] [--epochs N]
//!                  [--epoch-blocks N] [--gap N] [--seed S] [--eta F] [--decay F]
//!                  [--accounts N]
//! txallo convert   --etl transactions.csv --out trace.csv
//! ```
//!
//! Each command accepts exactly the flags listed for it; any other flag
//! is an error (exit code 2) naming the flag.
//!
//! Method names come from `txallo_core::AllocatorRegistry::builtin()`;
//! the usage text enumerates them at runtime.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

mod args;
mod commands;
mod mapping;

use args::ArgMap;

fn main() {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let args = match ArgMap::parse(raw) {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return;
    }
    let Some((run, flags)) = commands::lookup(&command) else {
        fail(&format!("unknown command {command:?}\n{}", usage()));
    };
    if let Err(e) = args.reject_unknown(flags).and_then(|()| run(&args)) {
        fail(&e);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage() -> String {
    let methods = txallo_core::AllocatorRegistry::builtin().names().join("|");
    format!(
        "txallo — dynamic transaction allocation for sharded blockchains

USAGE:
  txallo generate  --out trace.csv [--accounts N] [--transactions N] [--seed S]
                   [--block-size N] [--groups N] [--hot-share F] [--intra-prob F]
  txallo stats     --trace trace.csv
  txallo allocate  --trace trace.csv --method {methods} \\
                   [-k N] [--eta F] [--out mapping.csv]
  txallo evaluate  --trace trace.csv --mapping mapping.csv [--eta F]
  txallo simulate  [--method {methods}] [--shards N] [--epochs N]
                   [--epoch-blocks N] [--gap N] [--seed S] [--eta F] [--decay F]
                   [--accounts N]
  txallo convert   --etl transactions.csv --out trace.csv

Each command accepts exactly the flags listed for it.

simulate synthesizes each block on demand (streamed replay), so it never
materializes the ledger and runs at any --accounts scale. It runs
G-TxAllo every --gap epochs (default 10; 0 = never global) and A-TxAllo
in the others."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag a command accepts appears in that command's block of
    /// `usage()` (its `txallo <name>` line and the indented lines after it).
    #[test]
    fn usage_lists_every_accepted_flag() {
        let text = usage();
        for &(name, (_, flags)) in commands::COMMANDS {
            let head = format!("  txallo {name} ");
            let start = text.find(&head).expect("every command has a usage line");
            let block: String = text[start..]
                .lines()
                .enumerate()
                .take_while(|(i, line)| *i == 0 || line.starts_with("                   "))
                .map(|(_, line)| format!("{line}\n"))
                .collect();
            for flag in flags {
                let shown = format!("{} ", args::dashed(flag));
                assert!(
                    block.contains(&shown),
                    "usage of {name} does not show {shown:?}:\n{block}"
                );
            }
        }
    }
}
