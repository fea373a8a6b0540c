//! CLI subcommand implementations.

pub mod allocate;
pub mod convert;
pub mod evaluate;
pub mod generate;
pub mod simulate;
pub mod stats;

use std::fs::File;
use std::io::BufReader;

use txallo_core::Dataset;
use txallo_workload::read_ledger_csv;

use crate::args::ArgMap;

/// A subcommand: its entry point and the flags it reads.
pub type Command = (fn(&ArgMap) -> Result<(), String>, &'static [&'static str]);

/// Every subcommand by name, in usage order.
pub const COMMANDS: &[(&str, Command)] = &[
    ("generate", (generate::run, generate::FLAGS)),
    ("stats", (stats::run, stats::FLAGS)),
    ("allocate", (allocate::run, allocate::FLAGS)),
    ("evaluate", (evaluate::run, evaluate::FLAGS)),
    ("simulate", (simulate::run, simulate::FLAGS)),
    ("convert", (convert::run, convert::FLAGS)),
];

/// The subcommand called `name`, if there is one.
pub fn lookup(name: &str) -> Option<Command> {
    COMMANDS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, command)| command)
}

/// `--eta`: the workload of a cross-shard transaction, a finite value of
/// at least 1 (an intra-shard one costs 1), default 2.
pub fn eta_flag(args: &ArgMap) -> Result<f64, String> {
    let expected = "a finite value of at least 1";
    args.checked_f64("eta", 2.0, expected, |eta| eta >= 1.0 && eta.is_finite())
}

/// Loads `--trace <path>` into a dataset.
pub fn load_dataset(args: &ArgMap) -> Result<Dataset, String> {
    let path = args.required("trace")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let ledger = read_ledger_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    if ledger.transaction_count() == 0 {
        return Err(format!("{path} contains no transactions"));
    }
    Ok(Dataset::from_ledger(ledger))
}
