//! `txallo convert` — convert an Ethereum-ETL `transactions.csv` export
//! into the toolkit's compact trace format.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use txallo_workload::{read_ethereum_etl_csv, write_ledger_csv};

use crate::args::ArgMap;

/// The flags [`run`] reads.
pub const FLAGS: &[&str] = &["etl", "out"];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<(), String> {
    let input = args.required("etl")?;
    let output = args.required("out")?;
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let ledger = read_ethereum_etl_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    if ledger.transaction_count() == 0 {
        return Err(format!("{input} contains no transactions"));
    }
    let out = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    write_ledger_csv(&ledger, BufWriter::new(out)).map_err(|e| e.to_string())?;
    eprintln!(
        "converted {} transactions in {} blocks ({} accounts) -> {output}",
        ledger.transaction_count(),
        ledger.block_count(),
        ledger.stats().account_count
    );
    Ok(())
}
