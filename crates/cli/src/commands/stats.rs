//! `txallo stats` — dataset structure statistics (the Fig. 1 analysis).

use txallo_graph::GraphStats;

use crate::args::ArgMap;
use crate::commands::load_dataset;

/// The flags [`run`] reads.
pub const FLAGS: &[&str] = &["trace"];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let ledger_stats = dataset.ledger().stats();
    let graph_stats = GraphStats::compute(dataset.graph());
    println!("blocks                 : {}", ledger_stats.block_count);
    println!(
        "transactions           : {}",
        ledger_stats.transaction_count
    );
    println!("accounts               : {}", ledger_stats.account_count);
    println!("self-loop transactions : {}", ledger_stats.self_loop_count);
    println!("multi-IO transactions  : {}", ledger_stats.multi_io_count);
    println!(
        "hottest account share  : {:.2}%",
        100.0 * ledger_stats.hottest_account_share()
    );
    println!("graph edges            : {}", dataset.graph().edge_count());
    println!("activity gini          : {:.4}", graph_stats.gini);
    println!(
        "low-activity accounts  : {:.1}% (≤ 2 transactions)",
        100.0 * graph_stats.low_activity_fraction
    );
    Ok(())
}
