//! `txallo evaluate` — score a saved mapping against a trace.

use std::fs::File;
use std::io::BufReader;

use txallo_core::{MetricsReport, TxAlloParams};
use txallo_sim::epoch_metrics;

use crate::args::ArgMap;
use crate::commands::{eta_flag, load_dataset};
use crate::mapping::read_mapping;

/// The flags [`run`] reads.
pub const FLAGS: &[&str] = &["trace", "mapping", "eta"];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let path = args.required("mapping")?;
    let eta = eta_flag(args)?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (allocation, unknown) = read_mapping(dataset.graph(), BufReader::new(file))?;
    if unknown > 0 {
        eprintln!("warning: {unknown} mapped accounts do not appear in the trace");
    }
    let shards = allocation.shard_count();
    let params = TxAlloParams::for_graph(dataset.graph(), shards).with_eta(eta);
    let report = MetricsReport::compute(dataset.graph(), &allocation, &params);
    // The whole ledger scored as one epoch: its share of `µ(Tx) > 1`.
    let blocks = dataset.ledger().blocks();
    let tx_gamma =
        epoch_metrics(blocks, dataset.graph(), &allocation, shards, eta).cross_shard_ratio;

    println!("shards               : {shards}");
    println!(
        "cross-shard γ (graph): {:.2}%",
        100.0 * report.cross_shard_ratio
    );
    println!("cross-shard γ (tx)   : {:.2}%", 100.0 * tx_gamma);
    println!(
        "balance ρ/λ          : {:.3}",
        report.workload_std_normalized
    );
    println!(
        "throughput Λ/λ       : {:.2}×",
        report.throughput_normalized
    );
    println!("avg latency ζ        : {:.2} blocks", report.avg_latency);
    println!("worst-case latency   : {:.0} blocks", report.worst_latency);
    Ok(())
}
