//! `txallo allocate` — compute an account-shard mapping for a trace.

use std::fs::File;
use std::io::BufWriter;

use txallo_core::{AllocatorRegistry, MetricsReport, TxAlloParams};

use crate::args::ArgMap;
use crate::commands::{eta_flag, load_dataset};
use crate::mapping::write_mapping;

/// The flags [`run`] reads.
pub const FLAGS: &[&str] = &["trace", "method", "k", "eta", "out"];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let k: usize = args.parsed_or("k", 16)?;
    let eta = eta_flag(args)?;
    if k == 0 {
        return Err("-k must be at least 1".into());
    }
    let method = args.get("method").unwrap_or("txallo");
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);

    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "reports the allocation's wall time to the user; the allocation never reads the clock"
    )]
    let start = std::time::Instant::now();
    // Name → algorithm resolution goes through the shared registry; an
    // unknown method reports whatever is actually registered.
    let allocation = AllocatorRegistry::builtin()
        .allocate(method, &params, &dataset)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let report = MetricsReport::compute(dataset.graph(), &allocation, &params);

    eprintln!("method            : {method}");
    eprintln!("allocation time   : {elapsed:.2?}");
    eprintln!(
        "cross-shard ratio : {:.2}%",
        100.0 * report.cross_shard_ratio
    );
    eprintln!("balance ρ/λ       : {:.3}", report.workload_std_normalized);
    eprintln!("throughput Λ/λ    : {:.2}×", report.throughput_normalized);
    eprintln!("avg latency ζ     : {:.2} blocks", report.avg_latency);

    if let Some(out) = args.get("out") {
        let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        write_mapping(dataset.graph(), &allocation, BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        eprintln!("mapping written to {out}");
    }
    Ok(())
}
