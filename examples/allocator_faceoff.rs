//! Head-to-head comparison of all four allocators on one workload — a
//! single-k slice of the paper's Figures 2–8.
//!
//! Run with: `cargo run --release --example allocator_faceoff [k] [eta]`

use txallo::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let eta: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2.0);

    let config = WorkloadConfig {
        accounts: 20_000,
        transactions: 150_000,
        block_size: 150,
        groups: 200,
        ..WorkloadConfig::default()
    };
    let blocks = config.block_count();
    let ledger = StreamingWorkload::new(config, 7).ledger(blocks);
    let dataset = Dataset::from_ledger(ledger);
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);

    println!(
        "workload: {} tx / {} accounts — k = {k}, η = {eta}\n",
        dataset.ledger().transaction_count(),
        dataset.graph().node_count(),
    );
    println!(
        "{:<16} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "allocator", "γ %", "ρ/λ", "Λ/λ", "ζ avg", "ζ worst", "time"
    );

    // Every registered method competes — add one to the registry and it
    // shows up here with no further wiring.
    let registry = AllocatorRegistry::builtin();
    for name in registry.names() {
        #[expect(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "times each allocator for the comparison table; no allocation reads the clock"
        )]
        let start = std::time::Instant::now();
        let allocation = registry
            .allocate(name, &params, &dataset)
            .expect("registered");
        let elapsed = start.elapsed();
        let r = MetricsReport::compute(dataset.graph(), &allocation, &params);
        println!(
            "{:<16} {:>8.1} {:>8.3} {:>10.2} {:>10.2} {:>10.0} {:>9.2?}",
            name,
            100.0 * r.cross_shard_ratio,
            r.workload_std_normalized,
            r.throughput_normalized,
            r.avg_latency,
            r.worst_latency,
            elapsed
        );
    }
}
