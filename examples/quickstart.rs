//! Quickstart: allocate a synthetic Ethereum-like workload with G-TxAllo
//! and print the §III-B metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use txallo::prelude::*;

fn main() {
    // 1. Generate an Ethereum-like trace (long-tailed activity, latent
    //    communities, a dominant "exchange" account).
    let config = WorkloadConfig {
        accounts: 10_000,
        transactions: 100_000,
        block_size: 150,
        groups: 120,
        ..WorkloadConfig::default()
    };
    let blocks = config.block_count();
    let ledger = StreamingWorkload::new(config, 42).ledger(blocks);
    let stats = ledger.stats();
    println!(
        "trace: {} blocks, {} transactions, {} accounts",
        stats.block_count, stats.transaction_count, stats.account_count
    );
    println!(
        "hottest account participates in {:.1}% of transactions",
        100.0 * stats.hottest_account_share()
    );

    // 2. Build the dataset: the ledger plus its transaction graph
    //    (Definition 2).
    let dataset = Dataset::from_ledger(ledger);
    let graph = dataset.graph();
    println!(
        "graph: {} nodes, {} edges, total weight {:.0}",
        graph.node_count(),
        graph.edge_count(),
        graph.total_weight()
    );

    // 3. Allocate to k shards with G-TxAllo (η = 2, λ = |T|/k). Every
    //    allocator is resolved by name through the shared registry.
    let k = 16;
    let params = TxAlloParams::for_graph(graph, k);
    let registry = AllocatorRegistry::builtin();
    println!("registered methods: {}", registry.names().join(", "));
    let method = "txallo";
    let allocation = registry
        .allocate(method, &params, &dataset)
        .expect("builtin");

    // 4. Evaluate.
    let report = MetricsReport::compute(graph, &allocation, &params);
    println!("\n=== {k}-shard allocation ({method}) ===");
    println!(
        "cross-shard ratio γ       : {:.1}%",
        100.0 * report.cross_shard_ratio
    );
    println!(
        "workload balance ρ/λ      : {:.3}",
        report.workload_std_normalized
    );
    println!(
        "throughput Λ/λ            : {:.2}× an unsharded chain",
        report.throughput_normalized
    );
    println!(
        "avg confirmation latency ζ: {:.2} blocks",
        report.avg_latency
    );
    println!(
        "worst-case latency        : {:.0} blocks",
        report.worst_latency
    );

    // 5. Compare against the traditional hash-based allocation.
    let hash_alloc = registry
        .allocate("hash", &params, &dataset)
        .expect("builtin");
    let hash_report = MetricsReport::compute(graph, &hash_alloc, &params);
    println!(
        "\nhash-based baseline: γ = {:.1}%, Λ/λ = {:.2}×",
        100.0 * hash_report.cross_shard_ratio,
        hash_report.throughput_normalized
    );
    println!(
        "TxAllo removes {:.0}% of the cross-shard transactions.",
        100.0 * (1.0 - report.cross_shard_ratio / hash_report.cross_shard_ratio.max(1e-9))
    );
}
