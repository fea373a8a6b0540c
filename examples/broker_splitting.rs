//! Hot-account splitting (BrokerChain-style) on top of TxAllo.
//!
//! TxAllo's capacity-capped objective deliberately concentrates a hub
//! account's one-shot counterparties into the hub's shard — great for the
//! cross-shard ratio, hard on that one shard. This example runs the
//! split-then-allocate broker pipeline and shows the trade-off resolve.
//!
//! Run with: `cargo run --release --example broker_splitting`

use txallo::core::{allocate_with_brokers, BrokerConfig};
use txallo::prelude::*;

fn main() {
    let config = WorkloadConfig {
        accounts: 10_000,
        transactions: 100_000,
        block_size: 150,
        groups: 150,
        ..WorkloadConfig::default()
    };
    let blocks = config.block_count();
    let ledger = StreamingWorkload::new(config, 7).ledger(blocks);
    let dataset = Dataset::from_ledger(ledger);
    let graph = dataset.graph().clone();
    let k = 20;
    let params = TxAlloParams::for_graph(&graph, k);

    let plain_alloc = AllocatorRegistry::builtin()
        .allocate("txallo", &params, &dataset)
        .expect("registered");
    let plain = MetricsReport::compute(&graph, &plain_alloc, &params);

    let broker_cfg = BrokerConfig::default();
    let (_, brokered) = allocate_with_brokers(&graph, &params, &broker_cfg);

    println!(
        "k = {k}, η = {}, split threshold = {:.1}λ\n",
        params.eta, broker_cfg.split_threshold
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "variant", "γ %", "ρ/λ", "Λ/λ", "ζ avg", "ζ worst"
    );
    println!(
        "{:<18} {:>10.1} {:>10.2} {:>10.2} {:>10.2} {:>10.0}",
        "plain G-TxAllo",
        100.0 * plain.cross_shard_ratio,
        plain.workload_std_normalized,
        plain.throughput_normalized,
        plain.avg_latency,
        plain.worst_latency
    );
    println!(
        "{:<18} {:>10.1} {:>10.2} {:>10.2} {:>10.2} {:>10.0}",
        "broker pipeline",
        100.0 * brokered.cross_shard_ratio,
        brokered.workload_std_normalized,
        brokered.throughput_normalized,
        brokered.avg_latency,
        brokered.worst_latency
    );
    println!("\nsplit accounts ({}):", brokered.split_accounts.len());
    for &node in &brokered.split_accounts {
        println!(
            "  {} — incident weight {:.0} ({:.1}% of all transactions)",
            graph.account(node),
            graph.incident_weight(node),
            100.0 * graph.incident_weight(node) / graph.total_weight()
        );
    }
}
