//! Dynamic reallocation over a drifting block stream — the §VI-C scenario.
//!
//! Warm up G-TxAllo on a historical prefix, then stream epochs of fresh
//! blocks through the simulator while A-TxAllo keeps the mapping current,
//! with a periodic global refresh (the hybrid schedule of Fig. 10).
//!
//! Run with: `cargo run --release --example dynamic_reallocation`

use txallo::prelude::*;

fn main() {
    let config = WorkloadConfig {
        accounts: 8_000,
        transactions: 400_000,
        block_size: 100,
        groups: 100,
        new_account_prob: 0.004, // brisk account birth to stress A-TxAllo
        drift_interval: 50,
        ..WorkloadConfig::default()
    };
    let wl = StreamingWorkload::new(config, 2024);

    // 90/10 split, as in the paper's A-TxAllo evaluation.
    let warmup_blocks = wl.blocks(0..1_000);
    let mut sim = ShardedChainSim::new(SimConfig {
        shards: 12,
        eta: 2.0,
        epoch_blocks: 100,
        method: "txallo".into(),
        schedule: HybridSchedule::Hybrid { global_gap: 5 },
        decay_per_epoch: None,
        ..SimConfig::new(12)
    });
    let warm_time = sim.warmup(&warmup_blocks);
    println!(
        "warm-up: {} accounts allocated by G-TxAllo in {:?}\n",
        sim.graph().node_count(),
        warm_time
    );
    println!(
        "{:>5} {:>9} {:>10} {:>8} {:>10} {:>9} {:>12}",
        "epoch", "algo", "γ %", "Λ/λ", "new acct", "migrated", "update time"
    );

    let stream = wl.blocks(1_000..2_000);
    for report in sim.run_stream(&stream) {
        println!(
            "{:>5} {:>9} {:>10.1} {:>8.2} {:>10} {:>9} {:>11.2?}",
            report.epoch,
            match report.update {
                UpdateKind::Global => "G-TxAllo",
                UpdateKind::Adaptive => "A-TxAllo",
            },
            100.0 * report.metrics.cross_shard_ratio,
            report.metrics.throughput_normalized,
            report.new_accounts,
            report.metrics.migrated_accounts,
            report.update_time
        );
    }
    println!(
        "\nfinal graph: {} accounts, {} transactions",
        sim.graph().node_count(),
        sim.graph().transaction_count()
    );
}
