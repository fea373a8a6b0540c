//! `txallo simulate` — run the epoch simulator on a synthetic stream, each
//! block synthesized on demand (streamed replay), so the ledger is never
//! materialized and any `--accounts` scale fits.

use txallo_core::AllocatorRegistry;
use txallo_graph::WeightedGraph;
use txallo_sim::{HybridSchedule, ShardedChainSim, SimConfig, UpdateKind};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

use crate::args::ArgMap;
use crate::commands::eta_flag;

/// The flags [`run`] reads.
pub const FLAGS: &[&str] = &[
    "method",
    "shards",
    "epochs",
    "epoch-blocks",
    "gap",
    "seed",
    "eta",
    "decay",
    "accounts",
];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<(), String> {
    let shards: usize = args.parsed_or("shards", 12)?;
    let epochs: u64 = args.parsed_or("epochs", 20)?;
    let epoch_blocks: usize = args.parsed_or("epoch-blocks", 50)?;
    let gap: u64 = args.parsed_or("gap", 10)?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let eta = eta_flag(args)?;
    let decay = args.checked_f64("decay", 1.0, "in (0, 1]", |d| d > 0.0 && d <= 1.0)?;
    let accounts: usize = args.parsed_or("accounts", WorkloadConfig::default().accounts)?;
    let method = args.get("method").unwrap_or("txallo");
    if shards == 0 || epochs == 0 || epoch_blocks == 0 {
        return Err("--shards, --epochs and --epoch-blocks must be positive".into());
    }
    // Validate the method up front (the simulator would panic later);
    // unknown names report the registered set.
    let registry = AllocatorRegistry::builtin();
    if !registry.contains(method) {
        return Err(format!(
            "unknown method {method:?} (registered: {})",
            registry.names().join("|")
        ));
    }

    let config = WorkloadConfig {
        accounts,
        block_size: 100,
        new_account_prob: 0.004,
        ..WorkloadConfig::default()
    };
    config.check()?;

    let schedule = if gap == 0 {
        HybridSchedule::AlwaysAdaptive
    } else {
        HybridSchedule::Hybrid { global_gap: gap }
    };
    let decay_per_epoch = if decay < 1.0 { Some(decay) } else { None };
    let mut sim = ShardedChainSim::new(SimConfig {
        eta,
        epoch_blocks,
        method: method.to_string(),
        schedule,
        decay_per_epoch,
        ..SimConfig::new(shards)
    });

    let warm_blocks = epoch_blocks as u64 * epochs;
    let w = StreamingWorkload::new(config, seed);
    let warm_time = sim.warmup_streamed(w.block_iter(0..warm_blocks));
    eprintln!(
        "warm-up: {} accounts, initial {method} solve in {warm_time:.2?}",
        sim.graph().node_count()
    );
    println!("epoch,algo,gamma,throughput_times,new_accounts,migrated,update_seconds");
    let reports = sim.run_stream_with(epochs, |e| w.epoch_blocks(e + epochs, epoch_blocks as u64));
    let mut sum_tp = 0.0;
    for r in &reports {
        sum_tp += r.metrics.throughput_normalized;
        println!(
            "{},{},{:.4},{:.3},{},{},{:.6}",
            r.epoch,
            match r.update {
                UpdateKind::Global => "global",
                UpdateKind::Adaptive => "adaptive",
            },
            r.metrics.cross_shard_ratio,
            r.metrics.throughput_normalized,
            r.new_accounts,
            r.metrics.migrated_accounts,
            r.update_time.as_secs_f64()
        );
    }
    eprintln!(
        "average throughput: {:.3}× unsharded",
        sum_tp / reports.len().max(1) as f64
    );
    Ok(())
}
