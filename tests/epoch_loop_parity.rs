//! The simulator and the chain service serve the same epoch loop.
//!
//! Fed the same blocks under the same method, schedule and health audit,
//! `ShardedChainSim` and `ChainService` must close identical epochs: the
//! same update kind, carry, migrations, placements and degradation
//! rung at every boundary, and the same final labels. The chain runs
//! under an active fault plan, so this also pins that consensus faults
//! (drops, delays, crashes, Atomix retries) never steer allocation.

use txallo::chain::FaultPlan;
use txallo::core::Degradation;
use txallo::prelude::*;

/// The chain service's own test trace: drifting communities with a steady
/// trickle of brand-new accounts.
fn workload() -> StreamingWorkload {
    let cfg = WorkloadConfig {
        accounts: 1_000,
        transactions: 30_000,
        block_size: 50,
        groups: 25,
        new_account_prob: 0.01,
        drift_interval: 20,
        ..WorkloadConfig::default()
    };
    StreamingWorkload::new(cfg, 33)
}

#[test]
fn sim_and_chain_close_the_same_epochs() {
    const SHARDS: usize = 4;
    const EPOCH_BLOCKS: usize = 10;
    const AUDIT_EVERY: u64 = 2;
    let schedule = HybridSchedule::Hybrid { global_gap: 3 };
    let wl = workload();
    let warm = wl.blocks(0..100);
    let live = wl.blocks(100..180);

    for &method in AllocatorRegistry::builtin().names() {
        for tolerance in [1e-6, -1.0] {
            let mut sim = ShardedChainSim::new(SimConfig {
                epoch_blocks: EPOCH_BLOCKS,
                method: method.into(),
                schedule,
                decay_per_epoch: None,
                ..SimConfig::new(SHARDS)
            });
            sim.enable_health_check(AUDIT_EVERY, tolerance);
            sim.warmup(&warm);
            let reports = sim.run_stream(&live);

            let mut service = ChainService::new(ChainServiceConfig {
                engine: ChainEngineConfig {
                    shards: SHARDS,
                    validators: SHARDS * 8,
                    byzantine: 0,
                    batch_size: 16,
                    reshuffle_interval: 0,
                },
                epoch_blocks: EPOCH_BLOCKS,
                method: method.into(),
                schedule,
                ..ChainServiceConfig::new(SHARDS)
            });
            service.set_fault_plan(FaultPlan::mixed(9));
            service.enable_health_check(AUDIT_EVERY, tolerance);
            service.warmup(&warm);
            let mut closed = Vec::new();
            for block in &live {
                if let Some(update) = service.process_block(block) {
                    closed.push((update, service.degradation()));
                }
            }

            let run = format!("{method}, tolerance {tolerance}");
            assert_eq!(reports.len(), live.len() / EPOCH_BLOCKS, "{run}");
            assert_eq!(closed.len(), reports.len(), "{run}");
            for (report, (update, rung)) in reports.iter().zip(&closed) {
                let at = format!("{run}, epoch {}", report.epoch);
                assert_eq!(report.update, update.kind, "{at}: update kind");
                assert_eq!(report.carry, update.carry, "{at}: carry");
                assert_eq!(
                    report.metrics.migrated_accounts,
                    update.migrations(),
                    "{at}: migrations"
                );
                assert_eq!(report.new_accounts, update.placements(), "{at}: placements");
                assert_eq!(report.degradation, *rung, "{at}: rung");
            }
            assert_eq!(
                sim.allocation().labels(),
                service.allocation().labels(),
                "{run}: final labels"
            );
            if method == "txallo" && tolerance < 0.0 {
                assert_eq!(
                    sim.degradation(),
                    Degradation::HashFallback,
                    "{run}: an impossible tolerance must walk the whole ladder"
                );
            }
        }
    }
}
