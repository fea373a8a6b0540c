//! The simulation driver: warm-up, epoch loop, scoring.
//!
//! The driver owns no algorithm wiring and no epoch boundary: it feeds
//! each epoch's blocks into a [`txallo_core::EpochLoop`] — which resolves
//! the [`StreamingAllocator`](txallo_core::StreamingAllocator) by name,
//! decays, ingests, closes the epoch and folds the returned
//! [`AllocationUpdate`](txallo_core::AllocationUpdate) diff into the
//! mapping — and scores the epoch's transactions under the result.

use txallo_core::{Allocation, Degradation, EpochLoop, HybridSchedule, TxAlloParams};
use txallo_graph::{MemoryFootprint, ResidencyConfig, TxGraph};
use txallo_model::Block;

use crate::epoch::{epoch_metrics, EpochReport};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of shards `k`.
    pub shards: usize,
    /// Cross-shard workload `η`.
    pub eta: f64,
    /// Epoch length `τ₁` in blocks (paper: 300 ≈ one hour).
    pub epoch_blocks: usize,
    /// The allocation method, resolved through
    /// [`AllocatorRegistry`](txallo_core::AllocatorRegistry) (`txallo`,
    /// `hash`, `metis`, `metis-recursive`, `scheduler`).
    pub method: String,
    /// The reallocation schedule (`txallo`'s global-refresh policy;
    /// schedule-free methods ignore it).
    pub schedule: HybridSchedule,
    /// Optional per-epoch exponential decay of the accumulated graph's
    /// edge weights (`(0, 1]`; `None` keeps raw history). See
    /// `txallo_graph::decay` — recency weighting per §VI-A's "recent
    /// history" recommendation.
    pub decay_per_epoch: Option<f64>,
    /// Ignored: every allocation kernel is single-threaded. Kept only so
    /// that existing struct literals still build; nothing reads it.
    pub threads: usize,
    /// Kept, ignored, only because the frozen `perfbench/` calls it:
    /// every graph row stays in core.
    pub residency: Option<ResidencyConfig>,
}

impl SimConfig {
    /// Paper-default simulation parameters: η = 2, τ₁ = 300 blocks,
    /// TxAllo under the hybrid schedule with a 20-epoch global gap.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            eta: 2.0,
            epoch_blocks: 300,
            method: "txallo".to_string(),
            schedule: HybridSchedule::Hybrid { global_gap: 20 },
            decay_per_epoch: None,
            threads: 1,
            residency: None,
        }
    }
}

/// The sharded-chain simulator.
///
/// Usage: [`warmup`] on the historical prefix (the paper trains on 90% of
/// the trace), then feed epochs of blocks through [`run_epoch`].
///
/// [`warmup`]: ShardedChainSim::warmup
/// [`run_epoch`]: ShardedChainSim::run_epoch
#[derive(Debug)]
pub struct ShardedChainSim {
    config: SimConfig,
    /// The epoch loop serving the configured method (for `txallo` the
    /// `HybridStream` whose warm `AtxAlloSession` carries the community
    /// aggregates across epochs).
    epochs: EpochLoop,
}

impl ShardedChainSim {
    /// Creates an empty simulator.
    ///
    /// # Panics
    /// Panics on a structurally invalid configuration, including a
    /// `method` the registry does not know.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.epoch_blocks > 0, "epochs must contain blocks");
        // Placeholder hyper-parameters until warm-up: every stream
        // re-derives the weight-dependent fields from the graph it is
        // begun on.
        let params = TxAlloParams::for_total_weight(0.0, config.shards).with_eta(config.eta);
        let epochs = EpochLoop::new(
            &config.method,
            config.schedule,
            params,
            config.decay_per_epoch,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        Self { config, epochs }
    }

    /// The accumulated transaction graph.
    pub fn graph(&self) -> &TxGraph {
        self.epochs.graph()
    }

    /// The current account-shard mapping.
    pub fn allocation(&self) -> &Allocation {
        self.epochs.allocation()
    }

    /// Epochs processed since warm-up.
    pub fn epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    /// Enables the epoch-boundary serving-state health check (see
    /// [`EpochLoop::enable_health_check`]). Each [`EpochReport`] records
    /// the rung in force after its boundary.
    pub fn enable_health_check(&mut self, interval_epochs: u64, tolerance: f64) {
        self.epochs.enable_health_check(interval_epochs, tolerance);
    }

    /// The current rung of the recovery ladder.
    pub fn degradation(&self) -> Degradation {
        self.epochs.degradation()
    }

    /// Ingests the historical prefix and opens the allocation service on
    /// it (for TxAllo: one global G-TxAllo run). Returns the wall-clock
    /// time of that initial solve.
    pub fn warmup(&mut self, blocks: &[Block]) -> std::time::Duration {
        self.epochs.warmup(blocks)
    }

    /// Processes one epoch: feed `blocks` into the epoch loop, close the
    /// epoch, then score the epoch's transactions under the updated
    /// mapping.
    ///
    /// # Panics
    /// Panics if called before [`ShardedChainSim::warmup`] or with an empty
    /// block slice.
    pub fn run_epoch(&mut self, blocks: &[Block]) -> EpochReport {
        assert!(!blocks.is_empty(), "an epoch must contain blocks");
        let epoch = self.epochs.epoch();
        for b in blocks {
            self.epochs.ingest(b);
        }
        let (update, update_time) = self.epochs.close(|_, _| {});
        let mut metrics = epoch_metrics(
            blocks,
            self.epochs.graph(),
            self.epochs.allocation(),
            self.config.shards,
            self.config.eta,
        );
        metrics.migrated_accounts = update.migrations();
        EpochReport {
            epoch,
            height_range: (blocks[0].height(), blocks[blocks.len() - 1].height()),
            update: update.kind,
            carry: update.carry,
            update_time,
            new_accounts: update.placements(),
            degradation: self.epochs.degradation(),
            metrics,
        }
    }

    /// Convenience: run a whole stream of blocks in `epoch_blocks`-sized
    /// epochs, returning one report per complete epoch.
    pub fn run_stream(&mut self, blocks: &[Block]) -> Vec<EpochReport> {
        let epoch_blocks = self.config.epoch_blocks;
        blocks
            .chunks(epoch_blocks)
            .filter(|chunk| chunk.len() == epoch_blocks)
            .map(|chunk| self.run_epoch(chunk))
            .collect()
    }

    /// [`ShardedChainSim::warmup`] from a block *iterator*: each block is
    /// ingested and dropped before the next is produced, so the warm-up
    /// prefix is never materialized — the out-of-core entry point for
    /// synthesized workloads (`txallo_workload::StreamingWorkload`).
    pub fn warmup_streamed<I>(&mut self, blocks: I) -> std::time::Duration
    where
        I: IntoIterator<Item = Block>,
    {
        self.epochs.warmup(blocks)
    }

    /// Runs `epochs` epochs, synthesizing each epoch's blocks on demand
    /// via `epoch_blocks` (called with the absolute epoch index, i.e.
    /// continuing from [`ShardedChainSim::epoch`]). Only one epoch of
    /// blocks is ever alive at a time: the streamed replay loop.
    pub fn run_stream_with<F>(&mut self, epochs: u64, mut epoch_blocks: F) -> Vec<EpochReport>
    where
        F: FnMut(u64) -> Vec<Block>,
    {
        (0..epochs)
            .map(|_| {
                let blocks = epoch_blocks(self.epoch());
                self.run_epoch(&blocks)
            })
            .collect()
    }

    /// The graph's current memory accounting (see
    /// [`MemoryFootprint`]): slab arena, per-node scalars, interner.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        self.epochs.graph().memory_footprint()
    }

    /// Approximate resident bytes of the allocator's own serving state
    /// (session aggregates, snapshot buffer, sweep scratch).
    pub fn allocator_state_bytes(&self) -> usize {
        self.epochs.allocator_state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::UpdateKind;
    use txallo_core::StateCarry;
    use txallo_workload::{EthereumLikeGenerator, WorkloadConfig};

    fn generator() -> EthereumLikeGenerator {
        let cfg = WorkloadConfig {
            accounts: 1_500,
            transactions: 40_000,
            block_size: 50,
            groups: 30,
            ..WorkloadConfig::default()
        };
        EthereumLikeGenerator::new(cfg, 21)
    }

    fn config(shards: usize, epoch_blocks: usize, schedule: HybridSchedule) -> SimConfig {
        SimConfig {
            shards,
            epoch_blocks,
            schedule,
            ..SimConfig::new(shards)
        }
    }

    #[test]
    fn warmup_then_adaptive_epochs() {
        let mut gen = generator();
        let warm = gen.blocks(100);
        let mut sim = ShardedChainSim::new(config(4, 20, HybridSchedule::AlwaysAdaptive));
        sim.warmup(&warm);
        let stream = gen.blocks(60);
        let reports = sim.run_stream(&stream);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.epoch, i as u64);
            assert_eq!(r.update, UpdateKind::Adaptive);
            assert_eq!(r.carry, StateCarry::Warm, "session must stay warm");
            assert_eq!(r.metrics.transactions, 20 * 50);
            assert!(r.metrics.throughput_normalized > 1.0, "sharding must help");
            assert!(r.metrics.cross_shard_ratio < 0.9);
        }
        // Heights carry through.
        assert_eq!(reports[0].height_range, (100, 119));
        assert_eq!(reports[2].height_range, (140, 159));
    }

    #[test]
    fn hybrid_schedule_runs_global_on_gap() {
        let mut gen = generator();
        let warm = gen.blocks(60);
        let mut sim = ShardedChainSim::new(config(3, 10, HybridSchedule::Hybrid { global_gap: 2 }));
        sim.warmup(&warm);
        let stream = gen.blocks(40);
        let reports = sim.run_stream(&stream);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].update, UpdateKind::Adaptive);
        assert_eq!(reports[1].update, UpdateKind::Adaptive);
        assert_eq!(
            reports[2].update,
            UpdateKind::Global,
            "epoch 2 hits the gap"
        );
        assert_eq!(
            reports[2].carry,
            StateCarry::Rebuilt,
            "global refresh replaces the serving session"
        );
        assert_eq!(reports[3].update, UpdateKind::Adaptive);
    }

    #[test]
    fn adaptive_is_faster_than_global() {
        let mut gen = generator();
        let warm = gen.blocks(200);
        let mut sim = ShardedChainSim::new(config(4, 10, HybridSchedule::AlwaysAdaptive));
        let global_time = sim.warmup(&warm);
        let stream = gen.blocks(10);
        let report = sim.run_stream(&stream).pop().unwrap();
        // The adaptive update touches a fraction of the graph; it must be
        // significantly faster than the global warm-up run.
        assert!(
            report.update_time < global_time,
            "adaptive {:?} should beat global {:?}",
            report.update_time,
            global_time
        );
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn epoch_before_warmup_panics() {
        let mut gen = generator();
        let blocks = gen.blocks(10);
        let mut sim = ShardedChainSim::new(SimConfig::new(2));
        let _ = sim.run_epoch(&blocks);
    }

    #[test]
    #[should_panic(expected = "unknown method")]
    fn unknown_method_panics_listing_the_names() {
        let _ = ShardedChainSim::new(SimConfig {
            method: "nope".into(),
            ..SimConfig::new(2)
        });
    }

    #[test]
    fn baseline_methods_stream_too() {
        // The §VI comparison can run epoch-driven: every registered
        // method serves the same epoch loop.
        let mut gen = generator();
        let warm = gen.blocks(40);
        let stream = gen.blocks(20);
        for method in ["hash", "metis", "scheduler"] {
            let mut sim = ShardedChainSim::new(SimConfig {
                method: method.into(),
                ..config(3, 10, HybridSchedule::AlwaysAdaptive)
            });
            sim.warmup(&warm);
            for r in sim.run_stream(&stream) {
                assert_eq!(r.metrics.transactions, 500, "{method}");
                assert!(r.metrics.throughput_normalized > 0.0, "{method}");
            }
            assert_eq!(
                sim.allocation().len(),
                {
                    use txallo_graph::WeightedGraph;
                    sim.graph().node_count()
                },
                "{method} must label every account"
            );
        }
    }

    #[test]
    fn decay_keeps_graph_weight_bounded_and_folds_into_session() {
        let mut gen = generator();
        let warm = gen.blocks(40);
        let mut sim = ShardedChainSim::new(SimConfig {
            decay_per_epoch: Some(0.5),
            ..config(3, 10, HybridSchedule::AlwaysAdaptive)
        });
        sim.warmup(&warm);
        use txallo_graph::WeightedGraph;
        let stream = gen.blocks(100);
        let mut last_weight = f64::INFINITY;
        for (i, r) in sim.run_stream(&stream).iter().enumerate() {
            assert!(r.metrics.throughput_normalized > 0.5, "epoch {i} collapsed");
            assert_eq!(
                r.carry,
                StateCarry::WarmRescaled,
                "epoch {i}: decay must fold into the warm session, not rebuild it"
            );
            // With decay 0.5 and 500 tx/epoch, total weight converges to
            // < 1000 + epoch contribution instead of growing linearly.
            let w = sim.graph().total_weight();
            assert!(w < 2_500.0, "decayed weight must stay bounded, got {w}");
            last_weight = w;
        }
        assert!(last_weight < 2_500.0);
    }

    #[test]
    fn throughput_stays_reasonable_across_drift() {
        let mut gen = generator();
        let warm = gen.blocks(150);
        let mut sim = ShardedChainSim::new(config(4, 25, HybridSchedule::Hybrid { global_gap: 3 }));
        sim.warmup(&warm);
        let stream = gen.blocks(150);
        let reports = sim.run_stream(&stream);
        for r in &reports {
            assert!(
                r.metrics.throughput_normalized > 0.9,
                "epoch {}: throughput collapsed to {}",
                r.epoch,
                r.metrics.throughput_normalized
            );
        }
    }

    /// An account that appears mid-epoch and is placed by `end_epoch` must
    /// be counted exactly once — as a placement (`new_accounts`), never as
    /// a migration (`migrated_accounts`); when it later *does* change
    /// shard, that is one migration, not a second placement.
    #[test]
    fn mid_epoch_new_account_is_placement_not_migration() {
        use txallo_model::{AccountId, Block, Transaction};
        let clique = |base: u64| -> Vec<Transaction> {
            let mut txs = Vec::new();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    txs.push(Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
            txs
        };
        let warm: Vec<Block> = vec![
            Block::new(0, clique(0)),
            Block::new(1, clique(10)),
            Block::new(2, clique(0)),
            Block::new(3, clique(10)),
        ];
        let mut sim = ShardedChainSim::new(config(2, 1, HybridSchedule::AlwaysAdaptive));
        sim.warmup(&warm);

        // Epoch 0: brand-new account 100 transacts with clique 0 only.
        let r = sim.run_epoch(&[Block::new(
            4,
            vec![
                Transaction::transfer(AccountId(100), AccountId(0)),
                Transaction::transfer(AccountId(100), AccountId(1)),
            ],
        )]);
        assert_eq!(r.new_accounts, 1, "one placement");
        assert_eq!(
            r.metrics.migrated_accounts, 0,
            "a first placement must not be double-counted as a migration"
        );
        let shard_100 = {
            let n = sim.graph().node_of(AccountId(100)).unwrap();
            sim.allocation().shard_of(n)
        };
        let shard_0 = {
            let n = sim.graph().node_of(AccountId(0)).unwrap();
            sim.allocation().shard_of(n)
        };
        assert_eq!(shard_100, shard_0, "placed with its partners");

        // Epoch 1: account 100 defects to clique 10's side, heavily.
        let defect: Vec<Transaction> = (0..40)
            .map(|i| Transaction::transfer(AccountId(100), AccountId(10 + (i % 4))))
            .collect();
        let r = sim.run_epoch(&[Block::new(5, defect)]);
        assert_eq!(r.new_accounts, 0, "no new accounts this epoch");
        assert_eq!(
            r.metrics.migrated_accounts, 1,
            "the defection is exactly one migration"
        );
    }

    #[test]
    fn health_check_degrades_and_reports_the_rung() {
        let mut gen = generator();
        let warm = gen.blocks(40);
        let mut sim = ShardedChainSim::new(config(3, 10, HybridSchedule::AlwaysAdaptive));
        sim.warmup(&warm);
        // An impossible tolerance forces a strike at every audited
        // boundary: first Invalidated, then the hash fallback.
        sim.enable_health_check(1, -1.0);
        let stream = gen.blocks(30);
        let reports = sim.run_stream(&stream);
        assert_eq!(reports[0].degradation, Degradation::Invalidated);
        assert_eq!(reports[1].degradation, Degradation::HashFallback);
        assert_eq!(reports[2].degradation, Degradation::HashFallback, "sticky");
        assert_eq!(sim.degradation(), Degradation::HashFallback);
        // Even degraded, every epoch still closes with a full mapping.
        for r in &reports {
            assert!(r.metrics.throughput_normalized > 0.0);
        }
        assert_eq!(sim.allocation().len(), {
            use txallo_graph::WeightedGraph;
            sim.graph().node_count()
        });
    }

    #[test]
    fn healthy_stream_never_degrades() {
        let mut gen = generator();
        let warm = gen.blocks(40);
        let mut sim = ShardedChainSim::new(config(3, 10, HybridSchedule::AlwaysAdaptive));
        sim.warmup(&warm);
        // The adaptive session's float aggregates are maintained exactly
        // (chronological accumulation); a generous tolerance never trips.
        sim.enable_health_check(1, 1e-6);
        for r in sim.run_stream(&gen.blocks(30)) {
            assert_eq!(r.degradation, Degradation::None);
            assert_eq!(
                r.carry,
                StateCarry::Warm,
                "audit must not disturb the session"
            );
        }
    }

    #[test]
    fn migration_diffs_are_surfaced() {
        let mut gen = generator();
        let warm = gen.blocks(100);
        let mut sim = ShardedChainSim::new(config(4, 20, HybridSchedule::Hybrid { global_gap: 2 }));
        sim.warmup(&warm);
        let stream = gen.blocks(80);
        let reports = sim.run_stream(&stream);
        let moved: usize = reports.iter().map(|r| r.metrics.migrated_accounts).sum();
        let placed: usize = reports.iter().map(|r| r.new_accounts).sum();
        assert!(
            moved + placed > 0,
            "a drifting workload must move or place accounts"
        );
        // The driver's mapping is exactly the stream's mapping (diffs
        // applied losslessly).
        assert_eq!(sim.allocation().labels().len(), {
            use txallo_graph::WeightedGraph;
            sim.graph().node_count()
        });
    }
}
