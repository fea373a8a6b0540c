//! The epoch-driven chain service: consensus substrate + streaming
//! allocation in one loop.
//!
//! [`ChainService`] runs a [`ChainEngine`] (per-shard PBFT + cross-shard
//! Atomix) under the mapping of a [`txallo_core::EpochLoop`], the same
//! loop the simulator drives. Blocks flow through
//! [`ChainService::process_block`]; every `epoch_blocks` blocks the
//! service closes the epoch, *executes the reallocation diff on the
//! substrate* ([`ChainEngine::apply_reallocation`] — each migrated
//! account is a batched Atomix state transfer between its old and new
//! shard) and only then applies it to the serving mapping. Reallocation
//! is therefore a measured protocol cost, exactly like the transactions
//! it is supposed to save.

use txallo_core::checkpoint::decode_checkpoint;
use txallo_core::{
    Allocation, AllocationUpdate, Degradation, EpochLoop, HybridSchedule, StateCarry, TxAlloParams,
};
use txallo_graph::TxGraph;
use txallo_model::Block;

use crate::engine::{ChainEngine, ChainEngineConfig, EngineReport};
use crate::error::ChainError;
use crate::fault::FaultPlan;

/// Configuration of the epoch-driven chain service.
#[derive(Debug, Clone)]
pub struct ChainServiceConfig {
    /// The consensus-substrate configuration.
    pub engine: ChainEngineConfig,
    /// Epoch length `τ₁` in blocks.
    pub epoch_blocks: usize,
    /// Allocation method, resolved through
    /// [`AllocatorRegistry`](txallo_core::AllocatorRegistry).
    pub method: String,
    /// TxAllo's global-refresh policy (ignored by schedule-free methods).
    pub schedule: HybridSchedule,
    /// Cross-shard workload parameter `η` of the allocation objective
    /// (the engine independently *measures* the realized η).
    pub eta: f64,
    /// Ignored: every allocation kernel is single-threaded. Kept only so
    /// that existing struct literals still build; nothing reads it.
    pub threads: usize,
}

impl ChainServiceConfig {
    /// Defaults mirroring [`ChainEngineConfig::new`]: `τ₁ = 100` blocks,
    /// TxAllo under the paper's 20-epoch hybrid gap, η = 2.
    pub fn new(shards: usize) -> Self {
        Self {
            engine: ChainEngineConfig::new(shards),
            epoch_blocks: 100,
            method: "txallo".to_string(),
            schedule: HybridSchedule::Hybrid { global_gap: 20 },
            eta: 2.0,
            threads: 1,
        }
    }
}

/// The running service (see the [module docs](self)).
#[derive(Debug)]
pub struct ChainService {
    config: ChainServiceConfig,
    epochs: EpochLoop,
    engine: ChainEngine,
    /// How the stream state crossed the last [`ChainService::resume`]
    /// (`None` until a resume happened).
    resume_carry: Option<StateCarry>,
}

impl ChainService {
    /// Builds the service.
    ///
    /// # Panics
    /// Panics where [`ChainService::try_new`] errors: on a structurally
    /// invalid configuration, including a `method` the registry does not
    /// know.
    pub fn new(config: ChainServiceConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ChainService::new`]: every structurally invalid
    /// configuration — zero-block epochs, an unknown allocation method,
    /// an invalid validator population — is a typed [`ChainError`]
    /// instead of a panic.
    pub fn try_new(config: ChainServiceConfig) -> Result<Self, ChainError> {
        if config.epoch_blocks == 0 {
            return Err(ChainError::EmptyEpoch);
        }
        let params = TxAlloParams::for_total_weight(0.0, config.engine.shards).with_eta(config.eta);
        let epochs = EpochLoop::new(&config.method, config.schedule, params, None)?;
        Ok(Self {
            engine: ChainEngine::try_new(config.engine.clone())?,
            config,
            epochs,
            resume_carry: None,
        })
    }

    /// Installs (or clears) a deterministic fault plan on the consensus
    /// substrate — see [`ChainEngine::set_fault_plan`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.engine.set_fault_plan(plan);
    }

    /// Enables the serving-state health check and its recovery ladder
    /// (see [`EpochLoop::enable_health_check`]).
    pub fn enable_health_check(&mut self, interval_epochs: u64, tolerance: f64) {
        self.epochs.enable_health_check(interval_epochs, tolerance);
    }

    /// Ingests the historical prefix (not processed by consensus) and
    /// opens the allocation service on it.
    pub fn warmup(&mut self, blocks: &[Block]) {
        self.epochs.warmup(blocks);
    }

    /// Processes one live block: feed it into the epoch loop, run it
    /// through consensus under the *current* mapping (new accounts on
    /// their transient hash shard), and — at an epoch boundary — close the
    /// epoch. Returns the epoch's [`AllocationUpdate`] when this block
    /// closed one.
    ///
    /// # Panics
    /// Panics if called before [`ChainService::warmup`].
    pub fn process_block(&mut self, block: &Block) -> Option<AllocationUpdate> {
        self.epochs.ingest(block);
        self.engine
            .process_block(block, self.epochs.graph(), self.epochs.allocation());
        if self.epochs.blocks_in_epoch() < self.config.epoch_blocks {
            return None;
        }
        let engine = &mut self.engine;
        let (update, _) = self.epochs.close(|update, served| {
            // The diff hits the substrate first (migrations are Atomix
            // state transfers), then the mapping. Accounts that arrived
            // mid-epoch were served — and committed state — on their
            // transient hash shard, so the stream's "placement" of such an
            // account is a real state transfer too: rewrite those moves
            // with the transient shard as the source before charging the
            // substrate.
            let mut substrate = update.clone();
            for m in &mut substrate.moves {
                if m.from.is_none() {
                    m.from = Some(served.shard_of(m.node));
                }
            }
            engine.apply_reallocation(&substrate);
        });
        Some(update)
    }

    /// Runs a whole block stream, returning the updates of every closed
    /// epoch.
    pub fn run(&mut self, blocks: &[Block]) -> Vec<AllocationUpdate> {
        blocks
            .iter()
            .filter_map(|b| self.process_block(b))
            .collect()
    }

    /// Serializes the whole resumable service state — graph, stream
    /// labels + aggregates, epoch count, degradation rung, engine counters
    /// — into one versioned, checksummed image (see
    /// [`txallo_core::checkpoint`]).
    ///
    /// Checkpoints are only defined at epoch boundaries: mid-epoch the
    /// stream's touched-set and the engine's batch state are in flight
    /// and not serializable, so the call returns
    /// [`ChainError::MidEpochCheckpoint`] instead of a torn image.
    pub fn checkpoint(&self) -> Result<Vec<u8>, ChainError> {
        if !self.epochs.is_warmed_up() {
            return Err(ChainError::NotWarmedUp);
        }
        let blocks_into_epoch = self.epochs.blocks_in_epoch();
        if blocks_into_epoch != 0 {
            return Err(ChainError::MidEpochCheckpoint { blocks_into_epoch });
        }
        Ok(self.epochs.checkpoint(&self.engine.export_state()))
    }

    /// Reopens a service from a [`ChainService::checkpoint`] image under
    /// `config`, which must describe the same deployment (shard count is
    /// verified; the rest is the caller's contract, as with any restart).
    ///
    /// When the stream supports warm restore the resumed service is
    /// **bit-identical** to one that never stopped — same labels, same
    /// aggregates, same consensus counters, same fault-injection stream —
    /// and skips the global re-initialization entirely (the §V-B cost a
    /// cold start pays). Otherwise it degrades to a labels-only or cold
    /// resume and reports that through [`ChainService::resume_carry`].
    pub fn resume(config: ChainServiceConfig, image: &[u8]) -> Result<Self, ChainError> {
        let cp = decode_checkpoint(image)?;
        if cp.stream.shards != config.engine.shards {
            return Err(ChainError::ShardMismatch {
                expected: config.engine.shards,
                found: cp.stream.shards,
            });
        }
        let mut service = Self::try_new(config)?;
        let (engine_blob, carry) = service.epochs.restore(cp)?;
        service.engine.import_state(&engine_blob)?;
        service.resume_carry = Some(carry);
        Ok(service)
    }

    /// The consensus-substrate report so far.
    pub fn report(&self) -> EngineReport {
        self.engine.report()
    }

    /// The current rung on the recovery ladder (see
    /// [`ChainService::enable_health_check`]).
    pub fn degradation(&self) -> Degradation {
        self.epochs.degradation()
    }

    /// How stream state crossed the last [`ChainService::resume`]
    /// (`None` for a service that never resumed).
    pub fn resume_carry(&self) -> Option<StateCarry> {
        self.resume_carry
    }

    /// The current account-shard mapping.
    pub fn allocation(&self) -> &Allocation {
        self.epochs.allocation()
    }

    /// The accumulated transaction graph.
    pub fn graph(&self) -> &TxGraph {
        self.epochs.graph()
    }

    /// Epochs closed since warm-up.
    pub fn epochs_closed(&self) -> u64 {
        self.epochs.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_core::UpdateKind;
    use txallo_graph::WeightedGraph;
    use txallo_workload::{EthereumLikeGenerator, WorkloadConfig};

    fn service_config(shards: usize, epoch_blocks: usize, gap: u64) -> ChainServiceConfig {
        ChainServiceConfig {
            engine: ChainEngineConfig {
                shards,
                validators: shards * 8,
                byzantine: 0,
                batch_size: 16,
                reshuffle_interval: 0,
            },
            epoch_blocks,
            schedule: HybridSchedule::Hybrid { global_gap: gap },
            ..ChainServiceConfig::new(shards)
        }
    }

    fn generator() -> EthereumLikeGenerator {
        let cfg = WorkloadConfig {
            accounts: 1_000,
            transactions: 30_000,
            block_size: 50,
            groups: 25,
            new_account_prob: 0.01,
            drift_interval: 20,
            ..WorkloadConfig::default()
        };
        EthereumLikeGenerator::new(cfg, 33)
    }

    #[test]
    fn epochs_close_and_migrations_hit_the_substrate() {
        let mut gen = generator();
        let mut service = ChainService::new(service_config(4, 10, 2));
        service.warmup(&gen.blocks(100));
        let updates = service.run(&gen.blocks(60));
        assert_eq!(updates.len(), 6);
        assert_eq!(service.epochs_closed(), 6);
        assert_eq!(
            updates[2].kind,
            UpdateKind::Global,
            "gap 2 fires at epoch 2"
        );

        let migrated: u64 = updates.iter().map(|u| u.migrations() as u64).sum();
        let r = service.report();
        // The substrate executes every diffed migration, plus the state
        // transfers of mid-epoch accounts leaving their transient hash
        // shard (the stream reports those as placements).
        assert!(
            r.migrations >= migrated,
            "substrate migrations {} must cover the {} diffed migrations",
            r.migrations,
            migrated
        );
        if migrated > 0 {
            assert!(
                r.migration_messages > 0,
                "migrations are not free: they cost Atomix messages"
            );
        }
        assert!(r.intra_committed + r.cross_committed > 0);
        // The served mapping covers every account.
        assert_eq!(service.allocation().len(), service.graph().node_count());
    }

    #[test]
    fn allocation_quality_beats_hash_on_structured_traffic() {
        // Epoch-driven TxAllo must yield fewer cross-shard commits than
        // the hash stream on the same trace — the §V-C claim, measured on
        // the consensus substrate itself.
        let cross_ratio = |method: &str| {
            let mut gen = generator();
            let mut config = service_config(4, 10, 2);
            config.method = method.into();
            let mut service = ChainService::new(config);
            service.warmup(&gen.blocks(100));
            service.run(&gen.blocks(40));
            let r = service.report();
            r.cross_committed as f64 / (r.cross_committed + r.intra_committed).max(1) as f64
        };
        let txallo = cross_ratio("txallo");
        let hash = cross_ratio("hash");
        assert!(
            txallo < hash,
            "txallo cross ratio {txallo} must beat hash {hash}"
        );
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn block_before_warmup_panics() {
        let mut gen = generator();
        let block = gen.blocks(1).pop().unwrap();
        let mut service = ChainService::new(ChainServiceConfig::new(2));
        let _ = service.process_block(&block);
    }

    /// An account that arrives mid-epoch is served on a transient hash
    /// shard; when `end_epoch` places it elsewhere, the substrate must
    /// charge that departure exactly once — the stream still reports it as
    /// a placement (`from: None`), and the engine's migration count equals
    /// `diffed migrations + placements that left their transient shard`,
    /// with no double counting on either side.
    #[test]
    fn transient_shard_departure_is_charged_exactly_once() {
        use txallo_model::{AccountId, Block, Transaction};
        let k = 4usize;
        let clique = |base: u64| -> Vec<Transaction> {
            let mut txs = Vec::new();
            for i in 0..5 {
                for j in (i + 1)..5 {
                    txs.push(Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
            txs
        };
        let warm: Vec<Block> = (0..4u64)
            .map(|h| Block::new(h, clique((h % 4) * 10)))
            .collect();
        let mut service = ChainService::new(service_config(k, 2, 1000));
        service.warmup(&warm);
        assert_eq!(service.report().migrations, 0, "warm-up is free");

        // One epoch (two blocks) with a burst of brand-new accounts bound
        // to existing cliques plus churn between cliques: a mix of
        // placements (some leaving their transient hash shard, some
        // landing on it) and genuine migrations.
        let blocks = vec![
            Block::new(
                4,
                (0..8)
                    .map(|i| Transaction::transfer(AccountId(200 + i), AccountId((i % 4) * 10)))
                    .collect(),
            ),
            Block::new(
                5,
                (0..20)
                    .map(|i| Transaction::transfer(AccountId(0), AccountId(10 + (i % 5))))
                    .collect(),
            ),
        ];
        let updates = service.run(&blocks);
        assert_eq!(updates.len(), 1, "one closed epoch");
        let update = &updates[0];

        let mut expected = update.migrations() as u64;
        let mut departures = 0u64;
        for m in update.moves.iter().filter(|m| m.from.is_none()) {
            let transient = service.graph().account(m.node).hash_shard(k);
            if transient != m.to {
                departures += 1;
            }
        }
        expected += departures;
        assert!(
            update.placements() > 0,
            "fixture must exercise mid-epoch placements"
        );
        assert_eq!(
            service.report().migrations,
            expected,
            "each transient-shard departure is one substrate migration — \
             placements landing on their hash shard are free, nothing is \
             counted twice"
        );
    }

    /// The golden resume test: checkpoint → crash → resume must be
    /// bit-identical to an uninterrupted run — labels, consensus
    /// counters, fault-injection stream, hybrid schedule phase, all of
    /// it — with the fault injector active the whole time.
    #[test]
    fn checkpoint_crash_resume_is_bit_identical() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::mixed(9);
        let config = service_config(3, 10, 2);
        let mut gen = generator();
        let warm = gen.blocks(40);
        let live = gen.blocks(60);

        // The uninterrupted reference run.
        let mut reference = ChainService::new(config.clone());
        reference.set_fault_plan(plan);
        reference.warmup(&warm);
        let ref_updates = reference.run(&live);

        // The crashing run: 3 epochs, checkpoint, drop everything.
        let mut doomed = ChainService::new(config.clone());
        doomed.set_fault_plan(plan);
        doomed.warmup(&warm);
        let mut early = doomed.run(&live[..30]);
        let image = doomed.checkpoint().expect("boundary checkpoint");
        drop(doomed);

        // Resume from the image and finish the stream.
        let mut resumed = ChainService::resume(config, &image).expect("valid image");
        assert_eq!(resumed.resume_carry(), Some(StateCarry::Warm));
        assert_eq!(resumed.epochs_closed(), 3);
        early.extend(resumed.run(&live[30..]));

        assert_eq!(ref_updates.len(), early.len());
        for (i, (a, b)) in ref_updates.iter().zip(&early).enumerate() {
            assert_eq!(a.moves, b.moves, "epoch {i} diffs diverged");
            assert_eq!(a.kind, b.kind, "epoch {i} schedule phase diverged");
        }
        assert_eq!(
            reference.allocation().labels(),
            resumed.allocation().labels(),
            "final labels must be bit-identical"
        );
        assert_eq!(
            format!("{:?}", reference.report()),
            format!("{:?}", resumed.report()),
            "consensus counters (including fault retries) must match"
        );
        assert_eq!(reference.epochs_closed(), resumed.epochs_closed());
        // And the resumed service's own next checkpoint matches the
        // reference's byte-for-byte.
        assert_eq!(
            reference.checkpoint().unwrap(),
            resumed.checkpoint().unwrap()
        );
    }

    #[test]
    fn checkpoint_outside_a_boundary_is_refused() {
        let mut gen = generator();
        let mut service = ChainService::new(service_config(2, 10, 1000));
        assert_eq!(
            service.checkpoint().err(),
            Some(crate::error::ChainError::NotWarmedUp)
        );
        service.warmup(&gen.blocks(10));
        assert!(service.checkpoint().is_ok(), "warm-up ends on a boundary");
        service.run(&gen.blocks(3));
        assert_eq!(
            service.checkpoint().err(),
            Some(crate::error::ChainError::MidEpochCheckpoint {
                blocks_into_epoch: 3
            })
        );
        service.run(&gen.blocks(7));
        assert!(service.checkpoint().is_ok(), "epoch closed again");
    }

    #[test]
    fn corrupt_images_and_config_mismatches_are_typed_errors() {
        use crate::error::ChainError;
        use txallo_core::CheckpointError;
        let mut gen = generator();
        let mut service = ChainService::new(service_config(2, 10, 1000));
        service.warmup(&gen.blocks(10));
        let image = service.checkpoint().unwrap();

        let mut flipped = image.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            ChainService::resume(service_config(2, 10, 1000), &flipped).err(),
            Some(ChainError::CorruptCheckpoint(
                CheckpointError::ChecksumMismatch
            ))
        );
        assert_eq!(
            ChainService::resume(service_config(3, 10, 1000), &image).err(),
            Some(ChainError::ShardMismatch {
                expected: 3,
                found: 2
            })
        );
        assert!(ChainService::resume(service_config(2, 10, 1000), &image).is_ok());
    }

    #[test]
    fn scheduler_stream_resumes_cold_but_sound() {
        // The transaction-level scheduler keeps unserializable state; a
        // checkpoint degrades to labels-only and resume cold-opens the
        // stream — visibly, via `resume_carry`.
        let mut gen = generator();
        let mut config = service_config(2, 10, 1000);
        config.method = "scheduler".into();
        let mut service = ChainService::new(config.clone());
        service.warmup(&gen.blocks(20));
        service.run(&gen.blocks(10));
        let image = service.checkpoint().unwrap();
        let resumed = ChainService::resume(config, &image).unwrap();
        assert_eq!(resumed.resume_carry(), Some(StateCarry::Rebuilt));
        assert_eq!(resumed.epochs_closed(), 1);
        assert_eq!(
            resumed.allocation().len(),
            resumed.graph().node_count(),
            "cold-opened stream still labels every account"
        );
    }

    #[test]
    fn health_check_walks_the_recovery_ladder() {
        // A negative tolerance makes every audit "fail", deterministically
        // driving the ladder: healthy → invalidated → hash fallback. The
        // service must keep closing epochs the whole way down.
        let mut gen = generator();
        let mut service = ChainService::new(service_config(3, 10, 1000));
        service.enable_health_check(1, -1.0);
        service.warmup(&gen.blocks(40));
        assert_eq!(service.degradation(), Degradation::None);

        service.run(&gen.blocks(10));
        assert_eq!(
            service.degradation(),
            Degradation::Invalidated,
            "first strike drops the warm session"
        );
        service.run(&gen.blocks(10));
        assert_eq!(
            service.degradation(),
            Degradation::HashFallback,
            "second strike falls back to hash allocation"
        );
        // Life goes on at the bottom rung: epochs close, every account
        // is labelled, and the rung is sticky.
        let updates = service.run(&gen.blocks(20));
        assert_eq!(updates.len(), 2);
        assert_eq!(service.epochs_closed(), 4);
        assert_eq!(service.allocation().len(), service.graph().node_count());
        assert_eq!(service.degradation(), Degradation::HashFallback);

        // The rung survives a checkpoint/resume cycle.
        let image = service.checkpoint().unwrap();
        let resumed = ChainService::resume(service_config(3, 10, 1000), &image).unwrap();
        assert_eq!(resumed.degradation(), Degradation::HashFallback);
    }

    #[test]
    fn invalid_service_configurations_are_typed_errors() {
        use crate::error::ChainError;
        let mut empty = service_config(2, 10, 1000);
        empty.epoch_blocks = 0;
        assert_eq!(
            ChainService::try_new(empty).err(),
            Some(ChainError::EmptyEpoch)
        );
        let mut unknown = service_config(2, 10, 1000);
        unknown.method = "oracle".into();
        match ChainService::try_new(unknown) {
            Err(ChainError::UnknownMethod(e)) => {
                assert!(e.to_string().contains("oracle"));
            }
            other => panic!("expected UnknownMethod, got {other:?}"),
        }
    }

    #[test]
    fn mid_epoch_new_accounts_get_transient_hash_labels() {
        let mut gen = generator();
        let mut service = ChainService::new(service_config(3, 50, 5));
        service.warmup(&gen.blocks(20));
        // Fewer blocks than an epoch: no boundary fires, yet consensus
        // processed every block (new accounts included).
        let updates = service.run(&gen.blocks(10));
        assert!(updates.is_empty());
        assert_eq!(service.allocation().len(), service.graph().node_count());
        assert!(service.report().blocks == 10);
    }
}
