//! The chain engine: applies an allocation, drives per-shard consensus and
//! cross-shard Atomix over a block stream, and *measures* η.
//!
//! Reallocation reaches the consensus substrate through
//! [`ChainEngine::apply_reallocation`]: each epoch's
//! [`AllocationUpdate`] move-diff is executed as batched cross-shard
//! state transfers over Atomix (lock the account on the source shard,
//! commit on the destination), so migration is a *measured* cost, not a
//! free relabel. The epoch loop itself lives in
//! [`ChainService`](crate::ChainService).

use txallo_core::checkpoint::{Decoder, Encoder};
use txallo_core::{Allocation, AllocationUpdate, CheckpointError};
use txallo_graph::TxGraph;
use txallo_model::{Block, FxHashMap};

use crate::atomix::AtomixProtocol;
use crate::error::ChainError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::pbft::PbftShard;
use crate::validator::{Validator, ValidatorSet};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ChainEngineConfig {
    /// Number of shards `k`.
    pub shards: usize,
    /// Total validators across all shards.
    pub validators: usize,
    /// Byzantine validators among them.
    pub byzantine: usize,
    /// Intra-shard transactions batched per consensus round.
    pub batch_size: usize,
    /// Reshuffle the validator assignment every this many blocks
    /// (Elastico-style reconfiguration; §II-B).
    pub reshuffle_interval: u64,
}

impl ChainEngineConfig {
    /// A reasonable default: `k` shards, 16 validators each, 10% Byzantine,
    /// 64-transaction batches, reshuffle every 100 blocks.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            validators: shards * 16,
            byzantine: shards * 16 / 10,
            batch_size: 64,
            reshuffle_interval: 100,
        }
    }
}

/// Aggregated statistics of an engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Blocks processed.
    pub blocks: u64,
    /// Committed intra-shard transactions.
    pub intra_committed: u64,
    /// Committed cross-shard transactions.
    pub cross_committed: u64,
    /// Aborted (failed-quorum) transactions of either kind.
    pub aborted: u64,
    /// Total consensus/relay messages.
    pub total_messages: u64,
    /// Validator reshuffles performed.
    pub reshuffles: u64,
    /// Accounts migrated between shards by reallocation updates.
    pub migrations: u64,
    /// Atomix messages spent on those migrations (also counted in
    /// `total_messages`).
    pub migration_messages: u64,
    /// Timeout-driven consensus retries (non-zero only under fault
    /// injection); their message/phase cost is in `total_messages`.
    pub retries: u64,
    /// Migration accounts whose Atomix batch could not commit — a shard
    /// below quorum, or a lost round after the fault plan's retry budget
    /// (zero under [`FaultPlan::none`]) ran out. They stay on their
    /// source shard, with or without faults.
    pub migrations_aborted: u64,
    /// Validator-epochs lost to injected crashes (a validator down for
    /// one reshuffle epoch counts once).
    pub crash_outages: u64,
    /// Mean per-shard message cost of an intra transaction.
    pub intra_cost_per_shard: f64,
    /// Mean per-shard message cost of a cross transaction.
    pub cross_cost_per_shard: f64,
}

impl EngineReport {
    /// The measured workload ratio `η` = cross cost / intra cost per shard
    /// — the empirical counterpart of the paper's hyper-parameter.
    pub fn measured_eta(&self) -> f64 {
        if self.intra_cost_per_shard <= 0.0 {
            return 0.0;
        }
        self.cross_cost_per_shard / self.intra_cost_per_shard
    }
}

/// The deterministic sharded-chain engine.
#[derive(Debug)]
pub struct ChainEngine {
    config: ChainEngineConfig,
    validators: ValidatorSet,
    instances: Vec<PbftShard>,
    report: EngineReport,
    /// The fault regime every round runs under; [`FaultPlan::none`] is
    /// the fault-free run (same code, zero draws).
    fault: FaultInjector,
    // Work accumulators for the η measurement.
    intra_shard_tx_units: f64,
    intra_messages: f64,
    cross_shard_tx_units: f64,
    cross_messages: f64,
}

impl ChainEngine {
    /// Builds the engine (validators are assigned for epoch 0).
    ///
    /// # Panics
    /// Panics on the configurations [`ChainEngine::try_new`] rejects.
    pub fn new(config: ChainEngineConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ChainEngine::new`], returning a typed error on an invalid
    /// configuration (zero shards, empty shards, quorum-breaking
    /// Byzantine count).
    pub fn try_new(config: ChainEngineConfig) -> Result<Self, ChainError> {
        let validators = ValidatorSet::try_new(config.validators, config.byzantine, config.shards)?;
        let instances = Self::build_instances(&validators, config.shards);
        Ok(Self {
            config,
            validators,
            instances,
            report: EngineReport::default(),
            fault: FaultInjector::new(FaultPlan::none()),
            intra_shard_tx_units: 0.0,
            intra_messages: 0.0,
            cross_shard_tx_units: 0.0,
            cross_messages: 0.0,
        })
    }

    /// Installs (or clears, with [`FaultPlan::none`]) the fault regime
    /// and re-derives the shard instances, since the plan's crash
    /// schedule may silence validators in the current epoch. A plan that
    /// injects nothing ([`FaultPlan::is_none`]) is installed as
    /// [`FaultPlan::none`], so its seed and retry budget are dropped.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let plan = if plan.is_none() {
            FaultPlan::none()
        } else {
            plan
        };
        self.fault = FaultInjector::new(plan);
        self.rebuild_instances();
    }

    /// The installed fault plan ([`FaultPlan::none`] until a plan that
    /// injects something is set).
    pub fn fault_plan(&self) -> &FaultPlan {
        self.fault.plan()
    }

    fn build_instances(validators: &ValidatorSet, shards: usize) -> Vec<PbftShard> {
        (0..shards as u32)
            .map(|s| PbftShard::new(validators.shard_members(s)))
            .collect()
    }

    /// Re-derives every shard instance from the current assignment,
    /// silencing validators the fault plan's crash schedule has down this
    /// epoch (a crashed validator is byzantine in the liveness sense:
    /// present in the membership, never voting).
    fn rebuild_instances(&mut self) {
        let epoch = self.validators.epoch();
        let mut outages = 0u64;
        self.instances = (0..self.config.shards as u32)
            .map(|s| {
                let members: Vec<Validator> = self
                    .validators
                    .shard_members(s)
                    .into_iter()
                    .map(|mut v| {
                        if !v.byzantine && self.fault.is_crashed(v.id, epoch) {
                            v.byzantine = true;
                            outages += 1;
                        }
                        v
                    })
                    .collect();
                PbftShard::new(members)
            })
            .collect();
        self.report.crash_outages += outages;
    }

    /// Current validator assignment.
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// Processes one block's transactions under `allocation`.
    pub fn process_block(&mut self, block: &Block, graph: &TxGraph, allocation: &Allocation) {
        if self.config.reshuffle_interval > 0
            && block
                .height()
                .is_multiple_of(self.config.reshuffle_interval)
            && block.height() > 0
        {
            let epoch = block.height() / self.config.reshuffle_interval;
            self.validators.reshuffle(epoch);
            self.rebuild_instances();
            self.report.reshuffles += 1;
        }

        // Partition the block: intra counted per shard; cross grouped by
        // their exact shard set (real deployments batch Atomix by shard
        // pair, which is what keeps η near 2 instead of 2×batch size).
        let mut intra = vec![0u64; self.config.shards];
        let mut cross: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        let mut scratch: Vec<u32> = Vec::with_capacity(8);
        for tx in block.transactions() {
            allocation.tx_shards_into(graph, tx, &mut scratch);
            if scratch.len() == 1 {
                intra[scratch[0] as usize] += 1;
            } else {
                *cross.entry(scratch.clone()).or_insert(0) += 1;
            }
        }

        // Intra: per shard, ceil(n/batch) consensus rounds.
        for (shard, &count) in intra.iter().enumerate() {
            for in_round in batches(count, self.config.batch_size) {
                let out = self.instances[shard].run_round(&mut self.fault);
                self.report.total_messages += out.messages;
                self.report.retries += out.retries as u64;
                if out.committed {
                    self.report.intra_committed += in_round;
                } else {
                    self.report.aborted += in_round;
                }
                // Each tx in the round is charged its share of one shard's
                // round cost.
                self.intra_shard_tx_units += in_round as f64;
                self.intra_messages += out.messages as f64;
            }
        }

        // Cross: one Atomix run per (shard set, batch).
        let mut groups: Vec<(Vec<u32>, u64)> = cross.into_iter().collect();
        groups.sort_unstable(); // determinism
        for (shards, count) in groups {
            for in_run in batches(count, self.config.batch_size) {
                let out = AtomixProtocol::run(&mut self.instances, &shards, &mut self.fault);
                self.report.total_messages += out.messages;
                self.report.retries += out.retries as u64;
                if out.committed {
                    self.report.cross_committed += in_run;
                } else {
                    self.report.aborted += in_run;
                }
                // A cross tx occupies µ shards; charge per shard-tx unit.
                self.cross_shard_tx_units += (in_run * shards.len() as u64) as f64;
                self.cross_messages += out.messages as f64;
            }
        }

        self.report.blocks += 1;
    }

    /// Executes an epoch's reallocation diff on the substrate: every
    /// account migration is a cross-shard state transfer between its old
    /// and new shard, batched per (from, to) pair and run through Atomix
    /// exactly like a cross-shard transaction batch. First placements
    /// (no previous shard) cost nothing — there is no state to move.
    pub fn apply_reallocation(&mut self, update: &AllocationUpdate) {
        let mut pairs: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for m in &update.moves {
            let Some(from) = m.from else { continue };
            if from == m.to {
                continue;
            }
            *pairs.entry((from.0, m.to.0)).or_insert(0) += 1;
        }
        let mut pairs: Vec<((u32, u32), u64)> = pairs.into_iter().collect();
        pairs.sort_unstable(); // determinism

        // A batch whose Atomix instance cannot commit is re-run up to the
        // plan's retry budget (none under `FaultPlan::none()`); one that
        // still cannot commit stays on its source shard, counted in
        // `migrations_aborted`, never silently applied.
        let retry_budget = self.fault.plan().max_retries;
        for ((from, to), count) in pairs {
            let shards = if from < to { [from, to] } else { [to, from] };
            for in_run in batches(count, self.config.batch_size) {
                let committed = (0..=retry_budget).any(|_| {
                    let out = AtomixProtocol::run(&mut self.instances, &shards, &mut self.fault);
                    self.report.total_messages += out.messages;
                    self.report.migration_messages += out.messages;
                    self.report.retries += out.retries as u64;
                    out.committed
                });
                if committed {
                    self.report.migrations += in_run;
                } else {
                    self.report.migrations_aborted += in_run;
                }
            }
        }
    }

    /// Serializes the engine's resumable state: report counters, the η
    /// accumulators (raw bits — they are chronological float sums), the
    /// reshuffle epoch, per-shard view cursors, and the fault injector's
    /// plan + decision counter (marker byte 0 alone stands for
    /// [`FaultPlan::none`], which never draws).
    pub fn export_state(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let r = &self.report;
        for v in [
            r.blocks,
            r.intra_committed,
            r.cross_committed,
            r.aborted,
            r.total_messages,
            r.reshuffles,
            r.migrations,
            r.migration_messages,
            r.retries,
            r.migrations_aborted,
            r.crash_outages,
        ] {
            e.u64(v);
        }
        for v in [
            self.intra_shard_tx_units,
            self.intra_messages,
            self.cross_shard_tx_units,
            self.cross_messages,
        ] {
            e.f64(v);
        }
        e.u64(self.validators.epoch());
        e.u64(self.instances.len() as u64);
        for inst in &self.instances {
            e.u64(inst.view() as u64);
        }
        let p = self.fault.plan();
        if *p == FaultPlan::none() {
            e.u8(0);
        } else {
            e.u8(1);
            e.u64(p.seed);
            e.f64(p.drop_rate);
            e.f64(p.delay_rate);
            e.f64(p.duplicate_rate);
            e.u32(p.max_retries);
            e.f64(p.crash_rate);
            e.u64(p.rejoin_after);
            e.u64(self.fault.counter());
        }
        e.finish()
    }

    /// Restores state exported by [`ChainEngine::export_state`] into an
    /// engine built from the same configuration; afterwards the engine
    /// behaves bit-identically to one that never stopped.
    pub fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut d = Decoder::new(bytes);
        let report = EngineReport {
            blocks: d.u64()?,
            intra_committed: d.u64()?,
            cross_committed: d.u64()?,
            aborted: d.u64()?,
            total_messages: d.u64()?,
            reshuffles: d.u64()?,
            migrations: d.u64()?,
            migration_messages: d.u64()?,
            retries: d.u64()?,
            migrations_aborted: d.u64()?,
            crash_outages: d.u64()?,
            intra_cost_per_shard: 0.0,
            cross_cost_per_shard: 0.0,
        };
        let intra_shard_tx_units = d.f64()?;
        let intra_messages = d.f64()?;
        let cross_shard_tx_units = d.f64()?;
        let cross_messages = d.f64()?;
        let epoch = d.u64()?;
        let instances = d.u64()? as usize;
        if instances != self.config.shards {
            return Err(CheckpointError::Malformed("engine shard-instance count"));
        }
        let views: Vec<u64> = (0..instances).map(|_| d.u64()).collect::<Result<_, _>>()?;
        let fault = match d.u8()? {
            0 => FaultInjector::new(FaultPlan::none()),
            1 => {
                let plan = FaultPlan {
                    seed: d.u64()?,
                    drop_rate: d.f64()?,
                    delay_rate: d.f64()?,
                    duplicate_rate: d.f64()?,
                    max_retries: d.u32()?,
                    crash_rate: d.f64()?,
                    rejoin_after: d.u64()?,
                };
                FaultInjector::restore(plan, d.u64()?)
            }
            _ => return Err(CheckpointError::Malformed("engine fault marker")),
        };
        d.finish()?;

        self.fault = fault;
        self.validators.reshuffle(epoch);
        self.rebuild_instances();
        for (inst, view) in self.instances.iter_mut().zip(views) {
            inst.restore_view(view as usize);
        }
        // The report is restored last: `rebuild_instances` charged this
        // epoch's crash outages, but the exported counters already
        // include them.
        self.report = report;
        self.intra_shard_tx_units = intra_shard_tx_units;
        self.intra_messages = intra_messages;
        self.cross_shard_tx_units = cross_shard_tx_units;
        self.cross_messages = cross_messages;
        Ok(())
    }

    /// Finalizes and returns the report.
    pub fn report(&self) -> EngineReport {
        let mut r = self.report.clone();
        r.intra_cost_per_shard = if self.intra_shard_tx_units > 0.0 {
            self.intra_messages / self.intra_shard_tx_units
        } else {
            0.0
        };
        r.cross_cost_per_shard = if self.cross_shard_tx_units > 0.0 {
            self.cross_messages / self.cross_shard_tx_units
        } else {
            0.0
        };
        r
    }
}

/// The sizes of the batches that carry `count` transactions, up to
/// `batch_size` each (0 counts as 1): full batches, then the remainder.
fn batches(count: u64, batch_size: usize) -> impl Iterator<Item = u64> {
    let batch = batch_size.max(1) as u64;
    (0..count.div_ceil(batch)).map(move |i| batch.min(count - i * batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_core::{AllocatorRegistry, Dataset, TxAlloParams};
    use txallo_graph::WeightedGraph;
    use txallo_model::{AccountId, Transaction};
    use txallo_workload::{EthereumLikeGenerator, WorkloadConfig};

    fn engine(shards: usize) -> ChainEngine {
        ChainEngine::new(ChainEngineConfig {
            shards,
            validators: shards * 8,
            byzantine: 0,
            batch_size: 16,
            reshuffle_interval: 10,
        })
    }

    #[test]
    fn processes_a_simple_block() {
        let mut g = TxGraph::new();
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(1), AccountId(2)),
                Transaction::transfer(AccountId(3), AccountId(4)),
            ],
        );
        g.ingest_block(&block);
        let mut labels = vec![0u32; g.node_count()];
        labels[g.node_of(AccountId(3)).unwrap() as usize] = 1;
        labels[g.node_of(AccountId(4)).unwrap() as usize] = 1;
        let alloc = Allocation::new(labels, 2);
        let mut e = engine(2);
        e.process_block(&block, &g, &alloc);
        let r = e.report();
        assert_eq!(r.intra_committed, 2);
        assert_eq!(r.cross_committed, 0);
        assert_eq!(r.aborted, 0);
        assert!(r.total_messages > 0);
    }

    #[test]
    fn cross_transactions_cost_more_per_shard() {
        let mut g = TxGraph::new();
        let mut txs = Vec::new();
        // 16 intra on shard 0, 16 cross between shards 0 and 1.
        for i in 0..16u64 {
            txs.push(Transaction::transfer(
                AccountId(i * 2),
                AccountId(i * 2 + 1),
            ));
        }
        for i in 0..16u64 {
            txs.push(Transaction::transfer(AccountId(i * 2), AccountId(1000 + i)));
        }
        let block = Block::new(0, txs);
        g.ingest_block(&block);
        let labels: Vec<u32> = (0..g.node_count() as u32)
            .map(|v| if g.account(v).0 >= 1000 { 1 } else { 0 })
            .collect();
        let alloc = Allocation::new(labels, 2);
        let mut e = engine(2);
        e.process_block(&block, &g, &alloc);
        let r = e.report();
        assert_eq!(r.intra_committed, 16);
        assert_eq!(r.cross_committed, 16);
        let eta = r.measured_eta();
        assert!(
            eta > 1.0,
            "cross must cost more per shard, measured η = {eta}"
        );
        assert!(eta < 20.0, "η should stay in a sane band, measured {eta}");
    }

    #[test]
    fn reshuffle_happens_on_schedule() {
        let mut g = TxGraph::new();
        let mut e = engine(2);
        for h in 0..25u64 {
            let block = Block::new(
                h,
                vec![Transaction::transfer(AccountId(h), AccountId(h + 1))],
            );
            g.ingest_block(&block);
            let alloc = Allocation::new(vec![0; g.node_count()], 2);
            e.process_block(&block, &g, &alloc);
        }
        assert_eq!(e.report().reshuffles, 2, "blocks 10 and 20");
    }

    #[test]
    fn byzantine_minority_does_not_abort() {
        let mut g = TxGraph::new();
        let block = Block::new(0, vec![Transaction::transfer(AccountId(1), AccountId(2))]);
        g.ingest_block(&block);
        let alloc = Allocation::new(vec![0; 2], 1);
        let mut e = ChainEngine::new(ChainEngineConfig {
            shards: 1,
            validators: 16,
            byzantine: 5, // f = 5 for n = 16
            batch_size: 8,
            reshuffle_interval: 0,
        });
        e.process_block(&block, &g, &alloc);
        assert_eq!(e.report().intra_committed, 1);
        assert_eq!(e.report().aborted, 0);
    }

    fn traffic_blocks(n: u64) -> (TxGraph, Vec<Block>) {
        let mut g = TxGraph::new();
        let blocks: Vec<Block> = (0..n)
            .map(|h| {
                let mut txs = Vec::new();
                for i in 0..6u64 {
                    txs.push(Transaction::transfer(
                        AccountId((h + i) % 9),
                        AccountId((h + i * 3) % 11 + 9),
                    ));
                }
                Block::new(h, txs)
            })
            .collect();
        for b in &blocks {
            g.ingest_block(b);
        }
        (g, blocks)
    }

    #[test]
    fn faulty_engine_is_deterministic_and_charges_protocol_cost() {
        use crate::fault::FaultPlan;
        let (g, blocks) = traffic_blocks(30);
        let alloc = Allocation::new(
            (0..txallo_graph::WeightedGraph::node_count(&g) as u32)
                .map(|v| v % 3)
                .collect(),
            3,
        );
        let plan = FaultPlan::mixed(21);
        let run = |plan: FaultPlan| {
            let mut e = ChainEngine::new(ChainEngineConfig {
                shards: 3,
                validators: 24,
                byzantine: 0,
                batch_size: 4,
                reshuffle_interval: 10,
            });
            e.set_fault_plan(plan);
            for b in &blocks {
                e.process_block(b, &g, &alloc);
            }
            e.report()
        };
        let faulty = run(plan);
        let again = run(plan);
        assert_eq!(
            format!("{faulty:?}"),
            format!("{again:?}"),
            "bit-identical replays"
        );
        let clean = run(FaultPlan::none());
        assert!(faulty.retries > 0, "a mixed plan must force retries");
        assert!(
            faulty.total_messages > clean.total_messages,
            "faults are protocol cost, not free"
        );
        // Conservation holds under faults too.
        let total = 30 * 6;
        assert_eq!(
            faulty.intra_committed + faulty.cross_committed + faulty.aborted,
            total
        );
        assert_eq!(clean.aborted, 0);
    }

    #[test]
    fn export_import_resumes_bit_identically() {
        use crate::fault::FaultPlan;
        let (g, blocks) = traffic_blocks(40);
        let alloc = Allocation::new(
            (0..txallo_graph::WeightedGraph::node_count(&g) as u32)
                .map(|v| v % 2)
                .collect(),
            2,
        );
        let config = ChainEngineConfig {
            shards: 2,
            validators: 16,
            byzantine: 0,
            batch_size: 8,
            reshuffle_interval: 7,
        };
        let plan = FaultPlan::mixed(5);
        // Uninterrupted reference run.
        let mut full = ChainEngine::new(config.clone());
        full.set_fault_plan(plan);
        for b in &blocks {
            full.process_block(b, &g, &alloc);
        }
        // Crash after 20 blocks, export, import into a fresh engine.
        let mut first = ChainEngine::new(config.clone());
        first.set_fault_plan(plan);
        for b in &blocks[..20] {
            first.process_block(b, &g, &alloc);
        }
        let state = first.export_state();
        let mut resumed = ChainEngine::new(config);
        resumed.import_state(&state).unwrap();
        for b in &blocks[20..] {
            resumed.process_block(b, &g, &alloc);
        }
        assert_eq!(
            format!("{:?}", full.report()),
            format!("{:?}", resumed.report()),
            "resume must be indistinguishable from never stopping"
        );
        assert_eq!(full.fault_plan(), resumed.fault_plan());
    }

    #[test]
    fn inert_fault_plan_is_installed_as_none_across_a_checkpoint() {
        use crate::fault::FaultPlan;
        // A plan that injects nothing carries no seed or retry budget into
        // the engine, so a live engine and its resumed copy agree on both.
        let config = ChainEngineConfig::new(2);
        let mut live = ChainEngine::new(config.clone());
        live.set_fault_plan(FaultPlan {
            seed: 9,
            max_retries: 3,
            ..FaultPlan::none()
        });
        assert_eq!(live.fault_plan(), &FaultPlan::none());
        let state = live.export_state();
        assert_eq!(state.last(), Some(&0), "marker byte 0: no fault plan");
        let mut resumed = ChainEngine::new(config);
        resumed.set_fault_plan(FaultPlan::mixed(1));
        resumed.import_state(&state).unwrap();
        assert_eq!(resumed.fault_plan(), &FaultPlan::none());
        assert_eq!(resumed.export_state(), state);
    }

    /// Without faults, a migration batch whose Atomix instance cannot
    /// commit (a reshuffle left a shard below quorum) stays on its source
    /// shard and is counted as aborted, exactly as under a fault plan.
    #[test]
    fn fault_free_migration_that_cannot_commit_is_aborted() {
        use txallo_core::{AccountMove, StateCarry, UpdateKind};
        use txallo_model::ShardId;
        let mut e = ChainEngine::new(ChainEngineConfig {
            shards: 2,
            validators: 8,
            byzantine: 2,
            batch_size: 8,
            reshuffle_interval: 1,
        });
        let g = TxGraph::new();
        let alloc = Allocation::new(Vec::new(), 2);
        for h in 0..3 {
            e.process_block(&Block::new(h, Vec::new()), &g, &alloc);
        }
        assert_eq!(
            e.validators().byzantine_in_shard(1),
            2,
            "premise: the epoch-2 reshuffle leaves shard 1 below quorum"
        );
        e.apply_reallocation(&AllocationUpdate {
            shard_count: 2,
            len: 1,
            kind: UpdateKind::Adaptive,
            path: None,
            carry: StateCarry::Warm,
            moves: vec![AccountMove {
                node: 0,
                from: Some(ShardId(0)),
                to: ShardId(1),
            }],
        });
        let r = e.report();
        assert_eq!(r.migrations, 0);
        assert_eq!(r.migrations_aborted, 1);
        assert_eq!(r.migration_messages, 96);
    }

    #[test]
    fn batches_split_counts_into_full_batches_then_the_remainder() {
        assert_eq!(batches(0, 8).count(), 0);
        assert_eq!(batches(17, 8).collect::<Vec<_>>(), [8, 8, 1]);
        assert_eq!(batches(3, 0).collect::<Vec<_>>(), [1, 1, 1]);
    }

    #[test]
    fn corrupt_engine_state_is_a_typed_error() {
        let e = ChainEngine::new(ChainEngineConfig::new(2));
        let mut state = e.export_state();
        state.truncate(state.len() / 2);
        let mut fresh = ChainEngine::new(ChainEngineConfig::new(2));
        assert!(fresh.import_state(&state).is_err());
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        use crate::error::ChainError;
        let bad = |shards, validators, byzantine| {
            ChainEngine::try_new(ChainEngineConfig {
                shards,
                validators,
                byzantine,
                batch_size: 8,
                reshuffle_interval: 0,
            })
            .unwrap_err()
        };
        assert_eq!(bad(0, 4, 0), ChainError::NoShards);
        assert!(matches!(bad(4, 2, 0), ChainError::NoValidators { .. }));
        assert!(matches!(bad(1, 4, 2), ChainError::QuorumViolation { .. }));
    }

    #[test]
    fn measured_eta_on_real_workload_lands_in_paper_band() {
        // End-to-end: generate a trace, allocate with G-TxAllo, run the
        // chain engine, and check the measured η falls in the 2–10 range
        // the paper sweeps.
        let cfg = WorkloadConfig {
            accounts: 1_000,
            transactions: 10_000,
            block_size: 100,
            groups: 20,
            ..WorkloadConfig::default()
        };
        let mut generator = EthereumLikeGenerator::new(cfg, 13);
        let ledger = generator.default_ledger();
        let dataset = Dataset::from_ledger(ledger);
        let k = 4;
        let params = TxAlloParams::for_graph(dataset.graph(), k);
        let alloc = AllocatorRegistry::builtin()
            .batch("txallo", &params)
            .unwrap()
            .allocate(&dataset);
        let g = dataset.graph();
        let mut e = engine(k);
        for block in dataset.ledger().blocks() {
            e.process_block(block, g, &alloc);
        }
        let r = e.report();
        assert!(r.intra_committed > 0 && r.cross_committed > 0);
        let eta = r.measured_eta();
        assert!(
            (1.5..12.0).contains(&eta),
            "measured η = {eta} outside the paper's swept band"
        );
    }
}
