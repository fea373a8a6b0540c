//! The epoch loop: the one owner of the §V-C epoch boundary.
//!
//! Blocks arrive, and every `τ₁` blocks the allocator closes an epoch and
//! emits the [`AllocationUpdate`] the chain must execute. The simulator
//! and the chain service both drive [`EpochLoop`]; they choose only when
//! an epoch closes and what the substrate does with the diff.
//!
//! * each block ([`EpochLoop::ingest`]): decay at the epoch's first block
//!   → ingest → fold → transient hash labels for new accounts;
//! * each close ([`EpochLoop::close`]): `end_epoch` (the only timed
//!   call) → substrate hook → [`Allocation::apply_update`] → health audit
//!   and ladder.
//!
//! The graph stays in core: every close, audit and checkpoint reads it as
//! ingestion left it.

use std::borrow::Borrow;
use std::time::Duration;

use txallo_graph::{TxGraph, WeightedGraph};
use txallo_model::Block;

use crate::allocation::Allocation;
use crate::checkpoint::{encode_checkpoint, Checkpoint, CheckpointError};
use crate::params::TxAlloParams;
use crate::registry::{AllocatorRegistry, UnknownAllocator};
use crate::streaming::{
    AllocationUpdate, BatchSolver, Degradation, EpochKind, GlobalStream, HybridSchedule,
    StateCarry, StreamingAllocator,
};

/// The epoch-driven serving state of one allocation method (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct EpochLoop {
    graph: TxGraph,
    stream: Box<dyn StreamingAllocator>,
    /// The last boundary's labels, then transient ones for new accounts.
    allocation: Allocation,
    /// Nodes the last boundary labelled.
    placed: usize,
    /// Weight-independent parameters, rescaled to the graph at every use.
    params: TxAlloParams,
    decay_per_epoch: Option<f64>,
    epoch: u64,
    blocks_in_epoch: usize,
    warmed_up: bool,
    /// Health-check cadence in epochs (0 = disabled).
    health_interval: u64,
    /// Consistency-error tolerance of the health check.
    health_tolerance: f64,
    degradation: Degradation,
}

impl EpochLoop {
    /// An empty loop serving `method` (resolved through
    /// [`AllocatorRegistry`]) with `params`' `k` and `η`. `decay_per_epoch`
    /// rescales edge weights at each epoch's first block.
    pub fn new(
        method: &str,
        schedule: HybridSchedule,
        params: TxAlloParams,
        decay_per_epoch: Option<f64>,
    ) -> Result<Self, UnknownAllocator> {
        let stream = AllocatorRegistry.streaming(method, &params, schedule)?;
        Ok(Self {
            graph: TxGraph::new(),
            stream,
            allocation: Allocation::new(Vec::new(), params.shards),
            placed: 0,
            params,
            decay_per_epoch,
            epoch: 0,
            blocks_in_epoch: 0,
            warmed_up: false,
            health_interval: 0,
            health_tolerance: 0.0,
            degradation: Degradation::None,
        })
    }

    /// Enables the epoch-boundary serving-state health check: every
    /// `interval_epochs` epochs the stream's maintained aggregates are
    /// audited against a from-scratch recomputation
    /// ([`StreamingAllocator::consistency_error`]); a divergence above
    /// `tolerance` steps down the recovery ladder (see [`Degradation`]) —
    /// first invalidating the warm session, then falling back to
    /// deterministic hash allocation.
    pub fn enable_health_check(&mut self, interval_epochs: u64, tolerance: f64) {
        self.health_interval = interval_epochs;
        self.health_tolerance = tolerance;
    }

    /// Ingests the historical prefix and opens the stream on it (for
    /// TxAllo: one global G-TxAllo run). Returns the wall-clock time of
    /// that initial solve.
    pub fn warmup<I>(&mut self, blocks: I) -> Duration
    where
        I: IntoIterator,
        I::Item: Borrow<Block>,
    {
        for b in blocks {
            self.graph.ingest_block(b.borrow());
        }
        let params = self.params();
        let (allocation, solve_time) = timed(|| self.stream.begin(&self.graph, &params));
        self.serve(allocation);
        self.warmed_up = true;
        solve_time
    }

    /// Feeds one block of the open epoch.
    ///
    /// # Panics
    /// Panics if called before [`EpochLoop::warmup`] or
    /// [`EpochLoop::restore`].
    pub fn ingest(&mut self, block: &Block) {
        assert!(self.warmed_up, "call warmup() before feeding blocks");
        if self.blocks_in_epoch == 0 {
            if let Some(factor) = self.decay_per_epoch {
                self.graph.apply_decay(factor);
                // Uniform rescale: the adaptive stream folds it into its
                // aggregates (`StateCarry::WarmRescaled`) instead of
                // dropping its session — see `AtxAlloSession::apply_decay`.
                self.stream.on_reweight(factor);
            }
        }
        self.blocks_in_epoch += 1;
        // The interned view hands the stream each transaction's dense node
        // ids straight from ingestion — no account re-hashing per epoch.
        let nodes = self.graph.ingest_block_nodes(block);
        self.stream.on_block_nodes(&self.graph, block, &nodes);
        // New accounts appear mid-epoch, before any boundary labels them:
        // consensus needs a shard *now*, so unlabelled accounts fall back
        // to their hash shard until the epoch closes (the same rule the
        // hash baseline uses for every account, applied transiently).
        let shards = self.allocation.shard_count();
        for v in self.allocation.len()..self.graph.node_count() {
            self.allocation
                .push_shard(self.graph.account(v as u32).hash_shard(shards));
        }
    }

    /// Closes the open epoch, returning its update and the wall-clock time
    /// of `end_epoch`. `substrate` sees the update before the mapping
    /// changes, while it still holds the epoch's transient labels.
    pub fn close(
        &mut self,
        substrate: impl FnOnce(&AllocationUpdate, &Allocation),
    ) -> (AllocationUpdate, Duration) {
        let (update, update_time) =
            timed(|| self.stream.end_epoch(&self.graph, EpochKind::Scheduled));
        substrate(&update, &self.allocation);
        // The diff is against the last boundary, not the transient labels.
        self.allocation.truncate(self.placed);
        self.allocation.apply_update(&update);
        self.placed = self.allocation.len();
        self.run_health_check();
        self.epoch += 1;
        self.blocks_in_epoch = 0;
        (update, update_time)
    }

    /// The epoch-boundary health audit and its recovery ladder, every
    /// `health_interval` closes.
    fn run_health_check(&mut self) {
        if self.health_interval == 0 || !(self.epoch + 1).is_multiple_of(self.health_interval) {
            return;
        }
        let Some(err) = self.stream.consistency_error(&self.graph) else {
            return; // nothing maintained, nothing to diverge
        };
        if err <= self.health_tolerance {
            return;
        }
        if self.degradation < Degradation::Invalidated && self.stream.invalidate_state() {
            // First strike: drop the warm aggregates, keep the labels;
            // the next boundary rebuilds from the graph.
            self.degradation = Degradation::Invalidated;
            return;
        }
        // The rebuilt state diverged again (or there was nothing left to
        // invalidate): last rung, swap in deterministic hash allocation.
        // Epochs keep closing; quality is sacrificed, visibly.
        let params = self.params();
        self.stream = hash_fallback(params.clone());
        let allocation = self.stream.begin(&self.graph, &params);
        self.serve(allocation);
        self.degradation = Degradation::HashFallback;
    }

    /// Serializes the graph, epoch count, rung, served labels, the
    /// stream's aggregates and the `consumer` blob into one boundary
    /// checkpoint image (see [`crate::checkpoint`]).
    ///
    /// # Panics
    /// Panics part-way through an epoch, where the served labels still
    /// hold transient hash shards for accounts no boundary has placed.
    pub fn checkpoint(&self, consumer: &[u8]) -> Vec<u8> {
        assert_eq!(self.blocks_in_epoch, 0, "checkpoint taken mid-epoch");
        encode_checkpoint(
            &self.graph,
            self.epoch,
            self.degradation,
            &self.allocation,
            self.stream.export_aggregates().as_ref(),
            consumer,
        )
    }

    /// Reopens the loop from a decoded [`EpochLoop::checkpoint`] image,
    /// returning the consumer blob and how the stream state crossed. An
    /// image of another shard count is refused
    /// ([`CheckpointError::ShardMismatch`]).
    pub fn restore(
        &mut self,
        checkpoint: Checkpoint,
    ) -> Result<(Vec<u8>, StateCarry), CheckpointError> {
        let found = checkpoint.allocation.shard_count();
        if found != self.params.shards {
            let expected = self.params.shards;
            return Err(CheckpointError::ShardMismatch { expected, found });
        }
        self.graph = checkpoint.graph;
        if checkpoint.degradation == Degradation::HashFallback {
            // The run had already fallen back to hash allocation; resuming
            // onto the configured method would silently un-degrade it.
            self.stream = hash_fallback(self.params());
        }
        let (epoch, allocation) = (checkpoint.epoch, checkpoint.allocation);
        let carry = match self
            .stream
            .import_state(epoch, &allocation, checkpoint.community)
        {
            Some(carry) => {
                self.serve(allocation);
                carry
            }
            None => {
                // The stream cannot adopt checkpointed state (e.g. the
                // transaction-level scheduler): cold-open it on the
                // restored graph — a sound, visibly degraded resume.
                let allocation = self.stream.begin(&self.graph, &self.params());
                self.serve(allocation);
                StateCarry::Rebuilt
            }
        };
        self.epoch = epoch;
        self.blocks_in_epoch = 0;
        self.warmed_up = true;
        self.degradation = checkpoint.degradation;
        Ok((checkpoint.consumer, carry))
    }

    fn serve(&mut self, allocation: Allocation) {
        self.placed = allocation.len();
        self.allocation = allocation;
    }

    fn params(&self) -> TxAlloParams {
        self.params.rescaled_for_graph(&self.graph)
    }

    /// The accumulated transaction graph.
    pub fn graph(&self) -> &TxGraph {
        &self.graph
    }

    /// The served mapping (mid-epoch, new accounts on their hash shard).
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// Epochs closed since warm-up.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Blocks fed into the open epoch.
    pub fn blocks_in_epoch(&self) -> usize {
        self.blocks_in_epoch
    }

    /// Whether warm-up or a restore opened the stream.
    pub fn is_warmed_up(&self) -> bool {
        self.warmed_up
    }

    /// The current rung of the recovery ladder.
    pub fn degradation(&self) -> Degradation {
        self.degradation
    }

    /// Approximate resident bytes of the allocator's own serving state
    /// (session aggregates, snapshot buffer, sweep scratch).
    pub fn allocator_state_bytes(&self) -> usize {
        self.stream.state_bytes()
    }
}

/// The recovery ladder's last rung.
fn hash_fallback(params: TxAlloParams) -> Box<dyn StreamingAllocator> {
    Box::new(GlobalStream::new(params, BatchSolver::Hash))
}

/// Runs `f` and measures its wall-clock time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "times the warm-up solve and end_epoch for epoch reports only; no allocation decision reads the clock"
    )]
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{decode_checkpoint, degradation_code, degradation_from_code};
    use txallo_model::{AccountId, Transaction};

    /// A `txallo` loop over `shards`, warmed up on two small cliques.
    fn warm_loop(shards: usize) -> EpochLoop {
        let params = TxAlloParams::for_total_weight(0.0, shards);
        let mut epochs = EpochLoop::new("txallo", HybridSchedule::AlwaysAdaptive, params, None)
            .expect("txallo is registered");
        let clique = |base: u64| {
            let pairs = [(0, 1), (1, 2), (0, 2)];
            let txs =
                pairs.map(|(i, j)| Transaction::transfer(AccountId(base + i), AccountId(base + j)));
            Block::new(base, txs.to_vec())
        };
        epochs.warmup([clique(0), clique(10)]);
        epochs
    }

    #[test]
    #[should_panic(expected = "checkpoint taken mid-epoch")]
    fn checkpoint_part_way_through_an_epoch_panics() {
        let mut epochs = warm_loop(2);
        epochs.ingest(&Block::new(
            20,
            vec![Transaction::transfer(AccountId(100), AccountId(0))],
        ));
        let _ = epochs.checkpoint(&[]);
    }

    #[test]
    fn restore_refuses_another_shard_count() {
        let image = warm_loop(2).checkpoint(&[]);
        let mut other = warm_loop(3);
        assert_eq!(
            other.restore(decode_checkpoint(&image).unwrap()).err(),
            Some(CheckpointError::ShardMismatch {
                expected: 3,
                found: 2
            })
        );
        let mut same = warm_loop(2);
        let (_, carry) = same.restore(decode_checkpoint(&image).unwrap()).unwrap();
        assert_eq!(carry, StateCarry::Warm);
    }

    #[test]
    fn rung_codes_round_trip_and_retired_code_2_is_malformed() {
        for rung in [
            Degradation::None,
            Degradation::Invalidated,
            Degradation::HashFallback,
        ] {
            assert_eq!(degradation_from_code(degradation_code(rung)), Ok(rung));
        }
        assert_eq!(degradation_code(Degradation::HashFallback), 3);
        assert_eq!(
            degradation_from_code(2),
            Err(CheckpointError::Malformed("degradation rung"))
        );
    }
}
