//! The four workloads: their shapes, thread counts and recorded digests.

use txallo_core::HybridSchedule;
use txallo_workload::{StreamingWorkload, WorkloadConfig};

/// The seed whose labels digest is recorded with the benchmark.
pub const DEFAULT_SEED: u64 = 42;

/// Which product entry point serves the epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `ShardedChainSim` (`warmup_streamed` + `run_epoch`).
    Sim,
    /// `ChainService` (`warmup` + `process_block` + `checkpoint` + `resume`)
    /// under the mixed fault plan.
    Chain,
}

/// One workload: the trace it synthesizes and the serving configuration.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    pub entry: Entry,
    /// Initially existing accounts (births add more).
    pub accounts: usize,
    /// Transactions per block.
    pub block_size: usize,
    /// Blocks per epoch.
    pub epoch_blocks: u64,
    /// History epochs ingested by the warm-up call.
    pub warm_epochs: u64,
    /// Served epochs per repeat.
    pub epochs: u64,
    /// Nominal wall seconds of one repeat (set-up, synthesis and serving)
    /// on a one-core box; sizes a run's repeat count from `--seconds`.
    pub repeat_s: f64,
    /// Shards `k`.
    pub shards: usize,
    /// Allocation method (registry name).
    pub method: &'static str,
    pub schedule: HybridSchedule,
    /// Per-epoch edge-weight decay.
    pub decay: Option<f64>,
    /// Residency window in epochs (0 = every row stays in core).
    pub window: u32,
    /// Worker threads, pinned here rather than read from the environment.
    pub threads: usize,
}

/// Cross-shard workload `η` of every workload.
pub const ETA: f64 = 2.0;
/// `chain_faults`: health audit and checkpoint cadence, in epochs.
pub const CHAIN_AUDIT_EVERY: u64 = 5;
/// `chain_faults`: health-audit tolerance.
pub const CHAIN_AUDIT_TOLERANCE: f64 = 1e-6;

const HYBRID_100K: Shape = Shape {
    name: "hybrid_100k",
    entry: Entry::Sim,
    accounts: 100_000,
    block_size: 100,
    epoch_blocks: 50,
    warm_epochs: 10,
    epochs: 100,
    repeat_s: 7.0,
    shards: 20,
    method: "txallo",
    schedule: HybridSchedule::Hybrid { global_gap: 5 },
    decay: None,
    window: 0,
    threads: 1,
};

/// Every workload the binary serves. Each runs one thread: on a shared
/// two-vCPU VM, a second thread's wake-ups measure the host's scheduler
/// more than the kernels.
///
/// `BENCHMARK.json` lists only `chain_faults` and `metis_epochs`, which
/// together reach every layer. On such a VM the machine's speed drifts by
/// a fifth over minutes, so the run budget buys runs that span about 50 s
/// each of two workloads rather than 30–45 s of four. `stream_1m` (the only
/// residency, decay and eviction path; one repeat is already 35–50 s) and
/// `hybrid_100k` stay runnable by name.
pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "stream_1m",
        accounts: 1_000_000,
        block_size: 1_000,
        schedule: HybridSchedule::AlwaysAdaptive,
        decay: Some(0.9),
        window: 4,
        repeat_s: 38.0,
        ..HYBRID_100K
    },
    HYBRID_100K,
    Shape {
        name: "chain_faults",
        entry: Entry::Chain,
        ..HYBRID_100K
    },
    Shape {
        name: "metis_epochs",
        method: "metis",
        epochs: 50,
        repeat_s: 6.0,
        ..HYBRID_100K
    },
];

/// Epoch closes a run pools, at least: ten beyond p90.
const MIN_CLOSES: u64 = 100;

/// Labels digests of the first repeat at [`DEFAULT_SEED`] with the
/// full-size shapes above. A change that moves one has changed the
/// trajectory the determinism contract pins.
const RECORDED_DIGESTS: [(&str, u64); 4] = [
    ("stream_1m", 0x59c0_6afc_a695_8cfe),
    ("hybrid_100k", 0xd598_2e0e_53a5_e95b),
    ("chain_faults", 0x1df3_d0fd_a358_adfd),
    ("metis_epochs", 0x3e76_5dec_20d7_9d74),
];

impl Shape {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Shape> {
        SHAPES.iter().find(|s| s.name == name).cloned()
    }

    /// The recorded default-seed digest of this (full-size) shape.
    pub fn recorded_digest(&self) -> Option<u64> {
        let full = Self::by_name(self.name)?;
        if full.accounts != self.accounts || full.epochs != self.epochs {
            return None; // a resized shape has no recorded trajectory
        }
        RECORDED_DIGESTS
            .iter()
            .find(|(n, _)| *n == self.name)
            .map(|&(_, d)| d)
    }

    /// Repeats in a run of about `seconds`: enough for `MIN_CLOSES`
    /// closes. A pure function of `seconds`, so the traces a run serves,
    /// and its quality metrics, do not depend on the machine's speed.
    pub fn repeats(&self, seconds: f64) -> u64 {
        let by_time = (seconds / self.repeat_s).round() as u64;
        by_time.max(MIN_CLOSES.div_ceil(self.epochs))
    }

    /// The trace seed of repeat `repeat` of a run at `seed`: each repeat
    /// serves its own trace, so a run averages over several inputs.
    /// Repeat 0 serves `seed` itself.
    pub fn trace_seed(seed: u64, repeat: u64) -> u64 {
        seed.wrapping_add(repeat << 32)
    }

    /// The same workload scaled down to a few thousand transactions, for
    /// the self-test.
    pub fn tiny(&self) -> Shape {
        Shape {
            accounts: 3_000,
            block_size: 20,
            epoch_blocks: 5,
            warm_epochs: 4,
            epochs: 15,
            shards: 4,
            window: self.window.min(1),
            ..self.clone()
        }
    }

    /// The seeded synthetic trace (the `stream_replay` generator shape).
    pub fn workload(&self, seed: u64) -> StreamingWorkload {
        let total_blocks = (self.warm_epochs + self.epochs) * self.epoch_blocks;
        let config = WorkloadConfig {
            accounts: self.accounts,
            transactions: total_blocks as usize * self.block_size,
            block_size: self.block_size,
            groups: (self.accounts / 50).max(10),
            new_account_prob: 0.002,
            ..WorkloadConfig::default()
        };
        StreamingWorkload::new(config, seed)
    }

    /// Heights of the warm-up history.
    pub fn history_heights(&self) -> std::ops::Range<u64> {
        0..self.warm_epochs * self.epoch_blocks
    }

    /// Blocks of served epoch `epoch` (0-based after warm-up).
    pub fn epoch_blocks(&self, wl: &StreamingWorkload, epoch: u64) -> Vec<txallo_model::Block> {
        wl.epoch_blocks(self.warm_epochs + epoch, self.epoch_blocks)
    }
}
