//! Streaming replay benchmark: million-account epochs through
//! [`txallo_sim::ShardedChainSim`] without ever materializing the ledger,
//! with wall-clock totals and peak-resident-memory accounting.
//!
//! The replay drives the simulator's own epoch loop (decay, the `txallo`
//! stream), so it is bit-identical to a materialized replay of the same
//! workload. It times block synthesis, the served epochs as a whole and,
//! from each [`txallo_sim::EpochReport`], the `end_epoch` calls inside
//! them; `perfbench --workload stream_1m --trace 1` splits the same kind
//! of replay layer by layer.

use txallo_core::HybridSchedule;
use txallo_graph::{MemoryFootprint, WeightedGraph};
use txallo_sim::{ShardedChainSim, SimConfig};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

use crate::harness::timed;

/// Configuration of one streaming replay run.
#[derive(Debug, Clone)]
pub struct StreamBenchConfig {
    /// Initially existing accounts (births add more over the run).
    pub accounts: usize,
    /// Warm-up epochs (history before the service opens).
    pub warm_epochs: u64,
    /// Served epochs after warm-up.
    pub epochs: u64,
    /// Blocks per epoch.
    pub epoch_blocks: u64,
    /// Transactions per block.
    pub block_size: usize,
    /// Number of shards `k`.
    pub shards: usize,
    /// Per-epoch edge-weight decay (1.0 = none).
    pub decay: f64,
    /// Global-refresh gap (0 = adaptive-only epochs; warm-up always runs
    /// one global solve either way).
    pub global_gap: u64,
    /// Workload seed.
    pub seed: u64,
}

impl StreamBenchConfig {
    /// A replay at `accounts` initial accounts with paper-shaped defaults:
    /// 1000-transaction blocks, 50-block epochs (so the default 60-epoch
    /// run replays 3.5M transactions), recency decay, k = 20.
    pub fn at_scale(accounts: usize) -> Self {
        Self {
            accounts,
            warm_epochs: 10,
            epochs: 60,
            epoch_blocks: 50,
            block_size: 1_000,
            shards: 20,
            decay: 0.9,
            global_gap: 0,
            seed: 42,
        }
    }
}

/// Everything one replay run measured.
#[derive(Debug, Clone)]
pub struct StreamBenchReport {
    /// The configuration that produced it.
    pub config: StreamBenchConfig,
    /// Distinct accounts interned by the end (initial + births).
    pub distinct_accounts: usize,
    /// Transactions replayed (warm-up + served epochs).
    pub transactions: u64,
    /// Warm-up wall clock: history ingestion + the one global solve.
    pub warmup_seconds: f64,
    /// Wall clock of synthesizing the served epochs' blocks.
    pub generate_seconds: f64,
    /// Wall clock of serving the epochs (`ShardedChainSim::run_epoch`:
    /// decay, ingest, fold, close, score).
    pub serve_seconds: f64,
    /// The part of `serve_seconds` spent in `end_epoch`
    /// (Σ [`txallo_sim::EpochReport::update_time`]).
    pub update_seconds: f64,
    /// Peak of (graph resident bytes + allocator state bytes) sampled at
    /// every epoch boundary.
    pub peak_resident_bytes: usize,
    /// Peak of the graph's resident bytes alone.
    pub peak_graph_bytes: usize,
    /// The footprint at the end of the run.
    pub final_footprint: MemoryFootprint,
    /// The allocator's serving-state bytes at the end of the run.
    pub final_allocator_bytes: usize,
    /// Mean normalized throughput over the served epochs.
    pub avg_throughput: f64,
}

impl StreamBenchReport {
    /// The report as one hand-formatted JSON object (the BENCH snapshot
    /// embeds it verbatim).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        format!(
            "{{\"workload\": {{\"accounts\": {}, \"epochs\": {}, \"epoch_blocks\": {}, \
             \"block_size\": {}, \"k\": {}, \"decay\": {}, \"seed\": {}}}, \
             \"distinct_accounts\": {}, \"transactions\": {}, \
             \"warmup_seconds\": {:.3}, \
             \"phase_seconds\": {{\"generate\": {:.3}, \"serve\": {:.3}, \"update\": {:.3}, \
             \"total\": {:.3}}}, \
             \"peak_resident_mib\": {:.1}, \"peak_graph_mib\": {:.1}, \
             \"final_graph_mib\": {:.1}, \"final_allocator_mib\": {:.1}, \
             \"avg_throughput_times\": {:.3}}}",
            c.accounts,
            c.epochs,
            c.epoch_blocks,
            c.block_size,
            c.shards,
            c.decay,
            c.seed,
            self.distinct_accounts,
            self.transactions,
            self.warmup_seconds,
            self.generate_seconds,
            self.serve_seconds,
            self.update_seconds,
            self.generate_seconds + self.serve_seconds,
            self.peak_resident_bytes as f64 / MIB,
            self.peak_graph_bytes as f64 / MIB,
            self.final_footprint.resident_bytes() as f64 / MIB,
            self.final_allocator_bytes as f64 / MIB,
            self.avg_throughput,
        )
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Runs the streaming replay and returns its measurements.
pub fn run_stream_bench(cfg: &StreamBenchConfig) -> StreamBenchReport {
    let warm_blocks = cfg.warm_epochs * cfg.epoch_blocks;
    let wl = WorkloadConfig {
        accounts: cfg.accounts,
        transactions: (warm_blocks + cfg.epochs * cfg.epoch_blocks) as usize * cfg.block_size,
        block_size: cfg.block_size,
        groups: (cfg.accounts / 50).max(10),
        new_account_prob: 0.002,
        ..WorkloadConfig::default()
    };
    wl.validate();
    let workload = StreamingWorkload::new(wl, cfg.seed);
    let schedule = match cfg.global_gap {
        0 => HybridSchedule::AlwaysAdaptive,
        global_gap => HybridSchedule::Hybrid { global_gap },
    };
    let mut sim = ShardedChainSim::new(SimConfig {
        epoch_blocks: cfg.epoch_blocks as usize,
        schedule,
        decay_per_epoch: (cfg.decay < 1.0).then_some(cfg.decay),
        ..SimConfig::new(cfg.shards)
    });

    // Warm-up: stream the history in (one block alive at a time), then the
    // one global solve every serving mode pays.
    let (_, warmup) = timed(|| sim.warmup_streamed(workload.block_iter(0..warm_blocks)));
    let warmup_seconds = warmup.as_secs_f64();

    let (mut generate_seconds, mut serve_seconds, mut update_seconds) = (0.0, 0.0, 0.0);
    let mut peak_resident = 0usize;
    let mut peak_graph = 0usize;
    let mut transactions = warm_blocks * cfg.block_size as u64;
    let mut throughput_sum = 0.0;
    for epoch in 0..cfg.epochs {
        let (blocks, t) =
            timed(|| workload.epoch_blocks(cfg.warm_epochs + epoch, cfg.epoch_blocks));
        generate_seconds += t.as_secs_f64();

        let (report, t) = timed(|| sim.run_epoch(&blocks));
        serve_seconds += t.as_secs_f64();
        update_seconds += report.update_time.as_secs_f64();
        transactions += report.metrics.transactions as u64;
        throughput_sum += report.metrics.throughput_normalized;

        let graph_bytes = sim.memory_footprint().resident_bytes();
        peak_graph = peak_graph.max(graph_bytes);
        peak_resident = peak_resident.max(graph_bytes + sim.allocator_state_bytes());
    }

    StreamBenchReport {
        config: cfg.clone(),
        distinct_accounts: sim.graph().node_count(),
        transactions,
        warmup_seconds,
        generate_seconds,
        serve_seconds,
        update_seconds,
        peak_resident_bytes: peak_resident,
        peak_graph_bytes: peak_graph,
        final_footprint: sim.memory_footprint(),
        final_allocator_bytes: sim.allocator_state_bytes(),
        avg_throughput: throughput_sum / cfg.epochs.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_replay_reports() {
        let cfg = StreamBenchConfig {
            accounts: 3_000,
            warm_epochs: 2,
            epochs: 6,
            epoch_blocks: 5,
            block_size: 100,
            shards: 4,
            decay: 0.9,
            global_gap: 3,
            seed: 7,
        };
        let report = run_stream_bench(&cfg);
        // Zipf activity: not every configured account transacts in a short
        // run, but most of the head does (plus births past the initial
        // id space).
        assert!(report.distinct_accounts > 1_000);
        assert_eq!(report.transactions, 8 * 5 * 100);
        // Every row stays in core.
        let fp = &report.final_footprint;
        assert_eq!(fp.resident_rows, report.distinct_accounts);
        assert!(report.peak_graph_bytes >= fp.resident_bytes());
        assert!(report.peak_resident_bytes >= report.peak_graph_bytes);
        assert!(report.avg_throughput > 1.0, "sharding must help");
        let json = report.to_json();
        assert!(json.contains("\"phase_seconds\""));
        assert!(json.contains("\"peak_resident_mib\""));
        assert!(json.contains("\"final_graph_mib\""));
    }
}
