//! End-to-end and per-layer benchmark of the TxAllo epoch loop.
//!
//! One run serves one workload (see [`shape::SHAPES`]) in a closed loop:
//! the next block or epoch enters only after the previous serving call
//! returns, and each epoch's blocks are synthesized before the clock
//! starts. An untraced run ([`run`] with `trace = false`) serves a number
//! of repeats sized from its time budget, each a fixed epoch count of its
//! own seeded trace, through the product's entry points, and reports the
//! end-to-end metrics ([`END_TO_END`]). A traced run serves the first
//! trace once untraced and once with a span around each layer call, and
//! reports [`PER_LAYER`]; both must reproduce the same labels digest. See
//! `README.md` for the metric → layer → workload map.

pub mod chain;
pub mod measure;
pub mod shadow;
pub mod shape;
pub mod sim;

use std::time::Duration;

use txallo_core::{AllocationUpdate, UpdateKind};
use txallo_graph::MemoryFootprint;
use txallo_sim::EpochMetrics;

use measure::{mean, peak_rss_mib, process_times, quantile, Spans};
use shadow::Shadows;
use shape::{Entry, Shape, DEFAULT_SEED};

/// End-to-end metrics: `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("tx_per_s", "tx/s"),
    ("epoch_close_ms_p50", "ms"),
    ("epoch_close_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("cross_shard_ratio", "ratio"),
    ("throughput_x", "x"),
    ("workload_std_norm", "ratio"),
    ("migrations_per_epoch", "accounts"),
];

/// Per-layer metrics: `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("resident_mib_peak", "MiB"),
    ("workload.gen_ms", "ms"),
    ("workload.new_account_share", "ratio"),
    ("graph.history_ingest_s", "s"),
    ("graph.ingest_ms", "ms"),
    ("graph.ingest_ns_per_tx", "ns/tx"),
    ("graph.decay_ms", "ms"),
    ("graph.rehydrate_ms", "ms"),
    ("graph.evict_ms", "ms"),
    ("graph.rows_evicted", "count"),
    ("graph.rows_restored", "count"),
    ("graph.spill_mib", "MiB"),
    ("graph.cold_row_share", "ratio"),
    ("graph.snapshot_ms", "ms"),
    ("graph.snapshot_entries", "count"),
    ("core.begin_s", "s"),
    ("core.reweight_ms", "ms"),
    ("core.fold_ms", "ms"),
    ("core.close_adaptive_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.close_global_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.touched_nodes", "count"),
    ("core.touched_fraction", "ratio"),
    ("core.moves", "count"),
    ("core.placements", "count"),
    ("core.global_epoch_share", "ratio"),
    ("core.state_mib", "MiB"),
    ("gtxallo.plan_ms", "ms"),
    ("gtxallo.optimize_ms", "ms"),
    ("gtxallo.sweeps", "count"),
    ("gtxallo.moves", "count"),
    ("louvain.levels", "count"),
    ("louvain.communities", "count"),
    ("metis.partition_ms", "ms"),
    ("sim.score_ms", "ms"),
    ("chain.block_ms_p50", "ms"),
    ("chain.block_ms_p99", "ms"),
    ("chain.checkpoint_ms", "ms"),
    ("chain.image_kib", "KiB"),
    ("chain.resume_ms", "ms"),
    ("chain.msgs_per_tx", "msgs/tx"),
    ("chain.msgs", "count"),
    ("chain.migration_msgs", "count"),
    ("chain.retries", "count"),
    ("chain.aborted", "count"),
    ("chain.migrations_aborted", "count"),
    ("chain.crash_outages", "count"),
    ("chain.measured_eta", "ratio"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_per_wall", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.slowdown", "x"),
    ("trace.shadows_dropped", "count"),
];

/// Set-up sampling. The box's speed drifts within seconds, so set-ups are
/// sampled at points spread over the run: before each repeat and after the
/// last. Each point sets up until its samples sum to its share of
/// `SETUP_SAMPLE_S` (1 to `MAX_POINT_SETUPS` set-ups).
const SETUP_SAMPLE_S: f64 = 1.0;
const MAX_POINT_SETUPS: usize = 8;

/// Quality of one repeat's served mapping (deterministic per seed).
#[derive(Debug, Default, Clone)]
pub struct Quality {
    /// γ, mean over served epochs.
    pub cross_shard_ratio: f64,
    /// Mean throughput normalized by the unsharded chain.
    pub throughput_x: f64,
    /// Mean per-epoch ρ/λ of the shard workloads.
    pub workload_std_norm: f64,
    /// Mean accounts migrated per epoch.
    pub migrations_per_epoch: f64,
    /// Peak accounted resident bytes at an epoch boundary.
    pub resident_peak_bytes: usize,
}

/// Per-epoch quality bookkeeping of one repeat.
#[derive(Default)]
pub(crate) struct QualityAcc {
    cross_ratio: Vec<f64>,
    throughput: Vec<f64>,
    std_norm: Vec<f64>,
    migrations: Vec<f64>,
    /// Peak accounted resident bytes so far.
    pub(crate) resident_peak: usize,
}

impl QualityAcc {
    /// One served epoch: its γ, its scored transactions, its migrations.
    pub(crate) fn epoch(&mut self, gamma: f64, scored: &EpochMetrics, migrations: usize) {
        let capacity = scored.transactions as f64 / scored.shard_workloads.len() as f64;
        self.cross_ratio.push(gamma);
        self.throughput.push(scored.throughput_normalized);
        self.std_norm
            .push(measure::std_dev(&scored.shard_workloads) / capacity);
        self.migrations.push(migrations as f64);
    }

    pub(crate) fn finish(self) -> Quality {
        Quality {
            cross_shard_ratio: mean(&self.cross_ratio),
            throughput_x: mean(&self.throughput),
            workload_std_norm: mean(&self.std_norm),
            migrations_per_epoch: mean(&self.migrations),
            resident_peak_bytes: self.resident_peak,
        }
    }
}

/// One repeat of a workload through its serving calls.
#[derive(Debug, Default, Clone)]
pub struct Served {
    /// Warm-up wall seconds (synthesis excluded).
    pub setup_s: f64,
    /// Σ wall seconds of the serving calls.
    pub serve_s: f64,
    /// Σ block-synthesis seconds (off the serving clock).
    pub gen_s: f64,
    /// Served transactions.
    pub txs: u64,
    /// Transactions of epochs that failed a correctness check.
    pub failed: u64,
    /// Epoch-close latencies, ms.
    pub close_ms: Vec<f64>,
    /// Cross-shard transactions of each served epoch.
    pub cross_shard: Vec<u64>,
    /// The final mapping.
    pub labels: Vec<u32>,
    pub quality: Quality,
}

impl Served {
    fn tx_per_s(&self) -> f64 {
        self.txs as f64 / self.serve_s
    }

    /// Labels digest of the served trajectory.
    pub fn digest(&self) -> u64 {
        measure::digest(&self.cross_shard, &self.labels)
    }
}

/// `ChainService::report` counters and public-call timings of a chain
/// repeat.
#[derive(Debug, Default, Clone)]
pub struct ChainCounters {
    /// Non-closing `process_block` calls, ms.
    pub block_ms: Vec<f64>,
    pub checkpoints: u64,
    pub image_bytes: usize,
    pub resume_ms: f64,
    pub committed: u64,
    pub messages: u64,
    pub migration_messages: u64,
    pub retries: u64,
    pub aborted: u64,
    pub migrations_aborted: u64,
    pub crash_outages: u64,
    pub measured_eta: f64,
}

/// What a traced repeat measured, beyond [`Served`].
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Spans of the served loop's calls.
    pub layers: Spans,
    /// Kept shadow calls.
    pub shadows: Shadows,
    /// Served-loop wall seconds (bookkeeping and shadows excluded).
    pub loop_s: f64,
    pub epochs: u64,
    pub global_epochs: u64,
    pub close_adaptive_s: f64,
    pub close_global_s: f64,
    pub moves: u64,
    pub placements: u64,
    pub touched_nodes: u64,
    pub touched_fraction_sum: f64,
    pub new_account_share_sum: f64,
    pub cold_row_share_sum: f64,
    pub state_peak_bytes: usize,
    /// The graph's footprint at the end of the repeat.
    pub footprint: MemoryFootprint,
    pub history_ingest_s: f64,
    pub begin_s: f64,
    pub chain: ChainCounters,
}

impl Trace {
    /// Records one epoch close.
    pub fn close(&mut self, update: &AllocationUpdate, close: Duration) {
        self.epochs += 1;
        if update.kind == UpdateKind::Global {
            self.global_epochs += 1;
            self.close_global_s += close.as_secs_f64();
        } else {
            self.close_adaptive_s += close.as_secs_f64();
        }
        self.moves += update.moves.len() as u64;
        self.placements += update.placements() as u64;
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Digest of the first repeat's trajectory (the run seed's own trace).
    pub digest: u64,
    /// Human-readable context printed ahead of the result line.
    pub notes: String,
}

impl Outcome {
    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One untraced repeat through the workload's product entry point.
pub fn serve(shape: &Shape, seed: u64) -> Served {
    match shape.entry {
        Entry::Sim => sim::serve(shape, seed),
        Entry::Chain => chain::serve(shape, seed, false).0,
    }
}

/// One traced repeat.
pub fn serve_traced(shape: &Shape, seed: u64) -> (Served, Trace) {
    match shape.entry {
        Entry::Sim => sim::serve_traced(shape, seed),
        Entry::Chain => chain::serve(shape, seed, true),
    }
}

fn setup_only(shape: &Shape, seed: u64) -> f64 {
    match shape.entry {
        Entry::Sim => sim::setup_only(shape, seed),
        Entry::Chain => chain::setup_only(shape, seed),
    }
}

/// Set-ups of the seed's own trace until they sum to `budget` seconds (1 to
/// `MAX_POINT_SETUPS` of them).
fn setup_samples(shape: &Shape, seed: u64, budget: f64) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.is_empty()
        || (samples.len() < MAX_POINT_SETUPS && samples.iter().sum::<f64>() < budget)
    {
        samples.push(setup_only(shape, seed));
    }
    samples
}

/// The correctness check over repeats of one trace: every final mapping
/// labels with shards in range, and every trajectory digest equals the
/// first — and the recorded one when the trace seed is the default.
pub fn verify(shape: &Shape, seed: u64, reps: &[&Served]) -> bool {
    let in_range = reps
        .iter()
        .all(|r| r.labels.iter().all(|&l| (l as usize) < shape.shards));
    let first = reps[0].digest();
    let recorded = match shape.recorded_digest() {
        Some(d) if seed == DEFAULT_SEED => d,
        _ => first,
    };
    in_range && first == recorded && reps.iter().all(|r| r.digest() == first)
}

/// Runs `shape` for about `seconds`: untraced end-to-end metrics, or with
/// `trace` the per-layer metrics of a traced replay.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = if trace {
        run_traced(shape, seed)
    } else {
        run_untraced(shape, seed, seconds)
    };
    let (cpu, wall) = process_times();
    outcome.notes = format!(
        "{} seed={} digest={:016x} proc.wall_s={:.3} proc.cpu_s={:.2} proc.cpu_per_wall={:.3} {}",
        shape.name,
        seed,
        outcome.digest,
        wall,
        cpu,
        cpu / wall,
        outcome.notes
    );
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    outcome.correct &= finite;
    outcome
}

fn end_to_end(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("every emitted metric is declared");
    Metric { name, unit, value }
}

fn run_untraced(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let seeds: Vec<u64> = (0..shape.repeats(seconds))
        .map(|r| Shape::trace_seed(seed, r))
        .collect();
    let point_budget = SETUP_SAMPLE_S / (seeds.len() + 1) as f64;
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    for &s in &seeds {
        setups.extend(setup_samples(shape, seed, point_budget));
        let rep = serve(shape, s);
        setups.push(rep.setup_s);
        reps.push(rep);
    }
    setups.extend(setup_samples(shape, seed, point_budget));
    let closes: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.close_ms.iter().copied())
        .collect();
    let txs: u64 = reps.iter().map(|r| r.txs).sum();
    let serve_s: f64 = reps.iter().map(|r| r.serve_s).sum();
    let q = |f: fn(&Quality) -> f64| mean(&reps.iter().map(|r| f(&r.quality)).collect::<Vec<_>>());
    let metrics = vec![
        end_to_end("setup_s", quantile(&setups, 0.5)),
        end_to_end("tx_per_s", txs as f64 / serve_s),
        end_to_end("epoch_close_ms_p50", quantile(&closes, 0.5)),
        end_to_end("epoch_close_ms_p90", quantile(&closes, 0.9)),
        end_to_end("peak_rss_mib", peak_rss_mib()),
        end_to_end("cross_shard_ratio", q(|q| q.cross_shard_ratio)),
        end_to_end("throughput_x", q(|q| q.throughput_x)),
        end_to_end("workload_std_norm", q(|q| q.workload_std_norm)),
        end_to_end("migrations_per_epoch", q(|q| q.migrations_per_epoch)),
    ];
    let digests: Vec<String> = reps
        .iter()
        .map(|r| format!("{:016x}:{:.0}tx/s", r.digest(), r.tx_per_s()))
        .collect();
    Outcome {
        correct: reps
            .iter()
            .zip(&seeds)
            .all(|(r, &s)| verify(shape, s, &[r])),
        attempted: txs,
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        digest: reps[0].digest(),
        notes: format!(
            "repeats={} closes={} setups={} gen_s={:.3} serve_s={:.3}",
            digests.join(","),
            closes.len(),
            setups.len(),
            reps.iter().map(|r| r.gen_s).sum::<f64>(),
            serve_s
        ),
    }
}

const MIB: f64 = 1024.0 * 1024.0;

fn run_traced(shape: &Shape, seed: u64) -> Outcome {
    let untraced = serve(shape, seed);
    let (traced, trace) = serve_traced(shape, seed);
    Outcome {
        correct: verify(shape, seed, &[&untraced, &traced]),
        attempted: untraced.txs + traced.txs,
        failed: untraced.failed + traced.failed,
        metrics: layer_metrics(&traced, &trace, untraced.tx_per_s()),
        digest: untraced.digest(),
        notes: "traced".to_string(),
    }
}

/// The per-layer metrics of one traced repeat, in [`PER_LAYER`] order.
/// Times are per served epoch (per kind of epoch where the span only
/// exists on one kind); counts are per epoch unless cumulative by name.
pub fn layer_metrics(served: &Served, tr: &Trace, untraced_tx_per_s: f64) -> Vec<Metric> {
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let ms = |name: &str| per(tr.layers.secs(name) * 1e3, tr.epochs);
    let sh = &tr.shadows;
    let adaptive = tr.epochs - tr.global_epochs;
    let fp = &tr.footprint;
    let c = &tr.chain;
    let (cpu, wall) = process_times();
    let values = [
        served.quality.resident_peak_bytes as f64 / MIB,
        per(served.gen_s * 1e3, tr.epochs),
        per(tr.new_account_share_sum, tr.epochs),
        tr.history_ingest_s,
        ms("graph.ingest"),
        per(tr.layers.secs("graph.ingest") * 1e9, served.txs),
        ms("graph.decay"),
        ms("graph.rehydrate"),
        ms("graph.evict"),
        fp.evicted_rows as f64,
        fp.restored_rows as f64,
        fp.spill_bytes as f64 / MIB,
        per(tr.cold_row_share_sum, tr.epochs),
        per(sh.spans.secs("graph.snapshot") * 1e3, sh.split_epochs),
        per(sh.snapshot_entries as f64, sh.split_epochs),
        tr.begin_s,
        ms("core.reweight"),
        ms("core.fold"),
        per(tr.close_adaptive_s * 1e3, adaptive),
        per(
            (sh.split_close_s - sh.spans.secs("graph.snapshot")) * 1e3,
            sh.split_epochs,
        ),
        per(tr.close_global_s * 1e3, tr.global_epochs),
        ms("core.apply"),
        per(tr.touched_nodes as f64, tr.epochs),
        per(tr.touched_fraction_sum, tr.epochs),
        per(tr.moves as f64, tr.epochs),
        per(tr.placements as f64, tr.epochs),
        per(tr.global_epochs as f64, tr.epochs),
        tr.state_peak_bytes as f64 / MIB,
        per(sh.spans.secs("gtxallo.plan") * 1e3, sh.planned_epochs),
        per(sh.spans.secs("gtxallo.optimize") * 1e3, sh.planned_epochs),
        per(sh.gtxallo_sweeps as f64, sh.planned_epochs),
        per(sh.gtxallo_moves as f64, sh.planned_epochs),
        per(sh.louvain_levels as f64, sh.planned_epochs),
        per(sh.louvain_communities as f64, sh.planned_epochs),
        per(sh.spans.secs("metis.partition") * 1e3, sh.metis_epochs),
        ms("sim.score"),
        quantile(&c.block_ms, 0.5),
        quantile(&c.block_ms, 0.99),
        per(tr.layers.secs("chain.checkpoint") * 1e3, c.checkpoints),
        c.image_bytes as f64 / 1024.0,
        c.resume_ms,
        per(c.messages as f64, c.committed),
        c.messages as f64,
        c.migration_messages as f64,
        c.retries as f64,
        c.aborted as f64,
        c.migrations_aborted as f64,
        c.crash_outages as f64,
        c.measured_eta,
        cpu,
        cpu / wall,
        tr.layers.total_secs() / tr.loop_s,
        untraced_tx_per_s / served.tx_per_s(),
        sh.dropped as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}
