//! One function per figure/table of the paper's evaluation (§VI).
//!
//! Each function prints CSV rows with the same axes as the corresponding
//! figure and mirrors them into `results/`. EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use std::time::Duration;

use txallo_core::{Dataset, GTxAllo, GTxAlloPlan, MetricsReport, TxAlloParams};
use txallo_graph::GraphStats;
use txallo_louvain::louvain;
use txallo_sim::{HybridSchedule, ShardedChainSim, SimConfig, UpdateKind};
use txallo_workload::{EthereumLikeGenerator, WorkloadConfig};

use crate::components;
use crate::harness::{
    build_dataset, eta_sweep, k_sweep, run_allocator, AllocatorKind, ExperimentScale, ResultWriter,
    ALL_ALLOCATORS,
};
use crate::stream_bench::{run_stream_bench, StreamBenchConfig};

/// One row of the Figures 2–8 sweep.
pub struct SweepRow {
    /// Number of shards.
    pub k: usize,
    /// Cross-shard workload parameter.
    pub eta: f64,
    /// Which allocator produced the row.
    pub allocator: AllocatorKind,
    /// The evaluated metrics.
    pub report: MetricsReport,
    /// Wall-clock time of the allocation.
    pub time: Duration,
}

/// Runs the full (k, η, allocator) grid shared by Figures 2–8.
///
/// The G-TxAllo rows reuse one Louvain initialization per dataset (the init
/// depends on neither k nor η); its reported time adds the amortized init
/// cost so Fig. 8 remains honest about end-to-end runtime.
pub fn run_sweep(dataset: &Dataset, quick: bool) -> Vec<SweepRow> {
    let init_start = std::time::Instant::now();
    let plan = GTxAlloPlan::new(dataset.graph(), &txallo_louvain::LouvainConfig);
    let init_time = init_start.elapsed();
    eprintln!(
        "# louvain init: {} communities in {:?} (plan shared across the sweep)",
        plan.init().community_count,
        init_time
    );

    let mut rows = Vec::new();
    for &k in &k_sweep(quick) {
        // Random and METIS labels ignore η: allocate once per k, re-score
        // the same labels under each η.
        let eta_independent: Vec<(AllocatorKind, _, Duration)> =
            [AllocatorKind::Random, AllocatorKind::Metis]
                .into_iter()
                .map(|alloc| {
                    let (allocation, time) = run_allocator(alloc, dataset, k, 2.0, None);
                    (alloc, allocation, time)
                })
                .collect();
        for &eta in &eta_sweep(quick) {
            let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);
            for &alloc in &ALL_ALLOCATORS {
                let (allocation, time) = match alloc {
                    AllocatorKind::Random | AllocatorKind::Metis => {
                        let (_, allocation, time) = eta_independent
                            .iter()
                            .find(|(a, _, _)| *a == alloc)
                            .expect("precomputed above");
                        (allocation.clone(), *time)
                    }
                    AllocatorKind::TxAllo => {
                        let (allocation, time) = run_allocator(alloc, dataset, k, eta, Some(&plan));
                        (allocation, time + init_time)
                    }
                    AllocatorKind::Scheduler => run_allocator(alloc, dataset, k, eta, None),
                };
                let report = MetricsReport::compute(dataset.graph(), &allocation, &params);
                rows.push(SweepRow {
                    k,
                    eta,
                    allocator: alloc,
                    report,
                    time,
                });
            }
        }
    }
    rows
}

fn emit_metric(
    rows: &[SweepRow],
    writer: &mut ResultWriter,
    metric_name: &str,
    metric: impl Fn(&SweepRow) -> f64,
) {
    writer.note(&format!("# columns: eta,k,allocator,{metric_name}"));
    for row in rows {
        writer.row(&format!(
            "{},{},{},{:.6}",
            row.eta,
            row.k,
            row.allocator,
            metric(row)
        ));
    }
}

/// Fig. 1 — structure of the dataset (long tail, dominant account).
pub fn fig1(scale: ExperimentScale) {
    let mut w = ResultWriter::new("fig1_dataset");
    let dataset = build_dataset(scale);
    let ledger_stats = dataset.ledger().stats();
    let graph_stats = GraphStats::compute(dataset.graph());
    w.note("# Fig.1 analogue: dataset structure statistics");
    w.row(&format!("blocks,{}", ledger_stats.block_count));
    w.row(&format!("transactions,{}", ledger_stats.transaction_count));
    w.row(&format!("accounts,{}", ledger_stats.account_count));
    w.row(&format!("self_loops,{}", ledger_stats.self_loop_count));
    w.row(&format!("multi_io,{}", ledger_stats.multi_io_count));
    w.row(&format!(
        "hottest_account_share,{:.4}",
        ledger_stats.hottest_account_share()
    ));
    w.row(&format!("activity_gini,{:.4}", graph_stats.gini));
    w.row(&format!(
        "low_activity_fraction,{:.4}",
        graph_stats.low_activity_fraction
    ));
    for (i, d) in graph_stats.incident_deciles.iter().enumerate() {
        w.row(&format!("incident_weight_decile_{},{:.3}", (i + 1) * 10, d));
    }
}

/// Fig. 2 — cross-shard transaction ratio γ vs k, per η.
pub fn fig2(rows: &[SweepRow]) {
    let mut w = ResultWriter::new("fig2_cross_shard_ratio");
    emit_metric(rows, &mut w, "gamma", |r| r.report.cross_shard_ratio);
}

/// Fig. 3 — workload balance ρ/λ vs k, per η.
pub fn fig3(rows: &[SweepRow]) {
    let mut w = ResultWriter::new("fig3_workload_balance");
    emit_metric(rows, &mut w, "rho_over_lambda", |r| {
        r.report.workload_std_normalized
    });
}

/// Fig. 4 — per-shard workload distribution case study (η = 2, k = 20).
pub fn fig4(scale: ExperimentScale) {
    let mut w = ResultWriter::new("fig4_workload_distribution");
    let dataset = build_dataset(scale);
    let (k, eta) = (20usize, 2.0);
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);
    w.note("# Fig.4: normalized per-shard workload (sigma_i / lambda), eta=2, k=20");
    w.note("# columns: allocator,shard,normalized_workload");
    for &alloc in &ALL_ALLOCATORS {
        let (allocation, _) = run_allocator(alloc, &dataset, k, eta, None);
        let report = MetricsReport::compute(dataset.graph(), &allocation, &params);
        let mut loads = report.shard_loads.clone();
        // txallo-lint: allow(no-unstable-float-sort) — sorting bare f64 loads for figure output; equal keys are indistinguishable, there is no payload to scramble
        loads.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite"));
        for (shard, load) in loads.iter().enumerate() {
            w.row(&format!("{alloc},{shard},{load:.4}"));
        }
    }
}

/// Fig. 5 — normalized throughput Λ/λ vs k, per η.
pub fn fig5(rows: &[SweepRow]) {
    let mut w = ResultWriter::new("fig5_throughput");
    emit_metric(rows, &mut w, "throughput_times", |r| {
        r.report.throughput_normalized
    });
}

/// Fig. 6 — average confirmation latency ζ vs k, per η.
pub fn fig6(rows: &[SweepRow]) {
    let mut w = ResultWriter::new("fig6_avg_latency");
    emit_metric(rows, &mut w, "avg_latency_blocks", |r| r.report.avg_latency);
}

/// Fig. 7 — worst-case latency vs k, per η.
pub fn fig7(rows: &[SweepRow]) {
    let mut w = ResultWriter::new("fig7_worst_latency");
    emit_metric(rows, &mut w, "worst_latency_blocks", |r| {
        r.report.worst_latency
    });
}

/// Fig. 8 — allocation running time vs k, per η.
pub fn fig8(rows: &[SweepRow]) {
    let mut w = ResultWriter::new("fig8_running_time");
    emit_metric(rows, &mut w, "seconds", |r| r.time.as_secs_f64());
}

/// The workload used by the adaptive experiments (Figs. 9–10).
fn adaptive_workload(scale: ExperimentScale) -> WorkloadConfig {
    let base = scale.config();
    WorkloadConfig {
        block_size: 100,
        new_account_prob: 0.004,
        drift_interval: 50,
        ..base
    }
}

/// Fig. 9 — throughput evolution of A-TxAllo under different global
/// updating gaps τ₂ (plus the always-global reference), and the per-gap
/// averages (Fig. 9b).
pub fn fig9(scale: ExperimentScale, quick: bool) {
    let mut w = ResultWriter::new("fig9_throughput_evolution");
    let k = 16;
    let epoch_blocks = if quick { 10 } else { 30 };
    let epochs: u64 = if quick { 8 } else { 60 };
    let warmup_blocks = epoch_blocks as u64 * epochs; // 1:1 split (see EXPERIMENTS.md)

    let schedules: Vec<(String, HybridSchedule)> = if quick {
        vec![
            ("Global".into(), HybridSchedule::AlwaysGlobal),
            ("Gap=4".into(), HybridSchedule::Hybrid { global_gap: 4 }),
            ("Adaptive".into(), HybridSchedule::AlwaysAdaptive),
        ]
    } else {
        vec![
            ("Global".into(), HybridSchedule::AlwaysGlobal),
            ("Gap=10".into(), HybridSchedule::Hybrid { global_gap: 10 }),
            ("Gap=20".into(), HybridSchedule::Hybrid { global_gap: 20 }),
            ("Gap=40".into(), HybridSchedule::Hybrid { global_gap: 40 }),
            ("Adaptive".into(), HybridSchedule::AlwaysAdaptive),
        ]
    };

    w.note("# Fig.9a: columns: schedule,epoch,throughput_times");
    let mut averages = Vec::new();
    for (name, schedule) in &schedules {
        // Identical trace for every schedule: same seed, fresh generator.
        let mut generator = EthereumLikeGenerator::new(adaptive_workload(scale), scale.seed);
        let warm = generator.blocks(warmup_blocks);
        let stream = generator.blocks(epoch_blocks as u64 * epochs);
        let mut sim = ShardedChainSim::new(SimConfig {
            epoch_blocks,
            schedule: *schedule,
            ..SimConfig::new(k)
        });
        sim.warmup(&warm);
        let reports = sim.run_stream(&stream);
        let mut sum = 0.0;
        for r in &reports {
            w.row(&format!(
                "{name},{},{:.4}",
                r.epoch, r.metrics.throughput_normalized
            ));
            sum += r.metrics.throughput_normalized;
        }
        averages.push((name.clone(), sum / reports.len() as f64));
    }
    w.note("# Fig.9b: columns: schedule,average_throughput_times");
    for (name, avg) in averages {
        w.row(&format!("{name},avg,{avg:.4}"));
    }
}

/// Fig. 10 — per-epoch allocation running time: pure G-TxAllo vs the
/// hybrid schedule (G-TxAllo every τ₂, A-TxAllo otherwise).
pub fn fig10(scale: ExperimentScale, quick: bool) {
    let mut w = ResultWriter::new("fig10_running_time_evolution");
    let k = 16;
    let epoch_blocks = if quick { 10 } else { 30 };
    let epochs: u64 = if quick { 8 } else { 60 };
    let warmup_blocks = epoch_blocks as u64 * epochs;
    let gap = if quick { 4 } else { 20 };

    w.note("# Fig.10: columns: schedule,epoch,update,seconds");
    for (name, schedule) in [
        ("Pure G-TxAllo".to_string(), HybridSchedule::AlwaysGlobal),
        (
            format!("Hybrid gap={gap}"),
            HybridSchedule::Hybrid { global_gap: gap },
        ),
    ] {
        let mut generator = EthereumLikeGenerator::new(adaptive_workload(scale), scale.seed);
        let warm = generator.blocks(warmup_blocks);
        let stream = generator.blocks(epoch_blocks as u64 * epochs);
        let mut sim = ShardedChainSim::new(SimConfig {
            epoch_blocks,
            schedule,
            ..SimConfig::new(k)
        });
        sim.warmup(&warm);
        for r in sim.run_stream(&stream) {
            let kind = match r.update {
                UpdateKind::Global => "global",
                UpdateKind::Adaptive => "adaptive",
            };
            w.row(&format!(
                "{name},{},{kind},{:.6}",
                r.epoch,
                r.update_time.as_secs_f64()
            ));
        }
    }
}

/// §VI-B6's running-time table: mean end-to-end allocation time per method
/// at η = 2 (the paper reports 3447.9 s / 422.7 s / 122.3 s at full scale).
pub fn runtime_table(scale: ExperimentScale) {
    let mut w = ResultWriter::new("runtime_table");
    let dataset = build_dataset(scale);
    let eta = 2.0;
    let ks = [20usize, 40, 60];
    w.note("# columns: allocator,k,seconds (end-to-end, no cached init)");
    for &alloc in &ALL_ALLOCATORS {
        for &k in &ks {
            let (_, time) = run_allocator(alloc, &dataset, k, eta, None);
            w.row(&format!("{alloc},{k},{:.4}", time.as_secs_f64()));
        }
    }
    // Recursive-bisection METIS (the real pmetis strategy, ~log2(k)
    // multilevel passes — the variant whose running time grows with k).
    let registry = txallo_core::AllocatorRegistry::builtin();
    for &k in &ks {
        let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);
        let mut metis_rb = registry
            .batch("metis-recursive", &params)
            .expect("builtin name");
        let start = std::time::Instant::now();
        let _ = metis_rb.allocate(&dataset);
        w.row(&format!(
            "Metis (recursive bisection),{k},{:.4}",
            start.elapsed().as_secs_f64()
        ));
    }
    // G-TxAllo initialization share (paper: 67.6 s of 122.3 s).
    let start = std::time::Instant::now();
    let init = louvain(dataset.graph());
    let init_time = start.elapsed();
    w.row(&format!(
        "G-TxAllo louvain init,-,{:.4}",
        init_time.as_secs_f64()
    ));
    w.note(&format!("# louvain communities: {}", init.community_count));
}

/// The headline comparison (§I / §VI-B2): γ at k = 60, η = 2 for hash vs
/// METIS vs TxAllo (paper: 98% / 28% / 12%).
pub fn headline(scale: ExperimentScale) {
    let mut w = ResultWriter::new("headline");
    let dataset = build_dataset(scale);
    let (k, eta) = (60usize, 2.0);
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);
    w.note("# headline: gamma at k=60, eta=2 (paper: Random 98%, METIS 28%, TxAllo 12%)");
    for alloc in [
        AllocatorKind::Random,
        AllocatorKind::Metis,
        AllocatorKind::TxAllo,
    ] {
        let (allocation, _) = run_allocator(alloc, &dataset, k, eta, None);
        let r = MetricsReport::compute(dataset.graph(), &allocation, &params);
        w.row(&format!("{alloc},{:.4}", r.cross_shard_ratio));
    }
    // Also report G-TxAllo's detailed counters at this setting (via the
    // reusable plan — the counters are not part of the `Allocator` trait).
    let plan = GTxAlloPlan::new(dataset.graph(), &params.louvain);
    let outcome = GTxAllo::new(params.clone()).allocate_planned(&plan);
    w.note(&format!(
        "# G-TxAllo: louvain communities = {}, sweeps = {}, moves = {}",
        outcome.initial_communities, outcome.sweeps, outcome.moves
    ));
}

/// Ablation study of G-TxAllo's design choices (DESIGN.md): the Louvain
/// initialization vs hash / round-robin starts, and Eq. 9's candidate
/// restriction vs a full `k`-scan.
pub fn ablation(scale: ExperimentScale) {
    use std::time::Instant;
    use txallo_core::{gtxallo_full_scan, gtxallo_with_init_strategy, InitStrategy};

    let mut w = ResultWriter::new("ablation");
    let dataset = build_dataset(scale);
    let (k, eta) = (20usize, 2.0);
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);

    w.note("# ablation A: initialization strategy (k=20, eta=2)");
    w.note("# columns: variant,gamma,rho_over_lambda,throughput_times,seconds");
    for strategy in InitStrategy::ALL {
        let start = Instant::now();
        let out = gtxallo_with_init_strategy(&params, dataset.graph(), strategy);
        let secs = start.elapsed().as_secs_f64();
        let r = MetricsReport::compute(dataset.graph(), &out.allocation, &params);
        w.row(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            strategy.name(),
            r.cross_shard_ratio,
            r.workload_std_normalized,
            r.throughput_normalized,
            secs
        ));
    }

    w.note("# ablation B: candidate communities C_v (Eq. 9) vs full k-scan");
    let (restricted, restricted_time) =
        run_allocator(AllocatorKind::TxAllo, &dataset, k, eta, None);
    let restricted_secs = restricted_time.as_secs_f64();
    let start = Instant::now();
    let full = gtxallo_full_scan(&params, dataset.graph());
    let full_secs = start.elapsed().as_secs_f64();
    let r1 = MetricsReport::compute(dataset.graph(), &restricted, &params);
    let r2 = MetricsReport::compute(dataset.graph(), &full, &params);
    w.row(&format!(
        "candidate-restricted,{:.4},{:.4},{:.4},{:.4}",
        r1.cross_shard_ratio, r1.workload_std_normalized, r1.throughput_normalized, restricted_secs
    ));
    w.row(&format!(
        "full-scan,{:.4},{:.4},{:.4},{:.4}",
        r2.cross_shard_ratio, r2.workload_std_normalized, r2.throughput_normalized, full_secs
    ));
}

/// Extension experiment: measured queue latency vs capacity headroom.
///
/// Eq. 4 is a per-batch model (each block's backlog is scored, not carried
/// over); a real shard carries its backlog forward, so whenever the
/// η-inflated workload exceeds capacity the queues diverge. This experiment
/// replays the same stream through the per-shard queue simulator at
/// capacity `c · block_size/k` for several headroom factors `c` and reports
/// the measured mean/p99 latency per allocator — the allocator with the
/// lowest cross-shard ratio and best balance (TxAllo) reaches latency ≈ 1
/// with the least headroom.
pub fn latency_validation(scale: ExperimentScale) {
    use txallo_sim::ShardQueueSim;

    let mut w = ResultWriter::new("latency_validation");
    let (k, eta) = (16usize, 2.0);
    let mut generator = EthereumLikeGenerator::new(
        WorkloadConfig {
            block_size: 100,
            ..scale.config()
        },
        scale.seed,
    );
    let warm = generator.blocks(500);
    let eval = generator.blocks(200);

    let mut graph = txallo_graph::TxGraph::new();
    for b in warm.iter().chain(eval.iter()) {
        graph.ingest_block(b);
    }
    let ledger =
        txallo_model::Ledger::from_blocks(warm.iter().chain(eval.iter()).cloned().collect())
            .expect("contiguous");
    let dataset = txallo_core::Dataset::from_parts(ledger, graph.clone());

    w.note("# columns: allocator,headroom,measured_mean,measured_p99,unconfirmed");
    for &alloc_kind in &ALL_ALLOCATORS {
        let (allocation, _) = run_allocator(alloc_kind, &dataset, k, eta, None);
        for headroom in [1.5f64, 2.0, 3.0, 4.0] {
            let capacity = headroom * 100.0 / k as f64;
            let mut sim = ShardQueueSim::new(k, capacity, eta);
            for b in &eval {
                sim.step_block(b, &graph, &allocation);
            }
            sim.drain(5_000);
            let stats = sim.stats();
            w.row(&format!(
                "{alloc_kind},{headroom},{:.3},{:.3},{}",
                stats.mean_latency, stats.p99_latency, stats.unconfirmed
            ));
        }
    }
}

/// Extension experiment: measure η empirically from the consensus
/// substrate. The paper treats η as a hyper-parameter swept over 2–10;
/// the chain engine counts actual PBFT/Atomix messages per shard per
/// transaction and reports the observed ratio under each allocator.
pub fn measure_eta(scale: ExperimentScale) {
    use txallo_chain::{ChainEngine, ChainEngineConfig};

    let mut w = ResultWriter::new("measure_eta");
    let dataset = build_dataset(ExperimentScale {
        factor: scale.factor.min(0.25),
        ..scale
    });
    let k = 8;
    w.note("# columns: allocator,intra_msgs_per_shard_tx,cross_msgs_per_shard_tx,measured_eta,cross_committed,aborted");
    for &alloc_kind in &ALL_ALLOCATORS {
        let (allocation, _) = run_allocator(alloc_kind, &dataset, k, 2.0, None);
        let mut engine = ChainEngine::new(ChainEngineConfig::new(k));
        for block in dataset.ledger().blocks() {
            engine.process_block(block, dataset.graph(), &allocation);
        }
        let r = engine.report();
        w.row(&format!(
            "{alloc_kind},{:.1},{:.1},{:.3},{},{}",
            r.intra_cost_per_shard,
            r.cross_cost_per_shard,
            r.measured_eta(),
            r.cross_committed,
            r.aborted
        ));
    }
}

/// Extension experiment: BrokerChain-style hot-account splitting on top of
/// TxAllo — the mechanism the paper credits BrokerChain \[19\] with for
/// workload balance. Compares plain G-TxAllo against the split-then-
/// allocate broker pipeline on the metrics the hot shard hurts.
pub fn broker(scale: ExperimentScale) {
    use txallo_core::{allocate_with_brokers, BrokerConfig};

    let mut w = ResultWriter::new("broker");
    let dataset = build_dataset(scale);
    let (k, eta) = (20usize, 2.0);
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);

    let (plain_alloc, _) = run_allocator(AllocatorKind::TxAllo, &dataset, k, eta, None);
    let plain = MetricsReport::compute(dataset.graph(), &plain_alloc, &params);
    let (_, brokered) = allocate_with_brokers(dataset.graph(), &params, &BrokerConfig::default());

    w.note("# columns: variant,gamma,rho_over_lambda,throughput_times,avg_latency,worst_latency,split_accounts");
    w.row(&format!(
        "plain G-TxAllo,{:.4},{:.4},{:.4},{:.3},{:.0},0",
        plain.cross_shard_ratio,
        plain.workload_std_normalized,
        plain.throughput_normalized,
        plain.avg_latency,
        plain.worst_latency
    ));
    w.row(&format!(
        "broker pipeline,{:.4},{:.4},{:.4},{:.3},{:.0},{}",
        brokered.cross_shard_ratio,
        brokered.workload_std_normalized,
        brokered.throughput_normalized,
        brokered.avg_latency,
        brokered.worst_latency,
        brokered.split_accounts.len()
    ));
}

/// Extension experiment: recency weighting. §VI-A recommends training on
/// recent history; this compares full-history, sliding-window and
/// exponentially-decayed graphs by the quality of the allocation they
/// produce *for the next epoch* of a drifting workload.
pub fn recency(scale: ExperimentScale) {
    use txallo_graph::{fit_u32, TxGraph, WeightedGraph};
    use txallo_model::Block;

    let mut w = ResultWriter::new("recency");
    let (k, eta) = (16usize, 2.0);
    let cfg = WorkloadConfig {
        block_size: 100,
        drift_interval: 20, // brisk drift so recency matters
        new_account_prob: 0.004,
        ..scale.config()
    };
    let mut generator = EthereumLikeGenerator::new(cfg, scale.seed);
    let history = generator.blocks(600);
    let future = generator.blocks(50);

    // Build the three views of history: everything, the last 200 blocks,
    // and every block decayed by 0.8 per 50-block epoch (decay, then
    // ingest the epoch).
    let ingest = |blocks: &[Block]| {
        let mut g = TxGraph::new();
        for b in blocks {
            g.ingest_block(b);
        }
        g
    };
    let full = ingest(&history);
    let window = ingest(&history[history.len() - 200..]);
    let mut decayed = TxGraph::new();
    for chunk in history.chunks(50) {
        decayed.apply_decay(0.8);
        for b in chunk {
            decayed.ingest_block(b);
        }
    }

    // The scoring graph must contain the future accounts too.
    let mut scoring = full.clone();
    for b in &future {
        scoring.ingest_block(b);
    }

    w.note("# columns: history_view,gamma_next_epoch,throughput_next_epoch");
    let views: Vec<(&str, &TxGraph)> = vec![
        ("full-history", &full),
        ("window-200", &window),
        ("decay-0.8", &decayed),
    ];
    for (name, graph) in views {
        let params = TxAlloParams::for_graph(graph, k).with_eta(eta);
        // Graph-only views have no ledger to form a `Dataset`, so this
        // runs the same G-TxAllo pipeline on the graph itself.
        let alloc = GTxAllo::new(params.clone()).allocate_graph(graph);
        // Label every scoring account through the view's own node ids;
        // accounts the view never saw fall back to their hash shard.
        let labels: Vec<u32> = (0..fit_u32(scoring.node_count()))
            .map(|v| {
                let account = scoring.account(v);
                graph
                    .node_of(account)
                    .map_or(account.hash_shard(k).0, |n| alloc.labels()[n as usize])
            })
            .collect();
        let extended = txallo_core::Allocation::new(labels, k);
        let m = txallo_sim::epoch_metrics(&future, &scoring, &extended, k, eta);
        w.row(&format!(
            "{name},{:.4},{:.4}",
            m.cross_shard_ratio, m.throughput_normalized
        ));
    }
}

/// The perf snapshot (`BENCH_*.json`): the median of every
/// [`components`] case under its name, then checkpoint recovery, the
/// fault-run tallies, the component graph's memory and the 1M-account
/// streamed replay. Prints the JSON and writes it to `out_path`, which must
/// not exist yet: a snapshot is a committed baseline, never overwritten.
pub fn bench_snapshot(out_path: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    use txallo_chain::{ChainService, ChainServiceConfig, FaultPlan};

    let run = components::run(false, |t| eprintln!("{t}"));

    // Recovery: restarting the epoch service from a checkpoint (decode +
    // import of the serialized labels/aggregates/graph) vs the §V-B cold
    // path (re-ingest the whole history, one global solve). Also the
    // protocol cost a faulty run pays, from the substrate's own tallies:
    // timeout retries and Atomix aborts under a mixed fault plan.
    let service_cfg = || ChainServiceConfig {
        epoch_blocks: 10,
        ..ChainServiceConfig::new(4)
    };
    let mut generator = EthereumLikeGenerator::new(components::workload(), 42);
    let warm_blocks = generator.blocks(100);
    let live_blocks = generator.blocks(60);
    let mut service = ChainService::new(service_cfg());
    service.set_fault_plan(FaultPlan::mixed(7));
    service.warmup(&warm_blocks);
    service.run(&live_blocks);
    let faults = service.report();
    let image = service.checkpoint().expect("boundary checkpoint");
    let reps = components::COMPONENT_SAMPLES;
    let cold = components::time("recovery_cold_init", reps, || {
        let mut cold = ChainService::new(service_cfg());
        cold.warmup(&warm_blocks);
        cold.allocation().len()
    });
    let warm = components::time("recovery_warm_resume", reps, || {
        let resumed = ChainService::resume(service_cfg(), &image).expect("resume");
        resumed.allocation().len()
    });

    // Streaming replay: a million-account epoch loop through the full
    // service surface, ledger never materialized, every graph row in core.
    eprintln!("# running streaming replay (1M accounts; this is the slow part)...");
    let stream_replay = run_stream_bench(&StreamBenchConfig::at_scale(1_000_000)).to_json();

    let cases: String = run
        .timings
        .iter()
        .map(|t| format!("  \"{}\": {:.3},\n", t.name, t.median_ms()))
        .collect();
    let footprint = run.footprint;
    let json = format!(
        "{{\n  \"fixtures\": \"txallo_bench::components: 5k acct / 40k tx + a 10-block epoch, k = 20; \
         50k acct / 400k tx, k = 40 (METIS k = 20); experiment scale 0.15, eta = 2; all seed 42\",\n  \
         \"unit\": \"ms, median of each case's samples\",\n  \
         \"samples\": {{\"components\": {}, \"scale\": {}, \"allocators\": {}}},\n\
         {cases}  \
         \"atxallo_touched_fraction\": {:.4},\n  \
         \"recovery_workload\": {{\"warm_blocks\": 100, \"live_blocks\": 60, \"epoch_blocks\": 10, \"k\": 4, \"fault_seed\": 7}},\n  \
         \"recovery_cold_init\": {:.3},\n  \
         \"recovery_warm_resume\": {:.3},\n  \
         \"recovery_image_kib\": {:.1},\n  \
         \"fault_run_retries\": {},\n  \
         \"fault_run_aborted\": {},\n  \
         \"fault_run_migrations_aborted\": {},\n  \
         \"fault_run_crash_outages\": {},\n  \
         \"memory_footprint\": {{\"slab_arena_bytes\": {}, \"slab_live_entries\": {}, \
         \"node_scalar_bytes\": {}, \"interner_bytes\": {}, \
         \"graph_resident_bytes\": {}, \"session_bytes\": {}}},\n  \
         \"stream_replay\": {stream_replay}\n}}\n",
        components::COMPONENT_SAMPLES,
        components::SCALE_SAMPLES,
        components::ALLOCATOR_SAMPLES,
        run.touched_fraction,
        cold.median_ms(),
        warm.median_ms(),
        image.len() as f64 / 1024.0,
        faults.retries,
        faults.aborted,
        faults.migrations_aborted,
        faults.crash_outages,
        footprint.slab_arena_bytes,
        footprint.slab_live_entries,
        footprint.node_scalar_bytes,
        footprint.interner_bytes,
        footprint.resident_bytes(),
        run.session_bytes,
    );
    print!("{json}");
    std::fs::File::create_new(out_path)?.write_all(json.as_bytes())?;
    eprintln!("# wrote {out_path}");
    Ok(())
}
