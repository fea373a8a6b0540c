//! The sim workloads: `ShardedChainSim` served untraced, and the same
//! epochs replayed through the layer calls `run_epoch` makes, one span
//! around each, plus pure shadow calls that split the epoch close.

use std::time::{Duration, Instant};

use txallo_core::{AllocatorRegistry, EpochKind, TxAlloParams, UpdateKind};
use txallo_graph::{ResidencyConfig, TxGraph, WeightedGraph};
use txallo_model::Block;
use txallo_sim::{epoch_metrics, ShardedChainSim, SimConfig};
use txallo_workload::StreamingWorkload;

use crate::measure::{mapping_is_valid, timed};
use crate::shape::{Shape, ETA};
use crate::{QualityAcc, Served, Trace};

fn sim_config(shape: &Shape) -> SimConfig {
    SimConfig {
        shards: shape.shards,
        eta: ETA,
        epoch_blocks: shape.epoch_blocks as usize,
        method: shape.method.to_string(),
        schedule: shape.schedule,
        decay_per_epoch: shape.decay,
        threads: shape.threads,
        residency: residency(shape),
    }
}

fn residency(shape: &Shape) -> Option<ResidencyConfig> {
    (shape.window > 0).then(|| ResidencyConfig::in_memory(shape.window))
}

/// Synthesizes the warm-up history block by block, adding the synthesis
/// time to `synth` so the caller can take it off the set-up clock.
fn history<'a>(
    shape: &Shape,
    wl: &'a StreamingWorkload,
    synth: &'a mut Duration,
) -> impl Iterator<Item = Block> + 'a {
    shape.history_heights().map(move |h| {
        let (block, d) = timed(|| wl.block_at(h));
        *synth += d;
        block
    })
}

/// Warm-up through the product entry point; returns the simulator and the
/// set-up seconds (history ingest + initial solve, synthesis excluded).
fn warm_sim(shape: &Shape, wl: &StreamingWorkload) -> (ShardedChainSim, f64) {
    let mut sim = ShardedChainSim::new(sim_config(shape));
    let mut synth = Duration::ZERO;
    let (_, wall) = timed(|| sim.warmup_streamed(history(shape, wl, &mut synth)));
    (sim, (wall - synth).as_secs_f64())
}

/// Set-up only (for extra set-up samples).
pub fn setup_only(shape: &Shape, seed: u64) -> f64 {
    warm_sim(shape, &shape.workload(seed)).1
}

/// One untraced repeat: warm-up, then every epoch through `run_epoch`,
/// with its blocks synthesized before the clock starts.
pub fn serve(shape: &Shape, seed: u64) -> Served {
    let wl = shape.workload(seed);
    let (mut sim, setup_s) = warm_sim(shape, &wl);
    let mut out = Served {
        setup_s,
        ..Served::default()
    };
    let mut quality = QualityAcc::default();
    for e in 0..shape.epochs {
        let (blocks, gen) = timed(|| shape.epoch_blocks(&wl, e));
        out.gen_s += gen.as_secs_f64();
        let (report, wall) = timed(|| sim.run_epoch(&blocks));
        out.serve_s += wall.as_secs_f64();
        out.close_ms.push(report.update_time.as_secs_f64() * 1e3);
        let txs = report.metrics.transactions as u64;
        out.txs += txs;
        if !mapping_is_valid(
            sim.allocation().labels(),
            sim.graph().node_count(),
            shape.shards,
        ) {
            out.failed += txs;
        }
        out.cross_shard.push(report.metrics.cross_shard as u64);
        let m = &report.metrics;
        quality.epoch(m.cross_shard_ratio, m, m.migrated_accounts);
        let resident = sim.memory_footprint().resident_bytes() + sim.allocator_state_bytes();
        quality.resident_peak = quality.resident_peak.max(resident);
    }
    out.labels = sim.allocation().labels().to_vec();
    out.quality = quality.finish();
    out
}

/// `ShardedChainSim`'s knobs on top of `params`: η, threads, and the
/// touched-rows snapshot route that residency forces.
fn knobs(shape: &Shape, params: TxAlloParams) -> TxAlloParams {
    let params = params.with_eta(ETA).with_threads(shape.threads);
    if shape.window > 0 {
        params.with_incremental_threshold(1.0)
    } else {
        params
    }
}

/// The parameters `ShardedChainSim` derives from the graph.
fn params_for(shape: &Shape, graph: &TxGraph) -> TxAlloParams {
    knobs(shape, TxAlloParams::for_graph(graph, shape.shards))
}

/// One traced repeat: the layer calls of `warmup_streamed` and
/// `run_epoch`, in their order, each inside a span.
pub fn serve_traced(shape: &Shape, seed: u64) -> (Served, Trace) {
    let wl = shape.workload(seed);
    let mut tr = Trace::default();
    let mut out = Served::default();

    // Set-up, as `ShardedChainSim::with_registry` + `warmup_streamed`.
    let placeholder = knobs(shape, TxAlloParams::for_total_weight(0.0, shape.shards));
    let mut stream = AllocatorRegistry::builtin()
        .streaming(shape.method, &placeholder, shape.schedule)
        .expect("every workload method is registered");
    let mut graph = TxGraph::new();
    if let Some(res) = residency(shape) {
        graph.enable_residency(&res);
    }
    let mut synth = Duration::ZERO;
    let (_, wall) = timed(|| {
        for b in history(shape, &wl, &mut synth) {
            graph.ingest_block(&b);
        }
    });
    tr.history_ingest_s = (wall - synth).as_secs_f64();
    let (mut allocation, begin) = timed(|| stream.begin(&graph, &params_for(shape, &graph)));
    tr.begin_s = begin.as_secs_f64();
    out.setup_s = tr.history_ingest_s + tr.begin_s;

    let mut quality = QualityAcc::default();
    let mut touched: Vec<u32> = Vec::new();
    for e in 0..shape.epochs {
        let (blocks, gen) = timed(|| shape.epoch_blocks(&wl, e));
        out.gen_s += gen.as_secs_f64();
        let nodes_before = graph.node_count();
        // Bookkeeping and shadow calls inside the epoch, off the loop clock.
        let mut excluded = Duration::ZERO;
        let epoch_start = Instant::now();

        let layers = &mut tr.layers;
        layers.time("graph.decay", || {
            if let Some(f) = shape.decay {
                graph.apply_decay(f);
            }
        });
        layers.time("core.reweight", || {
            if let Some(f) = shape.decay {
                stream.on_reweight(f);
            }
        });
        touched.clear();
        for b in &blocks {
            let nodes = layers.time("graph.ingest", || graph.ingest_block_nodes(b));
            layers.time("core.fold", || stream.on_block_nodes(&graph, b, &nodes));
            excluded += timed(|| touched.extend_from_slice(nodes.touched())).1;
        }
        let global_next = shape.schedule.is_global_epoch(e) || shape.method != "txallo";
        layers.time("graph.rehydrate", || {
            if graph.residency_enabled() && global_next {
                graph.ensure_all_resident();
            }
        });
        let (update, close) = timed(|| stream.end_epoch(&graph, EpochKind::Scheduled));
        let global = update.kind == UpdateKind::Global;
        layers.add("core.close", close);

        // Shadows on the stream's own inputs, before eviction changes the
        // graph. Dropped when their output disagrees with the stream's.
        excluded += timed(|| {
            touched.sort_unstable();
            touched.dedup();
            if !global {
                tr.shadows.snapshot(&graph, &touched, &update, close);
                return;
            }
            let served = stream.allocation();
            if shape.method == "metis" {
                tr.shadows.metis(&graph, shape.shards, served.labels());
            } else {
                let params = params_for(shape, &graph);
                tr.shadows.gtxallo(&graph, &params, served.labels());
            }
        })
        .1;

        let layers = &mut tr.layers;
        layers.time("core.apply", || allocation.apply_update(&update));
        layers.time("graph.evict", || graph.advance_residency_epoch());
        let metrics = layers.time("sim.score", || {
            epoch_metrics(&blocks, &graph, &allocation, shape.shards, ETA)
        });
        tr.loop_s += (epoch_start.elapsed() - excluded).as_secs_f64();

        // Bookkeeping off the loop clock.
        tr.close(&update, close);
        let txs = metrics.transactions as u64;
        out.txs += txs;
        out.close_ms.push(close.as_secs_f64() * 1e3);
        if !mapping_is_valid(allocation.labels(), graph.node_count(), shape.shards) {
            out.failed += txs;
        }
        out.cross_shard.push(metrics.cross_shard as u64);
        quality.epoch(metrics.cross_shard_ratio, &metrics, update.migrations());
        let fp = graph.memory_footprint();
        let state = stream.state_bytes();
        quality.resident_peak = quality.resident_peak.max(fp.resident_bytes() + state);
        tr.state_peak_bytes = tr.state_peak_bytes.max(state);
        let n = graph.node_count() as f64;
        tr.touched_nodes += touched.len() as u64;
        tr.touched_fraction_sum += touched.len() as f64 / n;
        tr.new_account_share_sum +=
            (graph.node_count() - nodes_before) as f64 / touched.len().max(1) as f64;
        tr.cold_row_share_sum += fp.cold_rows as f64 / (fp.cold_rows + fp.resident_rows) as f64;
    }
    tr.footprint = graph.memory_footprint();
    out.serve_s = tr.loop_s;
    out.labels = allocation.labels().to_vec();
    out.quality = quality.finish();
    (out, tr)
}
