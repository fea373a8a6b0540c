//! The chain workload: `ChainService` under the mixed fault plan, timed at
//! its public calls (`warmup`, `process_block`, `checkpoint`, `resume`).

use txallo_chain::{ChainEngineConfig, ChainService, ChainServiceConfig, FaultPlan};
use txallo_core::{Degradation, TxAlloParams, UpdateKind};
use txallo_graph::WeightedGraph;
use txallo_model::Block;
use txallo_sim::epoch_metrics;

use crate::measure::{mapping_is_valid, timed};
use crate::shape::{Shape, CHAIN_AUDIT_EVERY, CHAIN_AUDIT_TOLERANCE, ETA};
use crate::{QualityAcc, Served, Trace};

fn service_config(shape: &Shape) -> ChainServiceConfig {
    ChainServiceConfig {
        engine: ChainEngineConfig::new(shape.shards),
        epoch_blocks: shape.epoch_blocks as usize,
        method: shape.method.to_string(),
        schedule: shape.schedule,
        eta: ETA,
        threads: shape.threads,
    }
}

/// Builds and warms the service; returns it with the set-up seconds (the
/// `warmup` call alone: the history is synthesized before the clock).
fn warm_service(shape: &Shape, seed: u64, history: &[Block]) -> (ChainService, f64) {
    let mut service = ChainService::new(service_config(shape));
    service.set_fault_plan(FaultPlan::mixed(seed));
    service.enable_health_check(CHAIN_AUDIT_EVERY, CHAIN_AUDIT_TOLERANCE);
    let (_, setup) = timed(|| service.warmup(history));
    (service, setup.as_secs_f64())
}

/// Set-up only (for extra set-up samples).
pub fn setup_only(shape: &Shape, seed: u64) -> f64 {
    let history = shape.workload(seed).blocks(shape.history_heights());
    warm_service(shape, seed, &history).1
}

/// One repeat: warm-up, every block through `process_block`, a checkpoint
/// at every audit boundary, and a resume from the last image. When
/// `traced`, global closes are split by shadow G-TxAllo calls and the
/// epoch's property shares are counted (off the clock).
pub fn serve(shape: &Shape, seed: u64, traced: bool) -> (Served, Trace) {
    let wl = shape.workload(seed);
    let history = wl.blocks(shape.history_heights());
    let (mut service, setup_s) = warm_service(shape, seed, &history);
    drop(history);
    let mut out = Served {
        setup_s,
        ..Served::default()
    };
    let mut tr = Trace::default();
    let mut quality = QualityAcc::default();
    let mut image: Option<(Vec<u8>, Vec<u32>)> = None;
    for e in 0..shape.epochs {
        let (blocks, gen) = timed(|| shape.epoch_blocks(&wl, e));
        out.gen_s += gen.as_secs_f64();
        let before = service.report();
        let nodes_before = service.graph().node_count();
        let mut closed = None;
        for b in &blocks {
            let (update, d) = timed(|| service.process_block(b));
            match update {
                Some(u) => closed = Some((u, d)),
                None => {
                    tr.layers.add("chain.block", d);
                    tr.chain.block_ms.push(d.as_secs_f64() * 1e3);
                }
            }
        }
        let (update, close) = closed.expect("an epoch of epoch_blocks blocks closes once");
        tr.layers.add("chain.close", close);
        tr.close(&update, close);
        out.close_ms.push(close.as_secs_f64() * 1e3);
        if traced {
            let graph = service.graph();
            if update.kind == UpdateKind::Global {
                let params = TxAlloParams::for_graph(graph, shape.shards)
                    .with_eta(ETA)
                    .with_threads(shape.threads);
                tr.shadows
                    .gtxallo(graph, &params, service.allocation().labels());
            }
            let mut touched: Vec<_> = blocks
                .iter()
                .flat_map(|b| b.transactions())
                .flat_map(|tx| tx.account_set())
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let n = graph.node_count();
            tr.touched_nodes += touched.len() as u64;
            tr.touched_fraction_sum += touched.len() as f64 / n as f64;
            tr.new_account_share_sum += (n - nodes_before) as f64 / touched.len() as f64;
        }

        let after = service.report();
        let intra = after.intra_committed - before.intra_committed;
        let cross = after.cross_committed - before.cross_committed;
        let txs: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        out.txs += txs;
        let healthy = service.degradation() == Degradation::None;
        let labels = service.allocation().labels();
        if !healthy || !mapping_is_valid(labels, service.graph().node_count(), shape.shards) {
            out.failed += txs;
        }
        out.cross_shard.push(cross);
        // γ as consensus committed it; throughput and balance from the
        // paper's model, scored on the served mapping (off the clock).
        let scored = epoch_metrics(
            &blocks,
            service.graph(),
            service.allocation(),
            shape.shards,
            ETA,
        );
        let gamma = cross as f64 / (intra + cross).max(1) as f64;
        quality.epoch(gamma, &scored, update.migrations());
        let resident = service.graph().memory_footprint().resident_bytes();
        quality.resident_peak = quality.resident_peak.max(resident);

        if (e + 1) % CHAIN_AUDIT_EVERY == 0 {
            let (bytes, d) = timed(|| service.checkpoint());
            tr.layers.add("chain.checkpoint", d);
            tr.chain.checkpoints += 1;
            let bytes = bytes.expect("checkpoints are taken at epoch boundaries");
            tr.chain.image_bytes = bytes.len();
            image = Some((bytes, service.allocation().labels().to_vec()));
        }
    }
    // The served loop is exactly the public calls.
    tr.loop_s = tr.layers.total_secs();
    out.serve_s = tr.loop_s;

    // Resume from the last boundary image: it must restore that mapping.
    if let Some((bytes, labels)) = image {
        let (resumed, d) = timed(|| ChainService::resume(service_config(shape), &bytes));
        tr.chain.resume_ms = d.as_secs_f64() * 1e3;
        if !resumed.is_ok_and(|r| r.allocation().labels() == labels.as_slice()) {
            out.failed += 1;
        }
    }

    let r = service.report();
    let c = &mut tr.chain;
    c.committed = r.intra_committed + r.cross_committed;
    c.messages = r.total_messages;
    c.migration_messages = r.migration_messages;
    c.retries = r.retries;
    c.aborted = r.aborted;
    c.migrations_aborted = r.migrations_aborted;
    c.crash_outages = r.crash_outages;
    c.measured_eta = r.measured_eta();
    tr.footprint = service.graph().memory_footprint();

    out.quality = quality.finish();
    out.labels = service.allocation().labels().to_vec();
    (out, tr)
}
