//! Criterion benchmarks of the pipeline components: graph construction,
//! Louvain initialization, the G-TxAllo optimization phase and a single
//! A-TxAllo epoch update. These decompose the Fig. 10 running-time story
//! (the paper: init 67.6 s of G-TxAllo's 122.3 s; A-TxAllo 0.55 s).
//!
//! The `gather/*` pair isolates the per-node link-weight gathering that
//! dominates every sweep: `gather/hashmap` is the seed implementation
//! (fresh `FxHashMap` + copy + sort per node), `gather/dense` is the CSR +
//! dense-scratch gather that replaced it (`CommunityState::gather_links`;
//! the served sweeps gather through the sweep kernel's blocked row views
//! instead). The `gain/*` pair does the
//! same for the per-candidate gain evaluation (`gain/eval_seed` is the
//! pre-cache formula path: σ/Λ̂ recomputed from `intra`/`cut` plus two
//! Eq. 3 evaluations per candidate; `gain/eval` is the cached fast path),
//! and `csr/*` for the snapshot build (`csr/build_seed` is the edge-list
//! extraction + per-row sort; `csr/build` the counting-sort rewrite). The
//! `scale/*` group repeats the build benchmarks on a 50k-account /
//! 400k-transaction workload, where the §VI-B6 init cost actually bites,
//! and times both METIS drivers (k = 20) on it, where coarsening stalls.
//!
//! Run with `cargo bench -p txallo-bench --bench components`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use txallo_bench::seed_ref::{
    gain_sweep_fast, gain_sweep_seed, seed_atxallo_update, seed_csr_from_graph, seed_delta_rows,
    SeedDeltaRows, SeedTxGraph,
};
use txallo_core::{
    AtxAlloSession, CommunityState, EpochKind, GTxAllo, GTxAlloPlan, HybridSchedule, HybridStream,
    MoveScratch, StreamingAllocator, TxAlloParams,
};
use txallo_graph::{BlockNodes, CsrGraph, NodeId, TxGraph, WeightedGraph};
use txallo_louvain::{louvain, louvain_csr, LouvainConfig};
use txallo_metis::{metis_partition, recursive_bisection_partition};
use txallo_model::FxHashMap;
use txallo_workload::{EthereumLikeGenerator, WorkloadConfig};

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 5_000,
        transactions: 40_000,
        block_size: 100,
        groups: 80,
        ..WorkloadConfig::default()
    }
}

/// Seed-style gather: hash every neighbor's community into a fresh map,
/// copy the entries out and sort them — what the sweeps did before the
/// dense-scratch refactor. Returns a checksum so the work cannot be
/// optimized away.
fn gather_sweep_hashmap(graph: &CsrGraph, labels: &[u32]) -> f64 {
    let mut link: FxHashMap<u32, f64> = FxHashMap::default();
    let mut checksum = 0.0;
    for v in 0..graph.node_count() as NodeId {
        link.clear();
        graph.for_each_neighbor(v, |u, w| {
            *link.entry(labels[u as usize]).or_insert(0.0) += w;
        });
        let mut candidates: Vec<(u32, f64)> = link.iter().map(|(&c, &w)| (c, w)).collect();
        candidates.sort_unstable_by_key(|&(c, _)| c);
        if let Some(&(_, w)) = candidates.first() {
            checksum += w;
        }
    }
    checksum
}

/// Dense-scratch gather via `CommunityState::gather_links`, the gather of
/// the full-scan ablation and the seed reference. The production sweeps
/// gather through the sweep kernel's row views (`crates/core/src/sweep.rs`).
fn gather_sweep_dense(
    graph: &CsrGraph,
    labels: &[u32],
    state: &CommunityState,
    scratch: &mut MoveScratch,
) -> f64 {
    let mut checksum = 0.0;
    for v in 0..graph.node_count() as NodeId {
        state.gather_links(graph, labels, v, scratch);
        if let Some((_, w)) = scratch.candidates().next() {
            checksum += w;
        }
    }
    checksum
}

fn bench_components(_: &mut Criterion) {
    // Heavier-than-micro benchmarks: cap sampling so the suite stays fast.
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    let c = &mut c;
    let mut generator = EthereumLikeGenerator::new(workload(), 42);
    let ledger = generator.default_ledger();
    let graph = TxGraph::from_ledger(&ledger);
    let k = 20;
    let params = TxAlloParams::for_graph(&graph, k);

    // Ingestion: the sorted-run slab adjacency (rows CSR-shaped by
    // construction, one interner lookup per account) vs the preserved
    // hash-map adjacency (per-pair hash probes + per-pair interning).
    // `ingest/ledger` is the measurement previously named
    // `graph/from_ledger`, moved into the group that pairs it with its
    // same-run seed baseline.
    c.bench_function("ingest/ledger", |b| {
        b.iter(|| black_box(TxGraph::from_ledger(&ledger)));
    });
    c.bench_function("ingest/ledger_seed", |b| {
        b.iter(|| black_box(SeedTxGraph::from_ledger(&ledger)));
    });

    // The snapshot build (previously named `graph/csr_snapshot`), radix
    // counting-sort vs the preserved edge-list path — same-run ratio for
    // the §VI-B6 init-cost lead.
    c.bench_function("csr/build", |b| {
        b.iter(|| CsrGraph::from_graph(&graph));
    });
    c.bench_function("csr/build_seed", |b| {
        b.iter(|| seed_csr_from_graph(&graph));
    });

    c.bench_function("louvain/full", |b| {
        b.iter(|| louvain(&graph));
    });

    let csr = CsrGraph::from_graph(&graph);
    c.bench_function("louvain/csr", |b| {
        b.iter(|| louvain_csr(&csr));
    });

    // The optimization phase as production runs it: sweeps over the shared
    // renumbered CSR snapshot (the plan is built once, by
    // `GTxAlloPlan::new`, outside this timer).
    let init = louvain_csr(&csr);
    let plan = GTxAlloPlan::new(&graph, &LouvainConfig);
    c.bench_function("gtxallo/optimize_only", |b| {
        let gtx = GTxAllo::new(params.clone());
        b.iter(|| gtx.allocate_planned(&plan));
    });

    c.bench_function("gtxallo/end_to_end", |b| {
        let gtx = GTxAllo::new(params.clone());
        b.iter(|| gtx.allocate_graph(&graph));
    });

    // Link-gathering micro-benchmark: one full sweep over every node.
    let labels = init.communities.clone();
    let state = CommunityState::from_labels(
        &csr,
        &labels,
        init.community_count,
        params.eta,
        params.capacity,
    );
    c.bench_function("gather/hashmap", |b| {
        b.iter(|| black_box(gather_sweep_hashmap(&csr, &labels)));
    });
    c.bench_function("gather/dense", |b| {
        let mut scratch = MoveScratch::default();
        b.iter(|| black_box(gather_sweep_dense(&csr, &labels, &state, &mut scratch)));
    });

    // A-TxAllo: one epoch of fresh blocks on top of the warm allocation.
    let prev = GTxAllo::new(params.clone()).allocate_graph(&graph);

    // Per-candidate gain evaluation over the *converged k-shard state*
    // (communities hover around σ ≈ λ there, so both regimes are hit —
    // the Louvain init state would be almost entirely uncapped): cached
    // fast path vs pre-cache formula recompute, bit-identical results.
    let kstate = CommunityState::from_labels(&csr, prev.labels(), k, params.eta, params.capacity);
    c.bench_function("gain/eval", |b| {
        let mut scratch = MoveScratch::default();
        b.iter(|| black_box(gain_sweep_fast(&csr, prev.labels(), &kstate, &mut scratch)));
    });
    c.bench_function("gain/eval_seed", |b| {
        let mut scratch = MoveScratch::default();
        b.iter(|| black_box(gain_sweep_seed(&csr, prev.labels(), &kstate, &mut scratch)));
    });
    let mut graph2 = graph.clone();
    let new_blocks = generator.blocks(10);
    let new_nodes: Vec<BlockNodes> = new_blocks
        .iter()
        .map(|b| graph2.ingest_block_nodes(b))
        .collect();
    let mut touched: Vec<NodeId> = new_nodes
        .iter()
        .flat_map(|n| n.touched().iter().copied())
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let params2 = TxAlloParams::for_graph(&graph2, k);

    // Snapshot assembly over the epoch's touched set: straight run copies
    // out of the sorted-run adjacency vs the seed per-row hash gather +
    // packed-key sort (bit-identical outputs, pinned in `seed_ref` tests).
    let mut seed_graph2 = SeedTxGraph::from_ledger(&ledger);
    for b in &new_blocks {
        seed_graph2.ingest_block(b);
    }
    c.bench_function("snapshot/touched", |b| {
        let mut snap = txallo_graph::DeltaCsr::default();
        b.iter(|| {
            snap.refill_touched(&graph2, &touched);
            black_box(snap.len())
        });
    });
    c.bench_function("snapshot/touched_seed", |b| {
        let mut rows = SeedDeltaRows::default();
        b.iter(|| {
            seed_delta_rows(&seed_graph2, &touched, &mut rows);
            black_box(rows.node.len())
        });
    });

    // The serving configuration (what the simulator runs): a warm
    // `AtxAlloSession` carries the community aggregates across epochs, so
    // the epoch pays delta folding + the delta-CSR sweep only. The session
    // is opened on the pre-epoch graph and cloned per iteration (the clone
    // is a ~20 KB memcpy, three orders of magnitude below the update).
    let warm = AtxAlloSession::new(&graph, &prev, &params2);
    c.bench_function("atxallo/epoch_update", |b| {
        b.iter(|| {
            let mut session = warm.clone();
            for nodes in &new_nodes {
                session.apply_block_nodes(nodes);
            }
            black_box(session.update(&graph2, &touched, &params2))
        });
    });
    // The public serving surface: the same warm session driven through the
    // `StreamingAllocator` API — measures what the service layer adds on
    // top of the raw session (touched-set collection + move-diffing).
    let stream_warm = {
        let mut stream = HybridStream::new(params2.clone(), HybridSchedule::AlwaysAdaptive);
        stream.begin(&graph, &params2);
        stream
    };
    c.bench_function("atxallo/epoch_update_stream", |b| {
        b.iter(|| {
            let mut stream = stream_warm.clone();
            for (blk, nodes) in new_blocks.iter().zip(&new_nodes) {
                stream.on_block_nodes(&graph2, blk, nodes);
            }
            black_box(stream.end_epoch(&graph2, EpochKind::Scheduled))
        });
    });
    // A one-shot update: a fresh session per call, so the community
    // aggregates are rebuilt from the whole graph.
    c.bench_function("atxallo/epoch_update_incremental", |b| {
        b.iter(|| {
            let mut session = AtxAlloSession::new(&graph2, &prev, &params2);
            black_box(session.update(&graph2, &touched, &params2))
        });
    });
    // The seed implementation preserved as a same-run baseline (the
    // `gather/hashmap` of this refactor).
    c.bench_function("atxallo/epoch_update_seed", |b| {
        b.iter(|| black_box(seed_atxallo_update(&params2, &graph2, &prev, &touched)));
    });
}

/// The 50k-account / 400k-transaction scale workload: the graph is big
/// enough that the CSR build's counting sort (and its chunked parallel
/// fill) dominate differently than at 5k/40k, which is where the §VI-B6
/// init-cost claim lives.
fn bench_scale(_: &mut Criterion) {
    let mut c = Criterion::default().sample_size(5).configure_from_args();
    let c = &mut c;
    let cfg = WorkloadConfig {
        accounts: 50_000,
        transactions: 400_000,
        block_size: 200,
        groups: 800,
        ..WorkloadConfig::default()
    };
    let mut generator = EthereumLikeGenerator::new(cfg, 42);
    let graph = TxGraph::from_ledger(&generator.default_ledger());

    c.bench_function("scale/csr_build_50k", |b| {
        b.iter(|| CsrGraph::from_graph(&graph));
    });
    c.bench_function("scale/csr_build_50k_seed", |b| {
        b.iter(|| seed_csr_from_graph(&graph));
    });
    // The plan's renumbered snapshot — the CSR share of G-TxAllo's init.
    let order = graph.nodes_in_canonical_order();
    let mut new_id = vec![0 as NodeId; order.len()];
    for (i, &v) in order.iter().enumerate() {
        new_id[v as usize] = i as NodeId;
    }
    c.bench_function("scale/plan_csr_50k", |b| {
        b.iter(|| CsrGraph::from_graph_relabeled(&graph, &new_id));
    });
    c.bench_function("scale/gtxallo_end_to_end_50k", |b| {
        let gtx = GTxAllo::new(TxAlloParams::for_graph(&graph, 40));
        b.iter(|| gtx.allocate_graph(&graph));
    });
    // METIS where coarsening stalls: heavy-edge matching cannot pair a
    // hub's many leaves, so the hierarchy stops far above its target and
    // the greedy grower and FM refinement run on a large coarsest graph
    // (the shape of the served `metis` epochs).
    c.bench_function("scale/metis_partition", |b| {
        b.iter(|| black_box(metis_partition(&graph, 20)));
    });
    c.bench_function("scale/metis_recursive", |b| {
        b.iter(|| black_box(recursive_bisection_partition(&graph, 20)));
    });
}

criterion_group!(benches, bench_components, bench_scale);
criterion_main!(benches);
