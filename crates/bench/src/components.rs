//! The component timing table: every timed case of the §VI-B6 running-time
//! decomposition (the paper: Louvain init takes 67.6 s of G-TxAllo's
//! 122.3 s; A-TxAllo 0.55 s), each written once under its name, and the one
//! runner that times them.
//!
//! Three fixtures feed the cases:
//! - the 5k-account / 40k-transaction seed-42 workload at k = 20, plus one
//!   10-block epoch on top of it (`ingest/` … `atxallo/`);
//! - the 50k-account / 400k-transaction scale workload (`scale/`), where
//!   the init cost actually bites and METIS coarsening stalls;
//! - the scale-0.15 experiment dataset (`allocators/<legend>/<k>`, the
//!   Fig. 8 comparison at benchmark-friendly scale).
//!
//! Every `*_seed` case times a preserved seed implementation
//! ([`crate::seed_ref`]) on the same fixture as its production twin, so the
//! ratio of the two medians is a same-run speedup, free of the drift
//! between runs. `experiments components` prints the table, and
//! `experiments bench-snapshot` writes its medians into a `BENCH_*.json`.

use std::fmt;
use std::time::Instant;

use txallo_core::{
    AtxAlloSession, CommunityState, EpochKind, GTxAllo, GTxAlloPlan, HybridSchedule, HybridStream,
    MoveScratch, StreamingAllocator, TxAlloParams,
};
use txallo_graph::{
    fit_u32, BlockNodes, CsrGraph, DeltaCsr, MemoryFootprint, NodeId, TxGraph, WeightedGraph,
};
use txallo_louvain::{louvain, louvain_csr, LouvainConfig};
use txallo_metis::{metis_partition, recursive_bisection_partition};
use txallo_model::FxHashMap;
use txallo_workload::{EthereumLikeGenerator, WorkloadConfig};

use crate::harness::{build_dataset, run_allocator, ExperimentScale, ALL_ALLOCATORS};
use crate::seed_ref::{
    gain_sweep_fast, gain_sweep_seed, seed_atxallo_update, seed_csr_from_graph, seed_delta_rows,
    SeedDeltaRows, SeedTxGraph,
};

/// Samples per case on the 5k-account component workload.
pub const COMPONENT_SAMPLES: usize = 15;
/// Samples per case on the 50k-account scale workload.
pub const SCALE_SAMPLES: usize = 5;
/// Samples per case on the allocators' dataset.
pub const ALLOCATOR_SAMPLES: usize = 10;

/// The 5k-account / 40k-transaction component workload (seed 42).
pub fn workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 5_000,
        transactions: 40_000,
        block_size: 100,
        groups: 80,
        ..WorkloadConfig::default()
    }
}

/// The sorted wall-clock samples of one timed case, in milliseconds.
#[derive(Debug, Clone)]
pub struct Timing {
    /// The case name, e.g. `csr/build`.
    pub name: String,
    /// One entry per run, ascending.
    pub samples_ms: Vec<f64>,
}

impl Timing {
    /// The median sample (the upper one for an even count).
    pub fn median_ms(&self) -> f64 {
        self.samples_ms[self.samples_ms.len() / 2]
    }
}

impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (min, max) = (
            self.samples_ms[0],
            self.samples_ms[self.samples_ms.len() - 1],
        );
        write!(
            f,
            "{:<34} {:>10.3} ms  [{min:.3} – {max:.3}]  n={}",
            self.name,
            self.median_ms(),
            self.samples_ms.len()
        )
    }
}

/// Times `samples` runs of `f`, each on its own: no untimed warm-up, and
/// the result is dropped inside the timed region.
pub fn time<O>(name: &str, samples: usize, mut f: impl FnMut() -> O) -> Timing {
    let mut samples_ms: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples_ms.sort_by(f64::total_cmp);
    Timing {
        name: name.to_string(),
        samples_ms,
    }
}

/// What one pass over the table measured.
#[derive(Debug, Clone)]
pub struct ComponentRun {
    /// Every case, in table order.
    pub timings: Vec<Timing>,
    /// Share of the component graph the 10-block epoch touches.
    pub touched_fraction: f64,
    /// Memory accounting of the component graph after the epoch.
    pub footprint: MemoryFootprint,
    /// Approximate bytes of the warm A-TxAllo session.
    pub session_bytes: usize,
}

/// Collects the timings of one pass, at one sample count per fixture.
struct Runner<'r> {
    quick: bool,
    samples: usize,
    report: &'r mut dyn FnMut(&Timing),
    timings: Vec<Timing>,
}

impl Runner<'_> {
    /// Starts a fixture whose cases take `samples` samples (one if quick).
    fn fixture(&mut self, samples: usize) {
        self.samples = if self.quick { 1 } else { samples };
    }

    fn case<O>(&mut self, name: &str, f: impl FnMut() -> O) {
        let timing = time(name, self.samples, f);
        (self.report)(&timing);
        self.timings.push(timing);
    }
}

/// Times every case of the table; `quick` runs each case once. `report`
/// sees each timing as soon as it is taken.
pub fn run(quick: bool, mut report: impl FnMut(&Timing)) -> ComponentRun {
    let mut runner = Runner {
        quick,
        samples: 0,
        report: &mut report,
        timings: Vec::new(),
    };
    let (touched_fraction, footprint, session_bytes) = component_cases(&mut runner);
    scale_cases(&mut runner);
    allocator_cases(&mut runner);
    ComponentRun {
        timings: runner.timings,
        touched_fraction,
        footprint,
        session_bytes,
    }
}

/// `new_id[v]` = position of node `v` in the canonical sweep order: the
/// relabeling `GTxAlloPlan::new` snapshots through.
fn canonical_ids(graph: &TxGraph) -> Vec<NodeId> {
    let mut new_id: Vec<NodeId> = vec![0; graph.node_count()];
    for (i, &v) in graph.nodes_in_canonical_order().iter().enumerate() {
        new_id[v as usize] = fit_u32(i);
    }
    new_id
}

/// Seed-style gather: hash every neighbor's community into a fresh map,
/// copy the entries out and sort them, as the sweeps did before the
/// dense-scratch refactor. Returns a checksum so the work cannot be
/// optimized away.
fn gather_sweep_hashmap(graph: &CsrGraph, labels: &[u32]) -> f64 {
    let mut link: FxHashMap<u32, f64> = FxHashMap::default();
    let mut checksum = 0.0;
    for v in 0..fit_u32(graph.node_count()) {
        link.clear();
        graph.for_each_neighbor(v, |u, w| {
            *link.entry(labels[u as usize]).or_insert(0.0) += w;
        });
        let mut candidates: Vec<(u32, f64)> = link.iter().map(|(&c, &w)| (c, w)).collect();
        // txallo-lint: allow(no-unstable-float-sort) — the keys are the map's keys, which are distinct, so no two candidates compare equal
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
    for v in 0..fit_u32(graph.node_count()) {
        state.gather_links(graph, labels, v, scratch);
        if let Some((_, w)) = scratch.candidates().next() {
            checksum += w;
        }
    }
    checksum
}

/// The 5k-account cases. Returns the epoch's touched fraction, the graph's
/// footprint after the epoch and the warm session's bytes.
fn component_cases(r: &mut Runner) -> (f64, MemoryFootprint, usize) {
    r.fixture(COMPONENT_SAMPLES);
    let k = 20;
    let mut generator = EthereumLikeGenerator::new(workload(), 42);
    let ledger = generator.default_ledger();
    let graph = TxGraph::from_ledger(&ledger);
    let params = TxAlloParams::for_graph(&graph, k);

    // Ingestion: the sorted-run slab adjacency (rows CSR-shaped by
    // construction, one interner lookup per account) vs the preserved
    // hash-map adjacency (per-pair hash probes + per-pair interning).
    r.case("ingest/ledger", || TxGraph::from_ledger(&ledger));
    r.case("ingest/ledger_seed", || SeedTxGraph::from_ledger(&ledger));

    // The snapshot build, one row copy per node vs the preserved
    // edge-list extraction + per-row sort; then the plan's renumbered
    // snapshot, the CSR share of G-TxAllo's init.
    r.case("csr/build", || CsrGraph::from_graph(&graph));
    r.case("csr/build_seed", || seed_csr_from_graph(&graph));
    let new_id = canonical_ids(&graph);
    r.case("csr/plan", || {
        CsrGraph::from_graph_relabeled(&graph, &new_id)
    });

    r.case("louvain/full", || louvain(&graph));
    let csr = CsrGraph::from_graph(&graph);
    r.case("louvain/csr", || louvain_csr(&csr));

    // The optimization phase as production runs it: sweeps over the shared
    // renumbered CSR snapshot (the plan is built once, outside the timer).
    let plan = GTxAlloPlan::new(&graph, &LouvainConfig);
    let gtx = GTxAllo::new(params.clone());
    r.case("gtxallo/optimize_only", || gtx.allocate_planned(&plan));
    r.case("gtxallo/end_to_end", || gtx.allocate_graph(&graph));

    // Link gathering, one full sweep over every node: the seed hash map vs
    // the dense scratch.
    let init = louvain_csr(&csr);
    let labels = init.communities;
    let state = CommunityState::from_labels(
        &csr,
        &labels,
        init.community_count,
        params.eta,
        params.capacity,
    );
    let mut scratch = MoveScratch::default();
    r.case("gather/hashmap", || gather_sweep_hashmap(&csr, &labels));
    r.case("gather/dense", || {
        gather_sweep_dense(&csr, &labels, &state, &mut scratch)
    });

    // Per-candidate gain evaluation over the *converged k-shard state*
    // (communities hover around σ ≈ λ there, so both regimes are hit):
    // cached fast path vs pre-cache formula recompute, bit-identical.
    let prev = gtx.allocate_graph(&graph);
    let mut scratch = MoveScratch::default();
    let kstate = CommunityState::from_labels(&csr, prev.labels(), k, params.eta, params.capacity);
    r.case("gain/eval", || {
        gain_sweep_fast(&csr, prev.labels(), &kstate, &mut scratch)
    });
    r.case("gain/eval_seed", || {
        gain_sweep_seed(&csr, prev.labels(), &kstate, &mut scratch)
    });

    // A-TxAllo: one epoch of 10 fresh blocks on top of the warm allocation.
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
    let mut snap = DeltaCsr::default();
    r.case("snapshot/touched", || {
        snap.refill_touched(&graph2, &touched);
        snap.len()
    });
    let mut rows = SeedDeltaRows::default();
    r.case("snapshot/touched_seed", || {
        seed_delta_rows(&seed_graph2, &touched, &mut rows);
        rows.node.len()
    });

    // The serving configuration: a warm `AtxAlloSession` carries the
    // community aggregates across epochs, so the epoch pays delta folding
    // + the delta-CSR sweep only. Each run clones the pre-epoch session (a
    // ~20 KB memcpy, three orders of magnitude below the update).
    let warm = AtxAlloSession::new(&graph, &prev, &params2);
    r.case("atxallo/epoch_update", || {
        let mut session = warm.clone();
        for nodes in &new_nodes {
            session.apply_block_nodes(nodes);
        }
        session.update(&graph2, &touched, &params2)
    });
    // The same warm session driven through the public `StreamingAllocator`
    // surface: what the service layer adds on top of the raw session
    // (touched-set collection + move-diffing).
    let mut stream_warm = HybridStream::new(params2.clone(), HybridSchedule::AlwaysAdaptive);
    stream_warm.begin(&graph, &params2);
    r.case("atxallo/epoch_update_stream", || {
        let mut stream = stream_warm.clone();
        for (blk, nodes) in new_blocks.iter().zip(&new_nodes) {
            stream.on_block_nodes(&graph2, blk, nodes);
        }
        stream.end_epoch(&graph2, EpochKind::Scheduled)
    });
    // A one-shot update: a fresh session per call, so the community
    // aggregates are rebuilt from the whole graph.
    r.case("atxallo/epoch_update_incremental", || {
        AtxAlloSession::new(&graph2, &prev, &params2).update(&graph2, &touched, &params2)
    });
    r.case("atxallo/epoch_update_seed", || {
        seed_atxallo_update(&params2, &graph2, &prev, &touched)
    });

    (
        touched.len() as f64 / graph2.node_count() as f64,
        graph2.memory_footprint(),
        warm.approx_bytes(),
    )
}

/// The 50k-account / 400k-transaction cases: the CSR builds and
/// G-TxAllo at the size where the §VI-B6 init cost bites, and both METIS
/// drivers (k = 20) where coarsening stalls.
fn scale_cases(r: &mut Runner) {
    r.fixture(SCALE_SAMPLES);
    let cfg = WorkloadConfig {
        accounts: 50_000,
        transactions: 400_000,
        block_size: 200,
        groups: 800,
        ..WorkloadConfig::default()
    };
    let graph = TxGraph::from_ledger(&EthereumLikeGenerator::new(cfg, 42).default_ledger());

    r.case("scale/csr_build_50k", || CsrGraph::from_graph(&graph));
    r.case("scale/csr_build_50k_seed", || seed_csr_from_graph(&graph));
    let new_id = canonical_ids(&graph);
    r.case("scale/plan_csr_50k", || {
        CsrGraph::from_graph_relabeled(&graph, &new_id)
    });
    let gtx = GTxAllo::new(TxAlloParams::for_graph(&graph, 40));
    r.case("scale/gtxallo_end_to_end_50k", || {
        gtx.allocate_graph(&graph)
    });
    // Heavy-edge matching cannot pair a hub's many leaves, so the
    // hierarchy stops far above its target and the greedy grower and FM
    // refinement run on a large coarsest graph (the shape of the served
    // `metis` epochs).
    r.case("scale/metis_partition", || metis_partition(&graph, 20));
    r.case("scale/metis_recursive", || {
        recursive_bisection_partition(&graph, 20)
    });
}

/// The four allocators of the paper's comparison, end to end at k = 10,
/// 20 and 60 (Fig. 8 / §VI-B6), on ~30k transactions.
fn allocator_cases(r: &mut Runner) {
    r.fixture(ALLOCATOR_SAMPLES);
    let dataset = build_dataset(ExperimentScale {
        factor: 0.15,
        seed: 42,
    });
    for k in [10, 20, 60] {
        for kind in ALL_ALLOCATORS {
            r.case(&format!("allocators/{kind}/{k}"), || {
                run_allocator(kind, &dataset, k, 2.0, None)
            });
        }
    }
}
