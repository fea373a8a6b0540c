//! Golden equivalence tests for the A-TxAllo delta-CSR epoch pipeline.
//!
//! Three pins, mirroring the G-TxAllo golden suite in `golden.rs`:
//!
//! 1. **Reference equivalence** — a from-scratch re-implementation of the
//!    epoch sweep with ordered-map (`BTreeMap`) gathering, no candidate
//!    caching, no stamp-based skipping, and every gain evaluated through
//!    the *raw Eq. 3/6/8 formulas* (recomputing `σ`/`Λ̂`/`Λ` from
//!    `intra`/`cut` per evaluation instead of reading the cached-scalar
//!    fast path) must match the production kernel byte-for-byte: the
//!    caching — including the gain-path σ/Λ̂/Λ caches — is an
//!    optimization, not a semantic change. The snapshot rows themselves
//!    are pinned against a whole-graph `CsrGraph` extraction in
//!    `txallo-graph`'s `delta` tests.
//! 2. **Decay folding** — a warm session whose aggregates are rescaled
//!    on decay epochs matches a session rebuilt from the decayed graph.
//! 3. **Counters** — a seeded multi-epoch serving stream reproduces the
//!    recorded per-epoch counters (placements, sweeps, moves, the gain's
//!    bits and the gather work), which pins the sweep's `ε` stopping path
//!    and its certified skips, not only the labels.

use std::collections::BTreeMap;

use proptest::prelude::*;
use txallo_core::state::{capped_throughput, UNASSIGNED};
use txallo_core::{
    Allocation, AtxAlloOutcome, AtxAlloSession, CommunityState, GTxAllo, TxAlloParams, GAIN_EPS,
    MAX_SWEEPS,
};
use txallo_graph::{DeltaCsr, NodeId, TxGraph, WeightedGraph};
use txallo_model::{AccountId, Block, Transaction};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

/// One adaptive update from `prev`: a session opened on it and updated
/// once, returning the counters and the updated allocation.
fn update(
    params: &TxAlloParams,
    graph: &TxGraph,
    prev: &Allocation,
    touched: &[NodeId],
) -> (AtxAlloOutcome, Allocation) {
    let mut session = AtxAlloSession::new(graph, prev, params);
    let out = session.update(graph, touched, params);
    (out, session.allocation())
}

fn build_graph(pairs: &[(u64, u64)]) -> TxGraph {
    let mut g = TxGraph::new();
    for &(a, b) in pairs {
        g.ingest_transaction(&Transaction::transfer(AccountId(a), AccountId(b)));
    }
    g
}

/// Every third entry becomes a 3-account transaction so edge weights
/// include non-dyadic rationals (1/3): plain transfers only ever produce
/// weight sums that are exact in binary, which would let summation-order
/// bugs (e.g. a wrong incident-weight fold in the snapshot) slip through
/// the byte-identity assertions undetected.
fn block_of(height: u64, pairs: &[(u64, u64)]) -> Block {
    Block::new(
        height,
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                if i % 3 == 2 {
                    Transaction::new(vec![AccountId(a)], vec![AccountId(b), AccountId(a + b + 1)])
                        .expect("non-empty account sets")
                } else {
                    Transaction::transfer(AccountId(a), AccountId(b))
                }
            })
            .collect(),
    )
}

/// Ordered-map gather over a snapshot row (ascending community order by
/// construction, per-community accumulation in row order — the same
/// summation order as the production `DenseAccumulator`).
fn gather_reference(snap: &DeltaCsr, local: usize, labels: &[u32], link: &mut BTreeMap<u32, f64>) {
    link.clear();
    let (targets, weights) = snap.row(local);
    for (&u, &w) in targets.iter().zip(weights) {
        let cu = labels[u as usize];
        if cu != UNASSIGNED {
            *link.entry(cu).or_insert(0.0) += w;
        }
    }
}

/// Raw-formula `σ_c`, `Λ̂_c`, `Λ_c` recomputed from `intra`/`cut` per call
/// — the pre-cache expressions the production fast path must match
/// bit-for-bit (see `golden.rs` for the G-TxAllo twin of these helpers).
fn raw_scalars(state: &CommunityState, c: u32) -> (f64, f64, f64) {
    let sigma = state.intra(c) + state.eta() * state.cut(c);
    let hat = state.intra(c) + state.cut(c) / 2.0;
    let thr = capped_throughput(sigma, hat, state.capacity());
    (sigma, hat, thr)
}

/// Eq. 6 through the raw formulas (no cached scalar reads).
fn raw_join_gain(state: &CommunityState, q: u32, self_w: f64, d_v: f64, w_vq: f64) -> f64 {
    let eta = state.eta();
    let (sigma, hat, thr) = raw_scalars(state, q);
    let sigma_new = sigma + self_w + eta * (d_v - self_w - w_vq) + (1.0 - eta) * w_vq;
    let hat_new = hat + self_w + (d_v - self_w) / 2.0;
    capped_throughput(sigma_new, hat_new, state.capacity()) - thr
}

/// The leaving half of Eq. 8 through the raw formulas.
fn raw_leave_gain(state: &CommunityState, p: u32, self_w: f64, d_v: f64, w_vp: f64) -> f64 {
    let eta = state.eta();
    let (sigma, hat, thr) = raw_scalars(state, p);
    let sigma_new = sigma - self_w - eta * (d_v - self_w - w_vp) + (eta - 1.0) * w_vp;
    let hat_new = hat - self_w - (d_v - self_w) / 2.0;
    capped_throughput(sigma_new, hat_new, state.capacity()) - thr
}

/// The phase-1 candidate rule: ties within `GAIN_EPS` of the running
/// maximum gain break toward the least-loaded community.
fn consider_join(
    state: &CommunityState,
    q: u32,
    self_w: f64,
    d_v: f64,
    w_vq: f64,
    best: &mut Option<(u32, f64, f64)>,
    max_gain: &mut f64,
) {
    let gain = raw_join_gain(state, q, self_w, d_v, w_vq);
    let sigma = raw_scalars(state, q).0;
    if gain > *max_gain {
        *max_gain = gain;
    }
    let better = match *best {
        None => true,
        Some((_, bg, bs)) => {
            bg < *max_gain - GAIN_EPS || (gain >= *max_gain - GAIN_EPS && sigma < bs)
        }
    };
    if better {
        *best = Some((q, gain, sigma));
    }
}

/// Reference re-implementation of the A-TxAllo epoch update: same snapshot
/// rows, same gain formulas and tie contract, but ordered-map gathering
/// and a full re-gather of every node in every sweep (no candidate cache,
/// no stamp skipping).
fn reference_update(
    params: &TxAlloParams,
    graph: &TxGraph,
    previous: &Allocation,
    touched: &[NodeId],
) -> Allocation {
    let n = graph.node_count();
    let k = params.shards;
    let mut labels: Vec<u32> = previous.labels().to_vec();
    labels.resize(n, UNASSIGNED);
    let mut state = CommunityState::from_labels(graph, &labels, k, params.eta, params.capacity);
    let snap = DeltaCsr::snapshot_touched(graph, touched);
    let mut link: BTreeMap<u32, f64> = BTreeMap::new();

    // Phase 1: place brand-new nodes.
    for i in 0..snap.len() {
        let g = snap.global_id(i) as usize;
        if labels[g] != UNASSIGNED {
            continue;
        }
        gather_reference(&snap, i, &labels, &mut link);
        let self_w = snap.self_loop(i);
        let d_v = snap.incident_weight(i);
        let mut best: Option<(u32, f64, f64)> = None;
        let mut max_gain = f64::NEG_INFINITY;
        if link.is_empty() {
            for q in 0..k as u32 {
                consider_join(&state, q, self_w, d_v, 0.0, &mut best, &mut max_gain);
            }
        } else {
            for (&q, &w_vq) in &link {
                consider_join(&state, q, self_w, d_v, w_vq, &mut best, &mut max_gain);
            }
        }
        let q = best.expect("k >= 1").0;
        let w_vq = link.get(&q).copied().unwrap_or(0.0);
        state.apply_join(q, self_w, d_v, w_vq);
        labels[g] = q;
    }

    // Phase 2: optimize over the touched set, re-gathering every visit.
    let mut sweeps = 0usize;
    loop {
        let mut delta = 0.0;
        for i in 0..snap.len() {
            let g = snap.global_id(i) as usize;
            let p = labels[g];
            gather_reference(&snap, i, &labels, &mut link);
            if link.is_empty() || (link.len() == 1 && link.contains_key(&p)) {
                continue;
            }
            let self_w = snap.self_loop(i);
            let d_v = snap.incident_weight(i);
            let w_vp = link.get(&p).copied().unwrap_or(0.0);
            let leave = raw_leave_gain(&state, p, self_w, d_v, w_vp);
            let mut best: Option<(u32, f64, f64)> = None;
            for (&q, &w_vq) in &link {
                if q == p {
                    continue;
                }
                let gain = leave + raw_join_gain(&state, q, self_w, d_v, w_vq);
                match best {
                    Some((_, bg, _)) if gain <= bg + GAIN_EPS => {}
                    _ => best = Some((q, gain, w_vq)),
                }
            }
            if let Some((q, gain, w_vq)) = best {
                if gain > 0.0 {
                    state.apply_leave(p, self_w, d_v, w_vp);
                    state.apply_join(q, self_w, d_v, w_vq);
                    labels[g] = q;
                    delta += gain;
                }
            }
        }
        sweeps += 1;
        if delta < params.epsilon || sweeps >= MAX_SWEEPS {
            break;
        }
    }

    Allocation::new(labels, k)
}

/// A generated case: base transfers, epoch blocks of transfers, shard `k`.
type DeltaStream = (Vec<(u64, u64)>, Vec<Vec<(u64, u64)>>, usize);

/// Strategy: a base transaction batch plus 1–3 epoch blocks whose account
/// range is wider than the base's, so every epoch mixes existing accounts
/// with brand-new ones (phase 1 + phase 2 both exercised).
fn stream_strategy() -> impl Strategy<Value = DeltaStream> {
    (
        prop::collection::vec((0u64..30, 0u64..30), 10..80),
        prop::collection::vec(prop::collection::vec((0u64..45, 0u64..45), 1..25), 1..4),
        1usize..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decay folding: a warm session whose aggregates are *rescaled* on a
    /// decay epoch ([`AtxAlloSession::apply_decay`]) produces the same
    /// allocations as a session rebuilt from scratch on the decayed graph
    /// (what the simulation driver used to do), across a whole multi-epoch
    /// stream with decay every epoch. The aggregates are linear in the
    /// edge weights, so folding is exact up to float rounding; the
    /// consistency bound pins that drift to the same class the delta
    /// folding already accepts.
    #[test]
    fn decay_fold_matches_session_rebuild(stream in stream_strategy()) {
        let (base, epochs, k) = stream;
        let mut g = build_graph(&base);
        let params = TxAlloParams::for_graph(&g, k);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let mut folded = AtxAlloSession::new(&g, &prev, &params);
        let mut rebuild_prev = prev;
        for (h, pairs) in epochs.iter().enumerate() {
            g.apply_decay(0.7);
            folded.apply_decay(0.7);
            let nodes = g.ingest_block_nodes(&block_of(h as u64, pairs));
            folded.apply_block_nodes(&nodes);
            let params = TxAlloParams::for_graph(&g, k);
            folded.update(&g, nodes.touched(), &params);
            // The rebuild path: fresh aggregates from the decayed graph.
            let (_, from_rebuilt) = update(&params, &g, &rebuild_prev, nodes.touched());
            prop_assert_eq!(
                folded.labels(),
                from_rebuilt.labels(),
                "folded decay diverged from rebuild at epoch {}",
                h
            );
            prop_assert!(
                folded.consistency_error(&g) < 1e-9,
                "aggregates drifted beyond the incremental contract at epoch {}",
                h
            );
            rebuild_prev = from_rebuilt;
        }
    }

    /// The production kernel (dense scratch + candidate cache + stamp
    /// skipping) matches the cache-free ordered-map reference
    /// byte-for-byte.
    #[test]
    fn kernel_matches_reference(stream in stream_strategy()) {
        let (base, epochs, k) = stream;
        let mut g = build_graph(&base);
        let params = TxAlloParams::for_graph(&g, k);
        let mut prev = GTxAllo::new(params).allocate_graph(&g);
        for (h, pairs) in epochs.iter().enumerate() {
            let touched = g.ingest_block(&block_of(h as u64, pairs));
            let params = TxAlloParams::for_graph(&g, k);
            let expected = reference_update(&params, &g, &prev, &touched);
            let (_, got) = update(&params, &g, &prev, &touched);
            prop_assert_eq!(
                got.labels(),
                expected.labels(),
                "kernel diverged from reference at epoch {}",
                h
            );
            prev = got;
        }
    }
}

/// The decay fold held to a *long* stream: ≥100 folds (with small blocks
/// sprinkled in so the labels keep evolving) against rebuild-from-scratch
/// every epoch. Repeated small factors shrink the aggregates by ~e⁻¹⁰⁰
/// here; the fold must neither drift below zero nor diverge from the
/// rebuild path's allocations.
#[test]
fn long_decay_stream_matches_rebuild() {
    let mut pairs = Vec::new();
    for base in [0u64, 8, 16] {
        for i in 0..6 {
            for j in (i + 1)..6 {
                pairs.push((base + i, base + j));
            }
        }
    }
    let mut g = build_graph(&pairs);
    let params = TxAlloParams::for_graph(&g, 3);
    let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
    let mut folded = AtxAlloSession::new(&g, &prev, &params);
    let mut rebuild_prev = prev;
    for epoch in 0..120u64 {
        g.apply_decay(0.9);
        folded.apply_decay(0.9);
        // A drifting trickle of activity (some epochs add brand-new
        // accounts, all re-weight existing edges).
        let a = epoch % 24;
        let block = block_of(epoch, &[(a, (a + 7) % 24), (a, 300 + epoch / 10)]);
        let nodes = g.ingest_block_nodes(&block);
        folded.apply_block_nodes(&nodes);
        let params = TxAlloParams::for_graph(&g, 3);
        folded.update(&g, nodes.touched(), &params);
        let (_, from_rebuilt) = update(&params, &g, &rebuild_prev, nodes.touched());
        assert_eq!(
            folded.labels(),
            from_rebuilt.labels(),
            "fold diverged from rebuild at epoch {epoch}"
        );
        // The rebuild recomputes non-negative aggregates from the graph;
        // the fold must stay consistent with it (and hence non-negative up
        // to the usual incremental drift) after a hundred-plus rescales.
        let err = folded.consistency_error(&g);
        assert!(err < 1e-9, "epoch {epoch}: aggregates drifted by {err}");
        rebuild_prev = from_rebuilt;
    }
}

/// An epoch whose block only touches brand-new accounts, one of them
/// isolated (a self-transfer: degree 0, self-loop only): phase 1 places
/// every one as the cache-free reference does, nothing else moves.
#[test]
fn all_new_accounts_epoch() {
    let mut g = build_graph(&[(0, 1), (1, 2), (0, 2)]);
    let params = TxAlloParams::for_graph(&g, 2);
    let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
    let mut block = block_of(0, &[(100, 101), (101, 102)])
        .transactions()
        .to_vec();
    block.push(Transaction::transfer(AccountId(777), AccountId(777)));
    let touched = g.ingest_block(&Block::new(0, block));
    let n777 = g.node_of(AccountId(777)).unwrap();
    assert_eq!(g.neighbor_count(n777), 0, "fixture: isolated newcomer");
    let (out, labels) = update(&params, &g, &prev, &touched);
    assert_eq!(labels, reference_update(&params, &g, &prev, &touched));
    assert_eq!(out.new_nodes, 4, "the isolated account is placed too");
    assert!(labels.shard_of(n777).index() < 2);
    for v in 0..prev.len() as NodeId {
        assert_eq!(labels.shard_of(v), prev.shard_of(v));
    }
}

/// The per-epoch counters of a warm session serving a seeded stream
/// (3k accounts, k = 8, 12 epochs of 10 blocks, decay every third epoch).
/// `(new_nodes, sweeps, moves, total_gain bits, |V̂|)`, recorded before the
/// epoch sweep moved onto the shared `SweepCache`, then the phase-2 gather
/// work `(rows_gathered, entries_gathered, entries_certified)`, recorded
/// when stale rows first skipped re-gathers a no-move certificate ruled
/// out. Per epoch, gathered plus certified entries equal the entries the
/// sweep gathered before certificates existed.
#[test]
fn session_counters_are_pinned() {
    type Counters = (usize, usize, usize, u64, usize, usize, usize, usize);
    const EXPECTED: [Counters; 12] = [
        (37, 4, 75, 4630869408072801920, 863, 893, 11375, 4050),
        (17, 2, 47, 4632156980172481760, 867, 885, 11434, 726),
        (14, 4, 50, 4631577653483662080, 853, 883, 12224, 2143),
        (21, 4, 54, 4630715197325012928, 868, 897, 12494, 3336),
        (24, 3, 64, 4630682640406426720, 889, 922, 13121, 4311),
        (25, 3, 55, 4627433008836705280, 875, 905, 13347, 1716),
        (15, 4, 45, 4630349941013345248, 902, 929, 13930, 3796),
        (19, 4, 57, 4631582933344593728, 912, 956, 15000, 4621),
        (18, 3, 60, 4631353648972540096, 853, 891, 14670, 4787),
        (11, 4, 45, 4631409812685461568, 856, 882, 14819, 4335),
        (11, 3, 32, 4627784879934109632, 855, 876, 15166, 2443),
        (22, 3, 50, 4629779122324769280, 845, 861, 15074, 2049),
    ];
    let config = WorkloadConfig {
        accounts: 3_000,
        transactions: 100_000,
        block_size: 100,
        groups: 40,
        new_account_prob: 0.01,
        drift_interval: 20,
        ..WorkloadConfig::default()
    };
    let k = 8;
    let wl = StreamingWorkload::new(config, 42);
    let mut g = TxGraph::new();
    for b in wl.blocks(0..150) {
        g.ingest_block(&b);
    }
    let params = TxAlloParams::for_graph(&g, k);
    let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
    let mut session = AtxAlloSession::new(&g, &prev, &params);
    for (epoch, expected) in EXPECTED.iter().enumerate() {
        if epoch % 3 == 2 {
            g.apply_decay(0.9);
            session.apply_decay(0.9);
        }
        let mut touched = Vec::new();
        let start = 150 + 10 * epoch as u64;
        for b in wl.blocks(start..start + 10) {
            let nodes = g.ingest_block_nodes(&b);
            session.apply_block_nodes(&nodes);
            touched.extend_from_slice(nodes.touched());
        }
        touched.sort_unstable();
        touched.dedup();
        let out = session.update(&g, &touched, &TxAlloParams::for_graph(&g, k));
        let got = (
            out.new_nodes,
            out.sweeps,
            out.moves,
            out.total_gain.to_bits(),
            touched.len(),
            out.rows_gathered,
            out.entries_gathered,
            out.entries_certified,
        );
        assert_eq!(&got, expected, "epoch {epoch} counters");
    }
}
