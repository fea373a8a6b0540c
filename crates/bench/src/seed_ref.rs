//! The seed (pre-delta-CSR) A-TxAllo epoch update, preserved verbatim as a
//! measurable baseline — the same role `gather/hashmap` plays for the
//! G-TxAllo sweep refactor. Benchmarks pin `atxallo/epoch_update_seed`
//! against it so every snapshot records a same-machine, same-run speedup
//! instead of comparing medians across machine states.
//!
//! Implementation notes: gathers candidate links over the mutable hash
//! adjacency via `CommunityState::gather_links`, re-gathers every node in
//! every sweep, and re-derives the community aggregates from the whole
//! graph per update — exactly the code A-TxAllo ran before the delta-CSR
//! epoch pipeline.
//!
//! [`seed_csr_from_graph`] preserves the pre-radix `CsrGraph` snapshot
//! path the same way (edge-list extraction + per-row sort/merge build),
//! so `csr/build` benchmarks record a same-run ratio for the counting-sort
//! rewrite.

use txallo_core::state::UNASSIGNED;
use txallo_core::{Allocation, CommunityState, MoveScratch, TxAlloParams, GAIN_EPS, MAX_SWEEPS};
use txallo_graph::{CsrGraph, NodeId, TxGraph, WeightedGraph};
use txallo_model::{AccountId, Block, FxHashMap, FxHashSet, Ledger, Transaction};

/// The seed (pre-sorted-run) mutable transaction graph, preserved verbatim
/// as a measurable ingestion baseline: per-node `FxHashMap` adjacency,
/// per-pair `O(1)` hash accumulation, interner lookups per clique pair —
/// exactly the representation `TxGraph` carried before the slab store.
/// `ingest/ledger_seed` and `snapshot/touched_seed` pin the same-run
/// ratios of the sorted-run rewrite against this.
#[derive(Debug, Clone, Default)]
pub struct SeedTxGraph {
    to_node: FxHashMap<AccountId, NodeId>,
    accounts: Vec<AccountId>,
    adjacency: Vec<FxHashMap<NodeId, f64>>,
    self_loops: Vec<f64>,
    incident: Vec<f64>,
    total_weight: f64,
}

impl SeedTxGraph {
    /// Builds the graph of an entire ledger (the seed ingestion loop).
    pub fn from_ledger(ledger: &Ledger) -> Self {
        let mut g = Self::default();
        for block in ledger.blocks() {
            for tx in block.transactions() {
                g.ingest_transaction(tx);
            }
        }
        g
    }

    fn ensure_node(&mut self, account: AccountId) -> NodeId {
        if let Some(&n) = self.to_node.get(&account) {
            return n;
        }
        let n = self.accounts.len() as NodeId;
        self.to_node.insert(account, n);
        self.accounts.push(account);
        self.adjacency.push(FxHashMap::default());
        self.self_loops.push(0.0);
        self.incident.push(0.0);
        n
    }

    /// Seed `add_weight`: re-interns both accounts per clique pair, hash
    /// probes both directions.
    fn add_weight(&mut self, a: AccountId, b: AccountId, w: f64) {
        let na = self.ensure_node(a);
        let nb = self.ensure_node(b);
        self.total_weight += w;
        if na == nb {
            self.self_loops[na as usize] += w;
            self.incident[na as usize] += w;
            return;
        }
        *self.adjacency[na as usize].entry(nb).or_insert(0.0) += w;
        *self.adjacency[nb as usize].entry(na).or_insert(0.0) += w;
        self.incident[na as usize] += w;
        self.incident[nb as usize] += w;
    }

    /// Seed `ingest_transaction` (interns per pair, like the original).
    pub fn ingest_transaction(&mut self, tx: &Transaction) -> Vec<NodeId> {
        let set = tx.account_set();
        let mut touched = Vec::with_capacity(set.len());
        if set.len() == 1 {
            let n = self.ensure_node(set[0]);
            self.self_loops[n as usize] += 1.0;
            self.incident[n as usize] += 1.0;
            self.total_weight += 1.0;
            touched.push(n);
            return touched;
        }
        let w = 1.0 / (set.len() * (set.len() - 1) / 2) as f64;
        for &acct in &set {
            touched.push(self.ensure_node(acct));
        }
        for i in 0..set.len() {
            for j in (i + 1)..set.len() {
                self.add_weight(set[i], set[j], w);
            }
        }
        touched
    }

    /// Seed `ingest_block`: hash-set dedup plus a sort of the touched ids.
    pub fn ingest_block(&mut self, block: &Block) -> Vec<NodeId> {
        let mut touched: FxHashSet<NodeId> = FxHashSet::default();
        for tx in block.transactions() {
            for n in self.ingest_transaction(tx) {
                touched.insert(n);
            }
        }
        let mut v: Vec<NodeId> = touched.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Total accumulated weight (sanity hook for the benches).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }
}

/// The assembled rows of a seed delta snapshot (see [`seed_delta_rows`]).
#[derive(Debug, Clone, Default)]
pub struct SeedDeltaRows {
    /// Touched nodes, canonical sweep order.
    pub node: Vec<NodeId>,
    /// Row boundaries over `targets`/`weights`.
    pub offsets: Vec<u32>,
    /// Global neighbor ids, ascending per row.
    pub targets: Vec<NodeId>,
    /// Weights parallel to `targets`.
    pub weights: Vec<f64>,
    /// Per-row self-loop and incident scalars.
    pub self_loops: Vec<f64>,
    pub incident: Vec<f64>,
}

/// The seed `DeltaCsr::snapshot_touched` row assembly, preserved verbatim:
/// canonical-order the touched set, then per row gather the *hash*
/// adjacency into a staging buffer and sort packed `target << 32 | slot`
/// keys — the per-row hash-iteration + sort the sorted-run adjacency
/// eliminated (`snapshot/touched` vs `snapshot/touched_seed`).
pub fn seed_delta_rows(graph: &SeedTxGraph, touched: &[NodeId], out: &mut SeedDeltaRows) {
    let mut keyed: Vec<((u64, u64), NodeId)> = touched
        .iter()
        .map(|&v| {
            let a = graph.accounts[v as usize];
            ((a.address_hash(), a.0), v)
        })
        .collect();
    keyed.sort_unstable();
    out.node.clear();
    out.node.extend(keyed.iter().map(|&(_, v)| v));
    let t = out.node.len();
    out.offsets.clear();
    out.offsets.push(0);
    out.targets.clear();
    out.weights.clear();
    out.self_loops.clear();
    out.incident.clear();
    let mut raw: Vec<(NodeId, f64)> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    for i in 0..t {
        let v = out.node[i];
        raw.clear();
        keys.clear();
        for (&u, &w) in &graph.adjacency[v as usize] {
            keys.push(((u as u64) << 32) | raw.len() as u64);
            raw.push((u, w));
        }
        keys.sort_unstable();
        let self_w = graph.self_loops[v as usize];
        let mut row_sum = 0.0;
        for &key in keys.iter() {
            let (u, w) = raw[(key & u32::MAX as u64) as usize];
            out.targets.push(u);
            out.weights.push(w);
            row_sum += w;
        }
        // txallo-lint: allow(no-narrowing-as) — seed-era reference implementation preserved verbatim for the regression harness; the delta path it mirrors uses the checked fit_u32
        out.offsets.push(out.targets.len() as u32);
        out.self_loops.push(self_w);
        out.incident.push(self_w + row_sum);
    }
}

/// The pre-radix `CsrGraph::from_graph`: extract every positive self-loop
/// and each unordered edge once into an edge list, then run the
/// duplicate-merging edge-list constructor (scatter + per-row comparison
/// sort + merge). Kept verbatim as the same-run baseline for the
/// counting-sort snapshot build.
pub fn seed_csr_from_graph(g: &impl WeightedGraph) -> CsrGraph {
    let n = g.node_count();
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for v in 0..n as NodeId {
        let loop_w = g.self_loop(v);
        if loop_w > 0.0 {
            edges.push((v, v, loop_w));
        }
        g.for_each_neighbor(v, |u, w| {
            if v < u {
                edges.push((v, u, w));
            }
        });
    }
    CsrGraph::from_edges(n, edges)
}

/// One full node sweep of move-gain evaluations through the production
/// entry points (cached σ/Λ̂/regime): the Eq. 6/8 inner loop as the sweep
/// kernels run it. Returns a gain checksum so nothing is optimized away.
pub fn gain_sweep_fast(
    graph: &CsrGraph,
    labels: &[u32],
    state: &CommunityState,
    scratch: &mut MoveScratch,
) -> f64 {
    let mut checksum = 0.0;
    for v in 0..graph.node_count() as NodeId {
        state.gather_links(graph, labels, v, scratch);
        let p = labels[v as usize];
        let (self_w, d_v) = (graph.self_loop(v), graph.incident_weight(v));
        let leave = state.leave_gain(p, self_w, d_v, scratch.weight_to(p));
        for (q, w_vq) in scratch.candidates() {
            if q != p {
                checksum += leave + state.join_gain(q, self_w, d_v, w_vq);
            }
        }
    }
    checksum
}

/// The same sweep through the pre-cache formula path: σ_c/Λ̂_c recomputed
/// from `intra`/`cut` on every evaluation and both sides of the gain going
/// through Eq. 3 (two `capped_throughput` calls — two divisions in the
/// saturated regime — per candidate). Bit-identical results; this is the
/// per-candidate cost the σ/Λ̂/Λ caches removed.
pub fn gain_sweep_seed(
    graph: &CsrGraph,
    labels: &[u32],
    state: &CommunityState,
    scratch: &mut MoveScratch,
) -> f64 {
    let mut checksum = 0.0;
    for v in 0..graph.node_count() as NodeId {
        state.gather_links(graph, labels, v, scratch);
        let p = labels[v as usize];
        let (self_w, d_v) = (graph.self_loop(v), graph.incident_weight(v));
        let leave = seed_leave_gain(state, p, self_w, d_v, scratch.weight_to(p));
        for (q, w_vq) in scratch.candidates() {
            if q != p {
                checksum += leave + seed_join_gain(state, q, self_w, d_v, w_vq);
            }
        }
    }
    checksum
}

/// Seed-era gain evaluation: the pre-cache `CommunityState` derived `σ_c`
/// and `Λ̂_c` from `intra`/`cut` inside every gain call and ran both sides
/// of the difference through Eq. 3. The serving path now reads cached
/// scalars instead; the seed baseline must keep paying the original cost
/// (values are bit-identical either way — golden-tested — so only the
/// timing differs).
fn seed_scalars(state: &CommunityState, c: u32) -> (f64, f64, f64) {
    use txallo_core::state::capped_throughput;
    let sigma = state.intra(c) + state.eta() * state.cut(c);
    let hat = state.intra(c) + state.cut(c) / 2.0;
    (sigma, hat, capped_throughput(sigma, hat, state.capacity()))
}

fn seed_join_gain(state: &CommunityState, q: u32, self_w: f64, d_v: f64, w_vq: f64) -> f64 {
    use txallo_core::state::capped_throughput;
    let eta = state.eta();
    let (sigma, hat, thr) = seed_scalars(state, q);
    let sigma_new = sigma + self_w + eta * (d_v - self_w - w_vq) + (1.0 - eta) * w_vq;
    let hat_new = hat + self_w + (d_v - self_w) / 2.0;
    capped_throughput(sigma_new, hat_new, state.capacity()) - thr
}

fn seed_leave_gain(state: &CommunityState, p: u32, self_w: f64, d_v: f64, w_vp: f64) -> f64 {
    use txallo_core::state::capped_throughput;
    let eta = state.eta();
    let (sigma, hat, thr) = seed_scalars(state, p);
    let sigma_new = sigma - self_w - eta * (d_v - self_w - w_vp) + (eta - 1.0) * w_vp;
    let hat_new = hat - self_w - (d_v - self_w) / 2.0;
    capped_throughput(sigma_new, hat_new, state.capacity()) - thr
}

/// One adaptive epoch update, seed implementation. Returns the updated
/// label vector.
pub fn seed_atxallo_update(
    params: &TxAlloParams,
    graph: &TxGraph,
    previous: &Allocation,
    touched: &[NodeId],
) -> Vec<u32> {
    let n = graph.node_count();
    let k = params.shards;
    let mut labels: Vec<u32> = Vec::with_capacity(n);
    labels.extend_from_slice(previous.labels());
    labels.resize(n, UNASSIGNED);
    let mut state = CommunityState::from_labels(graph, &labels, k, params.eta, params.capacity);
    let mut scratch = MoveScratch::default();
    let mut order: Vec<NodeId> = touched.to_vec();
    order.sort_unstable_by_key(|&v| {
        let a = graph.account(v);
        (a.address_hash(), a.0)
    });

    // Phase 1: place brand-new nodes.
    for &v in &order {
        if labels[v as usize] != UNASSIGNED {
            continue;
        }
        state.gather_links(graph, &labels, v, &mut scratch);
        let self_w = graph.self_loop(v);
        let d_v = graph.incident_weight(v);
        let mut best: Option<(u32, f64, f64)> = None;
        let mut max_gain = f64::NEG_INFINITY;
        let consider = |q: u32,
                        w_vq: f64,
                        best: &mut Option<(u32, f64, f64)>,
                        max_gain: &mut f64,
                        state: &CommunityState| {
            let gain = seed_join_gain(state, q, self_w, d_v, w_vq);
            let sigma = seed_scalars(state, q).0;
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
        };
        if scratch.is_empty() {
            for q in 0..k as u32 {
                consider(q, 0.0, &mut best, &mut max_gain, &state);
            }
        } else {
            for (q, w_vq) in scratch.candidates() {
                consider(q, w_vq, &mut best, &mut max_gain, &state);
            }
        }
        let q = best.expect("k >= 1").0;
        let w_vq = scratch.weight_to(q);
        state.apply_join(q, self_w, d_v, w_vq);
        labels[v as usize] = q;
    }

    // Phase 2: optimize over V̂, full re-gather every sweep.
    let mut sweeps = 0usize;
    loop {
        let mut delta = 0.0;
        for &v in &order {
            let p = labels[v as usize];
            state.gather_links(graph, &labels, v, &mut scratch);
            if scratch.is_empty() || scratch.only_touches(p) {
                continue;
            }
            let self_w = graph.self_loop(v);
            let d_v = graph.incident_weight(v);
            let w_vp = scratch.weight_to(p);
            let leave = seed_leave_gain(&state, p, self_w, d_v, w_vp);
            let mut best: Option<(u32, f64, f64)> = None;
            for (q, w_vq) in scratch.candidates() {
                if q == p {
                    continue;
                }
                let gain = leave + seed_join_gain(&state, q, self_w, d_v, w_vq);
                match best {
                    Some((_, bg, _)) if gain <= bg + GAIN_EPS => {}
                    _ => best = Some((q, gain, w_vq)),
                }
            }
            if let Some((q, gain, w_vq)) = best {
                if gain > 0.0 {
                    state.apply_leave(p, self_w, d_v, w_vp);
                    state.apply_join(q, self_w, d_v, w_vq);
                    labels[v as usize] = q;
                    delta += gain;
                }
            }
        }
        sweeps += 1;
        if delta < params.epsilon || sweeps >= MAX_SWEEPS {
            break;
        }
    }

    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_core::{AtxAlloSession, GTxAllo};
    use txallo_model::{AccountId, Block, Transaction};

    /// The preserved edge-list CSR build and the production counting-sort
    /// build must agree on everything observable — same graph, either
    /// constructor.
    #[test]
    fn seed_csr_build_matches_production() {
        let mut g = TxGraph::new();
        for (a, b) in [(1u64, 2), (2, 3), (3, 1), (4, 4), (2, 5), (5, 1)] {
            g.ingest_transaction(&Transaction::transfer(AccountId(a), AccountId(b)));
        }
        g.ingest_transaction(
            &Transaction::new(vec![AccountId(1)], vec![AccountId(6), AccountId(7)]).unwrap(),
        );
        let seed = seed_csr_from_graph(&g);
        let prod = CsrGraph::from_graph(&g);
        assert_eq!(seed.node_count(), prod.node_count());
        assert_eq!(seed.edge_count(), prod.edge_count());
        // The production total is the graph's own accumulator bit-for-bit;
        // the seed edge-list build re-sums over the extracted edges, which
        // agrees only up to summation-order rounding (same contract as
        // `radix_snapshot_matches_edge_list_build` in `txallo-graph`).
        assert_eq!(prod.total_weight().to_bits(), g.total_weight().to_bits());
        let tol = 1e-12 * prod.total_weight().abs();
        assert!((seed.total_weight() - prod.total_weight()).abs() <= tol);
        for v in 0..g.node_count() as NodeId {
            assert_eq!(seed.neighbor_ids(v), prod.neighbor_ids(v));
            assert_eq!(seed.neighbor_weights(v), prod.neighbor_weights(v));
            assert_eq!(seed.self_loop(v).to_bits(), prod.self_loop(v).to_bits());
            assert_eq!(
                seed.incident_weight(v).to_bits(),
                prod.incident_weight(v).to_bits()
            );
        }
    }

    /// The preserved hash-adjacency graph and the production sorted-run
    /// graph agree bit-for-bit on every edge weight (chronological
    /// per-pair accumulation either way), and the seed snapshot assembly
    /// reproduces the production `DeltaCsr` arrays exactly — the honest
    /// equivalence behind the `ingest/` and `snapshot/` ratios.
    #[test]
    fn seed_graph_and_snapshot_match_production_bitwise() {
        use txallo_graph::DeltaCsr;
        let mut seed = SeedTxGraph::default();
        let mut prod = TxGraph::new();
        let txs: Vec<Transaction> = (0u64..60)
            .map(|i| {
                if i % 11 == 0 {
                    Transaction::transfer(AccountId(i % 7), AccountId(i % 7))
                } else if i % 13 == 0 {
                    Transaction::new(
                        vec![AccountId(i % 5)],
                        vec![AccountId(i % 9 + 1), AccountId(i % 4 + 10)],
                    )
                    .unwrap()
                } else {
                    Transaction::transfer(AccountId((i * 17) % 23), AccountId((i * 5) % 19))
                }
            })
            .collect();
        let block = Block::new(0, txs);
        let seed_touched = seed.ingest_block(&block);
        let prod_touched = prod.ingest_block(&block);
        assert_eq!(seed_touched, prod_touched, "same touched set");
        assert_eq!(seed.total_weight().to_bits(), prod.total_weight().to_bits());

        let mut rows = SeedDeltaRows::default();
        seed_delta_rows(&seed, &seed_touched, &mut rows);
        let snap = DeltaCsr::snapshot_touched(&prod, &prod_touched);
        assert_eq!(rows.node, snap.nodes());
        for i in 0..snap.len() {
            let (targets, weights) = snap.row(i);
            let (s, e) = (rows.offsets[i] as usize, rows.offsets[i + 1] as usize);
            assert_eq!(&rows.targets[s..e], targets, "row {i} targets");
            let got: Vec<u64> = rows.weights[s..e].iter().map(|w| w.to_bits()).collect();
            let want: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(got, want, "row {i} weights bit-identical");
            assert_eq!(rows.self_loops[i].to_bits(), snap.self_loop(i).to_bits());
            assert_eq!(
                rows.incident[i].to_bits(),
                snap.incident_weight(i).to_bits()
            );
        }
    }

    /// The seed baseline must still produce a *semantically* equivalent
    /// update (same clusters), keeping the benchmark comparison honest.
    #[test]
    fn seed_reference_still_behaves() {
        let mut g = TxGraph::new();
        for base in [0u64, 10] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(100), AccountId(0)),
                Transaction::transfer(AccountId(100), AccountId(1)),
            ],
        );
        let touched = g.ingest_block(&block);
        let seed = seed_atxallo_update(&params, &g, &prev, &touched);
        let mut session = AtxAlloSession::new(&g, &prev, &params);
        session.update(&g, &touched, &params);
        let n100 = g.node_of(AccountId(100)).unwrap() as usize;
        let n0 = g.node_of(AccountId(0)).unwrap() as usize;
        assert_eq!(seed[n100], seed[n0], "seed places 100 with cluster 0");
        assert_eq!(
            session.labels()[n100],
            seed[n100],
            "both implementations agree on the placement"
        );
    }
}
