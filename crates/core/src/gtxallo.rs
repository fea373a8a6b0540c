//! G-TxAllo — the global allocation algorithm (Algorithm 1).

use txallo_graph::{fit_u32, CsrGraph, NodeId, SweepCache, TxGraph, WeightedGraph};
use txallo_louvain::{louvain_csr, LouvainConfig, LouvainResult};

use crate::allocation::Allocation;
use crate::dataset::Dataset;
use crate::params::{TxAlloParams, MAX_SWEEPS};
use crate::state::{CommunityState, MoveScratch, UNASSIGNED};
use crate::Allocator;

/// The global TxAllo algorithm: Louvain initialization, truncation to the
/// `k` heaviest communities, then deterministic throughput-gain sweeps.
///
/// ```
/// use txallo_core::{GTxAllo, MetricsReport, TxAlloParams};
/// use txallo_graph::TxGraph;
/// use txallo_model::{AccountId, Transaction};
///
/// // Two obvious 3-account clusters.
/// let mut g = TxGraph::new();
/// for base in [0u64, 10] {
///     for (i, j) in [(0, 1), (1, 2), (0, 2)] {
///         g.ingest_transaction(&Transaction::transfer(
///             AccountId(base + i),
///             AccountId(base + j),
///         ));
///     }
/// }
/// let params = TxAlloParams::for_graph(&g, 2);
/// let allocation = GTxAllo::new(params.clone()).allocate_graph(&g);
/// let report = MetricsReport::compute(&g, &allocation, &params);
/// assert_eq!(report.cross_shard_ratio, 0.0); // clusters map onto shards
/// ```
#[derive(Debug, Clone)]
pub struct GTxAllo {
    params: TxAlloParams,
}

/// Detailed outcome of a G-TxAllo run (the counters the paper's running
/// time discussion §VI-B6 refers to).
#[derive(Debug, Clone)]
pub struct GTxAlloOutcome {
    /// The final account-shard mapping.
    pub allocation: Allocation,
    /// Number of communities Louvain produced before truncation (`l`).
    pub initial_communities: usize,
    /// Optimization sweeps executed until `ΔΛ < ε`.
    pub sweeps: usize,
    /// Total throughput gain accumulated by the optimization phase.
    pub total_gain: f64,
    /// Number of node moves committed across both phases.
    pub moves: usize,
}

impl GTxAllo {
    /// Creates the allocator with the given hyper-parameters.
    pub fn new(params: TxAlloParams) -> Self {
        Self { params }
    }

    /// The hyper-parameters in use.
    pub fn params(&self) -> &TxAlloParams {
        &self.params
    }

    /// Runs the full pipeline on a transaction graph.
    pub fn allocate_graph(&self, graph: &TxGraph) -> Allocation {
        self.allocate_detailed(graph).allocation
    }

    /// Runs the full pipeline, returning counters as well.
    ///
    /// The mutable hash-adjacency `TxGraph` is snapshotted once into a flat
    /// [`CsrGraph`] *renumbered into canonical sweep order*, so every sweep
    /// — the Louvain initialization's local moving and all optimization
    /// passes — walks packed, sorted rows sequentially instead of hashing
    /// and pointer-chasing per node (see [`GTxAlloPlan`]).
    pub fn allocate_detailed(&self, graph: &TxGraph) -> GTxAlloOutcome {
        let plan = GTxAlloPlan::new(graph, &self.params.louvain);
        self.allocate_planned(&plan)
    }

    /// Runs truncation + optimization from a precomputed [`GTxAlloPlan`].
    ///
    /// The plan depends on neither `k` nor `η`, so experiment sweeps build
    /// it once and reuse it across the whole parameter grid (this is also
    /// how the paper reports initialization time separately: 67.6 s of the
    /// 122.3 s total).
    pub fn allocate_planned(&self, plan: &GTxAlloPlan) -> GTxAlloOutcome {
        let out = self.allocate_with_init(&plan.csr, &plan.init, &plan.sequential);
        // Map the permuted labels back to original node ids.
        let permuted = out.allocation.labels();
        let mut labels = vec![0u32; permuted.len()];
        for (i, &v) in plan.order.iter().enumerate() {
            labels[v as usize] = permuted[i];
        }
        GTxAlloOutcome {
            allocation: Allocation::new(labels, out.allocation.shard_count()),
            ..out
        }
    }

    /// Runs truncation + optimization from a precomputed Louvain result and
    /// node sweep order.
    ///
    /// Exposed separately because the Louvain initialization depends on
    /// neither `k` nor `η` — experiment sweeps reuse it across the whole
    /// parameter grid (this is also how the paper reports initialization
    /// time separately: 67.6 s of the 122.3 s total).
    pub fn allocate_with_init(
        &self,
        graph: &impl WeightedGraph,
        init: &LouvainResult,
        order: &[NodeId],
    ) -> GTxAlloOutcome {
        let n = graph.node_count();
        let k = self.params.shards;
        assert_eq!(
            init.communities.len(),
            n,
            "initialization must label every node"
        );
        assert_eq!(order.len(), n, "sweep order must cover every node");
        // Sweep position of each node: the optimization phase's cache and
        // active set are indexed by position.
        let mut position = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(
                position[v as usize],
                usize::MAX,
                "sweep order repeats node {v}"
            );
            position[v as usize] = i;
        }

        if n == 0 {
            return GTxAlloOutcome {
                allocation: Allocation::new(Vec::new(), k),
                initial_communities: 0,
                sweeps: 0,
                total_gain: 0.0,
                moves: 0,
            };
        }

        let l = init.community_count.max(1);
        let mut moves = 0usize;

        // ---- Truncation: keep the k communities with the largest workload.
        let mut labels: Vec<u32> = init.communities.clone();
        if l > k {
            let full = CommunityState::from_labels(
                graph,
                &labels,
                l,
                self.params.eta,
                self.params.capacity,
            );
            let mut by_sigma: Vec<u32> = (0..l as u32).collect();
            by_sigma.sort_unstable_by(|&a, &b| {
                full.sigma(b)
                    .partial_cmp(&full.sigma(a))
                    .expect("finite workloads") // txallo-lint: allow(lib-unwrap) — sigma values are finite sums of finite per-account workloads, so partial_cmp is total
                    .then(a.cmp(&b))
            });
            let mut remap = vec![UNASSIGNED; l];
            for (new_id, &old_id) in by_sigma.iter().take(k).enumerate() {
                remap[old_id as usize] = fit_u32(new_id);
            }
            for label in labels.iter_mut() {
                *label = remap[*label as usize];
            }
        }
        // (If l <= k the Louvain labels already fit in 0..k, with the
        // remaining communities empty — the paper's "uncommon situation".)

        let mut state =
            CommunityState::from_labels(graph, &labels, k, self.params.eta, self.params.capacity);
        let mut scratch = MoveScratch::default();

        // ---- Initialization phase (lines 2–9): place V_small members.
        for &v in order {
            if labels[v as usize] != UNASSIGNED {
                continue;
            }
            state.gather_links(graph, &labels, v, &mut scratch);
            let (self_w, d_v) = (graph.self_loop(v), graph.incident_weight(v));
            let q = state.best_join(self_w, d_v, scratch.candidates());
            let w_vq = scratch.weight_to(q);
            state.apply_join(q, self_w, d_v, w_vq);
            labels[v as usize] = q;
            moves += 1;
        }

        // ---- Optimization phase (lines 10–19), incremental sweeps.
        //
        // A node's move decision depends on exactly two inputs: (a) its
        // per-community link weights `w(v→c)` — which change only when a
        // *neighbor* changes community — and (b) the accounting state of
        // the communities it touches plus its own (Lemma 1: a move changes
        // only its two endpoint communities). Input (a) is the expensive
        // part (a CSR row walk plus a label load per neighbor), so each
        // node caches its gathered `(community, weight)` candidate list and
        // reuses it verbatim until a neighbor moves; the gains over that
        // list — input (b), a handful of flops per candidate — are
        // recomputed against fresh community state every visit. When *both*
        // inputs are untouched since the node's last evaluation the node is
        // skipped outright: re-evaluating would provably repeat the
        // previous no-move. A node touching only its own community
        // (`C_v = ∅`) sits out of the sweep until a neighbor moves. All
        // reuse is bit-exact, so the trajectory is identical to
        // re-gathering every node every sweep.
        let mut cache = SweepCache::new(k, order.iter().map(|&v| graph.neighbor_count(v)));
        let mut sweeps = 0usize;
        let mut total_gain = 0.0;
        loop {
            let mut delta = 0.0;
            let mut next = 0;
            while let Some(i) = cache.next_active(next) {
                next = i + 1;
                let v = order[i];
                let vi = v as usize;
                let p = labels[vi];
                if cache.is_stale(i) {
                    state.gather_links(graph, &labels, v, &mut scratch);
                    cache.store(i, scratch.candidates());
                } else if cache.unchanged_since_eval(i, p) {
                    continue; // Inputs unchanged: evaluation would no-op.
                }
                let Some(cand) = cache.evaluate(i, p) else {
                    continue; // C_v = ∅: v only touches its own community.
                };
                let (self_w, d_v) = (graph.self_loop(v), graph.incident_weight(v));
                if let Some(mv) = state.best_move(p, self_w, d_v, cand.iter().copied()) {
                    state.apply_move(&mv);
                    labels[vi] = mv.to;
                    delta += mv.gain;
                    total_gain += mv.gain;
                    moves += 1;
                    cache.commit_move(p, mv.to);
                    graph.for_each_neighbor(v, |u, _| cache.invalidate(position[u as usize]));
                }
            }
            sweeps += 1;
            if delta < self.params.epsilon || sweeps >= MAX_SWEEPS {
                break;
            }
        }

        GTxAlloOutcome {
            allocation: Allocation::new(labels, k),
            initial_communities: init.community_count,
            sweeps,
            total_gain,
            moves,
        }
    }
}

/// The `k`/`η`-independent preparation shared by every G-TxAllo run on one
/// graph: the canonical sweep order, a CSR snapshot *renumbered* so that
/// node `i` of the snapshot is the `i`-th node of the sweep order, and the
/// Louvain initialization computed on that snapshot.
///
/// Renumbering matters for speed: the deterministic sweep order is the
/// account-hash order (§V-B), which is random with respect to interning
/// order. Sweeping a canonically-renumbered CSR visits rows, labels and
/// per-node scratch *sequentially*, turning the hottest loops from random
/// access into linear scans.
#[derive(Debug, Clone)]
pub struct GTxAlloPlan {
    /// `order[i]` = original node id of compact node `i` (canonical order).
    order: Vec<NodeId>,
    /// `0..n` — the sweep order in the renumbered space.
    sequential: Vec<NodeId>,
    /// CSR snapshot in renumbered space.
    csr: CsrGraph,
    /// Louvain initialization over `csr`.
    init: LouvainResult,
}

impl GTxAlloPlan {
    /// Builds the plan: canonical order, renumbered CSR snapshot, Louvain.
    pub fn new(graph: &TxGraph, louvain: &LouvainConfig) -> Self {
        let order = graph.nodes_in_canonical_order();
        let n = order.len();
        let mut new_id = vec![0 as NodeId; n];
        for (i, &v) in order.iter().enumerate() {
            new_id[v as usize] = i as NodeId;
        }
        let csr = CsrGraph::from_graph_relabeled(graph, &new_id);
        let init = louvain_csr(&csr, louvain);
        Self {
            order,
            sequential: (0..n as NodeId).collect(),
            csr,
            init,
        }
    }

    /// The Louvain initialization (over the renumbered snapshot).
    pub fn init(&self) -> &LouvainResult {
        &self.init
    }

    /// The canonical sweep order (original node ids).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The renumbered CSR snapshot.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Runs truncation + optimization on this plan for one `(k, η)` point
    /// — the sweep-side entry of [`GTxAllo::allocate_planned`], shaped so
    /// parameter-grid harnesses can reuse a plan without constructing the
    /// allocator themselves.
    pub fn allocate(&self, params: &TxAlloParams) -> GTxAlloOutcome {
        GTxAllo::new(params.clone()).allocate_planned(self)
    }
}

impl Allocator for GTxAllo {
    fn name(&self) -> &str {
        "G-TxAllo"
    }

    fn allocate(&mut self, dataset: &Dataset) -> Allocation {
        self.allocate_graph(dataset.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_model::{AccountId, Transaction};

    /// Builds a graph of `c` dense clusters of `size` accounts plus a few
    /// cross-cluster transfers.
    fn clustered_graph(c: u64, size: u64, cross: u64) -> TxGraph {
        let mut g = TxGraph::new();
        for cluster in 0..c {
            let base = cluster * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        for x in 0..cross {
            let from = (x % c) * size;
            let to = ((x + 1) % c) * size + 1;
            g.ingest_transaction(&Transaction::transfer(AccountId(from), AccountId(to)));
        }
        g
    }

    #[test]
    fn recovers_clusters_as_shards() {
        let g = clustered_graph(4, 6, 4);
        let params = TxAlloParams::for_graph(&g, 4);
        let out = GTxAllo::new(params.clone()).allocate_detailed(&g);
        let alloc = &out.allocation;
        assert_eq!(alloc.shard_count(), 4);
        // Each cluster must land in a single shard.
        for cluster in 0..4u64 {
            let shard0 = alloc.shard_of(g.node_of(AccountId(cluster * 6)).unwrap());
            for i in 1..6 {
                let s = alloc.shard_of(g.node_of(AccountId(cluster * 6 + i)).unwrap());
                assert_eq!(s, shard0, "cluster {cluster} split");
            }
        }
        let report = crate::MetricsReport::compute(&g, alloc, &params);
        assert!(
            report.cross_shard_ratio < 0.1,
            "γ = {}",
            report.cross_shard_ratio
        );
    }

    #[test]
    fn beats_hash_allocation_on_clusters() {
        let g = clustered_graph(6, 5, 10);
        let params = TxAlloParams::for_graph(&g, 6);
        let tx_alloc = GTxAllo::new(params.clone()).allocate_graph(&g);
        let hash_labels: Vec<u32> = (0..g.node_count() as NodeId)
            .map(|v| g.account(v).hash_shard(6).0)
            .collect();
        let hash_alloc = Allocation::new(hash_labels, 6);
        let r_tx = crate::MetricsReport::compute(&g, &tx_alloc, &params);
        let r_hash = crate::MetricsReport::compute(&g, &hash_alloc, &params);
        assert!(
            r_tx.cross_shard_ratio < r_hash.cross_shard_ratio / 2.0,
            "TxAllo γ = {} vs hash γ = {}",
            r_tx.cross_shard_ratio,
            r_hash.cross_shard_ratio
        );
        assert!(r_tx.throughput >= r_hash.throughput);
    }

    #[test]
    fn is_deterministic() {
        let g = clustered_graph(3, 7, 5);
        let params = TxAlloParams::for_graph(&g, 3);
        let a = GTxAllo::new(params.clone()).allocate_graph(&g);
        let b = GTxAllo::new(params).allocate_graph(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_louvain_communities_than_shards() {
        // One dense cluster, k=4: Louvain finds ~1 community (l < k).
        let g = clustered_graph(1, 8, 0);
        let params = TxAlloParams::for_graph(&g, 4);
        let out = GTxAllo::new(params).allocate_detailed(&g);
        assert_eq!(out.allocation.shard_count(), 4);
        assert_eq!(out.allocation.len(), 8);
        // All labels valid.
        assert!(out.allocation.labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn empty_graph_yields_empty_allocation() {
        let g = TxGraph::new();
        let params = TxAlloParams::for_total_weight(1.0, 3);
        let out = GTxAllo::new(params).allocate_detailed(&g);
        assert!(out.allocation.is_empty());
        assert_eq!(out.allocation.shard_count(), 3);
    }

    #[test]
    fn optimization_never_reduces_throughput() {
        let g = clustered_graph(5, 5, 15);
        let params = TxAlloParams::for_graph(&g, 5);
        let init = txallo_louvain::louvain(&g, &params.louvain);
        let order = g.nodes_in_canonical_order();
        let gt = GTxAllo::new(params.clone());
        let out = gt.allocate_with_init(&g, &init, &order);
        assert!(out.total_gain >= 0.0);
        // The final state's throughput equals state recomputation.
        let report = crate::MetricsReport::compute(&g, &out.allocation, &params);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn self_loops_do_not_break_allocation() {
        let mut g = clustered_graph(2, 4, 2);
        for i in 0..4u64 {
            g.ingest_transaction(&Transaction::transfer(AccountId(i), AccountId(i)));
        }
        let params = TxAlloParams::for_graph(&g, 2);
        let alloc = GTxAllo::new(params.clone()).allocate_graph(&g);
        assert_eq!(alloc.len(), g.node_count());
        let report = crate::MetricsReport::compute(&g, &alloc, &params);
        assert!(report.throughput > 0.0);
    }
}
