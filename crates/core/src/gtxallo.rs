//! G-TxAllo — the global allocation algorithm (Algorithm 1).

use txallo_graph::{fit_u32, CsrGraph, NodeId, TxGraph, WeightedGraph};
use txallo_louvain::{louvain_csr, LouvainConfig, LouvainResult};

use crate::allocation::Allocation;
use crate::params::TxAlloParams;
use crate::state::{CommunityState, UNASSIGNED};
use crate::sweep::{txallo_sweep, SweepScratch};

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
    /// Rows gathered by the optimization sweeps.
    pub rows_gathered: usize,
    /// Row entries gathered by the optimization sweeps.
    pub entries_gathered: usize,
    /// Row entries whose re-gather a no-move certificate replaced (see
    /// [`AtxAlloOutcome::entries_certified`](crate::AtxAlloOutcome::entries_certified)).
    pub entries_certified: usize,
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
    ///
    /// The mutable `TxGraph` is snapshotted once into a flat [`CsrGraph`]
    /// *renumbered into canonical sweep order*, so every sweep — the
    /// Louvain initialization's local moving and all optimization passes —
    /// walks packed, sorted rows sequentially (see [`GTxAlloPlan`]).
    pub fn allocate_graph(&self, graph: &TxGraph) -> Allocation {
        let plan = GTxAlloPlan::new(graph, &self.params.louvain);
        self.allocate_planned(&plan).allocation
    }

    /// Runs truncation + optimization from a precomputed [`GTxAlloPlan`].
    ///
    /// The plan depends on neither `k` nor `η`, so experiment sweeps build
    /// it once and reuse it across the whole parameter grid (this is also
    /// how the paper reports initialization time separately: 67.6 s of the
    /// 122.3 s total).
    pub fn allocate_planned(&self, plan: &GTxAlloPlan) -> GTxAlloOutcome {
        self.allocate_planned_from(plan, &plan.init)
    }

    /// Runs truncation + optimization over the plan's snapshot from
    /// `start`, a labelling of its renumbered nodes, and maps the labels
    /// back to original node ids. The renumbered snapshot is its own sweep
    /// order: row `r` is node `r`.
    pub(crate) fn allocate_planned_from(
        &self,
        plan: &GTxAlloPlan,
        start: &LouvainResult,
    ) -> GTxAlloOutcome {
        let out = self.optimize(&plan.csr, start);
        let mut labels = vec![0u32; plan.order.len()];
        for (&v, &label) in plan.order.iter().zip(out.allocation.labels()) {
            labels[v as usize] = label;
        }
        GTxAlloOutcome {
            allocation: Allocation::new(labels, self.params.shards),
            ..out
        }
    }

    /// Truncates `init` to `k` communities, then runs the placement and
    /// optimization phases (Algorithm 1 lines 2–19) over `graph`, whose
    /// row `r` is the `r`-th node of the sweep order.
    fn optimize(&self, graph: &CsrGraph, init: &LouvainResult) -> GTxAlloOutcome {
        let n = graph.node_count();
        let k = self.params.shards;
        assert_eq!(
            init.communities.len(),
            n,
            "initialization must label every node"
        );

        if n == 0 {
            return GTxAlloOutcome {
                allocation: Allocation::new(Vec::new(), k),
                initial_communities: 0,
                sweeps: 0,
                total_gain: 0.0,
                moves: 0,
                rows_gathered: 0,
                entries_gathered: 0,
                entries_certified: 0,
            };
        }

        let l = init.community_count.max(1);

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
            #[expect(
                clippy::expect_used,
                clippy::disallowed_methods,
                reason = "sigma values are finite sums of finite per-account workloads, so partial_cmp is total; the id tie-break makes every key distinct"
            )]
            by_sigma.sort_unstable_by(|&a, &b| {
                full.sigma(b)
                    .partial_cmp(&full.sigma(a))
                    .expect("finite workloads")
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

        // ---- Placement of V_small members (lines 2–9), then the
        // optimization sweeps (lines 10–19): the one TxAllo sweep kernel.
        let mut state =
            CommunityState::from_labels(graph, &labels, k, self.params.eta, self.params.capacity);
        let out = txallo_sweep(
            graph,
            &mut labels,
            &mut state,
            self.params.epsilon,
            &mut SweepScratch::default(),
        );

        GTxAlloOutcome {
            allocation: Allocation::new(labels, k),
            initial_communities: init.community_count,
            sweeps: out.sweeps,
            total_gain: out.total_gain,
            moves: out.moves,
            rows_gathered: out.rows_gathered,
            entries_gathered: out.entries_gathered,
            entries_certified: out.entries_certified,
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
    /// CSR snapshot in renumbered space.
    csr: CsrGraph,
    /// Louvain initialization over `csr`.
    init: LouvainResult,
}

impl GTxAlloPlan {
    /// Builds the plan: canonical order, renumbered CSR snapshot, Louvain.
    /// The [`LouvainConfig`] has no fields; it is kept, ignored, only
    /// because the frozen benchmark harness still passes one.
    pub fn new(graph: &TxGraph, _louvain: &LouvainConfig) -> Self {
        Self::with_order(graph, graph.nodes_in_canonical_order())
    }

    /// Builds the plan of `view` swept in `order`, which lists every node
    /// once: the snapshot of `view` renumbered so that node `i` is
    /// `order[i]`, and Louvain over it.
    pub(crate) fn with_order(view: &impl WeightedGraph, order: Vec<NodeId>) -> Self {
        let n = order.len();
        let mut new_id = vec![0 as NodeId; n];
        for (i, &v) in order.iter().enumerate() {
            new_id[v as usize] = fit_u32(i);
        }
        let csr = CsrGraph::from_graph_relabeled(view, &new_id);
        let init = louvain_csr(&csr);
        Self { order, csr, init }
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
        let out =
            GTxAllo::new(params.clone()).allocate_planned(&GTxAlloPlan::new(&g, &params.louvain));
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
        let out =
            GTxAllo::new(params.clone()).allocate_planned(&GTxAlloPlan::new(&g, &params.louvain));
        assert_eq!(out.allocation.shard_count(), 4);
        assert_eq!(out.allocation.len(), 8);
        // All labels valid.
        assert!(out.allocation.labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn empty_graph_yields_empty_allocation() {
        let g = TxGraph::new();
        let params = TxAlloParams::for_total_weight(1.0, 3);
        let out =
            GTxAllo::new(params.clone()).allocate_planned(&GTxAlloPlan::new(&g, &params.louvain));
        assert!(out.allocation.is_empty());
        assert_eq!(out.allocation.shard_count(), 3);
    }

    #[test]
    fn optimization_never_reduces_throughput() {
        let g = clustered_graph(5, 5, 15);
        let params = TxAlloParams::for_graph(&g, 5);
        let out =
            GTxAllo::new(params.clone()).allocate_planned(&GTxAlloPlan::new(&g, &params.louvain));
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
