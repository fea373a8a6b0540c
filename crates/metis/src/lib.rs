//! A METIS-style multilevel k-way graph partitioner.
//!
//! The graph-based baselines of the paper (\[17\] Fynn & Pedone, \[18\] Mizrahi
//! & Rottenstreich, \[19\] BrokerChain) all use METIS (Karypis & Kumar) as
//! their backbone allocation algorithm. METIS itself is a C library, so this
//! crate re-implements its three classic phases (§II-C of the paper) from
//! scratch:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses the graph
//!    until it is small.
//! 2. **Initial partitioning** — greedy graph growing produces a `k`-way
//!    partition of the coarsest graph, balanced by *vertex weight*.
//! 3. **Uncoarsening + refinement** — the partition is projected back level
//!    by level; at each level a boundary FM pass moves nodes to reduce edge
//!    cut subject to the balance constraint.
//!
//! Faithful to the paper's critique, balance is measured on **vertex
//! weights**, not blockchain workload — that mismatch (plus no η-awareness)
//! is exactly why TxAllo outperforms it on workload balance and throughput.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod bisection;
pub mod coarsen;
mod frontier;
pub mod initial;
pub mod refine;

pub use bisection::recursive_bisection_partition;
pub use coarsen::{
    coarsen, heavy_edge_matching, heavy_edge_matching_in, CoarseLevel, CoarsenArena,
};
pub use initial::greedy_growing_partition;
pub use refine::{edge_cut, fm_refine, fm_refine_with_targets};

use txallo_graph::{CsrGraph, NodeId, WeightedGraph};

/// Floor applied to vertex strengths when they become balance weights, so
/// isolated (zero-strength) nodes keep a nonzero weight and ratio
/// denominators stay positive. A magnitude guard, not a gain tolerance —
/// tie-breaking is `txallo_louvain::GAIN_EPS` territory (contract D2).
// txallo-lint: allow(D2-eps-literal) — named, documented magnitude floor; the one sanctioned definition site in this crate
pub(crate) const STRENGTH_FLOOR: f64 = 1e-9;

/// Floor on the gain/strength ratio denominator in the greedy growers
/// (initial partitioning and bisection seeding). Smaller than
/// [`STRENGTH_FLOOR`] because it guards a division, not a weight; the
/// value is preserved exactly — changing it changes growth trajectories.
// txallo-lint: allow(D2-eps-literal) — named, documented divide-by-zero guard; value pinned by the golden suites
pub(crate) const RATIO_FLOOR: f64 = 1e-12;

/// How vertices are weighted for the balance constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VertexWeighting {
    /// Every account weighs 1 (balance = equal account counts).
    Unit,
    /// An account weighs its weighted degree (balance ≈ equal transaction
    /// involvement). This is the closest analogue of how the blockchain
    /// partitioning literature feeds account graphs to METIS.
    #[default]
    Strength,
}

impl VertexWeighting {
    /// The balance weight of every node of `graph`.
    pub(crate) fn of(self, graph: &impl WeightedGraph) -> Vec<f64> {
        match self {
            Self::Unit => vec![1.0; graph.node_count()],
            Self::Strength => (0..graph.node_count() as NodeId)
                .map(|v| graph.strength(v).max(STRENGTH_FLOOR))
                .collect(),
        }
    }
}

/// Configuration for [`metis_partition`].
#[derive(Debug, Clone)]
pub struct MetisConfig {
    /// Number of parts `k`.
    pub parts: usize,
    /// Allowed imbalance: a part may hold at most `balance_factor ×` the
    /// average vertex weight (METIS's `ub` parameter, default 1.05).
    pub balance_factor: f64,
    /// Stop coarsening when the graph has at most this many nodes
    /// (clamped below by `20 × parts`).
    pub coarsen_target: usize,
    /// Maximum FM refinement passes per level.
    pub refine_passes: usize,
    /// Vertex weighting scheme.
    pub weighting: VertexWeighting,
}

impl MetisConfig {
    /// Reasonable defaults for `k` parts.
    pub fn new(parts: usize) -> Self {
        Self {
            parts,
            balance_factor: 1.05,
            coarsen_target: 2_000,
            refine_passes: 8,
            weighting: VertexWeighting::default(),
        }
    }
}

/// Result of a multilevel partition run.
#[derive(Debug, Clone)]
pub struct MetisResult {
    /// Part id per node, in `0..parts`.
    pub parts: Vec<u32>,
    /// Total weight of edges crossing parts.
    pub edge_cut: f64,
    /// Number of coarsening levels used.
    pub levels: usize,
}

/// Partitions `graph` into `config.parts` parts.
pub fn metis_partition(graph: &impl WeightedGraph, config: &MetisConfig) -> MetisResult {
    assert!(config.parts > 0, "parts must be positive");
    let n = graph.node_count();
    if n == 0 {
        return MetisResult {
            parts: Vec::new(),
            edge_cut: 0.0,
            levels: 0,
        };
    }
    if config.parts == 1 {
        return MetisResult {
            parts: vec![0; n],
            edge_cut: 0.0,
            levels: 0,
        };
    }

    let base = CsrGraph::from_graph(graph);
    let vertex_weights = config.weighting.of(graph);

    // Phase 1: coarsen.
    let coarsen_floor = config.coarsen_target.max(20 * config.parts);
    let mut hierarchy = coarsen(base, vertex_weights, coarsen_floor);
    let levels = hierarchy.len();
    let mut level = hierarchy
        .pop()
        .expect("hierarchy always has the base level"); // txallo-lint: allow(lib-unwrap) — coarsen() always returns at least the base level

    // Phase 2: initial partition of the coarsest graph.
    let mut parts = greedy_growing_partition(
        &level.graph,
        &level.vertex_weights,
        config.parts,
        config.balance_factor,
    );
    // Phase 3: refine, then project one level finer, down to the base
    // graph. Each coarse level is dropped once its partition is projected.
    loop {
        fm_refine(
            &level.graph,
            &level.vertex_weights,
            &mut parts,
            config.parts,
            config.balance_factor,
            config.refine_passes,
        );
        let Some(fine) = hierarchy.pop() else { break };
        parts = project(&parts, level.fine_to_coarse);
        level = fine;
    }

    let cut = edge_cut(&level.graph, &parts);
    MetisResult {
        parts,
        edge_cut: cut,
        levels,
    }
}

/// The partition of a level's finer neighbor: each fine node takes its
/// coarse node's part through the coarse level's projection map.
fn project(coarse_parts: &[u32], fine_to_coarse: Option<Vec<u32>>) -> Vec<u32> {
    fine_to_coarse
        .expect("non-base levels store their projection map") // txallo-lint: allow(lib-unwrap) — every non-base level is built by coarsen() with its projection map populated
        .iter()
        .map(|&c| coarse_parts[c as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques(bridge: f64) -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b, 1.0));
                edges.push((a + 6, b + 6, 1.0));
            }
        }
        edges.push((0, 6, bridge));
        CsrGraph::from_edges(12, edges)
    }

    #[test]
    fn bisects_two_cliques_along_the_bridge() {
        let g = two_cliques(0.1);
        let r = metis_partition(&g, &MetisConfig::new(2));
        assert_eq!(r.parts.len(), 12);
        for v in 1..6 {
            assert_eq!(r.parts[v], r.parts[0], "clique A must stay together");
            assert_eq!(r.parts[v + 6], r.parts[6], "clique B must stay together");
        }
        assert_ne!(r.parts[0], r.parts[6]);
        assert!(
            (r.edge_cut - 0.1).abs() < 1e-9,
            "only the bridge is cut, got {}",
            r.edge_cut
        );
    }

    #[test]
    fn one_part_is_trivial() {
        let g = two_cliques(1.0);
        let r = metis_partition(&g, &MetisConfig::new(1));
        assert!(r.parts.iter().all(|&p| p == 0));
        assert_eq!(r.edge_cut, 0.0);
    }

    #[test]
    fn respects_part_count() {
        let mut edges = Vec::new();
        for a in 0..100u32 {
            edges.push((a, (a + 1) % 100, 1.0));
        }
        let g = CsrGraph::from_edges(100, edges);
        for k in [2usize, 3, 5, 8] {
            let r = metis_partition(&g, &MetisConfig::new(k));
            let used: std::collections::HashSet<u32> = r.parts.iter().copied().collect();
            assert!(used.len() <= k);
            assert!(used.iter().all(|&p| (p as usize) < k));
            // A ring splits into k contiguous arcs: cut = k edges (roughly).
            assert!(
                r.edge_cut <= 2.0 * k as f64 + 1.0,
                "cut {} too high for k={k}",
                r.edge_cut
            );
        }
    }

    #[test]
    fn balances_unit_weights() {
        // 4 cliques of 8 nodes, lightly interconnected; k = 4.
        let mut edges = Vec::new();
        for c in 0..4u32 {
            let b = c * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push((b + i, b + j, 1.0));
                }
            }
            edges.push((b, ((c + 1) % 4) * 8, 0.1));
        }
        let g = CsrGraph::from_edges(32, edges);
        let mut cfg = MetisConfig::new(4);
        cfg.weighting = VertexWeighting::Unit;
        let r = metis_partition(&g, &cfg);
        let mut counts = [0usize; 4];
        for &p in &r.parts {
            counts[p as usize] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 8, "each part must hold one clique, got {counts:?}");
        }
    }

    #[test]
    fn deterministic() {
        let g = two_cliques(0.5);
        let a = metis_partition(&g, &MetisConfig::new(3));
        let b = metis_partition(&g, &MetisConfig::new(3));
        assert_eq!(a.parts, b.parts);
        assert_eq!(a.edge_cut, b.edge_cut);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, Vec::new());
        let r = metis_partition(&g, &MetisConfig::new(4));
        assert!(r.parts.is_empty());
    }
}
