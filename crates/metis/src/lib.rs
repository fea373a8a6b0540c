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
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod coarsen;
mod frontier;
pub mod initial;
pub mod refine;

pub use coarsen::{coarsen, heavy_edge_matching, CoarseLevel};
pub use initial::greedy_growing_partition;
pub use refine::{edge_cut, fm_refine, FmWork};

use refine::refine;
use txallo_graph::{fit_u32, CsrGraph, WeightedGraph};

/// Floor applied to vertex strengths when they become balance weights, so
/// isolated (zero-strength) nodes keep a nonzero weight and ratio
/// denominators stay positive. A magnitude guard, not a gain tolerance —
/// tie-breaking is `txallo_louvain::GAIN_EPS` territory (contract D2).
pub(crate) const STRENGTH_FLOOR: f64 = 1e-9;

/// Floor on the gain/strength ratio denominator in the greedy grower of
/// initial partitioning. Smaller than [`STRENGTH_FLOOR`] because it guards
/// a division, not a weight; the value is preserved exactly — changing it
/// changes growth trajectories.
pub(crate) const RATIO_FLOOR: f64 = 1e-12;

/// Allowed imbalance: a part may hold at most this multiple of its target
/// vertex weight (METIS's `ub` parameter).
const BALANCE_FACTOR: f64 = 1.05;

/// Coarsening stops once a graph has at most this many nodes, or at most
/// `20 × parts` when that is larger.
const COARSEN_TARGET: usize = 2_000;

/// Maximum FM refinement passes per level.
const REFINE_PASSES: usize = 8;

/// The balance weight of every node of `graph`: its weighted degree,
/// floored at [`STRENGTH_FLOOR`], so balance means roughly equal
/// transaction involvement. This is the closest analogue of how the
/// blockchain partitioning literature feeds account graphs to METIS.
fn vertex_weights(graph: &impl WeightedGraph) -> Vec<f64> {
    (0..fit_u32(graph.node_count()))
        .map(|v| graph.strength(v).max(STRENGTH_FLOOR))
        .collect()
}

/// Result of a multilevel partition run.
#[derive(Debug, Clone)]
pub struct MetisResult {
    /// Part id per node, in `0..parts`.
    pub parts: Vec<u32>,
    /// Number of coarsening levels of the V-cycle (0 when none ran, as for
    /// one part).
    pub levels: usize,
    /// FM refinement's work, summed over the levels of the V-cycle.
    pub fm: FmWork,
}

/// Partitions `graph` into `parts` parts by direct k-way multilevel
/// partitioning.
pub fn metis_partition(graph: &impl WeightedGraph, parts: usize) -> MetisResult {
    assert!(parts > 0, "parts must be positive");
    let n = graph.node_count();
    if n == 0 || parts == 1 {
        return MetisResult {
            parts: vec![0; n],
            levels: 0,
            fm: FmWork::default(),
        };
    }
    let (labels, levels, fm) = v_cycle(CsrGraph::from_graph(graph), vertex_weights(graph), parts);
    MetisResult {
        parts: labels,
        levels,
        fm,
    }
}

/// The multilevel V-cycle: coarsen `base` until it has at most
/// `max(COARSEN_TARGET, 20 × parts)` nodes, grow `parts` regions on the
/// coarsest level, then, from the coarsest level to `base`, FM-refine each
/// level toward `parts` equal shares of its own total vertex weight and
/// project the result one level finer. Each level is dropped once refined.
/// Returns the base graph's parts, the number of levels and the summed FM
/// work.
///
/// A fine node whose coarse node ended its level's refinement interior
/// starts its own level's refinement idle: every fine neighbor lies in
/// that coarse node or in a coarse neighbor of it, so after projection
/// the fine node is interior too.
fn v_cycle(base: CsrGraph, vertex_weights: Vec<f64>, parts: usize) -> (Vec<u32>, usize, FmWork) {
    let mut hierarchy = coarsen(base, vertex_weights, COARSEN_TARGET.max(20 * parts));
    let levels = hierarchy.len();
    let mut labels = Vec::new();
    let mut interior = Vec::new();
    let mut work = FmWork::default();
    // The projection map of the level refined last (`None` before the
    // coarsest level).
    let mut coarser: Option<Vec<u32>> = None;
    while let Some(level) = hierarchy.pop() {
        match coarser {
            // Each fine node takes its coarse node's part and interior flag.
            Some(map) => {
                labels = map.iter().map(|&c| labels[c as usize]).collect();
                interior = map.iter().map(|&c| interior[c as usize]).collect();
            }
            None => {
                labels = greedy_growing_partition(
                    &level.graph,
                    &level.vertex_weights,
                    parts,
                    BALANCE_FACTOR,
                );
            }
        }
        work += refine(
            &level.graph,
            &level.vertex_weights,
            &mut labels,
            parts,
            BALANCE_FACTOR,
            REFINE_PASSES,
            &mut interior,
        );
        coarser = level.fine_to_coarse;
    }
    (labels, levels, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cache-free references of the kernels, which the driver and the
    /// unit tests of the grower and the boundary pass must match.
    pub(crate) mod reference;

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
        let r = metis_partition(&g, 2);
        assert_eq!(r.parts.len(), 12);
        for v in 1..6 {
            assert_eq!(r.parts[v], r.parts[0], "clique A must stay together");
            assert_eq!(r.parts[v + 6], r.parts[6], "clique B must stay together");
        }
        assert_ne!(r.parts[0], r.parts[6]);
        let cut = edge_cut(&g, &r.parts);
        assert!(
            (cut - 0.1).abs() < 1e-9,
            "only the bridge is cut, got {cut}"
        );
    }

    #[test]
    fn one_part_is_trivial() {
        let g = two_cliques(1.0);
        let r = metis_partition(&g, 1);
        assert!(r.parts.iter().all(|&p| p == 0));
        assert_eq!(edge_cut(&g, &r.parts), 0.0);
    }

    #[test]
    fn respects_part_count() {
        let mut edges = Vec::new();
        for a in 0..100u32 {
            edges.push((a, (a + 1) % 100, 1.0));
        }
        let g = CsrGraph::from_edges(100, edges);
        for k in [2usize, 3, 5, 8] {
            let r = metis_partition(&g, k);
            let used: std::collections::BTreeSet<u32> = r.parts.iter().copied().collect();
            assert!(used.len() <= k);
            assert!(used.iter().all(|&p| (p as usize) < k));
            // A ring splits into k contiguous arcs: cut = k edges (roughly).
            let cut = edge_cut(&g, &r.parts);
            assert!(cut <= 2.0 * k as f64 + 1.0, "cut {cut} too high for k={k}");
        }
    }

    #[test]
    fn balances_unit_weights() {
        // 4 cliques of 8 nodes, lightly interconnected; k = 4. Every node's
        // strength is within 0.2 of 7, so balancing strength is balancing
        // node counts.
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
        let r = metis_partition(&g, 4);
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
        let a = metis_partition(&g, 3);
        let b = metis_partition(&g, 3);
        assert_eq!(a.parts, b.parts);
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, Vec::new());
        let r = metis_partition(&g, 4);
        assert!(r.parts.is_empty());
    }
}
