//! Deterministic Louvain community detection.
//!
//! The paper initializes G-TxAllo with "a classic community detection
//! algorithm, the Louvain method" (§V-B, citing Blondel et al. 2008). This
//! crate implements it from scratch on top of the
//! [`txallo_graph::WeightedGraph`] abstraction:
//!
//! 1. **Local moving** — sweep nodes in a fixed order; each node moves to
//!    the neighboring community with the largest modularity gain.
//! 2. **Aggregation** — collapse communities into super-nodes and repeat on
//!    the condensed graph, until modularity stops improving.
//!
//! Determinism (required by §IV-A): sweeps iterate nodes in ascending id
//! order (callers hand the canonical account-hash order to the node-id
//! assignment), gains tie-break toward the smallest community id, and no
//! randomness is used anywhere.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod aggregate;
pub mod local_move;
pub mod modularity;
pub mod refine;

pub use aggregate::{aggregate_graph, aggregate_graph_into, AggregateScratch};
pub use local_move::{local_moving_pass, LocalMoveOutcome};
pub use modularity::modularity;
pub use refine::{count_disconnected, split_disconnected};

use txallo_graph::{CsrGraph, WeightedGraph};

/// Gain tie-break tolerance shared by every sweep in the workspace.
///
/// **Determinism contract.** All sweep algorithms (Louvain local moving
/// here, the G-/A-TxAllo optimization phases in `txallo-core`) evaluate
/// candidate buckets in ascending id order and treat two gains within
/// `GAIN_EPS` of each other as *tied*. A candidate only displaces the
/// running best when it beats it by more than `GAIN_EPS`; ties resolve to
/// the earliest candidate under the algorithm's stated preference (staying
/// put / the smallest community id for Louvain, the least-loaded community
/// for TxAllo joins). This single constant is what makes results
/// reproducible bit-for-bit across runs and across the hash-map vs.
/// dense-scratch gather implementations: float noise below `GAIN_EPS`
/// cannot flip a comparison, and anything above it is an honest gain.
pub const GAIN_EPS: f64 = 1e-15;

/// Tuning knobs for the Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainConfig {
    /// Maximum number of aggregation levels (safety bound; convergence
    /// normally happens in < 10 levels).
    pub max_levels: usize,
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Resolution parameter γ of generalized modularity (1.0 = classic).
    pub resolution: f64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            max_levels: 32,
            max_sweeps: 64,
            resolution: 1.0,
        }
    }
}

/// Result of a Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community id per node, compacted to `0..community_count`.
    pub communities: Vec<u32>,
    /// Number of detected communities (`l` in the paper, usually `> k`).
    pub community_count: usize,
    /// Number of aggregation levels performed.
    pub levels: usize,
}

/// Runs the full Louvain method on `graph`.
///
/// The graph is snapshotted into flat CSR form once; every sweep and every
/// aggregation level then runs on packed rows. Callers that already hold a
/// [`CsrGraph`] should use [`louvain_csr`] to skip the copy.
pub fn louvain(graph: &impl WeightedGraph, config: &LouvainConfig) -> LouvainResult {
    let csr = CsrGraph::from_graph(graph);
    louvain_csr(&csr, config)
}

/// [`louvain`] over an existing CSR snapshot — no copying at all: level 0
/// sweeps the borrowed graph, later levels own their (much smaller)
/// aggregated graphs.
pub fn louvain_csr(graph: &CsrGraph, config: &LouvainConfig) -> LouvainResult {
    let n = graph.node_count();
    if n == 0 {
        return LouvainResult {
            communities: Vec::new(),
            community_count: 0,
            levels: 0,
        };
    }

    // Mapping from original node to current-level super-node.
    let mut membership: Vec<u32> = (0..n as u32).collect();
    let mut owned_level: Option<CsrGraph> = None;
    let mut levels = 0usize;
    // One set of cross-level aggregation buffers (edge staging + counting
    // scatter arrays): reused every level, so the high-water mark (set by
    // level 0) is allocated exactly once.
    let mut agg_scratch = AggregateScratch::default();

    for _ in 0..config.max_levels {
        let level_graph = owned_level.as_ref().unwrap_or(graph);
        // Every level — the borrowed level-0 graph and the owned
        // aggregated ones — runs the same cached re-gather pass.
        let outcome = local_moving_pass(level_graph, config);
        levels += 1;
        if !outcome.moved_any {
            break;
        }
        let compact = compact_labels(&outcome.communities);
        // Update the original-node membership through this level's mapping.
        for m in membership.iter_mut() {
            *m = compact.labels[*m as usize];
        }
        if compact.count == level_graph.node_count() {
            break; // No coarsening happened: converged.
        }
        let next = aggregate_graph_into(
            level_graph,
            &compact.labels,
            compact.count,
            &mut agg_scratch,
        );
        let done = compact.count <= 1;
        owned_level = Some(next);
        if done {
            break;
        }
    }

    let compact = compact_labels(&membership);
    LouvainResult {
        communities: compact.labels,
        community_count: compact.count,
        levels,
    }
}

/// A label vector compacted to dense `0..count` ids, preserving first-seen
/// order (deterministic).
pub struct CompactLabels {
    /// The relabelled vector.
    pub labels: Vec<u32>,
    /// Number of distinct labels.
    pub count: usize,
}

/// Compacts arbitrary community labels to dense ids in first-seen order.
pub fn compact_labels(labels: &[u32]) -> CompactLabels {
    let max_label = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut remap: Vec<u32> = vec![u32::MAX; max_label];
    let mut next = 0u32;
    let mut out = Vec::with_capacity(labels.len());
    for &l in labels {
        let slot = &mut remap[l as usize];
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
        out.push(*slot);
    }
    CompactLabels {
        labels: out,
        count: next as usize,
    }
}

/// Convenience: run Louvain with default configuration.
pub fn louvain_default(graph: &impl WeightedGraph) -> LouvainResult {
    louvain(graph, &LouvainConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 5-cliques joined by a single weak edge.
    fn two_cliques() -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b, 1.0));
                edges.push((a + 5, b + 5, 1.0));
            }
        }
        edges.push((0, 5, 0.1));
        CsrGraph::from_edges(10, edges)
    }

    #[test]
    fn splits_two_cliques() {
        let r = louvain_default(&two_cliques());
        assert_eq!(
            r.community_count, 2,
            "two cliques must become two communities"
        );
        for v in 1..5 {
            assert_eq!(r.communities[v], r.communities[0]);
            assert_eq!(r.communities[v + 5], r.communities[5]);
        }
        assert_ne!(r.communities[0], r.communities[5]);
        let q = modularity(&two_cliques(), &r.communities, 1.0);
        assert!(q > 0.3, "modularity should be high, got {q}");
    }

    #[test]
    fn is_deterministic() {
        let g = two_cliques();
        let a = louvain_default(&g);
        let b = louvain_default(&g);
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn singleton_graph() {
        let g = CsrGraph::from_edges(1, vec![(0u32, 0u32, 3.0)]);
        let r = louvain_default(&g);
        assert_eq!(r.community_count, 1);
        assert_eq!(r.communities, vec![0]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, Vec::new());
        let r = louvain_default(&g);
        assert_eq!(r.community_count, 0);
        assert!(r.communities.is_empty());
    }

    #[test]
    fn disconnected_components_stay_separate() {
        // Three disjoint triangles.
        let mut edges = Vec::new();
        for t in 0..3u32 {
            let b = t * 3;
            edges.push((b, b + 1, 1.0));
            edges.push((b + 1, b + 2, 1.0));
            edges.push((b, b + 2, 1.0));
        }
        let g = CsrGraph::from_edges(9, edges);
        let r = louvain_default(&g);
        assert_eq!(r.community_count, 3);
    }

    #[test]
    fn compact_labels_first_seen_order() {
        let c = compact_labels(&[7, 7, 2, 7, 2, 5]);
        assert_eq!(c.labels, vec![0, 0, 1, 0, 1, 2]);
        assert_eq!(c.count, 3);
    }

    #[test]
    fn ring_of_cliques_finds_all_cliques() {
        // Classic Louvain benchmark: r cliques of size s in a ring.
        let (r, s) = (6u32, 4u32);
        let mut edges = Vec::new();
        for c in 0..r {
            let base = c * s;
            for a in 0..s {
                for b in (a + 1)..s {
                    edges.push((base + a, base + b, 1.0));
                }
            }
            let next_base = ((c + 1) % r) * s;
            edges.push((base, next_base, 0.05));
        }
        let g = CsrGraph::from_edges((r * s) as usize, edges);
        let res = louvain_default(&g);
        assert_eq!(
            res.community_count, r as usize,
            "each clique is its own community"
        );
        assert!(modularity(&g, &res.communities, 1.0) > 0.6);
    }
}
