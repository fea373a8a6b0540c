//! Newman modularity for weighted graphs with self-loops.

use txallo_graph::{fit_u32, WeightedGraph};

/// Computes classic modularity
/// `Q = Σ_c [ w_in(c)/m − (Σ_tot(c)/(2m))² ]`
/// where `m` is the total edge weight (each edge once, self-loops once),
/// `w_in(c)` the intra-community weight (self-loops count once) and
/// `Σ_tot(c)` the summed node strengths (self-loops count twice).
pub fn modularity(graph: &impl WeightedGraph, communities: &[u32]) -> f64 {
    assert_eq!(communities.len(), graph.node_count(), "one label per node");
    let m = graph.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let community_count = communities
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut intra = vec![0.0f64; community_count];
    let mut totals = vec![0.0f64; community_count];
    for v in 0..fit_u32(graph.node_count()) {
        let cv = communities[v as usize] as usize;
        totals[cv] += graph.strength(v);
        intra[cv] += graph.self_loop(v);
        graph.for_each_neighbor(v, |u, w| {
            if communities[u as usize] == communities[v as usize] && u > v {
                intra[cv] += w;
            }
        });
    }
    let mut q = 0.0;
    for c in 0..community_count {
        q += intra[c] / m - (totals[c] / (2.0 * m)).powi(2);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::CsrGraph;

    #[test]
    fn single_community_has_zero_ish_modularity() {
        // All nodes in one community: Q = 1 - 1 = 0 for any connected graph.
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let q = modularity(&g, &[0, 0, 0]);
        assert!(
            q.abs() < 1e-12,
            "Q of the trivial partition must be 0, got {q}"
        );
    }

    #[test]
    fn all_singletons_give_negative_modularity() {
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let q = modularity(&g, &[0, 1, 2]);
        assert!(
            q < 0.0,
            "singleton partition of a clique has Q < 0, got {q}"
        );
    }

    #[test]
    fn good_partition_beats_bad_partition() {
        // Two triangles plus one bridging edge.
        let g = CsrGraph::from_edges(
            6,
            vec![
                (0u32, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.2),
            ],
        );
        let good = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        let bad = modularity(&g, &[0, 1, 0, 1, 0, 1]);
        assert!(good > bad, "good={good} bad={bad}");
        assert!(good > 0.3);
    }

    #[test]
    fn self_loops_count_toward_intra_weight() {
        let g = CsrGraph::from_edges(2, vec![(0u32, 0u32, 1.0), (0, 1, 1.0)]);
        // m = 2; community {0,1}: intra = 2 => Q = 2/2 - (4/4)^2 = 0
        let q = modularity(&g, &[0, 0]);
        assert!(q.abs() < 1e-12, "got {q}");
    }
}
