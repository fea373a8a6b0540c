//! Property-based tests of the multilevel partitioner.

use proptest::prelude::*;
use txallo_graph::{CsrGraph, WeightedGraph};
use txallo_metis::{
    coarsen, edge_cut, fm_refine, greedy_growing_partition, heavy_edge_matching, metis_partition,
};

fn edges_strategy(n: u32, len: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..n, 0..n, 0.1f64..4.0), 1..len)
}

proptest! {
    /// The partition is total, in-range, and its cut never exceeds the
    /// total non-loop weight.
    #[test]
    fn partition_validity(edges in edges_strategy(30, 90), k in 1usize..8) {
        let g = CsrGraph::from_edges(30, edges);
        let r = metis_partition(&g, k);
        prop_assert_eq!(r.parts.len(), 30);
        prop_assert!(r.parts.iter().all(|&p| (p as usize) < k));
        let cut = edge_cut(&g, &r.parts);
        prop_assert!(cut >= 0.0);
        prop_assert!(cut <= g.total_weight() + 1e-9);
    }

    /// Heavy-edge matching is a valid matching: the coarse map groups at
    /// most two fine nodes per coarse node.
    #[test]
    fn matching_groups_at_most_two(edges in edges_strategy(25, 60)) {
        let g = CsrGraph::from_edges(25, edges);
        let (map, coarse_n) = heavy_edge_matching(&g, &mut Vec::new());
        prop_assert_eq!(map.len(), 25);
        let mut counts = vec![0usize; coarse_n];
        for &c in &map {
            prop_assert!((c as usize) < coarse_n);
            counts[c as usize] += 1;
        }
        prop_assert!(counts.iter().all(|&c| (1..=2).contains(&c)));
    }

    /// Coarsening conserves both edge weight and vertex weight at every
    /// level, and levels shrink monotonically.
    #[test]
    fn coarsening_conservation(edges in edges_strategy(40, 120)) {
        let g = CsrGraph::from_edges(40, edges);
        let total_edge = g.total_weight();
        let levels = coarsen(g, vec![1.0; 40], 4);
        let mut prev_n = usize::MAX;
        for level in &levels {
            prop_assert!((level.graph.total_weight() - total_edge).abs() < 1e-6);
            let vw: f64 = level.vertex_weights.iter().sum();
            prop_assert!((vw - 40.0).abs() < 1e-6);
            prop_assert!(level.graph.node_count() <= prev_n);
            prev_n = level.graph.node_count();
        }
    }

    /// FM refinement never increases the cut.
    #[test]
    fn refinement_monotone(edges in edges_strategy(20, 60), k in 2usize..5) {
        let g = CsrGraph::from_edges(20, edges);
        let w = vec![1.0; 20];
        let mut parts = greedy_growing_partition(&g, &w, k, 1.2);
        let before = edge_cut(&g, &parts);
        fm_refine(&g, &w, &mut parts, k, 1.2, 6);
        let after = edge_cut(&g, &parts);
        prop_assert!(after <= before + 1e-9, "cut increased: {before} -> {after}");
        prop_assert!(parts.iter().all(|&p| (p as usize) < k));
    }

    /// Unit-weight balance (every node of a ring has strength 2, so the
    /// strength weights are equal): no part exceeds a generous bound of the
    /// average (greedy growing + escape-hatch refinement can overshoot the
    /// strict cap on adversarial graphs, but must not collapse everything
    /// into one part when the graph is connected enough).
    #[test]
    fn unit_weight_parts_nonempty_enough(k in 2usize..5) {
        // Deterministic connected ring, sized well above k.
        let n = 8 * k as u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n, 1.0)).collect();
        let g = CsrGraph::from_edges(n as usize, edges);
        let r = metis_partition(&g, k);
        let mut counts = vec![0usize; k];
        for &p in &r.parts {
            counts[p as usize] += 1;
        }
        let avg = n as usize / k;
        for &c in &counts {
            prop_assert!(c > 0, "empty part: {counts:?}");
            prop_assert!(c <= avg * 2, "overfull part: {counts:?}");
        }
    }

    /// Determinism on arbitrary inputs.
    #[test]
    fn partitioning_deterministic(edges in edges_strategy(22, 50), k in 2usize..5) {
        let g = CsrGraph::from_edges(22, edges);
        let a = metis_partition(&g, k);
        let b = metis_partition(&g, k);
        prop_assert_eq!(a.parts, b.parts);
    }
}
