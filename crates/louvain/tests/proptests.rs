//! Property-based tests of Louvain and modularity.

use proptest::prelude::*;
use txallo_graph::{CsrGraph, NodeId, WeightedGraph};
use txallo_louvain::{aggregate_graph, compact_labels, louvain_default, modularity};

fn edges_strategy(n: u32, len: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..n, 0..n, 0.1f64..5.0), 1..len)
}

proptest! {
    /// Modularity is bounded: Q ∈ [−1, 1] for any labelling.
    #[test]
    fn modularity_is_bounded(
        edges in edges_strategy(20, 60),
        labels in prop::collection::vec(0u32..5, 20),
    ) {
        let g = CsrGraph::from_edges(20, edges);
        let q = modularity(&g, &labels, 1.0);
        prop_assert!((-1.0..=1.0).contains(&q), "Q = {q}");
    }

    /// The trivial one-community partition always has Q = 0 exactly
    /// (intra = m and (Σ_tot/2m)² = 1).
    #[test]
    fn trivial_partition_zero(edges in edges_strategy(15, 40)) {
        let g = CsrGraph::from_edges(15, edges);
        let q = modularity(&g, &[0u32; 15], 1.0);
        prop_assert!(q.abs() < 1e-9, "Q = {q}");
    }

    /// Louvain's result never has *worse* modularity than both the trivial
    /// and the all-singleton partitions, and its labels are a valid dense
    /// partition.
    #[test]
    fn louvain_beats_baselines(edges in edges_strategy(24, 80)) {
        let g = CsrGraph::from_edges(24, edges);
        let result = louvain_default(&g);
        prop_assert_eq!(result.communities.len(), g.node_count());
        prop_assert!(result.communities.iter().all(|&c| (c as usize) < result.community_count));
        let trivial = modularity(&g, &[0u32; 24], 1.0);
        let singletons: Vec<u32> = (0..24u32).collect();
        let single_q = modularity(&g, &singletons, 1.0);
        let q = modularity(&g, &result.communities, 1.0);
        prop_assert!(q >= trivial - 1e-9);
        prop_assert!(q >= single_q - 1e-9);
    }

    /// Aggregating by any partition preserves total weight, and the
    /// partition's modularity is invariant under aggregation (the defining
    /// property that makes multi-level Louvain sound).
    #[test]
    fn aggregation_preserves_modularity(
        edges in edges_strategy(18, 50),
        raw_labels in prop::collection::vec(0u32..6, 18),
    ) {
        let g = CsrGraph::from_edges(18, edges);
        let compact = compact_labels(&raw_labels);
        let agg = aggregate_graph(&g, &compact.labels, compact.count);
        prop_assert!((agg.total_weight() - g.total_weight()).abs() < 1e-9);
        // Q of the partition on g == Q of singletons on the aggregate.
        let q_fine = modularity(&g, &compact.labels, 1.0);
        let singleton: Vec<u32> = (0..compact.count as u32).collect();
        let q_coarse = modularity(&agg, &singleton, 1.0);
        prop_assert!((q_fine - q_coarse).abs() < 1e-9, "{q_fine} vs {q_coarse}");
    }

    /// compact_labels is idempotent and order-preserving.
    #[test]
    fn compact_labels_idempotent(labels in prop::collection::vec(0u32..40, 1..60)) {
        let once = compact_labels(&labels);
        let twice = compact_labels(&once.labels);
        prop_assert_eq!(&once.labels, &twice.labels);
        prop_assert_eq!(once.count, twice.count);
        // Same-label inputs stay same-label; distinct stay distinct.
        for i in 0..labels.len() {
            for j in 0..labels.len() {
                prop_assert_eq!(
                    labels[i] == labels[j],
                    once.labels[i] == once.labels[j]
                );
            }
        }
    }

    /// Louvain is deterministic on arbitrary graphs.
    #[test]
    fn louvain_deterministic(edges in edges_strategy(16, 40)) {
        let g = CsrGraph::from_edges(16, edges);
        let a = louvain_default(&g);
        let b = louvain_default(&g);
        prop_assert_eq!(a.communities, b.communities);
    }
}

/// Non-proptest sanity check: modularity of a known partition on a known
/// graph, computed by hand.
#[test]
fn modularity_hand_computed() {
    // Two disjoint edges, m = 2. Partition = the two pairs:
    // Q = Σ [w_in/m − (Σ_tot/2m)²] = 2·(1/2 − (2/4)²) = 2·(0.5−0.25) = 0.5.
    let g = CsrGraph::from_edges(4, vec![(0u32, 1, 1.0), (2, 3, 1.0)]);
    let q = modularity(&g, &[0, 0, 1, 1], 1.0);
    assert!((q - 0.5).abs() < 1e-12, "Q = {q}");
    let _ = (0..4 as NodeId).count();
}
