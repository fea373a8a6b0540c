//! Connectivity refinement of a community partition.
//!
//! Classic Louvain can produce *internally disconnected* communities — a
//! hub node can glue otherwise unrelated node sets together and later
//! migrate away, leaving fragments labelled as one community (the defect
//! the Leiden algorithm was built to fix). On transaction graphs this
//! shows up around exchange-like hub accounts.
//!
//! [`split_disconnected`] post-processes any labelling so every community
//! is a connected subgraph, relabelling fragments as fresh communities.
//! Deterministic: fragments are discovered by BFS from the smallest node
//! id of each community.

use txallo_graph::{fit_u32, NodeId, WeightedGraph};

use crate::{compact_labels, CompactLabels};

/// Splits internally disconnected communities into connected fragments.
///
/// Returns compacted labels (first-seen order) and is a no-op (modulo
/// relabelling) when every community is already connected.
pub fn split_disconnected(graph: &impl WeightedGraph, labels: &[u32]) -> CompactLabels {
    let n = graph.node_count();
    assert_eq!(labels.len(), n, "one label per node");
    let mut fragment: Vec<u32> = vec![u32::MAX; n];
    let mut next_fragment = 0u32;
    let mut queue: Vec<NodeId> = Vec::new();

    for start in 0..fit_u32(n) {
        if fragment[start as usize] != u32::MAX {
            continue;
        }
        // BFS within the community of `start`.
        let community = labels[start as usize];
        let id = next_fragment;
        next_fragment += 1;
        fragment[start as usize] = id;
        queue.clear();
        queue.push(start);
        while let Some(v) = queue.pop() {
            graph.for_each_neighbor(v, |u, _| {
                if labels[u as usize] == community && fragment[u as usize] == u32::MAX {
                    fragment[u as usize] = id;
                    queue.push(u);
                }
            });
        }
    }
    compact_labels(&fragment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::CsrGraph;

    #[test]
    fn connected_partition_is_preserved() {
        // Two triangles, correctly labelled: nothing to split.
        let g = CsrGraph::from_edges(
            6,
            vec![
                (0u32, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
            ],
        );
        let labels = vec![0, 0, 0, 1, 1, 1];
        let split = split_disconnected(&g, &labels);
        assert_eq!(split.count, 2);
        // Same-community relations preserved.
        assert_eq!(split.labels[0], split.labels[1]);
        assert_ne!(split.labels[0], split.labels[3]);
    }

    #[test]
    fn disconnected_community_is_split() {
        // One label covering two disjoint edges → two fragments.
        let g = CsrGraph::from_edges(4, vec![(0u32, 1, 1.0), (2, 3, 1.0)]);
        let labels = vec![0, 0, 0, 0];
        let split = split_disconnected(&g, &labels);
        assert_eq!(split.count, 2, "fragments must separate");
        assert_eq!(split.labels[0], split.labels[1]);
        assert_eq!(split.labels[2], split.labels[3]);
        assert_ne!(split.labels[0], split.labels[2]);
    }

    #[test]
    fn hub_departure_fragments_are_detected() {
        // Star 0-{1,2,3} plus pair (4,5). Label the leaves + pair as one
        // community *without* the hub — the classic Louvain artifact.
        let g = CsrGraph::from_edges(
            6,
            vec![(0u32, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 5, 1.0)],
        );
        let labels = vec![1, 0, 0, 0, 0, 0]; // hub alone; rest lumped
        let split = split_disconnected(&g, &labels);
        // Leaves 1,2,3 are pairwise unconnected without the hub: they all
        // fragment apart; the (4,5) pair stays together.
        assert_eq!(split.labels[4], split.labels[5]);
        assert_ne!(split.labels[1], split.labels[2]);
        assert_ne!(split.labels[2], split.labels[3]);
        assert_eq!(split.count, 5);
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 1.0)]);
        let labels = vec![0, 0, 0];
        let split = split_disconnected(&g, &labels);
        assert_eq!(split.count, 2);
        assert_ne!(split.labels[2], split.labels[0]);
    }

    #[test]
    fn deterministic() {
        let g = CsrGraph::from_edges(
            8,
            vec![(0u32, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0), (6, 7, 1.0)],
        );
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let a = split_disconnected(&g, &labels);
        let b = split_disconnected(&g, &labels);
        assert_eq!(a.labels, b.labels);
    }
}
