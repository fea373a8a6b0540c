//! Initial partitioning via greedy graph growing (GGGP).

use txallo_graph::{fit_u32, CsrGraph, WeightedGraph};

use crate::frontier::{lightest_part, GrowFrontier, HeaviestFirst, UNASSIGNED};

/// Produces an initial `k`-way partition of (the coarsest) `graph`.
///
/// For each part in turn, the heaviest unassigned vertex seeds a region,
/// which greedily absorbs the unassigned neighbor with the strongest
/// connection to the region (ties: the larger share of the neighbor's
/// strength, then the smaller id) until the region reaches the target
/// vertex weight `total/k`. A candidate that would push the region past
/// `target × balance_factor` is left for later parts. Unreached vertices
/// are swept into the currently lightest parts at the end. The vertex
/// weights must be non-negative and finite: the grower orders by their
/// bits.
pub fn greedy_growing_partition(
    graph: &CsrGraph,
    vertex_weights: &[f64],
    k: usize,
    balance_factor: f64,
) -> Vec<u32> {
    let n = graph.node_count();
    let mut parts = vec![UNASSIGNED; n];
    if n == 0 {
        return parts;
    }
    if k == 1 {
        return vec![0; n];
    }
    let total: f64 = vertex_weights.iter().sum();
    let target = total / k as f64;
    let cap = target * balance_factor;

    let mut by_weight = HeaviestFirst::new(vertex_weights);
    let mut part_weight = vec![0.0f64; k];
    let mut frontier = GrowFrontier::new(n);

    for part in 0..k as u32 {
        let Some(seed) = by_weight.next_free(|v| parts[v as usize] == UNASSIGNED) else {
            break;
        };
        parts[seed as usize] = part;
        part_weight[part as usize] += vertex_weights[seed as usize];
        frontier.clear();
        frontier.absorb(graph, &parts, seed);

        while part_weight[part as usize] < target {
            let Some(u) = frontier.pop(&parts) else { break };
            if part_weight[part as usize] + vertex_weights[u as usize] > cap {
                // Too big for this part; leave it for later parts.
                continue;
            }
            parts[u as usize] = part;
            part_weight[part as usize] += vertex_weights[u as usize];
            frontier.absorb(graph, &parts, u);
        }
    }

    // Sweep leftovers into the lightest part.
    for v in 0..n {
        if parts[v] == UNASSIGNED {
            let lightest = lightest_part(&part_weight);
            parts[v] = fit_u32(lightest);
            part_weight[lightest] += vertex_weights[v];
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_node_within_k() {
        let mut edges = Vec::new();
        for a in 0..50u32 {
            edges.push((a, (a + 1) % 50, 1.0));
        }
        let g = CsrGraph::from_edges(50, edges);
        let parts = greedy_growing_partition(&g, &vec![1.0; 50], 5, 1.1);
        assert!(parts.iter().all(|&p| p < 5));
    }

    #[test]
    fn roughly_balances_unit_weights() {
        let mut edges = Vec::new();
        for a in 0..60u32 {
            edges.push((a, (a + 1) % 60, 1.0));
            edges.push((a, (a + 2) % 60, 1.0));
        }
        let g = CsrGraph::from_edges(60, edges);
        let parts = greedy_growing_partition(&g, &vec![1.0; 60], 3, 1.1);
        let mut counts = [0usize; 3];
        for &p in &parts {
            counts[p as usize] += 1;
        }
        for &c in &counts {
            assert!(c >= 10, "part badly underfilled: {counts:?}");
        }
    }

    #[test]
    fn k_equals_one() {
        let g = CsrGraph::from_edges(4, vec![(0u32, 1, 1.0)]);
        assert_eq!(greedy_growing_partition(&g, &[1.0; 4], 1, 1.05), vec![0; 4]);
    }

    #[test]
    fn deterministic() {
        let mut edges = Vec::new();
        for a in 0..40u32 {
            edges.push((a, (a * 7 + 3) % 40, 1.0 + (a % 4) as f64));
        }
        let g = CsrGraph::from_edges(40, edges);
        let w: Vec<f64> = (0..40).map(|i| 1.0 + (i % 3) as f64).collect();
        let a = greedy_growing_partition(&g, &w, 4, 1.05);
        let b = greedy_growing_partition(&g, &w, 4, 1.05);
        assert_eq!(a, b);
    }
}
