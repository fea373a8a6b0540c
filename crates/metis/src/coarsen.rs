//! Coarsening phase: heavy-edge matching and hierarchy construction.

use txallo_graph::{fit_u32, CsrGraph, NodeId, WeightedGraph};

/// One level of the multilevel hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The graph at this level.
    pub graph: CsrGraph,
    /// Vertex weight per node of this level.
    pub vertex_weights: Vec<f64>,
    /// For non-base levels: maps each node of the *previous (finer)* level
    /// to its super-node at this level. `None` for the base level.
    pub fine_to_coarse: Option<Vec<u32>>,
}

/// Sentinel for a not-yet-matched node.
const UNMATCHED: NodeId = NodeId::MAX;

/// Heavy-edge matching (HEM).
///
/// Visits nodes in ascending id order; an unmatched node is matched with
/// its heaviest unmatched neighbor (ties broken toward the smaller id).
/// Returns a dense map `fine node → coarse node`, assigning coarse ids in
/// first-seen order (deterministic). `mate` is caller-owned scratch,
/// cleared and refilled with each node's partner (possibly itself), so
/// the coarsening loop reuses one buffer across its levels.
pub fn heavy_edge_matching(graph: &CsrGraph, mate: &mut Vec<NodeId>) -> (Vec<u32>, usize) {
    let n = graph.node_count();
    mate.clear();
    mate.resize(n, UNMATCHED);
    for v in 0..fit_u32(n) {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(NodeId, f64)> = None;
        graph.for_each_neighbor(v, |u, w| {
            if mate[u as usize] != UNMATCHED || u == v {
                return;
            }
            match best {
                Some((bu, bw)) if w < bw || (w == bw && u > bu) => {}
                _ => best = Some((u, w)),
            }
        });
        if let Some((u, _)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
        } else {
            mate[v as usize] = v; // matched with itself
        }
    }

    let mut coarse_of: Vec<u32> = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if coarse_of[v] != u32::MAX {
            continue;
        }
        let m = mate[v] as usize;
        coarse_of[v] = next;
        coarse_of[m] = next;
        next += 1;
    }
    (coarse_of, next as usize)
}

/// Builds the coarsening hierarchy, starting at `base`, until the graph has
/// at most `floor` nodes or matching stops shrinking it.
///
/// Level 0 is the base graph; each subsequent level stores the projection
/// map from the previous level.
pub fn coarsen(base: CsrGraph, vertex_weights: Vec<f64>, floor: usize) -> Vec<CoarseLevel> {
    assert_eq!(vertex_weights.len(), base.node_count());
    let mut levels = Vec::new();
    let mut current = CoarseLevel {
        graph: base,
        vertex_weights,
        fine_to_coarse: None,
    };
    // Scratch reused by every level: the matching's mate array and the
    // coarse edge list (the level-0 high-water mark is allocated once and
    // the geometrically shrinking levels ride inside it).
    let mut mate = Vec::new();
    let mut edges = Vec::new();
    loop {
        let n = current.graph.node_count();
        if n <= floor {
            break;
        }
        let (map, coarse_n) = heavy_edge_matching(&current.graph, &mut mate);
        // Matching that barely shrinks the graph (e.g. star graphs) would
        // loop forever — METIS stops when the reduction is under ~5-10%.
        if coarse_n as f64 > n as f64 * 0.95 {
            break;
        }
        let mut coarse_weights = vec![0.0; coarse_n];
        for (v, &c) in map.iter().enumerate() {
            coarse_weights[c as usize] += current.vertex_weights[v];
        }
        edges.clear();
        for v in 0..fit_u32(n) {
            let cv = map[v as usize];
            let loop_w = current.graph.self_loop(v);
            if loop_w > 0.0 {
                edges.push((cv, cv, loop_w));
            }
            current.graph.for_each_neighbor(v, |u, w| {
                if v < u {
                    let cu = map[u as usize];
                    if cu == cv {
                        edges.push((cv, cv, w));
                    } else {
                        edges.push((cv.min(cu), cv.max(cu), w));
                    }
                }
            });
        }
        let coarse = CoarseLevel {
            graph: CsrGraph::from_edges(coarse_n, edges.iter().copied()),
            vertex_weights: coarse_weights,
            fine_to_coarse: Some(map),
        };
        levels.push(std::mem::replace(&mut current, coarse));
    }
    levels.push(current);
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_pairs_heavy_edges_first() {
        // 0-1 heavy, 1-2 light: HEM must pair (0,1) and leave 2 alone.
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 10.0), (1, 2, 1.0)]);
        let (map, n) = heavy_edge_matching(&g, &mut Vec::new());
        assert_eq!(n, 2);
        assert_eq!(map[0], map[1]);
        assert_ne!(map[0], map[2]);
    }

    #[test]
    fn matching_covers_all_nodes() {
        let mut edges = Vec::new();
        for a in 0..30u32 {
            edges.push((a, (a + 1) % 30, 1.0 + (a % 3) as f64));
        }
        let g = CsrGraph::from_edges(30, edges);
        let (map, n) = heavy_edge_matching(&g, &mut Vec::new());
        assert!((15..=30).contains(&n));
        assert!(map.iter().all(|&c| (c as usize) < n));
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let mut edges = Vec::new();
        for a in 0..64u32 {
            edges.push((a, (a + 1) % 64, 1.0));
            edges.push((a, (a + 7) % 64, 0.5));
        }
        let g = CsrGraph::from_edges(64, edges);
        let total = g.total_weight();
        let levels = coarsen(g, vec![1.0; 64], 8);
        assert!(levels.len() > 1, "must coarsen at least once");
        for level in &levels {
            assert!((level.graph.total_weight() - total).abs() < 1e-9);
            let wsum: f64 = level.vertex_weights.iter().sum();
            assert!((wsum - 64.0).abs() < 1e-9, "vertex weight is conserved");
        }
        let last = levels.last().unwrap();
        assert!(last.graph.node_count() <= 32);
    }

    #[test]
    fn isolated_nodes_survive_coarsening() {
        let g = CsrGraph::from_edges(5, vec![(0u32, 1, 1.0)]);
        let levels = coarsen(g, vec![1.0; 5], 1);
        // Nodes 2,3,4 have no edges; matching self-matches them and the
        // reduction stalls, terminating the loop.
        let last = levels.last().unwrap();
        assert!(last.graph.node_count() >= 4);
    }

    #[test]
    fn projection_maps_compose() {
        let mut edges = Vec::new();
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                if (a + b) % 7 == 0 {
                    edges.push((a, b, 1.0 + (a % 5) as f64));
                }
            }
        }
        let g = CsrGraph::from_edges(40, edges);
        let levels = coarsen(g, vec![1.0; 40], 5);
        for i in 1..levels.len() {
            let map = levels[i].fine_to_coarse.as_ref().unwrap();
            assert_eq!(map.len(), levels[i - 1].graph.node_count());
            assert!(map
                .iter()
                .all(|&c| (c as usize) < levels[i].graph.node_count()));
        }
    }
}
