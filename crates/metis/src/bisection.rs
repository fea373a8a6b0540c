//! Recursive bisection — the strategy real METIS uses for k-way
//! partitioning (`pmetis`): split the graph in two (with proportional
//! targets when `k` is odd), recurse on each side. Compared to the direct
//! k-way driver in [`crate::metis_partition`], recursive bisection does
//! `⌈log₂ k⌉` full multilevel passes, which is what gives real METIS its
//! characteristic running-time growth with `k` (§VI-B6 of the paper).

use txallo_graph::{CsrGraph, DenseIndexMap, NodeId, WeightedGraph};

use crate::coarsen::coarsen;
use crate::frontier::{heaviest_first, GrowFrontier};
use crate::refine::fm_refine_with_targets;
use crate::MetisConfig;

/// Grows one region to `frac` of the total vertex weight (2-way greedy
/// graph growing, same frontier as the k-way grower); everything else is
/// part 1. When the frontier runs dry (a disconnected graph), the next
/// heaviest unassigned vertex joins the region; the first one is the seed.
pub(crate) fn grow_bisection(graph: &CsrGraph, vertex_weights: &[f64], frac: f64) -> Vec<u32> {
    let n = graph.node_count();
    let mut parts = vec![1u32; n];
    let total: f64 = vertex_weights.iter().sum();
    let target = total * frac;

    let by_weight = heaviest_first(vertex_weights);
    let mut frontier = GrowFrontier::new(n, 1);
    let mut region_weight = 0.0;
    let mut cursor = 0usize;
    while region_weight < target {
        let next = match frontier.pop(&parts) {
            Some(u) => u,
            None => {
                while cursor < n && parts[by_weight[cursor] as usize] == 0 {
                    cursor += 1;
                }
                if cursor >= n {
                    break;
                }
                by_weight[cursor]
            }
        };
        parts[next as usize] = 0;
        region_weight += vertex_weights[next as usize];
        frontier.absorb(graph, &parts, next);
    }
    parts
}

/// Multilevel 2-way partition of `graph` with proportional targets
/// `frac : (1 − frac)`.
fn multilevel_bisect(
    graph: CsrGraph,
    vertex_weights: Vec<f64>,
    frac: f64,
    config: &MetisConfig,
) -> Vec<u32> {
    let total: f64 = vertex_weights.iter().sum();
    let targets = [total * frac, total * (1.0 - frac)];
    let floor = config.coarsen_target.clamp(40, 4_000);
    let mut hierarchy = coarsen(graph, vertex_weights, floor);
    let mut level = hierarchy.pop().expect("base level exists"); // txallo-lint: allow(lib-unwrap) — coarsen() always returns at least the base level

    let mut parts = grow_bisection(&level.graph, &level.vertex_weights, frac);
    loop {
        fm_refine_with_targets(
            &level.graph,
            &level.vertex_weights,
            &mut parts,
            &targets,
            config.balance_factor,
            config.refine_passes,
        );
        let Some(fine) = hierarchy.pop() else { break };
        parts = crate::project(&parts, level.fine_to_coarse);
        level = fine;
    }
    parts
}

/// Recursive-bisection k-way partitioning over a node subset of the base
/// graph. Part ids `offset..offset + k` are written into `out`.
#[allow(clippy::too_many_arguments)] // internal recursion plumbing, not an API
fn recurse(
    base: &CsrGraph,
    vertex_weights: &[f64],
    nodes: Vec<NodeId>,
    k: usize,
    offset: u32,
    out: &mut [u32],
    config: &MetisConfig,
    local_of: &mut DenseIndexMap,
) {
    if k <= 1 || nodes.len() <= 1 {
        for &v in &nodes {
            out[v as usize] = offset;
        }
        return;
    }
    // Build the induced subgraph with dense local ids (the stamped index
    // map is shared across the whole recursion — no per-step allocation).
    local_of.begin(base.node_count());
    for (i, &v) in nodes.iter().enumerate() {
        local_of.insert(v, i as u32);
    }
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
    let mut weights = Vec::with_capacity(nodes.len());
    for (i, &v) in nodes.iter().enumerate() {
        weights.push(vertex_weights[v as usize]);
        let loop_w = base.self_loop(v);
        if loop_w > 0.0 {
            edges.push((i as NodeId, i as NodeId, loop_w));
        }
        base.for_each_neighbor(v, |u, w| {
            if u > v {
                if let Some(j) = local_of.get(u) {
                    edges.push((i as NodeId, j, w));
                }
            }
        });
    }
    let induced = CsrGraph::from_edges(nodes.len(), edges);

    let k_left = k.div_ceil(2);
    let frac = k_left as f64 / k as f64;
    let halves = multilevel_bisect(induced, weights, frac, config);

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &v) in nodes.iter().enumerate() {
        if halves[i] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    recurse(
        base,
        vertex_weights,
        left,
        k_left,
        offset,
        out,
        config,
        local_of,
    );
    recurse(
        base,
        vertex_weights,
        right,
        k - k_left,
        offset + k_left as u32,
        out,
        config,
        local_of,
    );
}

/// K-way partitioning by recursive bisection (pmetis-style).
pub fn recursive_bisection_partition(
    graph: &impl WeightedGraph,
    config: &MetisConfig,
) -> crate::MetisResult {
    assert!(config.parts > 0, "parts must be positive");
    let n = graph.node_count();
    if n == 0 {
        return crate::MetisResult {
            parts: Vec::new(),
            levels: 0,
        };
    }
    let base = CsrGraph::from_graph(graph);
    let vertex_weights = config.weighting.of(graph);
    let mut parts = vec![0u32; n];
    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    let mut local_of = DenseIndexMap::new();
    recurse(
        &base,
        &vertex_weights,
        nodes,
        config.parts,
        0,
        &mut parts,
        config,
        &mut local_of,
    );
    let levels = (config.parts as f64).log2().ceil() as usize;
    crate::MetisResult { parts, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_cut, metis_partition};

    fn cliques(count: u32, size: u32, bridge: f64) -> CsrGraph {
        let mut edges = Vec::new();
        for c in 0..count {
            let b = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    edges.push((b + i, b + j, 1.0));
                }
            }
            edges.push((b, ((c + 1) % count) * size, bridge));
        }
        CsrGraph::from_edges((count * size) as usize, edges)
    }

    #[test]
    fn bisects_two_cliques() {
        let g = cliques(2, 6, 0.1);
        let r = recursive_bisection_partition(&g, &MetisConfig::new(2));
        for v in 1..6 {
            assert_eq!(r.parts[v], r.parts[0]);
            assert_eq!(r.parts[v + 6], r.parts[6]);
        }
        assert_ne!(r.parts[0], r.parts[6]);
        let cut = edge_cut(&g, &r.parts);
        assert!(cut <= 0.3, "cut {cut}");
    }

    #[test]
    fn handles_odd_k_with_proportional_targets() {
        // 3 equal cliques, k = 3: each part should hold exactly one clique.
        let g = cliques(3, 8, 0.05);
        let mut cfg = MetisConfig::new(3);
        cfg.weighting = crate::VertexWeighting::Unit;
        let r = recursive_bisection_partition(&g, &cfg);
        let mut counts = [0usize; 3];
        for &p in &r.parts {
            assert!((p as usize) < 3);
            counts[p as usize] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 8, "parts must be balanced: {counts:?}");
        }
    }

    #[test]
    fn quality_comparable_to_direct_kway() {
        let g = cliques(8, 6, 0.2);
        let cfg = MetisConfig::new(8);
        let rb = recursive_bisection_partition(&g, &cfg);
        let kw = metis_partition(&g, &cfg);
        // Both should find near-clique partitions; RB within 2× of direct.
        let (rb_cut, kw_cut) = (edge_cut(&g, &rb.parts), edge_cut(&g, &kw.parts));
        assert!(
            rb_cut <= kw_cut * 2.0 + 2.0,
            "RB cut {rb_cut} vs k-way cut {kw_cut}"
        );
    }

    #[test]
    fn deterministic() {
        let g = cliques(4, 5, 0.3);
        let a = recursive_bisection_partition(&g, &MetisConfig::new(4));
        let b = recursive_bisection_partition(&g, &MetisConfig::new(4));
        assert_eq!(a.parts, b.parts);
    }

    #[test]
    fn k_one_and_empty() {
        let g = cliques(2, 4, 0.1);
        let r = recursive_bisection_partition(&g, &MetisConfig::new(1));
        assert!(r.parts.iter().all(|&p| p == 0));
        let empty = CsrGraph::from_edges(0, Vec::new());
        let r = recursive_bisection_partition(&empty, &MetisConfig::new(4));
        assert!(r.parts.is_empty());
    }
}
