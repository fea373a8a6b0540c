//! Cache-free references of the multilevel partitioner, for tests: the
//! grower as a linear frontier scan under the `partial_cmp` orders, the
//! boundary pass as an ordered-map full scan, and the driver's V-cycle
//! built from them. The production kernels must match them byte for byte.

use txallo_graph::{fit_u32, CsrGraph, NodeId, WeightedGraph};

use crate::{
    coarsen, metis_partition, vertex_weights, BALANCE_FACTOR, COARSEN_TARGET, REFINE_PASSES,
};

/// Vertex ids by descending weight, ties toward the smaller id, sorted by
/// a `partial_cmp` chain.
pub(crate) fn reference_heaviest_first(vertex_weights: &[f64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..fit_u32(vertex_weights.len())).collect();
    order.sort_by(|&a, &b| {
        vertex_weights[b as usize]
            .partial_cmp(&vertex_weights[a as usize])
            .expect("finite weights")
            .then(a.cmp(&b))
    });
    order
}

/// The best candidate of a linear scan over `frontier` under the
/// grower's selection rule (largest gain, then gain/strength, then
/// smallest id), skipping entries `live` rejects.
fn scan_best(
    graph: &CsrGraph,
    frontier: &[NodeId],
    gain: &[f64],
    live: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    let mut best: Option<(NodeId, f64, f64)> = None;
    for &u in frontier {
        if !live(u) {
            continue;
        }
        let g = gain[u as usize];
        let ratio = g / graph.strength(u).max(crate::RATIO_FLOOR);
        let better = match best {
            None => true,
            Some((bu, bg, br)) => g > bg || (g == bg && (ratio > br || (ratio == br && u < bu))),
        };
        if better {
            best = Some((u, g, ratio));
        }
    }
    best.map(|(u, _, _)| u)
}

/// Linear-scan reference of the k-way grower: a frontier list with
/// per-node gain and membership, rescanned for every pick. The heap
/// frontier must grow byte-identical partitions.
pub(crate) fn reference_greedy_growing(
    graph: &CsrGraph,
    vertex_weights: &[f64],
    k: usize,
    balance_factor: f64,
) -> Vec<u32> {
    let n = graph.node_count();
    let mut parts = vec![u32::MAX; n];
    let target = vertex_weights.iter().sum::<f64>() / k as f64;
    let cap = target * balance_factor;
    let by_weight = reference_heaviest_first(vertex_weights);
    let mut part_weight = vec![0.0f64; k];
    let mut gain = vec![0.0f64; n];
    let mut in_map = vec![false; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    let absorb = |v: NodeId,
                  parts: &[u32],
                  gain: &mut [f64],
                  in_map: &mut [bool],
                  frontier: &mut Vec<NodeId>| {
        graph.for_each_neighbor(v, |u, w| {
            if parts[u as usize] == u32::MAX {
                gain[u as usize] += w;
                if !in_map[u as usize] {
                    in_map[u as usize] = true;
                    frontier.push(u);
                }
            }
        });
    };
    for part in 0..k as u32 {
        let Some(&seed) = by_weight.iter().find(|&&v| parts[v as usize] == u32::MAX) else {
            break;
        };
        parts[seed as usize] = part;
        part_weight[part as usize] += vertex_weights[seed as usize];
        for &u in &frontier {
            gain[u as usize] = 0.0;
            in_map[u as usize] = false;
        }
        frontier.clear();
        absorb(seed, &parts, &mut gain, &mut in_map, &mut frontier);
        while part_weight[part as usize] < target {
            let live = |u: NodeId| in_map[u as usize] && parts[u as usize] == u32::MAX;
            let Some(u) = scan_best(graph, &frontier, &gain, live) else {
                break;
            };
            in_map[u as usize] = false;
            gain[u as usize] = 0.0;
            if part_weight[part as usize] + vertex_weights[u as usize] > cap {
                continue;
            }
            parts[u as usize] = part;
            part_weight[part as usize] += vertex_weights[u as usize];
            absorb(u, &parts, &mut gain, &mut in_map, &mut frontier);
        }
    }
    for v in 0..n {
        if parts[v] == u32::MAX {
            let lightest = (0..k)
                .min_by(|&a, &b| part_weight[a].partial_cmp(&part_weight[b]).unwrap())
                .unwrap();
            parts[v] = lightest as u32;
            part_weight[lightest] += vertex_weights[v];
        }
    }
    parts
}

/// Ordered-map reference of the boundary pass toward `k` equal shares of
/// the total vertex weight: identical admission rules and tie-breaks,
/// per-part targets, `BTreeMap` gathering. The dense-scratch
/// implementation must produce byte-identical parts.
pub(crate) fn reference_refine(
    graph: &CsrGraph,
    vertex_weights: &[f64],
    parts: &mut [u32],
    k: usize,
    balance_factor: f64,
    max_passes: usize,
) {
    use std::collections::BTreeMap;
    let n = graph.node_count();
    if n == 0 || k <= 1 {
        return;
    }
    let targets = vec![vertex_weights.iter().sum::<f64>() / k as f64; k];
    let caps: Vec<f64> = targets.iter().map(|t| t * balance_factor).collect();
    let floors: Vec<f64> = targets.iter().map(|t| t * (2.0 - balance_factor)).collect();
    let mut part_weight = vec![0.0f64; k];
    for (v, &p) in parts.iter().enumerate() {
        part_weight[p as usize] += vertex_weights[v];
    }
    let mut link: BTreeMap<u32, f64> = BTreeMap::new();
    for _ in 0..max_passes {
        let mut improved = false;
        for v in 0..n as NodeId {
            let from = parts[v as usize];
            link.clear();
            let mut is_boundary = false;
            graph.for_each_neighbor(v, |u, w| {
                let pu = parts[u as usize];
                if pu != from {
                    is_boundary = true;
                }
                *link.entry(pu).or_insert(0.0) += w;
            });
            if !is_boundary {
                continue;
            }
            let w_v = vertex_weights[v as usize];
            let internal = link.get(&from).copied().unwrap_or(0.0);
            let mut best: Option<(u32, f64)> = None;
            for (&to, &external) in &link {
                if to == from {
                    continue;
                }
                let gain = external - internal;
                if gain <= 1e-12 {
                    continue;
                }
                let dest_ok = part_weight[to as usize] + w_v <= caps[to as usize]
                    || part_weight[to as usize] + w_v < part_weight[from as usize];
                if !dest_ok {
                    continue;
                }
                if part_weight[from as usize] - w_v < floors[from as usize]
                    && part_weight[from as usize] <= targets[from as usize]
                {
                    continue;
                }
                match best {
                    Some((bp, bg)) if gain < bg || (gain == bg && to > bp) => {}
                    _ => best = Some((to, gain)),
                }
            }
            if let Some((to, _)) = best {
                parts[v as usize] = to;
                part_weight[from as usize] -= w_v;
                part_weight[to as usize] += w_v;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// The k-way driver (`k ≥ 2`) with the reference kernels: the production
/// coarsening, [`reference_greedy_growing`] on the coarsest level, then
/// [`reference_refine`] on every level: no candidate cache, no idle start
/// and no deactivation.
fn reference_metis_partition(graph: &CsrGraph, k: usize) -> Vec<u32> {
    let floor = COARSEN_TARGET.max(20 * k);
    let mut hierarchy = coarsen(CsrGraph::from_graph(graph), vertex_weights(graph), floor);
    let mut parts = Vec::new();
    let mut coarser: Option<Vec<u32>> = None;
    while let Some(level) = hierarchy.pop() {
        let weights = &level.vertex_weights;
        parts = match coarser {
            Some(map) => map.iter().map(|&c| parts[c as usize]).collect(),
            None => reference_greedy_growing(&level.graph, weights, k, BALANCE_FACTOR),
        };
        reference_refine(
            &level.graph,
            weights,
            &mut parts,
            k,
            BALANCE_FACTOR,
            REFINE_PASSES,
        );
        coarser = level.fine_to_coarse;
    }
    parts
}

/// A seeded hub-and-leaf graph on which coarsening stalls: `body`
/// vertices on a ring with random chords, which heavy-edge matching
/// halves level by level, plus `hubs` hubs, each tied to a few body
/// vertices and to `leaves` leaves of its own; every fifth leaf also
/// links a second, random hub. Matching pairs a hub with at most one
/// leaf, so the leaves stay single, each level shrinks the graph by less,
/// and coarsening stops at its 5% reduction guard with the leaves still
/// there. Edge weights come from {1, 2, 3}, so gains, ratios and strengths
/// tie often.
fn hub_and_leaf_graph(seed: u64, body: usize, hubs: usize, leaves: usize) -> CsrGraph {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3);
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as usize
    };
    let n = body + hubs * (1 + leaves);
    let hub = |h: usize| (body + h * (1 + leaves)) as NodeId;
    let mut edges = Vec::new();
    for v in 0..body {
        let w = (1 + next() % 3) as f64;
        edges.push((v as NodeId, ((v + 1) % body) as NodeId, w));
        if next() % 2 == 0 {
            let u = next() % body;
            let w = (1 + next() % 3) as f64;
            edges.push((v as NodeId, u as NodeId, w));
        }
    }
    for h in 0..hubs {
        for _ in 0..4 {
            let w = (1 + next() % 3) as f64;
            edges.push((hub(h), (next() % body) as NodeId, w));
        }
        for l in 1..=leaves {
            let leaf = hub(h) + l as NodeId;
            edges.push((hub(h), leaf, (1 + next() % 3) as f64));
            if l % 5 == 0 {
                let other = hub(next() % hubs);
                edges.push((other, leaf, (1 + next() % 3) as f64));
            }
        }
    }
    CsrGraph::from_edges(n, edges)
}

/// The k-way driver against the reference V-cycle on graphs whose
/// coarsening stalls after at least three levels, far above the 2,000-node
/// target, so the grower and the boundary pass run on large coarse graphs
/// with many interior rows and many rows no rival part can draw.
#[test]
fn drivers_match_the_reference_v_cycle_on_stalled_hierarchies() {
    for seed in [1u64, 2] {
        let g = hub_and_leaf_graph(seed, 4_000, 24, 110);
        let hierarchy = coarsen(CsrGraph::from_graph(&g), vertex_weights(&g), COARSEN_TARGET);
        let coarsest = hierarchy.last().map_or(0, |level| level.graph.node_count());
        assert!(
            hierarchy.len() >= 3 && coarsest > COARSEN_TARGET,
            "seed {seed}: {} levels, coarsest {coarsest} nodes",
            hierarchy.len()
        );
        for k in [2usize, 5, 20] {
            let kway = metis_partition(&g, k);
            assert_eq!(kway.levels, hierarchy.len(), "seed {seed}, k {k}");
            assert_eq!(
                kway.parts,
                reference_metis_partition(&g, k),
                "k-way, seed {seed}, k {k}"
            );
        }
    }
}
