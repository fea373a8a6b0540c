//! The candidate frontier of the two greedy growers: initial k-way
//! partitioning and bisection seeding.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use txallo_graph::{fit_u32, CsrGraph, NodeId, WeightedGraph};

/// Vertex ids by descending weight, ties toward the smaller id: the order
/// in which the growers seed regions.
pub(crate) fn heaviest_first(vertex_weights: &[f64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..fit_u32(vertex_weights.len())).collect();
    order.sort_unstable_by(|&a, &b| {
        vertex_weights[b as usize]
            .partial_cmp(&vertex_weights[a as usize])
            .expect("finite weights") // txallo-lint: allow(lib-unwrap) — vertex weights are finite strengths (floored positive), so partial_cmp is total
            .then(a.cmp(&b))
    });
    order
}

/// The unassigned vertices adjacent to a growing region, each with its
/// gain: its total edge weight into the region.
///
/// [`GrowFrontier::pop`] takes the member with the largest gain; ties
/// prefer the node whose gain is the largest fraction of its strength (an
/// "absorption" preference that keeps the region from leaking across weak
/// bridge edges into foreign clusters), then the smallest id. The members
/// sit in a binary heap under that strict total order: every gain change
/// pushes a fresh entry, and superseded entries are dropped lazily. An
/// entry is live only while its node is still a member, still unassigned,
/// and its gain has the same bits as the node's current gain, so the first
/// live entry popped is exactly the member a scan of the whole frontier
/// would choose, at O(log E) instead of O(|frontier|) a pick.
#[derive(Debug)]
pub(crate) struct GrowFrontier {
    gain: Vec<f64>,
    member: Vec<bool>,
    heap: BinaryHeap<Candidate>,
    unassigned: u32,
}

/// A heap entry: a member's gain and gain/strength ratio when pushed.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    gain: f64,
    ratio: f64,
    node: NodeId,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Gains and ratios are finite (sums of finite edge weights), so
        // `partial_cmp` is total; equal values fall through to the id.
        let by = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(Ordering::Equal);
        by(self.gain, other.gain)
            .then(by(self.ratio, other.ratio))
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl GrowFrontier {
    /// An empty frontier over `n` vertices; `parts[v] == unassigned` marks
    /// a vertex no region has taken yet.
    pub(crate) fn new(n: usize, unassigned: u32) -> Self {
        Self {
            gain: vec![0.0; n],
            member: vec![false; n],
            heap: BinaryHeap::new(),
            unassigned,
        }
    }

    /// Adds `v`'s edges to the region: each unassigned neighbor gains the
    /// edge weight and becomes a member.
    pub(crate) fn absorb(&mut self, graph: &CsrGraph, parts: &[u32], v: NodeId) {
        graph.for_each_neighbor(v, |u, w| {
            let i = u as usize;
            if parts[i] != self.unassigned {
                return;
            }
            self.gain[i] += w;
            self.member[i] = true;
            let gain = self.gain[i];
            self.heap.push(Candidate {
                gain,
                ratio: gain / graph.strength(u).max(crate::RATIO_FLOOR),
                node: u,
            });
        });
    }

    /// Removes the best member from the frontier and returns it; its gain
    /// resets, so a later [`GrowFrontier::absorb`] re-enters it afresh.
    pub(crate) fn pop(&mut self, parts: &[u32]) -> Option<NodeId> {
        while let Some(c) = self.heap.pop() {
            let i = c.node as usize;
            if self.member[i]
                && parts[i] == self.unassigned
                && self.gain[i].to_bits() == c.gain.to_bits()
            {
                self.member[i] = false;
                self.gain[i] = 0.0;
                return Some(c.node);
            }
        }
        None
    }

    /// Empties the frontier: every member (each holds the entry of its
    /// last gain change) leaves with zero gain.
    pub(crate) fn clear(&mut self) {
        for c in self.heap.drain() {
            self.member[c.node as usize] = false;
            self.gain[c.node as usize] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisection::grow_bisection;
    use crate::greedy_growing_partition;

    /// The best candidate of a linear scan over `frontier` under the
    /// growers' selection rule (largest gain, then gain/strength, then
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
                Some((bu, bg, br)) => {
                    g > bg || (g == bg && (ratio > br || (ratio == br && u < bu)))
                }
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
    fn reference_greedy_growing(
        graph: &CsrGraph,
        vertex_weights: &[f64],
        k: usize,
        balance_factor: f64,
    ) -> Vec<u32> {
        let n = graph.node_count();
        let mut parts = vec![u32::MAX; n];
        let target = vertex_weights.iter().sum::<f64>() / k as f64;
        let cap = target * balance_factor;
        let by_weight = heaviest_first(vertex_weights);
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

    /// Linear-scan reference of the bisection grower: membership is never
    /// reset, and a dry frontier pulls the next heaviest unassigned vertex.
    fn reference_grow_bisection(graph: &CsrGraph, vertex_weights: &[f64], frac: f64) -> Vec<u32> {
        let n = graph.node_count();
        let mut parts = vec![1u32; n];
        let target = vertex_weights.iter().sum::<f64>() * frac;
        let by_weight = heaviest_first(vertex_weights);
        let mut gain = vec![0.0f64; n];
        let mut in_frontier = vec![false; n];
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut next = by_weight[0];
        let mut region_weight = 0.0;
        let mut cursor = 1usize;
        loop {
            parts[next as usize] = 0;
            region_weight += vertex_weights[next as usize];
            graph.for_each_neighbor(next, |u, w| {
                if parts[u as usize] == 1 {
                    gain[u as usize] += w;
                    if !in_frontier[u as usize] {
                        in_frontier[u as usize] = true;
                        frontier.push(u);
                    }
                }
            });
            if region_weight >= target {
                break;
            }
            next = match scan_best(graph, &frontier, &gain, |u| parts[u as usize] == 1) {
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
        }
        parts
    }

    /// A seeded graph of `n` vertices in `components` disconnected blocks:
    /// sparse chords with weights from {1, 2, 3}, so gains, ratios and
    /// strengths tie often, plus one hub per block linked to every vertex
    /// of its block. Vertex weights are from {1, 2} (ties in the seed
    /// order) except the hubs', set by `hub_share` of the mean part target
    /// for `k` parts: heavy enough that the region growing around a hub's
    /// leaves pops the hub, finds it over the cap, and later re-enters it.
    fn tie_graph(
        n: usize,
        components: usize,
        seed: u64,
        k: usize,
        hub_share: f64,
    ) -> (CsrGraph, Vec<f64>) {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        let block = n / components;
        let mut edges = Vec::new();
        for c in 0..components {
            let lo = c * block;
            let len = if c + 1 == components { n - lo } else { block };
            for i in 1..len {
                edges.push((lo as NodeId, (lo + i) as NodeId, 1.0));
                for _ in 0..2 {
                    let j = next() as usize % len;
                    if j != i {
                        let w = 1.0 + (next() % 3) as f64;
                        edges.push(((lo + i) as NodeId, (lo + j) as NodeId, w));
                    }
                }
            }
        }
        let mut weights: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 2) as f64).collect();
        let target = weights.iter().sum::<f64>() / k as f64;
        for c in 0..components {
            weights[c * block] = hub_share * target;
        }
        (CsrGraph::from_edges(n, edges), weights)
    }

    #[test]
    fn heap_growers_match_the_linear_scan_references_byte_for_byte() {
        for seed in 0..12u64 {
            for components in [1usize, 4] {
                for k in [2usize, 3, 7, 20] {
                    for hub_share in [0.0, 0.6, 0.95] {
                        let n = 60 + 13 * seed as usize;
                        let (g, w) = tie_graph(n, components, seed, k, hub_share);
                        let case =
                            format!("seed {seed}, {components} blocks, k {k}, hub {hub_share}");
                        for bf in [1.0, 1.05, 1.3] {
                            assert_eq!(
                                greedy_growing_partition(&g, &w, k, bf),
                                reference_greedy_growing(&g, &w, k, bf),
                                "k-way, {case}, balance {bf}"
                            );
                        }
                        let frac = k.div_ceil(2) as f64 / k as f64;
                        assert_eq!(
                            grow_bisection(&g, &w, frac),
                            reference_grow_bisection(&g, &w, frac),
                            "bisection, {case}"
                        );
                    }
                }
            }
        }
    }
}
