//! The candidate frontier and the vertex orders of the greedy grower of
//! initial k-way partitioning.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use txallo_graph::{fit_u32, CsrGraph, NodeId, WeightedGraph};

/// Part label of a vertex no region has taken yet.
pub(crate) const UNASSIGNED: u32 = u32::MAX;

/// The grower's integer order key of a non-negative finite `x` (a gain,
/// a gain/strength ratio or a weight). The IEEE 754 bits of such values,
/// read as an unsigned integer, order exactly as the values do, and equal
/// values have equal bits: `-0.0`, the one exception, fails the sign
/// check. So a key order followed by the id is the same strict total
/// order as a `partial_cmp` chain followed by the id.
fn order_key(x: f64) -> u64 {
    debug_assert!(
        x.is_finite() && x.is_sign_positive(),
        "order keys need a non-negative finite value, got {x:?}"
    );
    x.to_bits()
}

/// Vertex ids by descending weight, ties toward the smaller id: the order
/// in which the grower seeds regions. A max-heap, built in linear time and
/// popped lazily, since the grower reads only the seeds it needs.
#[derive(Debug)]
pub(crate) struct HeaviestFirst(BinaryHeap<(u64, Reverse<NodeId>)>);

impl HeaviestFirst {
    /// Every vertex of `vertex_weights`, in seed order.
    pub(crate) fn new(vertex_weights: &[f64]) -> Self {
        let keyed = (0..fit_u32(vertex_weights.len()))
            .map(|v| (order_key(vertex_weights[v as usize]), Reverse(v)));
        Self(keyed.collect())
    }

    /// The next vertex in seed order that `free` accepts. The vertices
    /// passed over leave the order, so `free` may reject only vertices
    /// that are taken for good.
    pub(crate) fn next_free(&mut self, free: impl Fn(NodeId) -> bool) -> Option<NodeId> {
        while let Some((_, Reverse(v))) = self.0.pop() {
            if free(v) {
                return Some(v);
            }
        }
        None
    }
}

/// The part of least weight, ties toward the smaller id: where the grower
/// sweeps a vertex no region reached.
pub(crate) fn lightest_part(part_weight: &[f64]) -> usize {
    (1..part_weight.len()).fold(0, |lightest, p| {
        if order_key(part_weight[p]) < order_key(part_weight[lightest]) {
            p
        } else {
            lightest
        }
    })
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
}

/// A heap entry: the order keys of a member's gain and gain/strength
/// ratio when pushed, then its id reversed, so the max-heap pops the
/// largest gain, then the largest ratio, then the smallest id.
type Candidate = (u64, u64, Reverse<NodeId>);

/// The heap entry of member `node` at `gain` and `ratio`.
fn candidate(gain: f64, ratio: f64, node: NodeId) -> Candidate {
    (order_key(gain), order_key(ratio), Reverse(node))
}

impl GrowFrontier {
    /// An empty frontier over `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            gain: vec![0.0; n],
            member: vec![false; n],
            heap: BinaryHeap::new(),
        }
    }

    /// Adds `v`'s edges to the region: each unassigned neighbor gains the
    /// edge weight and becomes a member.
    pub(crate) fn absorb(&mut self, graph: &CsrGraph, parts: &[u32], v: NodeId) {
        graph.for_each_neighbor(v, |u, w| {
            let i = u as usize;
            if parts[i] != UNASSIGNED {
                return;
            }
            self.gain[i] += w;
            self.member[i] = true;
            let gain = self.gain[i];
            let ratio = gain / graph.strength(u).max(crate::RATIO_FLOOR);
            self.heap.push(candidate(gain, ratio, u));
        });
    }

    /// Removes the best member from the frontier and returns it; its gain
    /// resets, so a later [`GrowFrontier::absorb`] re-enters it afresh.
    pub(crate) fn pop(&mut self, parts: &[u32]) -> Option<NodeId> {
        while let Some((gain, _, Reverse(node))) = self.heap.pop() {
            let i = node as usize;
            if self.member[i] && parts[i] == UNASSIGNED && self.gain[i].to_bits() == gain {
                self.member[i] = false;
                self.gain[i] = 0.0;
                return Some(node);
            }
        }
        None
    }

    /// Empties the frontier: every member (each holds the entry of its
    /// last gain change) leaves with zero gain.
    pub(crate) fn clear(&mut self) {
        for (_, _, Reverse(node)) in self.heap.drain() {
            self.member[node as usize] = false;
            self.gain[node as usize] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_growing_partition;
    use crate::tests::reference::{reference_greedy_growing, reference_heaviest_first};
    use crate::{RATIO_FLOOR, STRENGTH_FLOOR};
    use std::cmp::Ordering;

    /// Non-negative finite values on which the integer keys must order as
    /// the `partial_cmp` comparators did: zero, subnormals, neighbors one
    /// ulp apart, the two floors, and ordinary and extreme magnitudes.
    fn crafted_values() -> Vec<f64> {
        let subnormal_min = f64::from_bits(1);
        vec![
            0.0,
            subnormal_min,
            subnormal_min.next_up(),
            f64::MIN_POSITIVE.next_down(),
            f64::MIN_POSITIVE,
            RATIO_FLOOR,
            STRENGTH_FLOOR.next_down(),
            STRENGTH_FLOOR,
            STRENGTH_FLOOR.next_up(),
            0.5,
            1.0f64.next_down(),
            1.0,
            1.0f64.next_up(),
            3.0,
            1e300,
            f64::MAX,
        ]
    }

    /// The heap's order before integer keys: a `partial_cmp` chain over the
    /// gain, then the ratio, then the id reversed.
    fn partial_cmp_order(a: (f64, f64, NodeId), b: (f64, f64, NodeId)) -> Ordering {
        let by = |x: f64, y: f64| x.partial_cmp(&y).unwrap_or(Ordering::Equal);
        by(a.0, b.0).then(by(a.1, b.1)).then(b.2.cmp(&a.2))
    }

    /// The three integer-keyed orders against the `partial_cmp`
    /// comparators they replace. The heap entries range over every pair of
    /// crafted gains, ratios and ids, so they include equal gains with
    /// different ratios, equal keys with different ids, last-ulp
    /// differences and subnormal gains; the seed order and the leftover
    /// sweep see weights at `STRENGTH_FLOOR` and its neighbors, tied and
    /// not.
    #[test]
    fn integer_keys_order_as_the_partial_cmp_comparators() {
        let values = crafted_values();
        for &(ga, gb) in &pairs(&values) {
            for &(ra, rb) in &pairs(&values) {
                for (ia, ib) in [(2, 9), (9, 2), (4, 4)] {
                    assert_eq!(
                        candidate(ga, ra, ia).cmp(&candidate(gb, rb, ib)),
                        partial_cmp_order((ga, ra, ia), (gb, rb, ib)),
                        "gains {ga:e} / {gb:e}, ratios {ra:e} / {rb:e}, ids {ia} / {ib}"
                    );
                }
            }
        }

        let mut weights: Vec<f64> = values.iter().chain(values.iter().rev()).copied().collect();
        weights.extend([STRENGTH_FLOOR; 4]);
        let mut seeds = HeaviestFirst::new(&weights);
        let order: Vec<NodeId> = std::iter::from_fn(|| seeds.next_free(|_| true)).collect();
        assert_eq!(order, reference_heaviest_first(&weights));

        for &a in &values {
            for &(b, c) in &pairs(&values) {
                let part_weight = [a, b, c];
                let old = (0..3)
                    .min_by(|&x, &y| part_weight[x].partial_cmp(&part_weight[y]).unwrap())
                    .unwrap();
                assert_eq!(lightest_part(&part_weight), old, "{part_weight:?}");
            }
        }
    }

    /// Every ordered pair of `values`, ties included.
    fn pairs(values: &[f64]) -> Vec<(f64, f64)> {
        values
            .iter()
            .flat_map(|&a| values.iter().map(move |&b| (a, b)))
            .collect()
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
                    }
                }
            }
        }
    }
}
