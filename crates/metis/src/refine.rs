//! Boundary FM refinement and the edge-cut objective.

use txallo_graph::{fit_u32, CsrGraph, DenseAccumulator, SweepCache, WeightedGraph};

/// Minimum cut improvement for an FM move to count as a gain. A
/// magnitude floor against float dust from the link accumulator, not a
/// tie-break tolerance; the value is preserved exactly — raising it
/// changes which moves fire and therefore the refined partitions.
const FM_GAIN_MIN: f64 = 1e-12;

/// Total weight of edges whose endpoints lie in different parts.
pub fn edge_cut(graph: &CsrGraph, parts: &[u32]) -> f64 {
    let mut cut = 0.0;
    for v in 0..fit_u32(graph.node_count()) {
        graph.for_each_neighbor(v, |u, w| {
            if v < u && parts[v as usize] != parts[u as usize] {
                cut += w;
            }
        });
    }
    cut
}

/// Work counters of FM refinement: one call's, or a partition run's summed
/// over its levels ([`crate::MetisResult::fm`]).
/// Deterministic, so goldens pin them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FmWork {
    /// Rows whose per-part links were gathered from the graph.
    pub rows_gathered: u64,
    /// Rows whose move decision was evaluated from their links.
    pub rows_evaluated: u64,
}

impl std::ops::AddAssign for FmWork {
    fn add_assign(&mut self, other: Self) {
        self.rows_gathered += other.rows_gathered;
        self.rows_evaluated += other.rows_evaluated;
    }
}

/// Simplified boundary Fiduccia–Mattheyses refinement toward `k` parts of
/// equal vertex weight: the per-part target is `total / k`. Returns its
/// work counters.
///
/// Each pass sweeps the boundary vertices in ascending id order and greedily
/// moves a vertex to the adjacent part with the largest positive cut
/// reduction, subject to the balance constraint (`target × balance_factor`
/// cap on the destination, and the source must not become "too empty" —
/// below `target × (2 − balance_factor)` — unless it is over target).
/// Passes repeat until no move improves the cut or `max_passes` is reached.
///
/// This forgoes the full FM gain-bucket/rollback machinery; for the graph
/// sizes the blockchain baseline works on, greedy boundary passes converge
/// to comparable cuts and stay deterministic.
pub fn fm_refine(
    graph: &CsrGraph,
    vertex_weights: &[f64],
    parts: &mut [u32],
    k: usize,
    balance_factor: f64,
    max_passes: usize,
) -> FmWork {
    let mut interior = Vec::new();
    refine(
        graph,
        vertex_weights,
        parts,
        k,
        balance_factor,
        max_passes,
        &mut interior,
    )
}

/// [`fm_refine`] with the V-cycle's hand-off of interior rows (every
/// neighbor in the row's own part). On entry, a row flagged in `interior`
/// (empty: none) must be interior: it starts outside the active set, since
/// visiting it could only gather it and drop it again. On return,
/// `interior` has one flag per row, and a flagged row is interior under
/// the refined parts. When the passes converge, the flags mark exactly the
/// interior rows.
pub(crate) fn refine(
    graph: &CsrGraph,
    vertex_weights: &[f64],
    parts: &mut [u32],
    k: usize,
    balance_factor: f64,
    max_passes: usize,
    interior: &mut Vec<bool>,
) -> FmWork {
    let n = graph.node_count();
    let mut work = FmWork::default();
    if n == 0 || k <= 1 {
        interior.clear();
        return work;
    }
    let target = vertex_weights.iter().sum::<f64>() / k as f64;
    let mut part_weight = part_weights(parts, vertex_weights, k);

    // Incremental boundary passes on the shared `SweepCache`, parts as
    // buckets. A vertex's decision reads its per-part links (stale only
    // once a neighbor moves) and the weights of its own and listed parts
    // (changed only by moves touching them). So gathers are cached until a
    // neighbor moves, a fresh vertex whose parts are untouched since its
    // last evaluation is skipped, and a vertex sits out until a neighbor's
    // move when it is interior or no rival part offers it a positive gain:
    // its gains read only its links, and the balance rule only filters
    // positive-gain moves. Each pass visits the active vertices in
    // ascending id order, so the move sequence is the full scan's, byte
    // for byte.
    let mut cache = SweepCache::new(k, (0..fit_u32(n)).map(|v| graph.neighbor_count(v)));
    // A flag is set only by an evaluation that found no rival part and is
    // cleared by every neighbor move. A flagged row is inactive, so no
    // evaluation meets one.
    interior.resize(n, false);
    for r in (0..n).filter(|&r| interior[r]) {
        cache.deactivate(r);
    }
    let mut link = DenseAccumulator::new();
    for _ in 0..max_passes {
        let mut improved = false;
        let mut next = 0;
        while let Some(vi) = cache.next_active(next) {
            next = vi + 1;
            let v = fit_u32(vi);
            let from = parts[vi];
            if cache.is_stale(vi) {
                work.rows_gathered += 1;
                link.begin(k);
                graph.for_each_neighbor(v, |u, w| link.add(parts[u as usize], w));
                // Candidate destinations in ascending part order (determinism).
                link.sort_touched();
                cache.store(vi, link.entries());
            } else if cache.unchanged_since_eval(vi, from) {
                continue;
            }
            work.rows_evaluated += 1;
            let Some(entries) = cache.evaluate(vi, from) else {
                interior[vi] = true; // No neighbor in another part.
                continue;
            };
            let w_v = vertex_weights[vi];
            match best_move(entries, from, w_v, &part_weight, target, balance_factor) {
                Decision::Move(to) => {
                    parts[vi] = to;
                    part_weight[from as usize] -= w_v;
                    part_weight[to as usize] += w_v;
                    improved = true;
                    cache.commit_move(from, to);
                    graph.for_each_neighbor(v, |u, w| {
                        cache.invalidate(u as usize, w);
                        interior[u as usize] = false;
                    });
                }
                Decision::Held => {}
                Decision::Stuck => cache.deactivate(vi),
            }
        }
        if !improved {
            break;
        }
    }
    work
}

/// Vertex weight per part.
fn part_weights(parts: &[u32], vertex_weights: &[f64], k: usize) -> Vec<f64> {
    let mut part_weight = vec![0.0f64; k];
    for (v, &p) in parts.iter().enumerate() {
        part_weight[p as usize] += vertex_weights[v];
    }
    part_weight
}

/// The boundary pass's decision for one vertex.
#[derive(Debug, Clone, Copy)]
enum Decision {
    /// Move to this part.
    Move(u32),
    /// A rival part offers a cut reduction above [`FM_GAIN_MIN`], but the
    /// balance rule admits none of them now.
    Held,
    /// No rival part offers a cut reduction above [`FM_GAIN_MIN`]: the
    /// vertex cannot move until a neighbor's move changes its links.
    Stuck,
}

/// The boundary pass's decision for one vertex of weight `w_v` in part
/// `from`, given its `(part, link weight)` entries ascending by part: the
/// destination with the largest cut reduction above [`FM_GAIN_MIN`] that
/// the balance rule around the per-part `target` admits, ties toward the
/// smaller part id.
fn best_move(
    entries: &[(u32, f64)],
    from: u32,
    w_v: f64,
    part_weight: &[f64],
    target: f64,
    balance_factor: f64,
) -> Decision {
    let internal = entries.iter().find(|e| e.0 == from).map_or(0.0, |e| e.1);
    let mut rival = false;
    let mut best: Option<(u32, f64)> = None;
    for &(to, external) in entries {
        if to == from {
            continue;
        }
        let gain = external - internal;
        if gain <= FM_GAIN_MIN {
            continue;
        }
        rival = true;
        // A move is admissible if the destination stays within the cap, or
        // if it still strictly improves the balance (moving from a heavier
        // to a lighter part) — the escape hatch that keeps refinement live
        // when parts sit exactly at the cap.
        let dest_ok = part_weight[to as usize] + w_v <= target * balance_factor
            || part_weight[to as usize] + w_v < part_weight[from as usize];
        if !dest_ok {
            continue;
        }
        // The source must not drop below `target × (2 − balance_factor)`
        // unless it is over target.
        if part_weight[from as usize] - w_v < target * (2.0 - balance_factor)
            && part_weight[from as usize] <= target
        {
            continue;
        }
        match best {
            Some((bp, bg)) if gain < bg || (gain == bg && to > bp) => {}
            _ => best = Some((to, gain)),
        }
    }
    match best {
        Some((to, _)) => Decision::Move(to),
        None if rival => Decision::Held,
        None => Decision::Stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::reference::reference_refine;
    use txallo_graph::NodeId;

    fn two_cliques_graph() -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b, 1.0));
                edges.push((a + 4, b + 4, 1.0));
            }
        }
        edges.push((0, 4, 0.1));
        CsrGraph::from_edges(8, edges)
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = CsrGraph::from_edges(4, vec![(0u32, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)]);
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 3.0);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0.0);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 9.0);
    }

    #[test]
    fn refine_fixes_a_bad_bisection() {
        let g = two_cliques_graph();
        // Start with one node on the wrong side.
        let mut parts = vec![0, 0, 0, 1, 1, 1, 1, 0];
        let before = edge_cut(&g, &parts);
        fm_refine(&g, &[1.0; 8], &mut parts, 2, 1.3, 8);
        let after = edge_cut(&g, &parts);
        assert!(
            after < before,
            "refinement must reduce cut: {before} -> {after}"
        );
        assert!(
            (after - 0.1).abs() < 1e-9,
            "optimal cut is the bridge, got {after}"
        );
    }

    #[test]
    fn refine_respects_capacity() {
        // Star: center 0 + 6 leaves; k=2 with tight balance. Refinement must
        // not dump everything into one part.
        let edges: Vec<_> = (1..7u32).map(|v| (0u32, v, 1.0)).collect();
        let g = CsrGraph::from_edges(7, edges);
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1];
        fm_refine(&g, &[1.0; 7], &mut parts, 2, 1.2, 8);
        let heavy = parts.iter().filter(|&&p| p == 0).count();
        assert!(heavy <= 5, "balance cap violated: {parts:?}");
    }

    #[test]
    fn refine_is_deterministic_and_terminates() {
        let g = two_cliques_graph();
        let mut p1 = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut p2 = p1.clone();
        fm_refine(&g, &[1.0; 8], &mut p1, 2, 1.3, 50);
        fm_refine(&g, &[1.0; 8], &mut p2, 2, 1.3, 50);
        assert_eq!(p1, p2);
    }

    /// A seeded random instance for the cached boundary pass: `n` vertices
    /// on a ring (so an early vertex's neighbor can sit far ahead of it)
    /// plus random chords, edge weights from {0.5, 1, 1.5, 2}, vertex
    /// weights from {1, 2, 3}, and a random start over `k` parts.
    fn random_instance(n: usize, k: usize, seed: u64) -> (CsrGraph, Vec<f64>, Vec<u32>) {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize
        };
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push((v as NodeId, ((v + 1) % n) as NodeId, 1.0));
            for _ in 0..2 {
                let u = next() % n;
                if u != v {
                    edges.push((v as NodeId, u as NodeId, 0.5 * (1 + next() % 4) as f64));
                }
            }
        }
        let weights = (0..n).map(|_| (1 + next() % 3) as f64).collect();
        let start = (0..n).map(|_| (next() % k) as u32).collect();
        (CsrGraph::from_edges(n, edges), weights, start)
    }

    /// The cached boundary pass against the ordered-map full scan. Beyond
    /// the community instance, the random instances run several passes
    /// under tight balance factors, where the caps and floors reject
    /// positive-gain moves (so a fresh row's skip must track the part
    /// weights its decision reads), and where a move re-activates a row
    /// behind the cursor that must move in the next pass.
    #[test]
    fn dense_refine_matches_ordered_map_reference_byte_for_byte() {
        // A messy multi-part instance: 4 communities, noisy chords, varied
        // vertex weights, deliberately bad starting partition.
        let mut edges = Vec::new();
        for c in 0..4u32 {
            let b = c * 10;
            for i in 0..10 {
                for j in (i + 1)..10 {
                    if (i + j) % 3 != 0 {
                        edges.push((b + i, b + j, 1.0 + (i as f64) * 0.1));
                    }
                }
            }
            edges.push((b, ((c + 1) % 4) * 10 + 3, 0.7));
            edges.push((b + 5, ((c + 2) % 4) * 10 + 1, 0.3));
        }
        let g = CsrGraph::from_edges(40, edges);
        let weights: Vec<f64> = (0..40).map(|v| 1.0 + (v % 5) as f64 * 0.25).collect();
        let start: Vec<u32> = (0..40).map(|v| (v % 4) as u32).collect();
        let mut instances = vec![(g, weights, start, 4, 1.1)];
        for seed in 0..24u64 {
            let k = [2usize, 3, 5, 8][seed as usize % 4];
            let (g, weights, start) = random_instance(30 + 7 * seed as usize, k, seed);
            for bf in [1.0, 1.03, 1.1, 1.5] {
                instances.push((g.clone(), weights.clone(), start.clone(), k, bf));
            }
        }
        for (i, (g, weights, start, k, bf)) in instances.into_iter().enumerate() {
            let mut dense = start.clone();
            fm_refine(&g, &weights, &mut dense, k, bf, 12);
            let mut reference = start;
            reference_refine(&g, &weights, &mut reference, k, bf, 12);
            assert_eq!(dense, reference, "instance {i}: cached pass diverged");
        }
    }

    /// Degenerate shapes are no-ops: an empty graph, and a single part
    /// (no destination to move to).
    #[test]
    fn refine_degenerate_shapes_are_noops() {
        let empty = CsrGraph::from_edges(0, Vec::<(NodeId, NodeId, f64)>::new());
        fm_refine(&empty, &[], &mut [], 2, 1.1, 4);
        let (g, weights, start) = random_instance(30, 4, 1);
        let mut one_part = start.clone();
        fm_refine(&g, &weights, &mut one_part, 1, 1.1, 4);
        assert_eq!(one_part, start);
    }
}
