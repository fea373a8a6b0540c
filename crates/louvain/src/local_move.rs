//! The local-moving phase of Louvain.

use txallo_graph::{fit_u32, DenseAccumulator, SweepCache, WeightedGraph};

use crate::{GAIN_EPS, MAX_SWEEPS};

/// Result of repeated local-moving sweeps on one level.
#[derive(Debug, Clone)]
pub struct LocalMoveOutcome {
    /// Community label per node of this level's graph.
    pub communities: Vec<u32>,
    /// Whether any node changed community (drives level termination).
    pub moved_any: bool,
    /// Number of sweeps executed.
    pub sweeps: usize,
}

/// Runs local-moving sweeps until a sweep makes no move (or limits hit).
///
/// Each node starts in its own singleton community. For node `v`, the gain
/// of moving the (isolated) node into community `c` is the standard Louvain
/// delta of classic modularity: `ΔQ = w(v→c)/m − Σ_tot(c)·k_v/(2m²)`. The node joins the
/// neighboring community maximizing the gain; staying put wins ties, and
/// among equal-gain candidates the smallest community id wins (see
/// [`GAIN_EPS`] for the exact tie contract).
///
/// Link weights toward neighboring communities are gathered into a dense
/// [`DenseAccumulator`] indexed by community id — no hashing, no per-node
/// allocation; only the touched-list (the node's distinct neighboring
/// communities) is sorted to fix the deterministic candidate order.
pub fn local_moving_pass(graph: &impl WeightedGraph) -> LocalMoveOutcome {
    let n = graph.node_count();
    let m = graph.total_weight();
    let mut communities: Vec<u32> = (0..n as u32).collect();
    if n == 0 || m <= 0.0 {
        return LocalMoveOutcome {
            communities,
            moved_any: false,
            sweeps: 0,
        };
    }

    // Per-node strengths, gathered once — `k_v` is read on every candidate
    // evaluation of every sweep, so it lives in a flat array instead of
    // going through the graph accessor each time (same values bit-for-bit;
    // the initial Σ_tot per community is the same array copied, since every
    // node starts in its own singleton community).
    let strength: Vec<f64> = (0..fit_u32(n)).map(|v| graph.strength(v)).collect();
    // Σ_tot per community (strengths, self-loops twice).
    let mut sigma_tot: Vec<f64> = strength.clone();
    let mut moved_any = false;
    let mut sweeps = 0usize;

    // Workhorse scratch: weight from v to each neighboring community.
    let mut link = DenseAccumulator::new();

    // Incremental-sweep machinery (shared with the G-TxAllo optimization
    // phase, see `SweepCache`): a node's decision depends only on (a) its
    // per-community link weights — which change when a *neighbor* moves —
    // and (b) `sigma_tot` of its candidate communities and its own. The
    // expensive gather (a) is cached per node and reused verbatim until a
    // neighbor moves; the gains (b) are recomputed against fresh
    // `sigma_tot` every visit. When both inputs are untouched since the
    // node's last evaluation the node is skipped outright — re-evaluating
    // would provably repeat the previous no-move — and a node whose only
    // candidate is its own community sits out of the sweep until a
    // neighbor moves. Evaluations are pure (`sigma_tot` is only written
    // when a move commits; the seed's `-= k_v … += k_v` round-trip is gone
    // because float subtraction does not exactly invert addition), so all
    // reuse is bit-exact.
    let mut cache = SweepCache::new(n, (0..fit_u32(n)).map(|v| graph.neighbor_count(v)));

    for _ in 0..MAX_SWEEPS {
        sweeps += 1;
        let mut moved_this_sweep = false;

        let mut next = 0;
        while let Some(vi) = cache.next_active(next) {
            next = vi + 1;
            let v = fit_u32(vi);
            let current = communities[vi];
            if cache.is_stale(vi) {
                link.begin(n);
                graph.for_each_neighbor(v, |u, w| {
                    link.add(communities[u as usize], w);
                });
                // Deterministic candidate order: ascending community id.
                link.sort_touched();
                cache.store(vi, link.entries());
            } else if cache.unchanged_since_eval(vi, current) {
                continue; // Inputs unchanged: evaluation would no-op.
            }
            let Some(cand) = cache.evaluate(vi, current) else {
                continue; // No rival community: staying put is the only option.
            };

            let k_v = strength[vi];
            // Evaluate with v removed from its community.
            let sig_cur = sigma_tot[current as usize] - k_v;
            let w_current = cand
                .iter()
                .find(|&&(c, _)| c == current)
                .map_or(0.0, |&(_, w)| w);
            let gain_stay = w_current / m - sig_cur * k_v / (2.0 * m * m);

            let mut best_comm = current;
            let mut best_gain = gain_stay;
            for &(c, w_vc) in cand {
                if c == current {
                    continue;
                }
                let gain = w_vc / m - sigma_tot[c as usize] * k_v / (2.0 * m * m);
                if gain > best_gain + GAIN_EPS {
                    best_gain = gain;
                    best_comm = c;
                }
            }

            if best_comm != current {
                sigma_tot[current as usize] = sig_cur;
                sigma_tot[best_comm as usize] += k_v;
                communities[vi] = best_comm;
                moved_this_sweep = true;
                moved_any = true;
                cache.commit_move(current, best_comm);
                graph.for_each_neighbor(v, |u, w| cache.invalidate(u as usize, w));
            }
        }

        if !moved_this_sweep {
            break;
        }
    }

    LocalMoveOutcome {
        communities,
        moved_any,
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use txallo_graph::{CsrGraph, NodeId};

    #[test]
    fn merges_a_triangle() {
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let out = local_moving_pass(&g);
        assert!(out.moved_any);
        assert_eq!(out.communities[0], out.communities[1]);
        assert_eq!(out.communities[1], out.communities[2]);
    }

    #[test]
    fn keeps_disconnected_nodes_apart() {
        let g = CsrGraph::from_edges(4, vec![(0u32, 1, 1.0), (2, 3, 1.0)]);
        let out = local_moving_pass(&g);
        assert_eq!(out.communities[0], out.communities[1]);
        assert_eq!(out.communities[2], out.communities[3]);
        assert_ne!(out.communities[0], out.communities[2]);
    }

    #[test]
    fn no_move_on_empty_graph() {
        let g = CsrGraph::from_edges(0, Vec::new());
        let out = local_moving_pass(&g);
        assert!(!out.moved_any);
        assert!(out.communities.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut edges = Vec::new();
        for a in 0..20u32 {
            edges.push((a, (a + 1) % 20, 1.0));
            edges.push((a, (a + 2) % 20, 0.5));
        }
        let g = CsrGraph::from_edges(20, edges);
        let a = local_moving_pass(&g);
        let b = local_moving_pass(&g);
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.sweeps, b.sweeps);
    }

    /// Reference re-implementation of the seed's map gather: collect
    /// per-community weights into an ordered map, evaluate the candidates
    /// in ascending community order, and every node every sweep (no
    /// incremental skipping). The
    /// dense-scratch pass must produce byte-identical labels — this pins
    /// down both the dense gather and the exactness of the stamp-based
    /// node skipping.
    fn reference_local_moving(graph: &impl WeightedGraph) -> LocalMoveOutcome {
        let n = graph.node_count();
        let m = graph.total_weight();
        let mut communities: Vec<u32> = (0..n as u32).collect();
        if n == 0 || m <= 0.0 {
            return LocalMoveOutcome {
                communities,
                moved_any: false,
                sweeps: 0,
            };
        }
        let mut sigma_tot: Vec<f64> = (0..n as NodeId).map(|v| graph.strength(v)).collect();
        let mut moved_any = false;
        let mut sweeps = 0usize;
        let mut link_weight: BTreeMap<u32, f64> = BTreeMap::new();
        for _ in 0..MAX_SWEEPS {
            sweeps += 1;
            let mut moved_this_sweep = false;
            for v in 0..n as NodeId {
                let k_v = graph.strength(v);
                let current = communities[v as usize];
                link_weight.clear();
                graph.for_each_neighbor(v, |u, w| {
                    *link_weight.entry(communities[u as usize]).or_insert(0.0) += w;
                });
                let sig_cur = sigma_tot[current as usize] - k_v;
                let w_current = link_weight.get(&current).copied().unwrap_or(0.0);
                let gain_stay = w_current / m - sig_cur * k_v / (2.0 * m * m);
                let mut best_comm = current;
                let mut best_gain = gain_stay;
                for (&c, &w_vc) in &link_weight {
                    if c == current {
                        continue;
                    }
                    let gain = w_vc / m - sigma_tot[c as usize] * k_v / (2.0 * m * m);
                    if gain > best_gain + GAIN_EPS {
                        best_gain = gain;
                        best_comm = c;
                    }
                }
                if best_comm != current {
                    sigma_tot[current as usize] = sig_cur;
                    sigma_tot[best_comm as usize] += k_v;
                    communities[v as usize] = best_comm;
                    moved_this_sweep = true;
                    moved_any = true;
                }
            }
            if !moved_this_sweep {
                break;
            }
        }
        LocalMoveOutcome {
            communities,
            moved_any,
            sweeps,
        }
    }

    /// A messy graph: ring + chords + self-loops + heavy hubs.
    fn messy_graph() -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..60u32 {
            edges.push((a, (a + 1) % 60, 1.0));
            edges.push((a, (a + 7) % 60, 0.25));
            if a % 5 == 0 {
                edges.push((a, a, 0.5));
                edges.push((a, (a + 30) % 60, 0.1));
            }
        }
        CsrGraph::from_edges(60, edges)
    }

    /// A weighted mess with exercised self-loops and hubs, scrambled per
    /// seed so the pass sees varied float folds and tie shapes.
    fn weighted_mess(seed: u64, n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for a in 0..n {
            edges.push((a, (a + 1) % n, 1.0 + (next() % 7) as f64 * 0.125));
            edges.push((a, (a + 5) % n, 0.25 + (next() % 5) as f64 * 0.0625));
            if a % 4 == 0 {
                edges.push((a, a, 0.5 + (next() % 3) as f64 * 0.25));
            }
            if a % 6 == 0 {
                edges.push((a, (a + n / 2) % n, 0.1));
            }
        }
        CsrGraph::from_edges(n as usize, edges)
    }

    /// A deep Louvain level: `graph` collapsed through its own first
    /// local-moving pass — dense community-to-community rows plus the
    /// self-loops that carry each community's internal weight.
    fn aggregated_level(graph: &CsrGraph) -> CsrGraph {
        let level0 = local_moving_pass(graph);
        let compact = crate::compact_labels(&level0.communities);
        let scratch = &mut crate::AggregateScratch::default();
        crate::aggregate_graph(graph, &compact.labels, compact.count, scratch)
    }

    /// The dense-gather, cached, active-set pass must replay the map-gather
    /// reference move for move on every input: the messy ring, seeded
    /// weighted messes (one spanning several 64-row bitset words), a deep
    /// aggregated level, and the degenerate empty and edgeless shapes.
    #[test]
    fn dense_gather_matches_hashmap_reference_byte_for_byte() {
        let wide = weighted_mess(5, 150);
        let deep = aggregated_level(&wide);
        assert!(deep.node_count() > 1 && deep.node_count() < wide.node_count());
        let mut inputs = vec![messy_graph(), wide, deep];
        inputs.extend((0..5u64).map(|seed| weighted_mess(seed, 48)));
        inputs.push(CsrGraph::from_edges(0, Vec::new()));
        inputs.push(CsrGraph::from_edges(3, Vec::new()));
        for (i, g) in inputs.iter().enumerate() {
            let dense = local_moving_pass(g);
            let reference = reference_local_moving(g);
            assert_eq!(dense.communities, reference.communities, "input {i}");
            assert_eq!(dense.sweeps, reference.sweeps, "input {i}");
            assert_eq!(dense.moved_any, reference.moved_any, "input {i}");
        }
    }
}
