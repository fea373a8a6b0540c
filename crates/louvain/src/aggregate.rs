//! Community aggregation: collapsing a partition into a super-node graph.
//!
//! ## Counting sort instead of per-row comparison sorts
//!
//! The aggregation used to funnel the condensed edge list through the
//! duplicate-merging edge-list constructor, which comparison-sorts every
//! super-node row per level — `O(E log d)` on the hottest level (level 0,
//! the full graph). Community ids are dense (`0..community_count`), so the
//! whole build is a stable two-pass LSD counting sort keyed by community
//! id: scatter the oriented entries by *target*, then by *source* row —
//! `O(E + C)` per level, rows grouped and ascending by construction, no
//! comparison sort anywhere.
//!
//! ## Determinism contract
//!
//! The build is canonical and **stable**: parallel entries of the same
//! super-edge merge in the input order of the level walk (nodes ascending,
//! neighbors in row order), and both orientations of a super-edge see that
//! same order — so the condensed graph is bitwise *symmetric*
//! (`w(c→d) ≡ w(d→c)` bit-for-bit), which the old per-row unstable sorts
//! did not even guarantee. Self-loop and total-weight folds visit
//! contributions in exactly the old input order. The whole pipeline is
//! pinned byte-identical against a stable-sorted reference merge in the
//! tests below.

use txallo_graph::{fit_u32, CsrGraph, NodeId, WeightedGraph};

/// Reusable buffers of the counting-sort aggregation — one set per Louvain
/// run, reused across every level (high-water mark set by level 0).
#[derive(Debug, Clone, Default)]
pub struct AggregateScratch {
    /// Condensed cross-community edges, one per unordered pair occurrence
    /// `(c_lo, c_hi, w)`, in level-walk order.
    edges: Vec<(u32, u32, f64)>,
    /// Per-community degree counts / scatter cursors.
    cursor: Vec<u32>,
    /// Pass-A output: entries sorted by target (stable).
    a_row: Vec<u32>,
    a_target: Vec<u32>,
    a_w: Vec<f64>,
    /// Pass-B output: entries grouped by row, ascending target, stable.
    b_target: Vec<u32>,
    b_w: Vec<f64>,
}

/// Builds the condensed graph where each community becomes one node.
///
/// Intra-community weight (including member self-loops) becomes the
/// super-node's self-loop; inter-community weight accumulates on the
/// super-edge. Total weight is preserved exactly, which keeps modularity
/// comparable across levels. `scratch` is caller-owned, so the level loop
/// of `louvain_csr` reuses every buffer across the whole hierarchy instead
/// of growing fresh ones per aggregation level.
pub fn aggregate_graph(
    graph: &impl WeightedGraph,
    communities: &[u32],
    community_count: usize,
    scratch: &mut AggregateScratch,
) -> CsrGraph {
    assert_eq!(communities.len(), graph.node_count());
    let c = community_count;

    // Level walk (nodes ascending, neighbors in row order): fold member
    // self-loops and intra edges straight into the super-node loops, stage
    // each cross edge once, and accumulate the total in exactly this visit
    // order — the same input order the old edge-list build folded.
    let mut self_loops = vec![0.0f64; c];
    let mut total = 0.0f64;
    let edges = &mut scratch.edges;
    edges.clear();
    for v in 0..fit_u32(graph.node_count()) {
        let cv = communities[v as usize];
        let loop_w = graph.self_loop(v);
        if loop_w > 0.0 {
            total += loop_w;
            self_loops[cv as usize] += loop_w;
        }
        graph.for_each_neighbor(v, |u, w| {
            if v < u {
                let cu = communities[u as usize];
                total += w;
                if cu == cv {
                    self_loops[cv as usize] += w;
                } else {
                    edges.push((cv.min(cu), cv.max(cu), w));
                }
            }
        });
    }

    // Degree counts (each cross occurrence lands in both endpoint rows; a
    // community's count as a scatter *target* equals its count as a row).
    let cursor = &mut scratch.cursor;
    cursor.clear();
    cursor.resize(c, 0);
    for &(a, b, _) in edges.iter() {
        cursor[a as usize] += 1;
        cursor[b as usize] += 1;
    }
    let mut offsets = vec![0u32; c + 1];
    for i in 0..c {
        offsets[i + 1] = offsets[i] + cursor[i];
    }
    let entries = offsets[c] as usize;

    // Pass A — stable counting scatter of the oriented entries by target.
    // Entries are generated edge by edge (both orientations), preserving
    // the staging order within every target bucket.
    scratch.a_row.clear();
    scratch.a_row.resize(entries, 0);
    scratch.a_target.clear();
    scratch.a_target.resize(entries, 0);
    scratch.a_w.clear();
    scratch.a_w.resize(entries, 0.0);
    cursor.copy_from_slice(&offsets[..c]);
    for &(a, b, w) in edges.iter() {
        let slot = cursor[b as usize] as usize;
        cursor[b as usize] += 1;
        scratch.a_row[slot] = a;
        scratch.a_target[slot] = b;
        scratch.a_w[slot] = w;
        let slot = cursor[a as usize] as usize;
        cursor[a as usize] += 1;
        scratch.a_row[slot] = b;
        scratch.a_target[slot] = a;
        scratch.a_w[slot] = w;
    }

    // Pass B — stable counting scatter by row: entries arrive ascending by
    // target, so each row comes out ascending by target with parallel
    // occurrences still in staging order.
    scratch.b_target.clear();
    scratch.b_target.resize(entries, 0);
    scratch.b_w.clear();
    scratch.b_w.resize(entries, 0.0);
    cursor.copy_from_slice(&offsets[..c]);
    for i in 0..entries {
        let row = scratch.a_row[i] as usize;
        let slot = cursor[row] as usize;
        cursor[row] += 1;
        scratch.b_target[slot] = scratch.a_target[i];
        scratch.b_w[slot] = scratch.a_w[i];
    }

    // Merge parallel occurrences (adjacent after the radix; summed in
    // staging order) into the final compact rows.
    let mut final_offsets = vec![0u32; c + 1];
    let mut targets: Vec<NodeId> = Vec::with_capacity(entries);
    let mut weights: Vec<f64> = Vec::with_capacity(entries);
    for row in 0..c {
        let (s, e) = (offsets[row] as usize, offsets[row + 1] as usize);
        let row_start = targets.len();
        for i in s..e {
            let t = scratch.b_target[i];
            let w = scratch.b_w[i];
            match targets.last() {
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by targets.last() == Some in the match arm, and weights grows in lockstep with targets"
                )]
                Some(&last) if targets.len() > row_start && last == t => {
                    *weights.last_mut().expect("parallel to targets") += w;
                }
                _ => {
                    targets.push(t);
                    weights.push(w);
                }
            }
        }
        final_offsets[row + 1] = fit_u32(targets.len());
    }

    CsrGraph::from_sorted_rows(final_offsets, targets, weights, self_loops, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_total_weight() {
        let g = CsrGraph::from_edges(
            4,
            vec![(0u32, 1, 2.0), (2, 3, 1.0), (1, 2, 0.5), (0, 0, 0.25)],
        );
        let agg = aggregate_graph(&g, &[0, 0, 1, 1], 2, &mut AggregateScratch::default());
        assert_eq!(agg.node_count(), 2);
        assert!((agg.total_weight() - g.total_weight()).abs() < 1e-12);
        // Community 0 self-loop: edge (0,1)=2.0 plus node-0 loop 0.25.
        assert!((agg.self_loop(0) - 2.25).abs() < 1e-12);
        assert!((agg.self_loop(1) - 1.0).abs() < 1e-12);
        assert!((agg.weight_between(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identity_partition_keeps_structure() {
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 3.0)]);
        let agg = aggregate_graph(&g, &[0, 1, 2], 3, &mut AggregateScratch::default());
        assert_eq!(agg.node_count(), 3);
        assert!((agg.weight_between(0, 1) - 1.0).abs() < 1e-12);
        assert!((agg.weight_between(1, 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_to_single_node() {
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let agg = aggregate_graph(&g, &[0, 0, 0], 1, &mut AggregateScratch::default());
        assert_eq!(agg.node_count(), 1);
        assert!((agg.self_loop(0) - 3.0).abs() < 1e-12);
        assert_eq!(agg.edge_count(), 0);
    }

    /// A messy deterministic multi-community graph: hubs, non-dyadic
    /// weights, self-loops, and — crucially — many parallel cross edges
    /// per community pair, so the duplicate-merge order is genuinely
    /// exercised.
    fn scrambled(n: usize, communities: usize) -> (CsrGraph, Vec<u32>, usize) {
        let mut edges = Vec::new();
        let mut x = 0x243f6a8885a308d3u64;
        for a in 0..n as NodeId {
            for hop in [1usize, 3, 11, 17] {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((a as usize + hop + (x >> 59) as usize) % n) as NodeId;
                if a != b {
                    edges.push((a, b, 1.0 + (x >> 44) as f64 / 7.0));
                }
            }
            if a % 5 == 0 {
                edges.push((a, a, 0.3 + a as f64 / 11.0));
            }
        }
        let labels: Vec<u32> = (0..n as u32)
            .map(|v| (v * 7 + 3) % communities as u32)
            .collect();
        (CsrGraph::from_edges(n, edges), labels, communities)
    }

    /// A merged reference row: `(target, weight bits)` pairs.
    type RefRow = Vec<(u32, u64)>;

    /// The stable reference build: condensed edge list → per-row **stable**
    /// sort + merge in input order — the semantics the counting sort must
    /// reproduce byte-for-byte.
    fn reference_aggregate(
        graph: &impl WeightedGraph,
        communities: &[u32],
        c: usize,
    ) -> (Vec<f64>, f64, Vec<RefRow>) {
        let mut self_loops = vec![0.0f64; c];
        let mut total = 0.0f64;
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); c];
        for v in 0..fit_u32(graph.node_count()) {
            let cv = communities[v as usize];
            let loop_w = graph.self_loop(v);
            if loop_w > 0.0 {
                total += loop_w;
                self_loops[cv as usize] += loop_w;
            }
            graph.for_each_neighbor(v, |u, w| {
                if v < u {
                    let cu = communities[u as usize];
                    total += w;
                    if cu == cv {
                        self_loops[cv as usize] += w;
                    } else {
                        rows[cv as usize].push((cu, w));
                        rows[cu as usize].push((cv, w));
                    }
                }
            });
        }
        let merged = rows
            .into_iter()
            .map(|mut row| {
                row.sort_by_key(|&(t, _)| t); // stable
                let mut out: Vec<(u32, u64)> = Vec::new();
                let mut acc: Option<(u32, f64)> = None;
                for (t, w) in row {
                    match &mut acc {
                        Some((lt, lw)) if *lt == t => *lw += w,
                        _ => {
                            if let Some((lt, lw)) = acc {
                                out.push((lt, lw.to_bits()));
                            }
                            acc = Some((t, w));
                        }
                    }
                }
                if let Some((lt, lw)) = acc {
                    out.push((lt, lw.to_bits()));
                }
                out
            })
            .collect();
        (self_loops, total, merged)
    }

    /// The counting-sort build is byte-identical to the stable reference:
    /// same self-loops, same total (same fold order), every merged row
    /// bit-for-bit.
    #[test]
    fn counting_sort_matches_stable_reference_bitwise() {
        for (n, c) in [(60usize, 4usize), (150, 9), (240, 2), (90, 40)] {
            let (g, labels, c) = {
                let (g, labels, _) = scrambled(n, c);
                (g, labels, c)
            };
            let agg = aggregate_graph(&g, &labels, c, &mut AggregateScratch::default());
            let (ref_loops, ref_total, ref_rows) = reference_aggregate(&g, &labels, c);
            assert_eq!(agg.total_weight().to_bits(), ref_total.to_bits(), "n={n}");
            for q in 0..c as u32 {
                assert_eq!(
                    agg.self_loop(q).to_bits(),
                    ref_loops[q as usize].to_bits(),
                    "loop of {q} (n={n})"
                );
                let got: Vec<(u32, u64)> =
                    agg.neighbors(q).map(|(t, w)| (t, w.to_bits())).collect();
                assert_eq!(got, ref_rows[q as usize], "row {q} (n={n}, c={c})");
            }
        }
    }

    /// The condensed graph is bitwise symmetric: both orientations of a
    /// super-edge carry the identical merged weight (parallel occurrences
    /// summed in the same staging order on both sides).
    #[test]
    fn aggregate_is_bitwise_symmetric() {
        let (g, labels, c) = scrambled(200, 7);
        let agg = aggregate_graph(&g, &labels, c, &mut AggregateScratch::default());
        for a in 0..c as u32 {
            for (b, w) in agg.neighbors(a) {
                assert_eq!(
                    w.to_bits(),
                    agg.weight_between(b, a).to_bits(),
                    "super-edge ({a},{b})"
                );
            }
        }
    }

    /// Degenerate shapes through one reused scratch: an empty graph
    /// condenses to an empty graph, and a single community folds every
    /// edge into one self-loop, bit for bit as the stable reference does.
    #[test]
    fn aggregation_degenerate_shapes() {
        let g = CsrGraph::from_edges(0, Vec::<(NodeId, NodeId, f64)>::new());
        let mut scratch = AggregateScratch::default();
        let agg = aggregate_graph(&g, &[], 0, &mut scratch);
        assert_eq!(agg.node_count(), 0);

        let (g, labels, _) = scrambled(40, 1);
        let agg = aggregate_graph(&g, &labels, 1, &mut scratch);
        let (ref_loops, ref_total, ref_rows) = reference_aggregate(&g, &labels, 1);
        assert_eq!(agg.node_count(), 1);
        assert_eq!(agg.edge_count(), 0);
        assert!(ref_rows[0].is_empty());
        assert_eq!(agg.total_weight().to_bits(), ref_total.to_bits());
        assert_eq!(agg.self_loop(0).to_bits(), ref_loops[0].to_bits());
    }

    /// Agreement with the old edge-list pipeline on duplicate-free inputs
    /// (where the unstable per-row sort had nothing to scramble): the
    /// counting build is a pure drop-in there.
    #[test]
    fn matches_edge_list_build_without_parallel_edges() {
        // Identity partition ⇒ every community pair has at most one edge.
        let (g, _, _) = scrambled(80, 1);
        let n = g.node_count();
        let labels: Vec<u32> = (0..n as u32).collect();
        let agg = aggregate_graph(&g, &labels, n, &mut AggregateScratch::default());
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for v in 0..n as NodeId {
            let loop_w = g.self_loop(v);
            if loop_w > 0.0 {
                edges.push((v, v, loop_w));
            }
            g.for_each_neighbor(v, |u, w| {
                if v < u {
                    edges.push((v, u, w));
                }
            });
        }
        let old = CsrGraph::from_edges(n, edges);
        for v in 0..n as NodeId {
            assert_eq!(agg.neighbor_ids(v), old.neighbor_ids(v));
            assert_eq!(agg.neighbor_weights(v), old.neighbor_weights(v));
            assert_eq!(agg.self_loop(v).to_bits(), old.self_loop(v).to_bits());
            assert_eq!(
                agg.incident_weight(v).to_bits(),
                old.incident_weight(v).to_bits()
            );
        }
    }
}
