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

use txallo_graph::par::{
    canonical_chunk_count, entry_balanced_split, fold_chunks, reduce_tree, resolve_threads,
};
use txallo_graph::{fit_u32, AdjacencyGraph, CsrGraph, NodeId, WeightedGraph};

/// Work quantum of the parallel aggregation: one canonical chunk per this
/// many adjacency entries. A pure constant — never derived from the
/// thread count — so the chunk shape is an invariant of the input.
const CHUNK_QUANTUM: usize = 8192;

/// Byte budget for the per-chunk community histograms (`chunks × C × 4`
/// bytes), capping the canonical chunk count on partitions with many
/// communities. Data-derived, thread-count-independent.
const HIST_BUDGET_BYTES: usize = 1 << 22;

/// Hard ceiling on the canonical chunk count.
const MAX_CHUNKS: usize = 64;

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
/// comparable across levels.
pub fn aggregate_graph(
    graph: &impl WeightedGraph,
    communities: &[u32],
    community_count: usize,
) -> AdjacencyGraph {
    let mut scratch = AggregateScratch::default();
    aggregate_graph_into(graph, communities, community_count, &mut scratch)
}

/// [`aggregate_graph`] with caller-owned scratch, so the level loop of
/// `louvain_csr` reuses every buffer across the whole hierarchy instead of
/// growing fresh ones per aggregation level.
pub fn aggregate_graph_into(
    graph: &impl WeightedGraph,
    communities: &[u32],
    community_count: usize,
    scratch: &mut AggregateScratch,
) -> AdjacencyGraph {
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
    for v in 0..graph.node_count() as NodeId {
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
                Some(&last) if targets.len() > row_start && last == t => {
                    *weights.last_mut().expect("parallel to targets") += w; // txallo-lint: allow(lib-unwrap) — guarded by targets.last() == Some in the match arm, and weights grows in lockstep with targets
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

/// One canonical chunk's staged aggregation state: the level-walk
/// contributions in walk order, the chunk's community degree histogram,
/// and the chunk-local pass-A counting sort (oriented entries grouped by
/// target community, staging order preserved inside every bucket).
struct ChunkStage {
    /// `(community, w)` float contributions in walk order; `u32::MAX`
    /// tags a cross-community edge (contributes to the total only).
    contrib: Vec<(u32, f64)>,
    /// Per-community oriented-entry counts (both endpoints per edge).
    hist: Vec<u32>,
    /// Bucket boundaries of `sorted`: prefix sums of `hist` (`C + 1`).
    bucket_offsets: Vec<u32>,
    /// `(row, w)` oriented entries, bucket-major by target community.
    sorted: Vec<(u32, f64)>,
}

/// [`aggregate_graph_into`] with a thread-count knob: `threads <= 1`
/// (after [`resolve_threads`]) takes the exact serial code path above;
/// more threads run the same counting-sort pipeline over **canonical
/// chunks** (boundaries a pure function of the adjacency data, per
/// [`canonical_chunk_count`] / [`entry_balanced_split`]) and merge the
/// per-chunk partials through [`reduce_tree`] — integer histogram adds
/// and order-preserving bucket concatenation only, with every float fold
/// kept per-slot in chunk order (the serial walk order). The result is
/// bit-identical to the serial build at every thread count, which the
/// tests below and the Louvain golden suite pin.
pub fn aggregate_graph_threaded(
    graph: &(impl WeightedGraph + Sync),
    communities: &[u32],
    community_count: usize,
    scratch: &mut AggregateScratch,
    threads: usize,
) -> AdjacencyGraph {
    aggregate_impl(graph, communities, community_count, scratch, threads, None)
}

/// The chunked pipeline behind [`aggregate_graph_threaded`], with a test
/// hook forcing the chunk count: the build is *shape-independent* — any
/// chunk partition reproduces the serial bits — so the tests exercise
/// many shapes on graphs far below the production [`CHUNK_QUANTUM`].
fn aggregate_impl(
    graph: &(impl WeightedGraph + Sync),
    communities: &[u32],
    community_count: usize,
    scratch: &mut AggregateScratch,
    threads: usize,
    forced_chunks: Option<usize>,
) -> AdjacencyGraph {
    assert_eq!(communities.len(), graph.node_count());
    let n = graph.node_count();
    let c = community_count;
    let workers = resolve_threads(threads);
    if workers <= 1 || n == 0 || c == 0 {
        return aggregate_graph_into(graph, communities, community_count, scratch);
    }

    // Canonical chunk shape: entry-balanced node ranges, count capped by
    // the histogram budget. Both depend on the data alone.
    let mut deg_prefix = vec![0u32; n + 1];
    for v in 0..n {
        deg_prefix[v + 1] = deg_prefix[v] + fit_u32(graph.neighbor_count(v as NodeId));
    }
    let level_entries = deg_prefix[n] as usize;
    let hist_cap = (HIST_BUDGET_BYTES / (4 * c.max(1))).min(MAX_CHUNKS);
    let chunk_target = forced_chunks
        .unwrap_or_else(|| canonical_chunk_count(level_entries, CHUNK_QUANTUM, hist_cap));
    let bounds = entry_balanced_split(&deg_prefix, chunk_target);
    if bounds.len() - 1 <= 1 {
        return aggregate_graph_into(graph, communities, community_count, scratch);
    }

    // Stage 1+2 (parallel, one partial per canonical chunk): walk the
    // chunk's rows staging contributions and cross edges, then counting-
    // sort the chunk's own oriented entries by target — all chunk-local,
    // so the partial is a pure function of the chunk range.
    let stages: Vec<ChunkStage> = fold_chunks(workers, &bounds, |_, lo, hi| {
        let mut contrib = Vec::new();
        let mut edges = Vec::new();
        let mut hist = vec![0u32; c];
        for v in lo..hi {
            let cv = communities[v];
            let loop_w = graph.self_loop(v as NodeId);
            if loop_w > 0.0 {
                contrib.push((cv, loop_w));
            }
            graph.for_each_neighbor(v as NodeId, |u, w| {
                if (v as NodeId) < u {
                    let cu = communities[u as usize];
                    if cu == cv {
                        contrib.push((cv, w));
                    } else {
                        contrib.push((u32::MAX, w));
                        hist[cv.min(cu) as usize] += 1;
                        hist[cv.max(cu) as usize] += 1;
                        edges.push((cv.min(cu), cv.max(cu), w));
                    }
                }
            });
        }
        let mut bucket_offsets = vec![0u32; c + 1];
        for q in 0..c {
            bucket_offsets[q + 1] = bucket_offsets[q] + hist[q];
        }
        let mut cursor: Vec<u32> = bucket_offsets[..c].to_vec();
        let mut sorted = vec![(0u32, 0.0f64); edges.len() * 2];
        for &(a, b, w) in &edges {
            let slot = cursor[b as usize] as usize;
            cursor[b as usize] += 1;
            sorted[slot] = (a, w);
            let slot = cursor[a as usize] as usize;
            cursor[a as usize] += 1;
            sorted[slot] = (b, w);
        }
        ChunkStage {
            contrib,
            hist,
            bucket_offsets,
            sorted,
        }
    });

    // Serial float folds over the chunk-ordered contributions — chunk
    // order is the walk order, so these bits equal the serial build's.
    let mut self_loops = vec![0.0f64; c];
    let mut total = 0.0f64;
    for stage in &stages {
        for &(tag, w) in &stage.contrib {
            total += w;
            if tag != u32::MAX {
                self_loops[tag as usize] += w;
            }
        }
    }

    // Global community degree histogram: per-chunk histograms merged by
    // the fixed reduction tree (elementwise integer adds are exact under
    // any association).
    let merged_hist = reduce_tree(
        stages.iter().map(|s| s.hist.clone()).collect(),
        |mut left, right| {
            for (a, b) in left.iter_mut().zip(&right) {
                *a += b;
            }
            left
        },
    )
    .expect("at least two chunks exist on this path"); // txallo-lint: allow(lib-unwrap) — bounds.len() - 1 > 1 was checked above, so `stages` is non-empty
    let mut offsets = vec![0u32; c + 1];
    for q in 0..c {
        offsets[q + 1] = offsets[q] + merged_hist[q];
    }
    let entries = offsets[c] as usize;

    // Stage 3 (parallel over canonical target ranges): the logical global
    // pass-A sequence is "targets ascending, chunks ascending within a
    // target, staging order within a chunk" — exactly the serial scatter
    // order. Each worker walks its target range of that sequence and
    // counting-sorts it stably by *row*, yielding per-(range, row)
    // buckets whose concatenation in range order reproduces the serial
    // pass-B output bit-for-bit.
    let target_bounds = entry_balanced_split(&offsets, chunk_target);
    // One target range's output: row-sorted (target, weight) entries plus
    // the per-row bucket offsets into them.
    type RangeBuckets = (Vec<(u32, f64)>, Vec<u32>);
    let row_sorted: Vec<RangeBuckets> = fold_chunks(workers, &target_bounds, |_, clo, chi| {
        let mut hist = vec![0u32; c];
        for q in clo..chi {
            for stage in &stages {
                let (s, e) = (
                    stage.bucket_offsets[q] as usize,
                    stage.bucket_offsets[q + 1] as usize,
                );
                for &(row, _) in &stage.sorted[s..e] {
                    hist[row as usize] += 1;
                }
            }
        }
        let mut local_offsets = vec![0u32; c + 1];
        for r in 0..c {
            local_offsets[r + 1] = local_offsets[r] + hist[r];
        }
        let mut cursor: Vec<u32> = local_offsets[..c].to_vec();
        let range_entries = (offsets[chi] - offsets[clo]) as usize;
        let mut out = vec![(0u32, 0.0f64); range_entries];
        for q in clo..chi {
            for stage in &stages {
                let (s, e) = (
                    stage.bucket_offsets[q] as usize,
                    stage.bucket_offsets[q + 1] as usize,
                );
                for &(row, w) in &stage.sorted[s..e] {
                    let slot = cursor[row as usize] as usize;
                    cursor[row as usize] += 1;
                    out[slot] = (fit_u32(q), w);
                }
            }
        }
        (out, local_offsets)
    });

    // Stage 4 (parallel over canonical row ranges): each row's final
    // sequence is the range-order concatenation of its per-range buckets
    // — targets ascending (ranges partition the target space), parallel
    // occurrences adjacent and still in staging order — merged exactly
    // like the serial build's last pass.
    struct MergedRows {
        row_counts: Vec<u32>,
        targets: Vec<NodeId>,
        weights: Vec<f64>,
    }
    let merged: Vec<MergedRows> = fold_chunks(workers, &target_bounds, |_, rlo, rhi| {
        let mut row_counts = Vec::with_capacity(rhi - rlo);
        let mut targets: Vec<NodeId> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for r in rlo..rhi {
            let row_start = targets.len();
            for (out, local_offsets) in &row_sorted {
                let (s, e) = (local_offsets[r] as usize, local_offsets[r + 1] as usize);
                for &(t, w) in &out[s..e] {
                    match targets.last() {
                        Some(&last) if targets.len() > row_start && last == t => {
                            let slot = weights.len() - 1;
                            weights[slot] += w;
                        }
                        _ => {
                            targets.push(t);
                            weights.push(w);
                        }
                    }
                }
            }
            row_counts.push(fit_u32(targets.len() - row_start));
        }
        MergedRows {
            row_counts,
            targets,
            weights,
        }
    });

    // Serial assembly in range order (= row order): merged row lengths
    // prefix into the final offsets, merged rows concatenate verbatim.
    let mut final_offsets = vec![0u32; c + 1];
    let mut targets: Vec<NodeId> = Vec::with_capacity(entries);
    let mut weights: Vec<f64> = Vec::with_capacity(entries);
    let mut row = 0usize;
    for part in merged {
        for count in part.row_counts {
            final_offsets[row + 1] = final_offsets[row] + count;
            row += 1;
        }
        targets.extend_from_slice(&part.targets);
        weights.extend_from_slice(&part.weights);
    }
    debug_assert_eq!(row, c);

    CsrGraph::from_sorted_rows(final_offsets, targets, weights, self_loops, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_total_weight() {
        let g = AdjacencyGraph::from_edges(
            4,
            vec![(0u32, 1, 2.0), (2, 3, 1.0), (1, 2, 0.5), (0, 0, 0.25)],
        );
        let agg = aggregate_graph(&g, &[0, 0, 1, 1], 2);
        assert_eq!(agg.node_count(), 2);
        assert!((agg.total_weight() - g.total_weight()).abs() < 1e-12);
        // Community 0 self-loop: edge (0,1)=2.0 plus node-0 loop 0.25.
        assert!((agg.self_loop(0) - 2.25).abs() < 1e-12);
        assert!((agg.self_loop(1) - 1.0).abs() < 1e-12);
        assert!((agg.weight_between(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identity_partition_keeps_structure() {
        let g = AdjacencyGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 3.0)]);
        let agg = aggregate_graph(&g, &[0, 1, 2], 3);
        assert_eq!(agg.node_count(), 3);
        assert!((agg.weight_between(0, 1) - 1.0).abs() < 1e-12);
        assert!((agg.weight_between(1, 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_to_single_node() {
        let g = AdjacencyGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let agg = aggregate_graph(&g, &[0, 0, 0], 1);
        assert_eq!(agg.node_count(), 1);
        assert!((agg.self_loop(0) - 3.0).abs() < 1e-12);
        assert_eq!(agg.edge_count(), 0);
    }

    /// A messy deterministic multi-community graph: hubs, non-dyadic
    /// weights, self-loops, and — crucially — many parallel cross edges
    /// per community pair, so the duplicate-merge order is genuinely
    /// exercised.
    fn scrambled(n: usize, communities: usize) -> (AdjacencyGraph, Vec<u32>, usize) {
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
        (AdjacencyGraph::from_edges(n, edges), labels, communities)
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
        for v in 0..graph.node_count() as NodeId {
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
            let agg = aggregate_graph(&g, &labels, c);
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
        let agg = aggregate_graph(&g, &labels, c);
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

    /// Bitwise equality of two condensed graphs, every observable field.
    fn assert_same_graph(a: &AdjacencyGraph, b: &AdjacencyGraph, ctx: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{ctx}");
        assert_eq!(
            a.total_weight().to_bits(),
            b.total_weight().to_bits(),
            "{ctx}"
        );
        for v in 0..a.node_count() as NodeId {
            assert_eq!(
                a.self_loop(v).to_bits(),
                b.self_loop(v).to_bits(),
                "{ctx} loop {v}"
            );
            assert_eq!(a.neighbor_ids(v), b.neighbor_ids(v), "{ctx} row {v}");
            let wa: Vec<u64> = a.neighbor_weights(v).iter().map(|w| w.to_bits()).collect();
            let wb: Vec<u64> = b.neighbor_weights(v).iter().map(|w| w.to_bits()).collect();
            assert_eq!(wa, wb, "{ctx} weights {v}");
            assert_eq!(
                a.incident_weight(v).to_bits(),
                b.incident_weight(v).to_bits(),
                "{ctx} incident {v}"
            );
        }
    }

    /// The canonical-chunk parallel build is bit-identical to the serial
    /// counting sort at every thread count — the chunk shape is a pure
    /// function of the data, every float fold runs per-slot in chunk
    /// (= walk) order, and the tree merges are integer-exact.
    #[test]
    fn threaded_aggregation_is_bit_identical_to_serial() {
        for (n, c) in [(60usize, 4usize), (150, 9), (240, 2), (90, 40), (300, 17)] {
            let (g, labels, c) = scrambled(n, c);
            let serial = aggregate_graph(&g, &labels, c);
            for threads in [2usize, 3, 8, 61] {
                for chunks in [2usize, 3, 5, 16] {
                    let mut scratch = AggregateScratch::default();
                    let par = aggregate_impl(&g, &labels, c, &mut scratch, threads, Some(chunks));
                    assert_same_graph(
                        &par,
                        &serial,
                        &format!("n={n} c={c} t={threads} chunks={chunks}"),
                    );
                }
            }
        }
    }

    /// Degenerate shapes fall back to (or reproduce) the serial path:
    /// empty graphs, single community, graphs below the chunk quantum.
    #[test]
    fn threaded_aggregation_degenerate_shapes() {
        let g = AdjacencyGraph::from_edges(0, Vec::<(NodeId, NodeId, f64)>::new());
        let mut scratch = AggregateScratch::default();
        let agg = aggregate_graph_threaded(&g, &[], 0, &mut scratch, 8);
        assert_eq!(agg.node_count(), 0);

        let (g, labels, _) = scrambled(40, 1);
        let serial = aggregate_graph(&g, &labels, 1);
        let par = aggregate_graph_threaded(&g, &labels, 1, &mut scratch, 8);
        assert_same_graph(&par, &serial, "single community");
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
        let agg = aggregate_graph(&g, &labels, n);
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
        let old = AdjacencyGraph::from_edges(n, edges);
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
