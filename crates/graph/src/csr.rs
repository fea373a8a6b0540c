//! Compressed sparse row (CSR) weighted graph — the flat, immutable form
//! every repeated-sweep algorithm in this workspace runs on.
//!
//! ## Why CSR
//!
//! The sweep loops (Louvain local moving, the TxAllo optimization phases,
//! METIS refinement) visit every node's neighbor list thousands of times.
//! A nested `Vec<Vec<(NodeId, f64)>>` adjacency puts each list behind its
//! own heap allocation: one pointer chase and a likely cache miss per node,
//! plus allocator traffic when building levels. CSR packs the whole graph
//! into three flat arrays —
//!
//! ```text
//! offsets:   [0, 2, 5, …]           (n + 1 entries; row v = offsets[v]..offsets[v+1])
//! targets:   [1, 4, 0, 2, 9, …]     (neighbor ids, sorted ascending within a row)
//! weights:   [w, w, w, w, w, …]     (parallel to targets)
//! ```
//!
//! — so a sweep is one linear walk with perfect spatial locality, and a
//! neighbor lookup is a binary search over a contiguous row. Production
//! partitioners (METIS itself, and state-keeper batching in rollup
//! sequencers) use exactly this layout for the same reason.
//!
//! Rows are sorted and duplicate-merged at construction, which is also what
//! makes candidate enumeration deterministic: iterating a row yields
//! neighbors in ascending id order, so any per-community accumulation that
//! follows row order is reproducible bit-for-bit.

use crate::traits::{fit_u32, NodeId, WeightedGraph};

/// Immutable CSR weighted graph with per-node cached scalars.
///
/// Built once (from an edge list or any [`WeightedGraph`] snapshot), then
/// swept many times. Self-loops are stored out-of-band in a per-node array
/// — the sweep algebra (Eq. 6–8 of the paper) treats them separately from
/// proper edges, so keeping them out of the rows makes every row iteration
/// loop-free.
///
/// ```
/// use txallo_graph::{CsrGraph, WeightedGraph};
///
/// // Duplicate edges merge; both orientations accumulate on one row pair.
/// let g = CsrGraph::from_edges(3, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5)]);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbor_ids(1), &[0, 2]); // ascending, deterministic
/// assert_eq!(g.weight_between(0, 1), 3.0);
/// assert_eq!(g.incident_weight(1), 3.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    /// Row boundaries; `offsets[v]..offsets[v + 1]` indexes `targets`/`weights`.
    offsets: Vec<u32>,
    /// Neighbor ids, ascending within each row, duplicates merged.
    targets: Vec<NodeId>,
    /// Edge weights, parallel to `targets`.
    weights: Vec<f64>,
    /// Self-loop weight per node.
    self_loops: Vec<f64>,
    /// Cached incident weight per node (self-loop counted once).
    incident: Vec<f64>,
    total_weight: f64,
}

impl CsrGraph {
    /// Builds from an edge list. `edges` may contain duplicates and both
    /// orientations; weights accumulate. `(v, v, w)` entries accumulate
    /// into the self-loop of `v`.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Self {
        let mut self_loops = vec![0.0f64; node_count];
        let mut total = 0.0f64;
        // Pass 0: materialize non-loop edges once (the iterator may be lazy)
        // while folding loops and the total straight into their arrays.
        let edges = edges.into_iter();
        let mut flat: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(edges.size_hint().0);
        for (a, b, w) in edges {
            debug_assert!(
                (a as usize) < node_count && (b as usize) < node_count,
                "edge ({a}, {b}) out of range for {node_count} nodes"
            );
            total += w;
            if a == b {
                self_loops[a as usize] += w;
            } else {
                flat.push((a, b, w));
            }
        }

        // Pass 1: row sizes (each non-loop edge lands in both rows).
        let mut offsets = vec![0u32; node_count + 1];
        for &(a, b, _) in &flat {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }

        // Pass 2: scatter `(target, weight)` pairs into their rows, in edge
        // order (unsorted, duplicates still present).
        let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
        let mut rows = vec![(0 as NodeId, 0.0f64); flat.len() * 2];
        for &(a, b, w) in &flat {
            let ia = cursor[a as usize] as usize;
            rows[ia] = (b, w);
            cursor[a as usize] += 1;
            let ib = cursor[b as usize] as usize;
            rows[ib] = (a, w);
            cursor[b as usize] += 1;
        }
        drop(flat);

        // Pass 3: sort each row where it landed, then merge duplicate
        // targets into the compact arrays.
        let mut targets = Vec::with_capacity(rows.len());
        let mut weights = Vec::with_capacity(rows.len());
        let mut compact_offsets = vec![0u32; node_count + 1];
        for v in 0..node_count {
            let row = &mut rows[offsets[v] as usize..offsets[v + 1] as usize];
            #[expect(
                clippy::disallowed_methods,
                reason = "known hazard, ROADMAP item 1: duplicate targets carry different weights, so a merged sum depends on the order std's unstable sort leaves them in; METIS coarsening builds every level here, and the stable merge moves the `metis_epochs` benchmark digest, so it waits for the change that re-records it"
            )]
            row.sort_unstable_by_key(|&(u, _)| u);
            let row_start = targets.len();
            for &(u, w) in &*row {
                let end = targets.len();
                if end > row_start && targets[end - 1] == u {
                    weights[end - 1] += w;
                } else {
                    targets.push(u);
                    weights.push(w);
                }
            }
            compact_offsets[v + 1] = fit_u32(targets.len());
        }
        drop(rows);
        targets.shrink_to_fit();
        weights.shrink_to_fit();
        Self::from_sorted_rows(compact_offsets, targets, weights, self_loops, total)
    }

    /// Snapshots any [`WeightedGraph`] into CSR form (used to freeze the
    /// mutable `TxGraph` before the repeated sweeps of G-TxAllo and METIS):
    /// one [`WeightedGraph::copy_row_into`] per node, sequential reads and
    /// writes, no sort. The total weight is the source's own accumulator.
    pub fn from_graph(g: &impl WeightedGraph) -> Self {
        let n = fit_u32(g.node_count());
        let entries = (0..n).map(|v| g.neighbor_count(v)).sum();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0u32);
        let mut targets = Vec::with_capacity(entries);
        let mut weights = Vec::with_capacity(entries);
        for v in 0..n {
            g.copy_row_into(v, &mut targets, &mut weights);
            offsets.push(fit_u32(targets.len()));
        }
        let self_loops = (0..n).map(|v| g.self_loop(v)).collect();
        Self::from_sorted_rows(offsets, targets, weights, self_loops, g.total_weight())
    }

    /// Like [`CsrGraph::from_graph`] but with node ids remapped through
    /// `new_id` (a bijection onto `0..node_count`). Used to renumber a
    /// graph into canonical sweep order so that the sweeps walk rows
    /// sequentially.
    ///
    /// A row copy cannot produce rows sorted by *mapped* id, so this is a
    /// counting-sort scatter: each row's degree (`neighbor_count`) is
    /// prefix-summed into the offsets, then the mapped ids are visited in
    /// ascending order and each is appended to the rows of all its
    /// neighbors, so rows come out sorted by construction.
    pub fn from_graph_relabeled(g: &impl WeightedGraph, new_id: &[NodeId]) -> Self {
        let n = g.node_count();
        assert_eq!(new_id.len(), n, "one new id per node");
        let mut inv: Vec<NodeId> = vec![0; n];
        let mut self_loops = vec![0.0f64; n];
        let mut offsets = vec![0u32; n + 1];
        for v in 0..fit_u32(n) {
            let nv = new_id[v as usize] as usize;
            debug_assert!(nv < n, "new_id must map onto 0..n");
            inv[nv] = v;
            offsets[nv + 1] = fit_u32(g.neighbor_count(v));
            self_loops[nv] = g.self_loop(v);
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let entries = offsets[n] as usize;
        let mut targets = vec![0 as NodeId; entries];
        let mut weights = vec![0.0f64; entries];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (i, &v) in (0..).zip(&inv) {
            g.for_each_neighbor(v, |u, w| {
                let row = new_id[u as usize] as usize;
                let pos = cursor[row] as usize;
                targets[pos] = i;
                weights[pos] = w;
                cursor[row] += 1;
            });
        }
        Self::from_sorted_rows(offsets, targets, weights, self_loops, g.total_weight())
    }

    /// Builds directly from pre-assembled CSR arrays: row boundaries,
    /// targets/weights (rows strictly ascending by id, duplicates already
    /// merged, each unordered non-loop edge present in both endpoint rows),
    /// per-node self-loops and the total weight.
    ///
    /// Every constructor returns through here, as do producers that
    /// assemble sorted rows themselves (e.g. the Louvain aggregation's
    /// counting-sort build). The incident cache is derived here with the
    /// canonical fold (`self_loop + Σ row`, the row summed on its own in
    /// ascending order), and every row is checked strictly ascending: a
    /// source whose `for_each_neighbor` broke its order or uniqueness
    /// contract would otherwise leave every binary search over the row
    /// silently wrong.
    ///
    /// # Panics
    /// Panics when the arrays are inconsistent or any row is not strictly
    /// ascending.
    pub fn from_sorted_rows(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        weights: Vec<f64>,
        self_loops: Vec<f64>,
        total_weight: f64,
    ) -> Self {
        let n = self_loops.len();
        assert_eq!(offsets.len(), n + 1, "one offset bound per node plus end");
        assert_eq!(offsets[0], 0, "rows start at 0");
        assert_eq!(offsets[n] as usize, targets.len(), "offsets cover targets");
        assert_eq!(targets.len(), weights.len(), "parallel arrays");
        let mut incident = vec![0.0f64; n];
        for v in 0..n {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            incident[v] = self_loops[v] + weights[s..e].iter().sum::<f64>();
            assert!(
                targets[s..e].windows(2).all(|w| w[0] < w[1]),
                "row {v} is not strictly ascending"
            );
        }
        Self {
            offsets,
            targets,
            weights,
            self_loops,
            incident,
            total_weight,
        }
    }

    /// Number of distinct unordered non-loop edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// The sorted neighbor ids of `v`.
    #[inline]
    pub fn neighbor_ids(&self, v: NodeId) -> &[NodeId] {
        let (s, e) = self.row(v);
        &self.targets[s..e]
    }

    /// The edge weights of `v`, parallel to [`CsrGraph::neighbor_ids`].
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[f64] {
        let (s, e) = self.row(v);
        &self.weights[s..e]
    }

    /// `(neighbor, weight)` pairs of `v` in ascending neighbor order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.neighbor_ids(v)
            .iter()
            .copied()
            .zip(self.neighbor_weights(v).iter().copied())
    }

    /// Edge weight between `a` and `b` (self-loop when equal), 0 if absent.
    pub fn weight_between(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return self.self_loops[a as usize];
        }
        let ids = self.neighbor_ids(a);
        match ids.binary_search(&b) {
            Ok(i) => self.neighbor_weights(a)[i],
            Err(_) => 0.0,
        }
    }

    #[inline]
    fn row(&self, v: NodeId) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }
}

impl WeightedGraph for CsrGraph {
    fn node_count(&self) -> usize {
        self.self_loops.len()
    }

    fn total_weight(&self) -> f64 {
        self.total_weight
    }

    fn self_loop(&self, v: NodeId) -> f64 {
        self.self_loops[v as usize]
    }

    fn incident_weight(&self, v: NodeId) -> f64 {
        self.incident[v as usize]
    }

    #[inline]
    fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId, f64)) {
        let (s, e) = self.row(v);
        for i in s..e {
            f(self.targets[i], self.weights[i]);
        }
    }

    fn neighbor_count(&self, v: NodeId) -> usize {
        let (s, e) = self.row(v);
        e - s
    }

    fn copy_row_into(&self, v: NodeId, ids: &mut Vec<NodeId>, ws: &mut Vec<f64>) -> f64 {
        let row = self.neighbor_weights(v);
        ids.extend_from_slice(self.neighbor_ids(v));
        ws.extend_from_slice(row);
        row.iter().fold(0.0, |sum, &w| sum + w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_merges_duplicates() {
        let g = CsrGraph::from_edges(3, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5), (0, 0, 0.25)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!((g.weight_between(0, 1) - 3.0).abs() < 1e-12);
        assert!((g.weight_between(1, 0) - 3.0).abs() < 1e-12);
        assert!((g.self_loop(0) - 0.25).abs() < 1e-12);
        assert!((g.total_weight() - 3.75).abs() < 1e-12);
        assert!((g.incident_weight(0) - 3.25).abs() < 1e-12);
        assert!((g.incident_weight(1) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn rows_are_sorted_and_parallel() {
        let g = CsrGraph::from_edges(4, vec![(0, 3, 3.0), (0, 1, 1.0), (0, 2, 2.0)]);
        assert_eq!(g.neighbor_ids(0), &[1, 2, 3]);
        assert_eq!(g.neighbor_weights(0), &[1.0, 2.0, 3.0]);
        let pairs: Vec<(NodeId, f64)> = g.neighbors(0).collect();
        assert_eq!(pairs, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(g.neighbor_count(0), 3);
        assert_eq!(g.neighbor_ids(1), &[0]);
    }

    #[test]
    fn missing_edges_are_zero() {
        let g = CsrGraph::from_edges(3, vec![(0, 1, 1.0)]);
        assert_eq!(g.weight_between(0, 2), 0.0);
        assert_eq!(g.self_loop(2), 0.0);
        assert_eq!(g.neighbor_count(2), 0);
        assert!(g.neighbor_ids(2).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, Vec::new());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0.0);
    }

    /// A messy deterministic pseudo-random graph for the snapshot tests:
    /// hubs, chords, self-loops, non-dyadic weights.
    fn scrambled_graph(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for a in 0..n as NodeId {
            for hop in [1usize, 7, 13] {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((a as usize + hop * (1 + (x >> 60) as usize)) % n) as NodeId;
                if a != b {
                    edges.push((a, b, 1.0 + (x >> 40) as f64 / 3.0));
                }
            }
            if a % 9 == 0 {
                edges.push((a, a, 0.5 + a as f64 / 7.0));
            }
        }
        CsrGraph::from_edges(n, edges)
    }

    /// The snapshot must reproduce the edge-list constructor's arrays
    /// bit-for-bit (rows copied already sorted vs per-row sort + merge).
    #[test]
    fn radix_snapshot_matches_edge_list_build() {
        let g = scrambled_graph(120);
        // The old snapshot policy, spelled out: positive loops + each
        // unordered edge once, then the duplicate-merging edge-list build.
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for v in 0..g.node_count() as NodeId {
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
        let reference = CsrGraph::from_edges(g.node_count(), edges);
        let radix = CsrGraph::from_graph(&g);
        assert_eq!(radix.offsets, reference.offsets);
        assert_eq!(radix.targets, reference.targets);
        assert_eq!(radix.weights, reference.weights, "bit-for-bit weights");
        assert_eq!(radix.self_loops, reference.self_loops);
        assert_eq!(radix.incident, reference.incident, "bit-for-bit incident");
        // The total is taken from the source graph's own accumulator
        // instead of re-summed over the extracted edges, so it agrees up
        // to summation-order rounding (and exactly with the source).
        let tol = 1e-12 * reference.total_weight.abs();
        assert!((radix.total_weight - reference.total_weight).abs() < tol);
        assert_eq!(radix.total_weight.to_bits(), g.total_weight().to_bits());
    }

    #[test]
    fn relabeled_snapshot_permutes_rows() {
        let g = scrambled_graph(60);
        let n = g.node_count();
        // Reverse permutation: new_id[v] = n - 1 - v.
        let new_id: Vec<NodeId> = (0..n as NodeId).map(|v| (n - 1) as NodeId - v).collect();
        let relabeled = CsrGraph::from_graph_relabeled(&g, &new_id);
        assert_eq!(relabeled.node_count(), n);
        assert_eq!(relabeled.edge_count(), g.edge_count());
        for v in 0..n as NodeId {
            let nv = new_id[v as usize];
            assert_eq!(relabeled.self_loop(nv).to_bits(), g.self_loop(v).to_bits());
            assert_eq!(
                relabeled.neighbor_count(nv),
                g.neighbor_count(v),
                "row {v} size"
            );
            g.for_each_neighbor(v, |u, w| {
                assert_eq!(
                    relabeled.weight_between(nv, new_id[u as usize]).to_bits(),
                    w.to_bits()
                );
            });
            let ids = relabeled.neighbor_ids(nv);
            assert!(ids.windows(2).all(|p| p[0] < p[1]), "row {nv} sorted");
        }
    }

    /// The row build `from_edges` had before it sorted rows where they
    /// land: targets and weights scattered into two arrays, then each row
    /// copied into a staging buffer, sorted by the same call and merged.
    fn staged_rows(node_count: usize, edges: &[(NodeId, NodeId, f64)]) -> Vec<Vec<(NodeId, u64)>> {
        let flat: Vec<_> = edges.iter().filter(|e| e.0 != e.1).copied().collect();
        let mut offsets = vec![0usize; node_count + 1];
        for &(a, b, _) in &flat {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets[..node_count].to_vec();
        let mut targets = vec![0 as NodeId; flat.len() * 2];
        let mut weights = vec![0.0f64; flat.len() * 2];
        for &(a, b, w) in &flat {
            for (row, other) in [(a, b), (b, a)] {
                targets[cursor[row as usize]] = other;
                weights[cursor[row as usize]] = w;
                cursor[row as usize] += 1;
            }
        }
        (0..node_count)
            .map(|v| {
                let (s, e) = (offsets[v], offsets[v + 1]);
                let mut row: Vec<(NodeId, f64)> = targets[s..e]
                    .iter()
                    .copied()
                    .zip(weights[s..e].iter().copied())
                    .collect();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the reference sorts each row by the call `from_edges` makes, so duplicates merge in the order the production row leaves them"
                )]
                row.sort_unstable_by_key(|&(u, _)| u);
                let mut merged: Vec<(NodeId, f64)> = Vec::new();
                for (u, w) in row {
                    match merged.last_mut() {
                        Some(last) if last.0 == u => last.1 += w,
                        _ => merged.push((u, w)),
                    }
                }
                merged.into_iter().map(|(u, w)| (u, w.to_bits())).collect()
            })
            .collect()
    }

    /// Sorting each row where it lands must leave every row's pre-sort
    /// sequence, and so every merged sum, as the staged build had it. The
    /// rows are long and repeat each target many times, with weights whose
    /// float sum depends on the order of addition.
    #[test]
    fn from_edges_sums_duplicates_as_the_staged_row_build() {
        let magnitudes = [1e16, 1.0, 0.1, 3e-5, 7.25, 1e-3];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize
        };
        let n = 40;
        let mut edges = Vec::new();
        for i in 0..3_000 {
            // Rows 0 and 1 are hubs with hundreds of entries over few keys.
            let a = if i % 3 == 0 {
                (i / 3 % 2) as NodeId
            } else {
                (next() % n) as NodeId
            };
            let b = (next() % 9) as NodeId;
            edges.push((a, b, magnitudes[next() % magnitudes.len()]));
        }
        let g = CsrGraph::from_edges(n, edges.iter().copied());
        let staged = staged_rows(n, &edges);
        for v in 0..n as NodeId {
            let row: Vec<(NodeId, u64)> = g.neighbors(v).map(|(u, w)| (u, w.to_bits())).collect();
            assert_eq!(row, staged[v as usize], "row {v}");
        }
    }

    #[test]
    fn for_each_neighbor_matches_rows() {
        let g = CsrGraph::from_edges(5, vec![(0, 4, 1.0), (0, 2, 2.0), (2, 4, 0.5), (1, 1, 9.0)]);
        let mut seen = Vec::new();
        g.for_each_neighbor(0, |u, w| seen.push((u, w)));
        assert_eq!(seen, vec![(2, 2.0), (4, 1.0)]);
        assert!(
            (g.strength(1) - 18.0).abs() < 1e-12,
            "self-loop counts twice in strength"
        );
    }
}
