//! Graph abstractions shared by the allocators and community detectors.

/// Dense node index. Accounts are interned to consecutive `NodeId`s so that
/// per-node state can live in flat vectors (perf-book: prefer indices over
/// hashing in hot loops).
pub type NodeId = u32;

/// Checked `usize → u32` conversion for id/count boundaries.
///
/// Node ids and per-node counts are `u32` by design (the interner refuses
/// to mint ids past `u32::MAX` with [`crate::IdSpaceExhausted`]), so any
/// in-range length derived from them fits. This helper is the sanctioned
/// way to cross that boundary: it keeps the check visible instead of a
/// silent `as` truncation, and panics with a clear message if a future
/// change ever violates the id-space invariant.
#[inline]
pub fn fit_u32(n: usize) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "this IS the checked boundary: the interner caps ids at u32::MAX, so in-range lengths always fit and an overflow here is a program bug worth stopping on"
    )]
    u32::try_from(n).expect("count exceeds the u32 id space")
}

/// An undirected weighted graph with optional self-loops.
///
/// Conventions (these must agree across every implementor, they are what
/// makes the paper's Eq. 5–8 algebra line up):
/// * `total_weight` counts every unordered edge once, self-loops included
///   once. For a transaction graph this equals `|T|` (each transaction
///   contributes total weight 1).
/// * `incident_weight(v)` is `d_v = Σ_u w{v,u}` with the self-loop counted
///   **once** — the quantity the TxAllo delta formulas call `w{v, V}`.
/// * `strength(v)` is the graph-theoretic weighted degree with the
///   self-loop counted **twice** — the quantity Louvain modularity uses.
pub trait WeightedGraph {
    /// Number of nodes (node ids are `0..node_count()`).
    fn node_count(&self) -> usize;

    /// Sum of all edge weights, each unordered edge once, self-loops once.
    fn total_weight(&self) -> f64;

    /// Self-loop weight of `v` (0 if none).
    fn self_loop(&self, v: NodeId) -> f64;

    /// `d_v`: incident weight with self-loop counted once.
    fn incident_weight(&self, v: NodeId) -> f64;

    /// Weighted degree with self-loop counted twice (modularity convention).
    fn strength(&self, v: NodeId) -> f64 {
        self.incident_weight(v) + self.self_loop(v)
    }

    /// Calls `f(u, w)` for every neighbor `u ≠ v` with edge weight `w`,
    /// in **ascending id order**.
    ///
    /// Contract: each distinct neighbor is reported **exactly once**, with
    /// its total accumulated weight (parallel edges are merged at
    /// ingestion), and the number of callbacks equals
    /// [`WeightedGraph::neighbor_count`]. Every order-dependent float fold
    /// over a row (community link weights, incident weights, the delta
    /// snapshot's sums) relies on the ascending order to be reproducible
    /// bit for bit; [`crate::CsrGraph::from_graph`] checks order and
    /// uniqueness on every row it copies.
    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId, f64));

    /// Number of neighbors of `v` (excluding the self-loop).
    fn neighbor_count(&self, v: NodeId) -> usize;

    /// Appends the row of `v` (ascending ids, weights parallel) to
    /// `ids`/`ws` and returns its weight sum folded from 0 in that same
    /// order: the one way a whole row leaves a graph. The default appends
    /// from [`WeightedGraph::for_each_neighbor`]; graphs that store rows
    /// override it with a copy.
    fn copy_row_into(&self, v: NodeId, ids: &mut Vec<NodeId>, ws: &mut Vec<f64>) -> f64 {
        let mut sum = 0.0f64;
        self.for_each_neighbor(v, |u, w| {
            ids.push(u);
            ws.push(w);
            sum += w;
        });
        sum
    }
}
