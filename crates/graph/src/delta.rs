//! Delta-CSR: a compact snapshot of the touched-set neighborhood for
//! incremental (A-TxAllo) epoch updates.
//!
//! ## The problem
//!
//! Each epoch, A-TxAllo re-optimizes only the touched node set `V̂`
//! reported by [`TxGraph::ingest_block`] — typically a small fraction of
//! the accumulated graph. The epoch-update sweep visits every node of `V̂`
//! several times, and before this snapshot existed each visit walked the
//! node's *mutable hash-map adjacency*: one hash-table iteration per node
//! per sweep, on the hottest loop of the epoch path.
//!
//! ## The snapshot
//!
//! [`DeltaCsr`] freezes exactly the rows the sweep needs — one CSR row per
//! touched node, nothing for the rest of the graph:
//!
//! ```text
//! node:     [g₀, g₁, …]      (touched nodes, canonical sweep order)
//! offsets:  [0, 3, 7, …]     (row i = offsets[i]..offsets[i+1])
//! targets:  [u, u, u, …]     (global neighbor ids, ascending per row)
//! weights:  [w, w, w, …]     (parallel to targets)
//! ```
//!
//! Neighbors keep their *global* ids — community labels live in global
//! node space — and [`DeltaCsr::local_of`] answers "is this neighbor also
//! in `V̂`, and at which row?" in `O(log |V̂|)`. Only touched nodes can
//! change community during the sweep, so that query defines the exact edge
//! set along which "your cached link weights are stale" invalidations
//! propagate; the epoch sweep (on [`SweepCache`](crate::SweepCache)) pays
//! it only when a node actually moves.
//!
//! ## Determinism contract
//!
//! The *row sequence* follows the canonical account-hash sweep order of
//! §V-B (`(address_hash, account id)` — the same total order behind
//! `GTxAlloPlan`'s canonical renumbering), so the epoch sweep visits `V̂`
//! exactly as the paper prescribes. *Within* a row, neighbors sort
//! ascending by global node id — the native row order of
//! [`CsrGraph`](crate::CsrGraph) — and the per-node `incident` scalar is
//! re-derived as `self_loop + Σ row` in that order. So every snapshot row
//! is bit-for-bit the row a whole-graph
//! [`CsrGraph::from_graph`](crate::CsrGraph::from_graph) freeze would
//! hold, yet [`DeltaCsr::refill_touched`] copies it straight out of the
//! mutable graph's sorted-run adjacency, at cost
//! `O(|V̂| log |V̂| + Σ_{v∈V̂} deg v)` — a run copy/merge per row, no
//! per-row sort — independent of graph size. It reads no row outside
//! `V̂`. The tests pin every snapshot array against an extraction from
//! `CsrGraph::from_graph`.

use crate::traits::{fit_u32, NodeId, WeightedGraph};
use crate::txgraph::TxGraph;

/// Compact CSR over an epoch's touched node set (see the module docs).
///
/// ```
/// use txallo_graph::{DeltaCsr, TxGraph};
/// use txallo_model::{AccountId, Transaction};
///
/// let mut g = TxGraph::new();
/// g.ingest_transaction(&Transaction::transfer(AccountId(1), AccountId(2)));
/// g.ingest_transaction(&Transaction::transfer(AccountId(2), AccountId(3)));
///
/// // Epoch touches accounts 2 and 3 only.
/// let n2 = g.node_of(AccountId(2)).unwrap();
/// let n3 = g.node_of(AccountId(3)).unwrap();
/// let snap = DeltaCsr::snapshot_touched(&g, &[n2, n3]);
/// assert_eq!(snap.len(), 2);
///
/// // Node 2's row sees both neighbors; node 1 is outside the snapshot.
/// let row_of_2 = snap.local_of(n2).unwrap() as usize;
/// let (targets, weights) = snap.row(row_of_2);
/// assert_eq!(targets.len(), 2);
/// assert!(weights.iter().all(|&w| w == 1.0));
/// let outside = targets.iter().filter(|&&u| snap.local_of(u).is_none()).count();
/// assert_eq!(outside, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaCsr {
    /// Touched nodes in canonical sweep order (`node[local] = global id`).
    node: Vec<NodeId>,
    /// Row boundaries; row `i` = `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u32>,
    /// Global neighbor ids, ascending within each row.
    targets: Vec<NodeId>,
    /// Edge weights, parallel to `targets`.
    weights: Vec<f64>,
    /// Self-loop weight per touched node.
    self_loops: Vec<f64>,
    /// Incident weight per touched node (`self_loop + Σ row`, row order).
    incident: Vec<f64>,
    /// Touched global ids, ascending — lookup keys for [`DeltaCsr::local_of`].
    id_keys: Vec<NodeId>,
    /// Local row of `id_keys[i]`, parallel to `id_keys`.
    id_vals: Vec<u32>,
    /// Refill-time sort scratch (canonical-key and per-row buffers), kept
    /// so a warm snapshot's rebuild allocates nothing at all.
    scratch: RefillScratch,
}

/// The transient buffers of a snapshot refill (never part of the
/// snapshot's observable state — two snapshots compare equal through the
/// public API regardless of scratch contents).
#[derive(Debug, Clone, Default)]
struct RefillScratch {
    /// `(address hash, node)` sort buffer of `fill_canonical_nodes`.
    keyed: Vec<(u64, NodeId)>,
    /// `(node, local row)` sort buffer for the `local_of` lookup arrays.
    pairs: Vec<(NodeId, u32)>,
}

/// Fills the snapshot's node-order arrays: touched nodes in canonical
/// sweep order (`node`, through [`TxGraph::sort_canonical`]), plus the
/// ascending-id lookup arrays for [`DeltaCsr::local_of`].
fn fill_canonical_nodes(snap: &mut DeltaCsr, graph: &TxGraph, touched: &[NodeId]) {
    graph.sort_canonical(
        touched.iter().copied(),
        &mut snap.scratch.keyed,
        &mut snap.node,
    );
    let pairs = &mut snap.scratch.pairs;
    pairs.clear();
    pairs.extend(snap.node.iter().enumerate().map(|(i, &v)| (v, i as u32)));
    #[expect(
        clippy::disallowed_methods,
        reason = "the keys are the touched node ids, which are distinct, so no two pairs compare equal"
    )]
    pairs.sort_unstable_by_key(|&(v, _)| v);
    snap.id_keys.clear();
    snap.id_keys.extend(pairs.iter().map(|&(v, _)| v));
    snap.id_vals.clear();
    snap.id_vals.extend(pairs.iter().map(|&(_, i)| i));
}

impl DeltaCsr {
    /// Builds the snapshot directly from the mutable graph's sorted-run
    /// adjacency, touching only `touched` and its incident edges.
    ///
    /// `touched` may arrive in any order and must not contain duplicates
    /// (the contract of [`TxGraph::ingest_block`]).
    pub fn snapshot_touched(graph: &TxGraph, touched: &[NodeId]) -> Self {
        let mut snap = Self::default();
        snap.refill_touched(graph, touched);
        snap
    }

    /// [`DeltaCsr::snapshot_touched`] into `self`, reusing every buffer's
    /// capacity — the serving path builds one snapshot per epoch, and
    /// carrying the buffers across epochs (see `AtxAlloSession`) drops the
    /// per-epoch allocations to zero once capacities have warmed up.
    pub fn refill_touched(&mut self, graph: &TxGraph, touched: &[NodeId]) {
        fill_canonical_nodes(self, graph, touched);
        let t = self.node.len();
        let entry_count: usize = self.node.iter().map(|&v| graph.neighbor_count(v)).sum();
        self.offsets.clear();
        self.offsets.reserve(t + 1);
        self.offsets.push(0u32);
        self.targets.clear();
        self.targets.reserve(entry_count);
        self.weights.clear();
        self.weights.reserve(entry_count);
        self.self_loops.clear();
        self.self_loops.reserve(t);
        self.incident.clear();
        self.incident.reserve(t);
        for i in 0..t {
            let v = self.node[i];
            let self_w = graph.self_loop(v);
            // The mutable graph's rows are sorted runs, so assembling a
            // snapshot row is a straight run copy/merge — no gather, no
            // per-row sort keys. The returned sum is the row folded from 0
            // in ascending order, *then* added to the self-loop: exactly
            // the incident fold shape `CsrGraph` uses for the same rows
            // (seeding the accumulator with `self_w` instead would round
            // differently and break bit-identity with `CsrGraph`'s rows).
            let row_sum = graph.copy_row_into(v, &mut self.targets, &mut self.weights);
            self.offsets.push(fit_u32(self.targets.len()));
            self.self_loops.push(self_w);
            self.incident.push(self_w + row_sum);
        }
    }

    /// Forwards to [`DeltaCsr::refill_touched`]. The full-graph snapshot
    /// route is gone (it froze the whole graph into a
    /// [`CsrGraph`](crate::CsrGraph) and extracted the same rows, bit for
    /// bit); the method is kept only because the frozen benchmark harness
    /// (`perfbench/`) still calls it.
    pub fn refill_full(&mut self, graph: &TxGraph, touched: &[NodeId]) {
        self.refill_touched(graph, touched);
    }

    /// Number of snapshot rows (= touched nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// Whether the snapshot is empty (no touched nodes).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// The touched nodes in canonical sweep order (global ids).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.node
    }

    /// Global id of snapshot row `local`.
    #[inline]
    pub fn global_id(&self, local: usize) -> NodeId {
        self.node[local]
    }

    /// Local row of global node `u`, or `None` when `u` is outside the
    /// snapshot (untouched this epoch, label frozen). `O(log |V̂|)`.
    #[inline]
    pub fn local_of(&self, u: NodeId) -> Option<u32> {
        match self.id_keys.binary_search(&u) {
            Ok(i) => Some(self.id_vals[i]),
            Err(_) => None,
        }
    }

    /// Self-loop weight of row `local`.
    #[inline]
    pub fn self_loop(&self, local: usize) -> f64 {
        self.self_loops[local]
    }

    /// Incident weight of row `local` (self-loop counted once).
    #[inline]
    pub fn incident_weight(&self, local: usize) -> f64 {
        self.incident[local]
    }

    /// The row-boundary array (`len() + 1` entries; row `i` covers
    /// `offsets[i]..offsets[i + 1]` of the entry arrays); its last entry
    /// is the snapshot's total entry count.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Row `local` as `(global targets, weights)`, parallel, neighbors
    /// ascending by global id.
    #[inline]
    pub fn row(&self, local: usize) -> (&[NodeId], &[f64]) {
        let (s, e) = (
            self.offsets[local] as usize,
            self.offsets[local + 1] as usize,
        );
        (&self.targets[s..e], &self.weights[s..e])
    }

    /// Approximate resident bytes of the snapshot: every buffer's
    /// *capacity* (the warm-session high-water mark), including the refill
    /// scratch that survives between epochs.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.node.capacity() * size_of::<NodeId>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<NodeId>()
            + self.weights.capacity() * size_of::<f64>()
            + self.self_loops.capacity() * size_of::<f64>()
            + self.incident.capacity() * size_of::<f64>()
            + self.id_keys.capacity() * size_of::<NodeId>()
            + self.id_vals.capacity() * size_of::<u32>()
            + self.scratch.keyed.capacity() * size_of::<(u64, NodeId)>()
            + self.scratch.pairs.capacity() * size_of::<(NodeId, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use txallo_model::{AccountId, Transaction};

    /// The reference snapshot: the whole graph frozen through
    /// [`CsrGraph::from_graph`] and the touched rows extracted in
    /// canonical order, with the lookup arrays built independently of
    /// `fill_canonical_nodes`.
    fn extract_from_csr(g: &TxGraph, touched: &[NodeId]) -> DeltaCsr {
        let csr = CsrGraph::from_graph(g);
        let node: Vec<NodeId> = g
            .nodes_in_canonical_order()
            .into_iter()
            .filter(|v| touched.contains(v))
            .collect();
        let mut by_id: Vec<(NodeId, u32)> = node
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, fit_u32(i)))
            .collect();
        by_id.sort();
        let mut snap = DeltaCsr {
            offsets: vec![0],
            id_keys: by_id.iter().map(|&(v, _)| v).collect(),
            id_vals: by_id.iter().map(|&(_, i)| i).collect(),
            ..DeltaCsr::default()
        };
        for &v in &node {
            snap.targets.extend_from_slice(csr.neighbor_ids(v));
            snap.weights.extend_from_slice(csr.neighbor_weights(v));
            snap.offsets.push(fit_u32(snap.targets.len()));
            snap.self_loops.push(csr.self_loop(v));
            snap.incident.push(csr.incident_weight(v));
        }
        snap.node = node;
        snap
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every observable array of `a` equals `b`'s, floats bit for bit.
    fn assert_same(a: &DeltaCsr, b: &DeltaCsr) {
        assert_eq!(a.node, b.node, "row order");
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        assert_eq!(bits(&a.weights), bits(&b.weights), "weights bit-for-bit");
        assert_eq!(bits(&a.self_loops), bits(&b.self_loops));
        assert_eq!(bits(&a.incident), bits(&b.incident), "incident bit-for-bit");
        assert_eq!(a.id_keys, b.id_keys);
        assert_eq!(a.id_vals, b.id_vals);
    }

    fn graph() -> TxGraph {
        let mut g = TxGraph::new();
        for (a, b) in [(1u64, 2), (2, 3), (3, 4), (4, 1), (2, 2)] {
            g.ingest_transaction(&Transaction::transfer(AccountId(a), AccountId(b)));
        }
        // Multi-account transactions make the clique-edge weights
        // non-dyadic (1/3, 1/6), so the bit-identity assertions below
        // really exercise the summation shape (pure 1.0-weight graphs sum
        // exactly and would mask a wrong fold). Account 7 specifically —
        // self-loop 1.0 plus three 1/6 edges — is a witness where seeding
        // the incident fold with the self-loop rounds differently from
        // `self_loop + Σ row`.
        g.ingest_transaction(
            &Transaction::new(vec![AccountId(2)], vec![AccountId(4), AccountId(5)]).unwrap(),
        );
        g.ingest_transaction(
            &Transaction::new(
                vec![AccountId(7)],
                vec![AccountId(8), AccountId(9), AccountId(10)],
            )
            .unwrap(),
        );
        g.ingest_transaction(&Transaction::transfer(AccountId(7), AccountId(7)));
        g
    }

    /// The touched-rows snapshot equals the rows a whole-graph
    /// `CsrGraph` freeze holds, bit for bit.
    #[test]
    fn touched_and_full_routes_agree() {
        let g = graph();
        // Both a strict subset and the whole node set: the full set covers
        // account 7's fold-order witness row (see `graph()`).
        let subset: Vec<NodeId> = vec![
            g.node_of(AccountId(2)).unwrap(),
            g.node_of(AccountId(3)).unwrap(),
        ];
        let everyone: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        for touched in [subset, everyone] {
            let snap = DeltaCsr::snapshot_touched(&g, &touched);
            assert_same(&snap, &extract_from_csr(&g, &touched));
        }
    }

    #[test]
    fn nodes_canonical_rows_ascending() {
        let g = graph();
        let all: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let snap = DeltaCsr::snapshot_touched(&g, &all);
        assert_eq!(snap.nodes(), g.nodes_in_canonical_order().as_slice());
        for i in 0..snap.len() {
            let (targets, _) = snap.row(i);
            let mut sorted = targets.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(targets, sorted.as_slice(), "row {i} ascending, no dups");
        }
    }

    #[test]
    fn local_of_marks_membership() {
        let g = graph();
        let touched: Vec<NodeId> = vec![
            g.node_of(AccountId(1)).unwrap(),
            g.node_of(AccountId(2)).unwrap(),
        ];
        let snap = DeltaCsr::snapshot_touched(&g, &touched);
        for i in 0..snap.len() {
            let v = snap.global_id(i);
            assert_eq!(snap.local_of(v), Some(i as u32), "self-lookup");
            let (targets, _) = snap.row(i);
            for &u in targets {
                match snap.local_of(u) {
                    Some(l) => assert_eq!(snap.global_id(l as usize), u),
                    None => assert!(!touched.contains(&u)),
                }
            }
        }
    }

    #[test]
    fn scalars_match_the_graph() {
        let g = graph();
        let all: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let snap = DeltaCsr::snapshot_touched(&g, &all);
        for i in 0..snap.len() {
            let v = snap.global_id(i);
            assert_eq!(snap.self_loop(i), g.self_loop(v));
            assert!((snap.incident_weight(i) - g.incident_weight(v)).abs() < 1e-12);
        }
    }

    /// `V̂` containing isolated accounts — degree-0 nodes whose only weight
    /// is a self-loop (a transfer-to-self is how such accounts enter the
    /// graph) — must produce empty rows with the self-loop carried in the
    /// scalars, exactly as the whole-graph `CsrGraph` extraction does.
    #[test]
    fn isolated_new_accounts_have_empty_rows_on_both_routes() {
        let mut g = graph();
        // Two isolated newcomers: pure self-loop, no neighbors.
        g.ingest_transaction(&Transaction::transfer(AccountId(50), AccountId(50)));
        g.ingest_transaction(&Transaction::transfer(AccountId(51), AccountId(51)));
        let i50 = g.node_of(AccountId(50)).unwrap();
        let i51 = g.node_of(AccountId(51)).unwrap();
        assert_eq!(g.neighbor_count(i50), 0, "fixture: degree 0");
        let touched: Vec<NodeId> = vec![i50, g.node_of(AccountId(2)).unwrap(), i51];
        let a = DeltaCsr::snapshot_touched(&g, &touched);
        assert_same(&a, &extract_from_csr(&g, &touched));
        for &iso in &[i50, i51] {
            let local = a.local_of(iso).expect("isolated node is a row") as usize;
            let (targets, weights) = a.row(local);
            assert!(targets.is_empty() && weights.is_empty(), "empty row");
            assert_eq!(a.self_loop(local), 1.0);
            assert_eq!(a.incident_weight(local), 1.0, "incident = self-loop");
        }
        // An isolated-only touched set degenerates gracefully too.
        let only_iso = DeltaCsr::snapshot_touched(&g, &[i50, i51]);
        assert_eq!(only_iso.len(), 2);
        assert!(only_iso.targets.is_empty());
    }

    /// Refilling a warm snapshot must be indistinguishable from building a
    /// fresh one and from the `CsrGraph` extraction, across
    /// differently-shaped epochs (shrinking and growing touched sets);
    /// `refill_full` forwards to the same refill.
    #[test]
    fn refill_reuses_buffers_without_changing_results() {
        let g = graph();
        let everyone: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let small: Vec<NodeId> = vec![
            g.node_of(AccountId(2)).unwrap(),
            g.node_of(AccountId(7)).unwrap(),
        ];
        let mut warm = DeltaCsr::default();
        for touched in [&everyone, &small, &everyone] {
            let reference = extract_from_csr(&g, touched);
            warm.refill_touched(&g, touched);
            assert_same(&warm, &DeltaCsr::snapshot_touched(&g, touched));
            assert_same(&warm, &reference);
            warm.refill_full(&g, touched);
            assert_same(&warm, &reference);
        }
    }

    #[test]
    fn empty_touched_set() {
        let g = graph();
        let snap = DeltaCsr::snapshot_touched(&g, &[]);
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.local_of(0), None);
        assert_same(&snap, &extract_from_csr(&g, &[]));
    }
}
