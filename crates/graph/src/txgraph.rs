//! The incremental transaction graph and its memory accounting.
//!
//! Every row of a [`TxGraph`] stays in core for the graph's whole life:
//! ingestion, decay, snapshots and checkpoints all read and write the one
//! slab, and [`MemoryFootprint`] reports what it holds. A long replay's
//! graph grows with the accounts it has seen; `experiments scale-stream`
//! measures that at a million accounts.

use txallo_model::{AccountId, Block, Ledger, Transaction};

use crate::interner::AccountInterner;
use crate::slab::SortedRunStore;
use crate::traits::{fit_u32, NodeId, WeightedGraph};

/// The interned node view of one block: per-transaction dense node ids
/// plus the deduplicated touched set `V̂` — everything an epoch consumer
/// needs without ever re-hashing an [`AccountId`].
///
/// Produced by [`TxGraph::ingest_block_nodes`]. `tx_nodes(i)` is the
/// interned image of transaction `i`'s deduplicated account set, in
/// `account_set` order, so weight-delta folds (`AtxAlloSession`) can
/// replay the exact clique expansion ingestion performed.
#[derive(Debug, Clone, Default)]
pub struct BlockNodes {
    /// Flattened per-transaction node sets; transaction `i` owns
    /// `tx_nodes[tx_offsets[i]..tx_offsets[i + 1]]`.
    tx_offsets: Vec<u32>,
    tx_nodes: Vec<NodeId>,
    /// Deduplicated touched nodes, ascending.
    touched: Vec<NodeId>,
}

impl BlockNodes {
    /// Number of transactions in the block.
    pub fn tx_count(&self) -> usize {
        self.tx_offsets.len().saturating_sub(1)
    }

    /// Interned account set of transaction `i` (deduplicated, in
    /// `account_set` order).
    pub fn tx_nodes(&self, i: usize) -> &[NodeId] {
        &self.tx_nodes[self.tx_offsets[i] as usize..self.tx_offsets[i + 1] as usize]
    }

    /// The deduplicated touched node set `V̂`, ascending — the A-TxAllo
    /// epoch input.
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Consumes the view, keeping only the touched set.
    pub fn into_touched(self) -> Vec<NodeId> {
        self.touched
    }
}

/// Weighted undirected transaction graph (Definition 2) with incremental
/// ingestion.
///
/// ```
/// use txallo_graph::{TxGraph, WeightedGraph};
/// use txallo_model::{AccountId, Transaction};
///
/// let mut g = TxGraph::new();
/// g.ingest_transaction(&Transaction::transfer(AccountId(1), AccountId(2)));
/// g.ingest_transaction(&Transaction::transfer(AccountId(2), AccountId(3)));
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.total_weight(), 2.0); // one unit of weight per transaction
/// ```
///
/// Per-node adjacency lives in one shared sorted-run arena: each row is
/// an ascending-id sorted run with a small amortized-merge tail, so the
/// mutable graph is CSR-shaped *by construction* — repeated transactions
/// between the same pair still accumulate weight in place (binary search
/// instead of a hash probe, chronological accumulation either way), and
/// every snapshot the sweep kernels run on assembles its rows by straight
/// run copies ([`WeightedGraph::copy_row_into`]) instead of hash iteration
/// plus sorting. Per-node scalars (`incident weight`, self-loop) are
/// flat vectors, following the perf-book advice to keep hot per-node state
/// unboxed and index-addressed.
#[derive(Debug, Clone, Default)]
pub struct TxGraph {
    interner: AccountInterner,
    adjacency: SortedRunStore,
    self_loops: Vec<f64>,
    incident: Vec<f64>,
    total_weight: f64,
    edge_count: usize,
    transaction_count: usize,
}

impl TxGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the graph of an entire ledger.
    pub fn from_ledger(ledger: &Ledger) -> Self {
        let mut g = Self::new();
        for block in ledger.blocks() {
            for tx in block.transactions() {
                g.ingest_transaction(tx);
            }
        }
        g
    }

    /// Rebuilds a graph from checkpointed parts: the interned accounts in
    /// node order, the adjacency as one flat CSR triple
    /// (`row_offsets[v]..row_offsets[v + 1]` indexes node `v`'s ascending
    /// neighbors), and the per-node/global scalars **bit-for-bit** — the
    /// float fields are chronological accumulations that must never be
    /// recomputed on restore.
    ///
    /// The rows land fully merged in the slab, so every later ingestion,
    /// snapshot, and order-dependent float fold behaves exactly as it
    /// would have on the uninterrupted graph.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per decoded checkpoint part; a struct would exist for this one call"
    )]
    pub fn from_checkpoint_parts(
        accounts: &[AccountId],
        row_offsets: &[usize],
        adj_ids: &[NodeId],
        adj_ws: &[f64],
        self_loops: Vec<f64>,
        incident: Vec<f64>,
        total_weight: f64,
        edge_count: usize,
        transaction_count: usize,
    ) -> Self {
        let n = accounts.len();
        assert_eq!(row_offsets.len(), n + 1, "row offsets cover every node");
        assert_eq!(self_loops.len(), n, "one self-loop slot per node");
        assert_eq!(incident.len(), n, "one incident slot per node");
        assert_eq!(adj_ids.len(), adj_ws.len(), "parallel adjacency arrays");
        let mut interner = AccountInterner::default();
        let mut adjacency = SortedRunStore::new();
        for (v, &acct) in accounts.iter().enumerate() {
            let node = interner.intern(acct);
            assert_eq!(node as usize, v, "checkpointed accounts must be unique");
            let (lo, hi) = (row_offsets[v], row_offsets[v + 1]);
            adjacency.push_row_from_sorted(&adj_ids[lo..hi], &adj_ws[lo..hi]);
        }
        Self {
            interner,
            adjacency,
            self_loops,
            incident,
            total_weight,
            edge_count,
            transaction_count,
        }
    }

    fn ensure_node(&mut self, account: AccountId) -> NodeId {
        let n = self.interner.intern(account);
        if n as usize >= self.adjacency.rows() {
            self.adjacency.push_row();
            self.self_loops.push(0.0);
            self.incident.push(0.0);
        }
        n
    }

    /// Does nothing: every row stays in core. Kept, ignored, only because
    /// the frozen `perfbench/` calls it.
    pub fn enable_residency(&mut self, _config: &ResidencyConfig) {}

    /// Always `false`: every row stays in core. Kept, ignored, only
    /// because the frozen `perfbench/` calls it.
    pub fn residency_enabled(&self) -> bool {
        false
    }

    /// Always `0`: every row stays in core. Kept, ignored, only because
    /// the frozen `perfbench/` calls it.
    pub fn advance_residency_epoch(&mut self) -> usize {
        0
    }

    /// Does nothing: every row stays in core. Kept, ignored, only because
    /// the frozen `perfbench/` calls it.
    pub fn ensure_all_resident(&mut self) {}

    /// The current memory accounting of the graph (see
    /// [`MemoryFootprint`]).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            slab_arena_bytes: self.adjacency.arena_bytes(),
            slab_live_entries: self.adjacency.live_entries(),
            node_scalar_bytes: (self.self_loops.capacity() + self.incident.capacity())
                * std::mem::size_of::<f64>(),
            interner_bytes: self.interner.approx_bytes(),
            resident_rows: self.node_count(),
            ..MemoryFootprint::default()
        }
    }

    /// Adds weight `w` between two distinct already-interned nodes — one
    /// clique pair of [`TxGraph::ingest_interned`], so each transaction pays
    /// one interner lookup per account, not one per pair.
    fn add_weight_nodes(&mut self, na: NodeId, nb: NodeId, w: f64) {
        debug_assert!(w > 0.0, "edge weights must be positive");
        debug_assert_ne!(na, nb, "self-loops are ingested by ingest_interned");
        self.total_weight += w;
        if self.adjacency.add(na as usize, nb, w) {
            self.edge_count += 1;
        }
        self.adjacency.add(nb as usize, na, w);
        self.incident[na as usize] += w;
        self.incident[nb as usize] += w;
    }

    /// Multiplies every stored weight by `factor` (decay support).
    pub(crate) fn scale_all_weights(&mut self, factor: f64) {
        self.adjacency.scale_all(factor);
        for w in &mut self.self_loops {
            *w *= factor;
        }
        for w in &mut self.incident {
            *w *= factor;
        }
        self.total_weight *= factor;
    }

    /// Distributes one transaction's unit weight over the clique expansion
    /// of its already-interned account set.
    fn ingest_interned(&mut self, nodes: &[NodeId]) {
        if nodes.len() == 1 {
            let n = nodes[0];
            self.self_loops[n as usize] += 1.0;
            self.incident[n as usize] += 1.0;
            self.total_weight += 1.0;
            return;
        }
        let w = 1.0 / (nodes.len() * (nodes.len() - 1) / 2) as f64;
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                self.add_weight_nodes(nodes[i], nodes[j], w);
            }
        }
    }

    /// Ingests a single transaction: distributes weight `1/π(Tx)` over its
    /// clique expansion and returns the touched node ids.
    pub fn ingest_transaction(&mut self, tx: &Transaction) -> Vec<NodeId> {
        self.transaction_count += 1;
        let set = tx.account_set();
        let mut touched = Vec::with_capacity(set.len());
        for &acct in &set {
            touched.push(self.ensure_node(acct));
        }
        self.ingest_interned(&touched);
        touched
    }

    /// Ingests every transaction of a block, returning the deduplicated set
    /// of touched nodes `V̂` — the working set of A-TxAllo.
    pub fn ingest_block(&mut self, block: &Block) -> Vec<NodeId> {
        self.ingest_block_nodes(block).into_touched()
    }

    /// [`TxGraph::ingest_block`] returning the full interned view: the
    /// deduplicated touched set *and* each transaction's dense node ids, so
    /// epoch consumers (session delta folds, the streaming touched set)
    /// reuse the interner work ingestion already paid instead of re-hashing
    /// every [`AccountId`] per epoch.
    pub fn ingest_block_nodes(&mut self, block: &Block) -> BlockNodes {
        let mut nodes = BlockNodes::default();
        nodes.tx_offsets.push(0);
        for tx in block.transactions() {
            self.transaction_count += 1;
            let set = tx.account_set();
            let start = nodes.tx_nodes.len();
            for &acct in &set {
                nodes.tx_nodes.push(self.ensure_node(acct));
            }
            nodes.tx_offsets.push(fit_u32(nodes.tx_nodes.len()));
            self.ingest_interned(&nodes.tx_nodes[start..]);
        }
        nodes.touched.extend_from_slice(&nodes.tx_nodes);
        nodes.touched.sort_unstable();
        nodes.touched.dedup();
        nodes
    }

    /// The account ↔ node mapping.
    pub fn interner(&self) -> &AccountInterner {
        &self.interner
    }

    /// The account behind a node id.
    pub fn account(&self, node: NodeId) -> AccountId {
        self.interner.account(node)
    }

    /// Node id of an account, if it has appeared in any transaction.
    pub fn node_of(&self, account: AccountId) -> Option<NodeId> {
        self.interner.get(account)
    }

    /// Number of distinct unordered edges (self-loops excluded).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of transactions ingested so far (`|T|`).
    pub fn transaction_count(&self) -> usize {
        self.transaction_count
    }

    /// Edge weight between two nodes (0 if absent); `a == b` returns the
    /// self-loop weight.
    pub fn weight_between(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return self.self_loops[a as usize];
        }
        self.adjacency.get(a as usize, b).unwrap_or(0.0)
    }

    /// Nodes sorted by the canonical account-hash order the paper prescribes
    /// for deterministic sweeps (§V-B).
    pub fn nodes_in_canonical_order(&self) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        let all = 0..fit_u32(self.node_count());
        self.sort_canonical(all, &mut Vec::new(), &mut nodes);
        nodes
    }

    /// Writes `nodes` into `out` in canonical sweep order (§V-B): by
    /// account address hash, ties by raw account id. Each node's hash is
    /// derived through the interner once, into `keyed`, instead of inside
    /// every comparison. The address hash is a bijection of the account
    /// id, so the tie-break never reads the interner for distinct
    /// accounts; it keeps the order total by definition.
    pub(crate) fn sort_canonical(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
        keyed: &mut Vec<(u64, NodeId)>,
        out: &mut Vec<NodeId>,
    ) {
        let id = |v: NodeId| self.interner.account(v).0;
        keyed.clear();
        keyed.extend(
            nodes
                .into_iter()
                .map(|v| (self.interner.account(v).address_hash(), v)),
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "the key ends in the account id, so two entries compare equal only when they are the same node"
        )]
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| id(a.1).cmp(&id(b.1))));
        out.clear();
        out.extend(keyed.iter().map(|&(_, v)| v));
    }
}

impl WeightedGraph for TxGraph {
    fn node_count(&self) -> usize {
        self.interner.len()
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

    /// Merges the row's two sorted runs on the fly.
    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId, f64)) {
        self.adjacency.for_each(v as usize, f);
    }

    fn neighbor_count(&self, v: NodeId) -> usize {
        self.adjacency.row_len(v as usize)
    }

    /// The slab's run copy: one slice copy for a fully merged row, a
    /// two-run merge for a row with a pending tail.
    fn copy_row_into(&self, v: NodeId, ids: &mut Vec<NodeId>, ws: &mut Vec<f64>) -> f64 {
        self.adjacency.copy_row_into(v as usize, ids, ws)
    }
}

/// A point-in-time memory accounting of a [`TxGraph`] — the surface every
/// BENCH snapshot reports, and what the streaming-replay smoke test
/// asserts its resident-bytes ceiling against.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryFootprint {
    /// Allocated slab arena bytes (entry storage + row metadata + merge
    /// scratch, by vector capacity).
    pub slab_arena_bytes: usize,
    /// Live `(id, weight)` entries across all rows (12 bytes each: u32 id
    /// + f64 weight).
    pub slab_live_entries: usize,
    /// Per-node scalar vectors (self-loops, incident weights).
    pub node_scalar_bytes: usize,
    /// Account interner (id vector + hash map estimate).
    pub interner_bytes: usize,
    /// Rows in the slab: every node's.
    pub resident_rows: usize,
    /// Always `0`. Kept, ignored, only because the frozen `perfbench/`
    /// calls it.
    pub spill_bytes: u64,
    /// Always `0`. Kept, ignored, only because the frozen `perfbench/`
    /// calls it.
    pub cold_rows: usize,
    /// Always `0`. Kept, ignored, only because the frozen `perfbench/`
    /// calls it.
    pub evicted_rows: u64,
    /// Always `0`. Kept, ignored, only because the frozen `perfbench/`
    /// calls it.
    pub restored_rows: u64,
}

impl MemoryFootprint {
    /// Total resident bytes of the graph: slab arena, scalars and
    /// interner, each by allocated capacity.
    pub fn resident_bytes(&self) -> usize {
        self.slab_arena_bytes + self.node_scalar_bytes + self.interner_bytes
    }
}

/// Kept, ignored, only because the frozen `perfbench/` calls it: every
/// graph stays in core, so there is nothing to configure.
#[derive(Debug, Clone, Copy)]
pub struct ResidencyConfig;

impl ResidencyConfig {
    /// Kept, ignored, only because the frozen `perfbench/` calls it.
    pub fn in_memory(_window: u32) -> Self {
        Self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: u64) -> AccountId {
        AccountId(v)
    }

    #[test]
    fn transfer_creates_unit_edge() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(a(1), a(2)));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let (n1, n2) = (g.node_of(a(1)).unwrap(), g.node_of(a(2)).unwrap());
        assert!((g.weight_between(n1, n2) - 1.0).abs() < 1e-12);
        assert!((g.total_weight() - 1.0).abs() < 1e-12);
        assert!((g.incident_weight(n1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_transfers_accumulate() {
        let mut g = TxGraph::new();
        for _ in 0..5 {
            g.ingest_transaction(&Transaction::transfer(a(1), a(2)));
        }
        let (n1, n2) = (g.node_of(a(1)).unwrap(), g.node_of(a(2)).unwrap());
        assert!((g.weight_between(n1, n2) - 5.0).abs() < 1e-12);
        assert_eq!(g.edge_count(), 1, "parallel edges merge");
        assert_eq!(g.transaction_count(), 5);
    }

    #[test]
    fn self_loop_accounting() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(a(9), a(9)));
        let n = g.node_of(a(9)).unwrap();
        assert!((g.self_loop(n) - 1.0).abs() < 1e-12);
        assert!((g.incident_weight(n) - 1.0).abs() < 1e-12);
        assert!(
            (g.strength(n) - 2.0).abs() < 1e-12,
            "strength counts loop twice"
        );
        assert_eq!(g.neighbor_count(n), 0);
        assert!((g.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_io_distributes_unit_weight() {
        let mut g = TxGraph::new();
        let tx = Transaction::new(vec![a(1), a(2)], vec![a(3)]).unwrap();
        g.ingest_transaction(&tx);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!((g.total_weight() - 1.0).abs() < 1e-9);
        let n1 = g.node_of(a(1)).unwrap();
        let n2 = g.node_of(a(2)).unwrap();
        assert!((g.weight_between(n1, n2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn total_weight_equals_transaction_count() {
        // Each transaction contributes exactly 1 regardless of arity.
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(a(1), a(2)));
        g.ingest_transaction(&Transaction::new(vec![a(1)], vec![a(2), a(3), a(4)]).unwrap());
        g.ingest_transaction(&Transaction::transfer(a(5), a(5)));
        assert!((g.total_weight() - 3.0).abs() < 1e-9);
        assert_eq!(g.transaction_count(), 3);
    }

    #[test]
    fn ingest_block_reports_touched_nodes() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(a(1), a(2)));
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(a(2), a(3)),
                Transaction::transfer(a(4), a(5)),
            ],
        );
        let touched = g.ingest_block(&block);
        let accounts: Vec<u64> = touched.iter().map(|&n| g.account(n).0).collect();
        assert_eq!(accounts.len(), 4);
        for acct in [2, 3, 4, 5] {
            assert!(accounts.contains(&acct));
        }
    }

    #[test]
    fn block_nodes_carry_per_transaction_interning() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(a(1), a(2)));
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(a(2), a(3)),
                Transaction::transfer(a(7), a(7)),
                Transaction::new(vec![a(1)], vec![a(4), a(5)]).unwrap(),
            ],
        );
        let nodes = g.ingest_block_nodes(&block);
        assert_eq!(nodes.tx_count(), 3);
        // Per-tx sets mirror account_set() through the interner.
        for (i, tx) in block.transactions().iter().enumerate() {
            let expect: Vec<NodeId> = tx
                .account_set()
                .iter()
                .map(|&acct| g.node_of(acct).unwrap())
                .collect();
            assert_eq!(nodes.tx_nodes(i), expect.as_slice(), "tx {i}");
        }
        // Touched = sorted dedup of all per-tx sets.
        let mut expect: Vec<NodeId> = (0..nodes.tx_count())
            .flat_map(|i| nodes.tx_nodes(i).to_vec())
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(nodes.touched(), expect.as_slice());
        // And matches what ingest_block reports on an identical twin.
        let mut twin = TxGraph::new();
        twin.ingest_transaction(&Transaction::transfer(a(1), a(2)));
        assert_eq!(twin.ingest_block(&block), nodes.touched());
    }

    #[test]
    fn neighbors_iterate_ascending_always() {
        // Adversarial insertion order (descending, interleaved, repeated):
        // the sorted-run invariant must hold after every transaction.
        let mut g = TxGraph::new();
        let partners: Vec<u64> = (0..60).map(|i| (997 * (i + 1)) % 61).collect();
        for &p in &partners {
            g.ingest_transaction(&Transaction::transfer(a(0), a(p + 1)));
            let n0 = g.node_of(a(0)).unwrap();
            let mut prev = None;
            g.for_each_neighbor(n0, |u, _| {
                assert!(prev.is_none_or(|p| p < u), "ascending after each ingest");
                prev = Some(u);
            });
        }
        let n0 = g.node_of(a(0)).unwrap();
        assert_eq!(g.neighbor_count(n0), {
            let mut d: Vec<u64> = partners.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        });
    }

    #[test]
    fn self_transfers_and_repeated_pairs_degenerate_cases() {
        // The satellite's degenerate coverage: a node whose entire history
        // is self-transfers plus one pair accumulating many repeats.
        let mut g = TxGraph::new();
        for _ in 0..50 {
            g.ingest_transaction(&Transaction::transfer(a(5), a(5)));
        }
        for _ in 0..50 {
            g.ingest_transaction(&Transaction::transfer(a(1), a(2)));
        }
        let n5 = g.node_of(a(5)).unwrap();
        assert_eq!(g.neighbor_count(n5), 0, "self-transfers create no edges");
        assert_eq!(g.self_loop(n5), 50.0);
        assert_eq!(g.incident_weight(n5), 50.0);
        let (n1, n2) = (g.node_of(a(1)).unwrap(), g.node_of(a(2)).unwrap());
        assert_eq!(g.weight_between(n1, n2), 50.0, "exact unit accumulation");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.transaction_count(), 100);
        // Both directions stored symmetrically.
        assert_eq!(g.weight_between(n2, n1), 50.0);
    }

    #[test]
    fn canonical_order_is_a_permutation_and_stable() {
        let mut g = TxGraph::new();
        for i in 0..50u64 {
            g.ingest_transaction(&Transaction::transfer(a(i), a(i + 1)));
        }
        let order = g.nodes_in_canonical_order();
        assert_eq!(order.len(), g.node_count());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.node_count() as NodeId).collect::<Vec<_>>());
        assert_eq!(order, g.nodes_in_canonical_order());
        let keys: Vec<(u64, u64)> = order
            .iter()
            .map(|&v| (g.account(v).address_hash(), g.account(v).0))
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "strictly ascending (address hash, account id)"
        );
    }

    #[test]
    fn incident_weight_matches_neighbor_sum() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::new(vec![a(1), a(2)], vec![a(3), a(4)]).unwrap());
        g.ingest_transaction(&Transaction::transfer(a(1), a(1)));
        g.ingest_transaction(&Transaction::transfer(a(1), a(3)));
        for v in 0..g.node_count() as NodeId {
            let mut sum = g.self_loop(v);
            g.for_each_neighbor(v, |_, w| sum += w);
            assert!(
                (sum - g.incident_weight(v)).abs() < 1e-9,
                "incident weight cache out of sync for node {v}"
            );
        }
    }

    /// Every account, row, scalar, count and total of `x` equals `y`'s,
    /// floats by bits, and so does the canonical order.
    fn assert_bitwise_equal(x: &TxGraph, y: &TxGraph) {
        assert_eq!(x.node_count(), y.node_count());
        assert_eq!(x.edge_count(), y.edge_count());
        assert_eq!(x.transaction_count(), y.transaction_count());
        assert_eq!(x.total_weight().to_bits(), y.total_weight().to_bits());
        for v in 0..x.node_count() as NodeId {
            assert_eq!(x.account(v), y.account(v));
            assert_eq!(x.self_loop(v).to_bits(), y.self_loop(v).to_bits());
            assert_eq!(
                x.incident_weight(v).to_bits(),
                y.incident_weight(v).to_bits()
            );
            let (mut xr, mut yr) = (Vec::new(), Vec::new());
            x.for_each_neighbor(v, |u, w| xr.push((u, w.to_bits())));
            y.for_each_neighbor(v, |u, w| yr.push((u, w.to_bits())));
            assert_eq!(xr, yr, "row {v}");
        }
        assert_eq!(x.nodes_in_canonical_order(), y.nodes_in_canonical_order());
    }

    #[test]
    fn checkpoint_parts_round_trip_bitwise_and_keep_ingesting() {
        // Build a messy graph, dismantle it into checkpoint parts, rebuild,
        // and require the restored twin to be bitwise-indistinguishable —
        // including for *future* ingestion, which is the property resume
        // correctness rides on.
        let mut g = TxGraph::new();
        for i in 0..30u64 {
            g.ingest_transaction(&Transaction::transfer(a(i % 7), a((i * 5) % 11)));
            g.ingest_transaction(&Transaction::new(vec![a(i)], vec![a(i + 1), a(2)]).unwrap());
        }
        g.apply_decay(0.75);
        g.ingest_transaction(&Transaction::transfer(a(3), a(3)));

        let n = g.node_count();
        let accounts = g.interner().accounts().to_vec();
        let mut offsets = vec![0usize];
        let (mut ids, mut ws) = (Vec::new(), Vec::new());
        for v in 0..n as NodeId {
            g.copy_row_into(v, &mut ids, &mut ws);
            offsets.push(ids.len());
        }
        let self_loops: Vec<f64> = (0..n as NodeId).map(|v| g.self_loop(v)).collect();
        let incident: Vec<f64> = (0..n as NodeId).map(|v| g.incident_weight(v)).collect();
        let mut r = TxGraph::from_checkpoint_parts(
            &accounts,
            &offsets,
            &ids,
            &ws,
            self_loops,
            incident,
            g.total_weight(),
            g.edge_count(),
            g.transaction_count(),
        );

        assert_bitwise_equal(&g, &r);

        // The futures coincide too: new accounts, repeats, decay.
        let block = Block::new(
            9,
            vec![
                Transaction::transfer(a(100), a(3)),
                Transaction::transfer(a(0), a(1)),
                Transaction::new(vec![a(101)], vec![a(102), a(0)]).unwrap(),
            ],
        );
        assert_eq!(g.ingest_block(&block), r.ingest_block(&block));
        g.apply_decay(0.5);
        r.apply_decay(0.5);
        assert_bitwise_equal(&g, &r);
    }

    #[test]
    fn residency_shims_are_inert() {
        // A graph that calls every residency shim between epochs stays
        // bitwise equal to a twin that never called them, and reports
        // every row in core.
        let mut plain = TxGraph::new();
        let mut g = TxGraph::new();
        g.enable_residency(&ResidencyConfig::in_memory(1));
        assert!(!g.residency_enabled());
        for e in 0..12u64 {
            // Three traffic pockets that go hot and idle in turn.
            let base = (e % 3) * 10;
            let txs = (0..12)
                .map(|i| Transaction::transfer(a(base + i % 5), a(base + (i * 3) % 7)))
                .collect();
            let block = Block::new(e, txs);
            for graph in [&mut plain, &mut g] {
                graph.apply_decay(0.9);
            }
            assert_eq!(plain.ingest_block(&block), g.ingest_block(&block));
            assert_eq!(g.advance_residency_epoch(), 0);
            g.ensure_all_resident();
        }
        let fp = g.memory_footprint();
        assert_eq!(
            (
                fp.cold_rows,
                fp.evicted_rows,
                fp.restored_rows,
                fp.spill_bytes
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(fp.resident_rows, g.node_count());
        assert_bitwise_equal(&plain, &g);
    }

    #[test]
    fn memory_footprint_reports_the_slab() {
        let mut g = TxGraph::new();
        for i in 0..50u64 {
            g.ingest_transaction(&Transaction::transfer(a(i), a(i + 1)));
        }
        let fp = g.memory_footprint();
        assert_eq!(fp.resident_rows, g.node_count());
        assert!(fp.slab_live_entries >= 100, "two entries per edge");
        assert!(fp.slab_arena_bytes >= fp.slab_live_entries * 12);
        assert!(fp.interner_bytes > 0);
        assert!(fp.resident_bytes() > 0);
    }

    #[test]
    fn copy_row_into_merges_to_the_full_row() {
        // Forty partners in scrambled order leave node 0 with a pending
        // tail; the copy appends the merged row after what the buffers
        // already hold.
        let mut g = TxGraph::new();
        for i in 0..40u64 {
            g.ingest_transaction(&Transaction::transfer(a(0), a((i * 7) % 41 + 1)));
        }
        let n0 = g.node_of(a(0)).unwrap();
        let (mut ids, mut ws) = (vec![7u32], vec![0.5]);
        let sum = g.copy_row_into(n0, &mut ids, &mut ws);
        let (mut it_ids, mut it_ws, mut it_sum) = (vec![7u32], vec![0.5], 0.0f64);
        g.for_each_neighbor(n0, |u, w| {
            it_ids.push(u);
            it_ws.push(w);
            it_sum += w;
        });
        assert_eq!(ids, it_ids);
        assert_eq!(ws, it_ws);
        assert_eq!(sum.to_bits(), it_sum.to_bits());
        assert_eq!(ids.len(), 1 + g.neighbor_count(n0));
        assert!(ids[1..].windows(2).all(|p| p[0] < p[1]), "ascending");
    }
}
