//! The account-shard mapping (Definition 1).

use txallo_graph::{NodeId, TxGraph};
use txallo_model::{AccountId, ShardId, Transaction};

use crate::streaming::AllocationUpdate;

/// An account-shard mapping `{A₁, …, A_k}`: every graph node carries
/// exactly one shard label (uniqueness + completeness of Definition 1 hold
/// by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    labels: Vec<u32>,
    shard_count: usize,
}

impl Allocation {
    /// Wraps a label vector. Every label must be `< shard_count`.
    pub fn new(labels: Vec<u32>, shard_count: usize) -> Self {
        debug_assert!(
            labels.iter().all(|&l| (l as usize) < shard_count),
            "labels must be within 0..shard_count"
        );
        Self {
            labels,
            shard_count,
        }
    }

    /// All-zero allocation of `n` nodes into one shard (the unsharded
    /// baseline `k = 1`).
    pub fn single_shard(n: usize) -> Self {
        Self {
            labels: vec![0; n],
            shard_count: 1,
        }
    }

    /// Shard of a graph node.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> ShardId {
        ShardId(self.labels[node as usize])
    }

    /// Shard of an account, resolved through the graph's interner.
    /// Returns `None` for accounts absent from the history.
    pub fn shard_of_account(&self, graph: &TxGraph, account: AccountId) -> Option<ShardId> {
        graph.node_of(account).map(|n| self.shard_of(n))
    }

    /// The raw label vector (index = node id).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Moves one node to `shard`, upholding the Definition 1 invariants.
    ///
    /// # Panics
    /// Panics if `node` is out of range or `shard` is not `< shard_count`
    /// — unlike the raw label vector, a validated mutation can never leave
    /// the allocation inconsistent.
    pub fn set_shard(&mut self, node: NodeId, shard: ShardId) {
        assert!(
            (node as usize) < self.labels.len(),
            "node {node} outside the allocation (len {})",
            self.labels.len()
        );
        assert!(
            (shard.0 as usize) < self.shard_count,
            "shard {shard} out of range (k = {})",
            self.shard_count
        );
        self.labels[node as usize] = shard.0;
    }

    /// Appends the label of the next freshly interned node (node ids are
    /// assigned contiguously, so an append is the only way coverage
    /// grows outside [`Allocation::apply_update`]).
    ///
    /// # Panics
    /// Panics if `shard` is not `< shard_count`.
    pub fn push_shard(&mut self, shard: ShardId) {
        assert!(
            (shard.0 as usize) < self.shard_count,
            "shard {shard} out of range (k = {})",
            self.shard_count
        );
        self.labels.push(shard.0);
    }

    /// Forgets the labels of nodes `len..` (no-op past the end).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.labels.truncate(len);
    }

    /// Folds an epoch's [`AllocationUpdate`] diff into the mapping:
    /// migrations relabel existing nodes, placements extend the vector for
    /// brand-new accounts.
    ///
    /// # Panics
    /// Panics when the diff does not apply cleanly: mismatched shard
    /// count, a shrinking node count, a migration whose `from` shard
    /// disagrees with the current label (the diff was computed against a
    /// different base), an out-of-range target shard, or a fresh node the
    /// update failed to place.
    pub fn apply_update(&mut self, update: &AllocationUpdate) {
        assert_eq!(
            update.shard_count, self.shard_count,
            "update is for a different shard count"
        );
        let old_len = self.labels.len();
        assert!(
            update.len >= old_len,
            "allocations never shrink ({} -> {})",
            old_len,
            update.len
        );
        // Fresh slots carry a sentinel until a placement move fills them.
        const PENDING: u32 = u32::MAX;
        self.labels.resize(update.len, PENDING);
        for m in &update.moves {
            let i = m.node as usize;
            assert!(i < update.len, "move targets node {i} outside the update");
            assert!(
                (m.to.0 as usize) < self.shard_count,
                "move targets out-of-range shard {}",
                m.to
            );
            match m.from {
                Some(from) => assert_eq!(
                    self.labels[i], from.0,
                    "diff base mismatch at node {i}: expected shard {from}"
                ),
                None => assert!(
                    i >= old_len,
                    "placement for node {i}, which is already labelled"
                ),
            }
            self.labels[i] = m.to.0;
        }
        assert!(
            self.labels[old_len..].iter().all(|&l| l != PENDING),
            "update left fresh nodes unlabelled"
        );
    }

    /// Number of shards `k`.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of allocated nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Nodes grouped per shard (index = shard id).
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.shard_count];
        for (v, &s) in self.labels.iter().enumerate() {
            groups[s as usize].push(v as NodeId);
        }
        groups
    }

    /// Number of accounts per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shard_count];
        for &s in &self.labels {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Number of shards a transaction over `accounts` touches (`µ(Tx)`),
    /// given the graph used to intern them. Accounts missing from the graph
    /// are ignored (they have no assigned shard yet).
    pub fn shards_touched(&self, graph: &TxGraph, accounts: &[AccountId]) -> usize {
        let mut shards = Vec::new();
        self.shard_set_into(
            accounts.iter().filter_map(|&a| graph.node_of(a)),
            &mut shards,
        );
        shards.len()
    }

    /// The distinct shards `tx` touches, ascending, written into `out`
    /// (cleared first); `out.len()` is `µ(Tx)` (§III-B). A caller that
    /// routes, scores or queues a whole block passes one reused buffer, so
    /// nothing is allocated per transaction.
    ///
    /// # Panics
    /// Panics if an account of `tx` is not interned in `graph`: every
    /// caller ingests a block before it reads the block's shard sets.
    pub fn tx_shards_into(&self, graph: &TxGraph, tx: &Transaction, out: &mut Vec<u32>) {
        let node = |a: &AccountId| {
            graph
                .node_of(*a)
                .expect("accounts are ingested before their shards are read") // txallo-lint: allow(lib-unwrap) — every caller (the chain engine, epoch scoring, the shard queues) ingests the block before reading its shard sets, so all accounts are interned
        };
        self.shard_set_into(tx.inputs().iter().chain(tx.outputs()).map(node), out);
    }

    /// The distinct shards of `nodes`, ascending, into `out`.
    fn shard_set_into(&self, nodes: impl Iterator<Item = NodeId>, out: &mut Vec<u32>) {
        out.clear();
        out.extend(nodes.map(|n| self.labels[n as usize]));
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_model::Transaction;

    #[test]
    fn groups_and_sizes_are_consistent() {
        let a = Allocation::new(vec![0, 1, 0, 2, 1, 0], 3);
        assert_eq!(a.shard_sizes(), vec![3, 2, 1]);
        let groups = a.groups();
        assert_eq!(groups[0], vec![0, 2, 5]);
        assert_eq!(groups[1], vec![1, 4]);
        assert_eq!(groups[2], vec![3]);
        assert_eq!(a.len(), 6);
        assert_eq!(a.shard_count(), 3);
    }

    #[test]
    fn account_resolution() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(AccountId(10), AccountId(20)));
        let alloc = Allocation::new(vec![1, 0], 2);
        assert_eq!(alloc.shard_of_account(&g, AccountId(10)), Some(ShardId(1)));
        assert_eq!(alloc.shard_of_account(&g, AccountId(20)), Some(ShardId(0)));
        assert_eq!(alloc.shard_of_account(&g, AccountId(99)), None);
    }

    #[test]
    fn shards_touched_counts_distinct() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(AccountId(1), AccountId(2)));
        g.ingest_transaction(&Transaction::transfer(AccountId(3), AccountId(4)));
        let alloc = Allocation::new(vec![0, 0, 1, 1], 2);
        assert_eq!(alloc.shards_touched(&g, &[AccountId(1), AccountId(2)]), 1);
        assert_eq!(alloc.shards_touched(&g, &[AccountId(1), AccountId(3)]), 2);
        assert_eq!(alloc.shards_touched(&g, &[AccountId(1), AccountId(99)]), 1);
    }

    #[test]
    fn single_shard_helper() {
        let a = Allocation::single_shard(4);
        assert_eq!(a.shard_count(), 1);
        assert!(a.labels().iter().all(|&l| l == 0));
    }

    #[test]
    fn set_shard_validates() {
        let mut a = Allocation::new(vec![0, 1, 0], 2);
        a.set_shard(2, ShardId(1));
        assert_eq!(a.labels(), &[0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_shard_rejects_bad_shard() {
        let mut a = Allocation::new(vec![0, 1], 2);
        a.set_shard(0, ShardId(5));
    }

    #[test]
    #[should_panic(expected = "outside the allocation")]
    fn set_shard_rejects_bad_node() {
        let mut a = Allocation::new(vec![0, 1], 2);
        a.set_shard(9, ShardId(0));
    }

    mod apply_update {
        use super::*;
        use crate::streaming::{AccountMove, AllocationUpdate, StateCarry, UpdateKind};

        fn update(len: usize, moves: Vec<AccountMove>) -> AllocationUpdate {
            AllocationUpdate {
                shard_count: 2,
                len,
                kind: UpdateKind::Adaptive,
                path: None,
                carry: StateCarry::Warm,
                moves,
            }
        }

        #[test]
        fn migrations_and_placements_apply() {
            let mut a = Allocation::new(vec![0, 1, 0], 2);
            let u = update(
                5,
                vec![
                    AccountMove {
                        node: 1,
                        from: Some(ShardId(1)),
                        to: ShardId(0),
                    },
                    AccountMove {
                        node: 3,
                        from: None,
                        to: ShardId(1),
                    },
                    AccountMove {
                        node: 4,
                        from: None,
                        to: ShardId(0),
                    },
                ],
            );
            assert_eq!(u.migrations(), 1);
            assert_eq!(u.placements(), 2);
            a.apply_update(&u);
            assert_eq!(a.labels(), &[0, 0, 0, 1, 0]);
        }

        #[test]
        #[should_panic(expected = "diff base mismatch")]
        fn stale_base_is_rejected() {
            let mut a = Allocation::new(vec![0, 0], 2);
            a.apply_update(&update(
                2,
                vec![AccountMove {
                    node: 0,
                    from: Some(ShardId(1)),
                    to: ShardId(0),
                }],
            ));
        }

        #[test]
        #[should_panic(expected = "unlabelled")]
        fn missing_placement_is_rejected() {
            let mut a = Allocation::new(vec![0], 2);
            a.apply_update(&update(3, vec![]));
        }
    }
}
