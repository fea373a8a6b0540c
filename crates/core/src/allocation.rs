//! The account-shard mapping (Definition 1).

use txallo_graph::{NodeId, TxGraph};
use txallo_model::{ShardId, Transaction};

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

    /// Shard of a graph node.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> ShardId {
        ShardId(self.labels[node as usize])
    }

    /// The raw label vector (index = node id).
    pub fn labels(&self) -> &[u32] {
        &self.labels
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

    /// The distinct shards `tx` touches, ascending, written into `out`
    /// (cleared first); `out.len()` is `µ(Tx)` (§III-B). A caller that
    /// routes, scores or queues a whole block passes one reused buffer, so
    /// nothing is allocated per transaction.
    ///
    /// # Panics
    /// Panics if an account of `tx` is not interned in `graph`: every
    /// caller ingests a block before it reads the block's shard sets.
    pub fn tx_shards_into(&self, graph: &TxGraph, tx: &Transaction, out: &mut Vec<u32>) {
        out.clear();
        for &a in tx.inputs().iter().chain(tx.outputs()) {
            #[expect(
                clippy::expect_used,
                reason = "every caller (the chain engine, epoch scoring, the shard queues, the ledger-level γ over a dataset's graph) ingests the transactions before reading their shard sets, so all accounts are interned"
            )]
            let node = graph
                .node_of(a)
                .expect("accounts are ingested before their shards are read");
            out.push(self.labels[node as usize]);
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_model::AccountId;

    #[test]
    fn tx_shards_into_counts_distinct() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(AccountId(1), AccountId(2)));
        g.ingest_transaction(&Transaction::transfer(AccountId(3), AccountId(4)));
        let alloc = Allocation::new(vec![0, 0, 1, 1], 2);
        let mut shards = vec![7];
        let transfer = |a, b| Transaction::transfer(AccountId(a), AccountId(b));
        alloc.tx_shards_into(&g, &transfer(1, 2), &mut shards);
        assert_eq!(shards, [0], "one shard, buffer cleared first");
        alloc.tx_shards_into(&g, &transfer(3, 1), &mut shards);
        assert_eq!(shards, [0, 1], "distinct shards, ascending");
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
