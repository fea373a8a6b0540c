//! Property-based tests of the domain model invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;
use txallo_model::{AccountId, Block, Ledger, Transaction};

/// Strategy: non-empty account-id vectors.
fn accounts(max: u64, len: usize) -> impl Strategy<Value = Vec<AccountId>> {
    prop::collection::vec((0..max).prop_map(AccountId), 1..len)
}

proptest! {
    /// `account_count` equals the deduplicated set size, and a transaction
    /// is a self-loop exactly when that set has one account.
    #[test]
    fn pair_count_formula(ins in accounts(20, 4), outs in accounts(20, 4)) {
        let tx = Transaction::new(ins, outs).unwrap();
        let n = tx.account_count();
        prop_assert_eq!(n, tx.account_set().len());
        prop_assert_eq!(tx.is_self_loop(), n == 1);
    }

    /// Hash-based shard assignment is total, stable and in range for any k.
    #[test]
    fn hash_shard_total_and_in_range(addr in any::<u64>(), k in 1usize..100) {
        let shard = AccountId(addr).hash_shard(k);
        prop_assert!(shard.index() < k);
        prop_assert_eq!(shard, AccountId(addr).hash_shard(k));
    }

    /// Ledger construction accepts exactly the contiguous-height block
    /// sequences.
    #[test]
    fn ledger_contiguity(base in 0u64..1000, lens in prop::collection::vec(0usize..5, 1..8)) {
        let blocks: Vec<Block> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let txs = (0..l)
                    .map(|j| Transaction::transfer(AccountId(j as u64), AccountId(j as u64 + 1)))
                    .collect();
                Block::new(base + i as u64, txs)
            })
            .collect();
        let ledger = Ledger::from_blocks(blocks.clone()).expect("contiguous by construction");
        prop_assert_eq!(ledger.block_count(), lens.len());
        prop_assert_eq!(ledger.transaction_count(), lens.iter().sum::<usize>());
        // A gap anywhere breaks it.
        if blocks.len() >= 2 {
            let mut gapped = blocks;
            let last = gapped.len() - 1;
            let h = gapped[last].height();
            gapped[last] = Block::new(h + 1, vec![]);
            prop_assert!(Ledger::from_blocks(gapped).is_err());
        }
    }

    /// Ledger stats are internally consistent.
    #[test]
    fn stats_consistency(pairs in prop::collection::vec((0u64..30, 0u64..30), 1..60)) {
        let txs: Vec<Transaction> = pairs
            .iter()
            .map(|&(a, b)| Transaction::transfer(AccountId(a), AccountId(b)))
            .collect();
        let ledger = Ledger::from_blocks(vec![Block::new(0, txs)]).unwrap();
        let stats = ledger.stats();
        prop_assert_eq!(stats.transaction_count, pairs.len());
        prop_assert!(stats.self_loop_count <= stats.transaction_count);
        prop_assert!(stats.max_account_activity as usize <= stats.transaction_count);
        prop_assert!(stats.hottest_account_share() <= 1.0 + 1e-12);
        let mut activity: BTreeMap<AccountId, u64> = BTreeMap::new();
        for tx in ledger.transactions() {
            for acct in tx.account_set() {
                *activity.entry(acct).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(activity.len(), stats.account_count);
        prop_assert_eq!(
            activity.values().copied().max().unwrap_or(0),
            stats.max_account_activity
        );
    }
}
