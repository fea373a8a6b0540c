//! The ledger `L = {B_1, ..., B_n}` and summary statistics.

use crate::account::AccountId;
use crate::block::Block;
use crate::error::ModelError;
use crate::hash::FxHashMap;
use crate::transaction::Transaction;

/// An append-only, totally ordered sequence of blocks (§III-A).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    blocks: Vec<Block>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a ledger from blocks, validating that heights are contiguous
    /// and ascending from the first block's height.
    pub fn from_blocks(blocks: Vec<Block>) -> Result<Self, ModelError> {
        for pair in blocks.windows(2) {
            if pair[1].height() != pair[0].height() + 1 {
                return Err(ModelError::NonContiguousBlocks {
                    expected: pair[0].height() + 1,
                    found: pair[1].height(),
                });
            }
        }
        Ok(Self { blocks })
    }

    /// Appends a block; its height must extend the chain by exactly one
    /// (or set the base height when the ledger is empty).
    pub fn push_block(&mut self, block: Block) -> Result<(), ModelError> {
        if let Some(last) = self.blocks.last() {
            if block.height() != last.height() + 1 {
                return Err(ModelError::NonContiguousBlocks {
                    expected: last.height() + 1,
                    found: block.height(),
                });
            }
        }
        self.blocks.push(block);
        Ok(())
    }

    /// All blocks in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks (`n`).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates every transaction in ledger order.
    pub fn transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.blocks.iter().flat_map(|b| b.transactions().iter())
    }

    /// Total number of transactions (`|T|`).
    pub fn transaction_count(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Computes summary statistics over the whole ledger.
    pub fn stats(&self) -> LedgerStats {
        let mut activity: FxHashMap<AccountId, u64> = FxHashMap::default();
        let mut tx_count = 0usize;
        let mut self_loops = 0usize;
        let mut multi_io = 0usize;
        let mut max_activity = 0u64;
        for tx in self.transactions() {
            tx_count += 1;
            if tx.is_self_loop() {
                self_loops += 1;
            }
            if tx.account_count() > 2 {
                multi_io += 1;
            }
            for acct in tx.account_set() {
                let count = activity.entry(acct).or_insert(0);
                *count += 1;
                max_activity = max_activity.max(*count);
            }
        }
        LedgerStats {
            block_count: self.block_count(),
            transaction_count: tx_count,
            account_count: activity.len(),
            self_loop_count: self_loops,
            multi_io_count: multi_io,
            max_account_activity: max_activity,
        }
    }
}

/// Ledger-level summary numbers (used by the Fig. 1 experiment and README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerStats {
    /// Number of blocks.
    pub block_count: usize,
    /// Number of transactions.
    pub transaction_count: usize,
    /// Number of distinct accounts.
    pub account_count: usize,
    /// Transactions touching exactly one account.
    pub self_loop_count: usize,
    /// Transactions touching more than two accounts.
    pub multi_io_count: usize,
    /// Largest per-account participation count.
    pub max_account_activity: u64,
}

impl LedgerStats {
    /// Fraction of all transactions involving the most active account.
    pub fn hottest_account_share(&self) -> f64 {
        if self.transaction_count == 0 {
            0.0
        } else {
            self.max_account_activity as f64 / self.transaction_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(from: u64, to: u64) -> Transaction {
        Transaction::transfer(AccountId(from), AccountId(to))
    }

    #[test]
    fn push_enforces_contiguity() {
        let mut l = Ledger::new();
        l.push_block(Block::new(5, vec![])).unwrap();
        l.push_block(Block::new(6, vec![tx(1, 2)])).unwrap();
        let err = l.push_block(Block::new(8, vec![])).unwrap_err();
        assert!(matches!(
            err,
            ModelError::NonContiguousBlocks {
                expected: 7,
                found: 8
            }
        ));
        assert_eq!(l.block_count(), 2);
    }

    #[test]
    fn from_blocks_validates() {
        assert!(Ledger::from_blocks(vec![Block::new(0, vec![]), Block::new(2, vec![])]).is_err());
        assert!(Ledger::from_blocks(vec![Block::new(3, vec![]), Block::new(4, vec![])]).is_ok());
    }

    #[test]
    fn stats_counts() {
        let blocks = vec![
            Block::new(0, vec![tx(1, 2), tx(1, 1)]),
            Block::new(
                1,
                vec![
                    Transaction::new(vec![AccountId(1)], vec![AccountId(2), AccountId(3)]).unwrap(),
                    tx(1, 3),
                ],
            ),
        ];
        let l = Ledger::from_blocks(blocks).unwrap();
        let s = l.stats();
        assert_eq!(s.block_count, 2);
        assert_eq!(s.transaction_count, 4);
        assert_eq!(s.account_count, 3);
        assert_eq!(s.self_loop_count, 1);
        assert_eq!(s.multi_io_count, 1);
        // account 1 appears in all four transactions.
        assert_eq!(s.max_account_activity, 4);
        assert!((s.hottest_account_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transaction_iteration_order() {
        let l = Ledger::from_blocks(vec![
            Block::new(0, vec![tx(1, 2)]),
            Block::new(1, vec![tx(3, 4), tx(5, 6)]),
        ])
        .unwrap();
        let firsts: Vec<u64> = l.transactions().map(|t| t.inputs()[0].0).collect();
        assert_eq!(firsts, vec![1, 3, 5]);
        assert_eq!(l.transaction_count(), 3);
    }
}
