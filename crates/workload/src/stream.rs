//! Counter-based streaming workload: any block regenerable independently.
//!
//! [`EthereumLikeGenerator`] carries a mutable `SmallRng`, so block `h` is
//! only reachable by generating blocks `0..h` first and the whole ledger
//! must be materialized to replay an epoch twice. [`StreamingWorkload`]
//! removes the stored stream state: every random decision is a pure
//! function of `(seed, account index, draw counter)` through `mix64`, in
//! the style of zksync-era's `loadnext` per-account seeded RNG streams.
//! Consequences:
//!
//! - `block_at(h)` is a pure function — any epoch is regenerable on
//!   demand, in any order, on any worker, and replay is bit-identical to
//!   a materialized run by construction (no hidden cursor to desync);
//! - the resident source state is `O(accounts)` derived tables (group
//!   assignment and activity CDFs), never the `O(transactions)` ledger —
//!   the piece the out-of-core replay subsystem needs to stream
//!   multi-million-account epochs through the allocator without holding
//!   the chain in memory.
//!
//! The statistical shape mirrors [`EthereumLikeGenerator`] (same config
//! vocabulary: Zipf activity, latent groups, one hot account, drift,
//! births, self-loops, multi-IO) with one documented deviation: accounts
//! born mid-stream get deterministic ids derived from their birth
//! transaction and do **not** re-enter circulation (the generator routes
//! 5% of member picks to newborns). Drift rotation supplies the hot/cold
//! churn that path provided.
//!
//! [`EthereumLikeGenerator`]: crate::EthereumLikeGenerator

use std::ops::Range;

use txallo_model::hash::mix64;
use txallo_model::{AccountId, Block, BlockHeight, Ledger, Transaction};

use crate::config::WorkloadConfig;
use crate::zipf::ZipfTable;

/// Domain-separation salts (arbitrary odd constants, one per decision
/// family — the same idiom as the fault injector's `SALT_*`).
const SALT_SETUP: u64 = 0xA076_1D64_78BD_642F;
const SALT_TX: u64 = 0xE703_7ED1_A0B4_28DB;
const SALT_ACCOUNT: u64 = 0x8EBC_6AF0_9C88_C6E3;

/// A stateless counter-based draw stream: draw `i` is
/// `mix64(key ^ i)` — no stored RNG state beyond the position counter,
/// so two streams with the same key always produce the same sequence.
#[derive(Debug, Clone, Copy)]
struct Draws {
    key: u64,
    counter: u64,
}

impl Draws {
    fn new(key: u64) -> Self {
        Self { key, counter: 0 }
    }

    /// Stream for transaction-level decisions of global ordinal `ord`.
    fn for_tx(seed: u64, ord: u64) -> Self {
        Self::new(mix64(seed ^ mix64(ord ^ SALT_TX)))
    }

    /// Stream for decisions attributed to `account` at ordinal `ord` —
    /// the "seed ⊕ account-index ⊕ draw-counter" per-account stream.
    fn for_account(seed: u64, account: u64, ord: u64) -> Self {
        Self::new(mix64(
            seed ^ mix64(account ^ SALT_ACCOUNT) ^ mix64(ord ^ SALT_TX),
        ))
    }

    fn next_u64(&mut self) -> u64 {
        let r = mix64(self.key ^ self.counter);
        self.counter += 1;
        r
    }

    /// Uniform in `[0, 1)` with 53 mantissa bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`. The modulo bias is ≤ `n / 2⁶⁴` — irrelevant for
    /// a synthetic workload's account picks.
    fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A purely functional Ethereum-like workload source: blocks are
/// synthesized on demand from counter-based RNG streams, so the ledger
/// never needs materializing and any epoch is regenerable independently.
///
/// ```
/// use txallo_workload::{StreamingWorkload, WorkloadConfig};
///
/// let config = WorkloadConfig { accounts: 500, block_size: 50, ..Default::default() };
/// let stream = StreamingWorkload::new(config, 42);
/// // Pure: the same height always yields the same block, in any order.
/// assert_eq!(stream.block_at(7), stream.block_at(7));
/// assert_eq!(stream.blocks(0..10).len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    config: WorkloadConfig,
    seed: u64,
    /// Global activity table over the *non-hot* accounts (ranks map to
    /// account ids `1..accounts`).
    activity: ZipfTable,
    /// Group id of each static account.
    group_of: Vec<u32>,
    /// Static members per group (ascending account id), account 0 excluded.
    members: Vec<Vec<u64>>,
    /// Activity table per group, aligned with `members`.
    member_activity: Vec<ZipfTable>,
    /// Base Zipf table over groups (popularity before drift rotation).
    group_table: ZipfTable,
}

impl StreamingWorkload {
    /// Builds the derived tables — `O(accounts)` work and memory, all a
    /// pure function of `(config, seed)`.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        config.validate();
        let n = config.accounts;
        let g = config.groups.min(n / 2).max(1);

        // Group popularity (sizes) follow a Zipf law of their own.
        let group_weights: Vec<f64> = (0..g)
            .map(|i| 1.0 / ((i + 1) as f64).powf(config.group_size_exponent))
            .collect();
        let group_table = ZipfTable::from_weights(&group_weights);

        // Assign accounts to groups: the first 2g accounts round-robin (so
        // no group is empty), the rest by popularity — same shape as the
        // stateful generator, drawn from the setup stream.
        let mut setup = Draws::new(mix64(seed ^ SALT_SETUP));
        let mut group_of = vec![0u32; n];
        for (i, slot) in group_of.iter_mut().enumerate() {
            *slot = if i < 2 * g {
                (i % g) as u32
            } else {
                group_table.sample_at(setup.next_f64()) as u32
            };
        }

        let mut members: Vec<Vec<u64>> = vec![Vec::new(); g];
        for (i, &grp) in group_of.iter().enumerate() {
            if i == 0 {
                continue; // the hot account is handled explicitly
            }
            members[grp as usize].push(i as u64);
        }
        let member_activity: Vec<ZipfTable> = members
            .iter()
            .map(|m| {
                if m.is_empty() {
                    ZipfTable::from_weights(&[1.0])
                } else {
                    let w: Vec<f64> = m
                        .iter()
                        .map(|&id| 1.0 / ((id + 1) as f64).powf(config.activity_exponent))
                        .collect();
                    ZipfTable::from_weights(&w)
                }
            })
            .collect();

        let activity = ZipfTable::new(n.saturating_sub(1).max(1), config.activity_exponent);

        Self {
            config,
            seed,
            activity,
            group_of,
            members,
            member_activity,
            group_table,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The seed fixing the whole trace.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The id of the globally hottest account.
    pub fn hot_account(&self) -> AccountId {
        AccountId(0)
    }

    /// Group count after clamping to the account budget.
    pub fn group_count(&self) -> usize {
        self.members.len()
    }

    /// Static accounts in the universe (births mint ids above this).
    pub fn initial_accounts(&self) -> u64 {
        self.config.accounts as u64
    }

    /// The latent group of a static account (ground truth for tests).
    pub fn group_of(&self, account: AccountId) -> Option<u32> {
        self.group_of.get(account.0 as usize).copied()
    }

    /// Samples a non-hot static account id from the global activity law.
    fn sample_global(&self, d: &mut Draws) -> u64 {
        self.activity.sample_at(d.next_f64()) as u64 + 1
    }

    /// Samples a group by drifted popularity. The generator rebuilds a
    /// rotated-weight table per draw; rotating the *rank* after sampling
    /// the base table picks group `i` with probability proportional to
    /// `base[(i + epoch) % g]` — the identical distribution, allocation
    /// free.
    fn sample_group(&self, epoch: u64, d: &mut Draws) -> usize {
        let g = self.group_table.len();
        let j = self.group_table.sample_at(d.next_f64());
        (j + g - (epoch as usize % g)) % g
    }

    /// Samples a static member of `group` by within-group activity.
    fn sample_member(&self, group: usize, d: &mut Draws) -> u64 {
        if self.members[group].is_empty() {
            return self.sample_global(d);
        }
        let idx = self.member_activity[group].sample_at(d.next_f64());
        self.members[group][idx]
    }

    /// Samples a member of `group` other than `exclude`: a few retries,
    /// then a deterministic scan, then a global fallback.
    fn sample_member_excluding(&self, group: usize, exclude: u64, d: &mut Draws) -> u64 {
        for _ in 0..8 {
            let r = self.sample_member(group, d);
            if r != exclude {
                return r;
            }
        }
        if let Some(&m) = self.members[group].iter().find(|&&m| m != exclude) {
            return m;
        }
        self.sample_global(d)
    }

    /// Synthesizes the transaction at `(height, idx)` — a pure function.
    fn transaction_at(&self, height: BlockHeight, idx: usize) -> Transaction {
        let cfg = &self.config;
        let epoch = height / cfg.drift_interval.max(1);
        let ord = height * cfg.block_size as u64 + idx as u64;
        let mut t = Draws::for_tx(self.seed, ord);

        // Hot-account involvement: mostly uniform-tail counterparties (an
        // exchange's long tail), occasionally another active account.
        if t.next_f64() < cfg.hot_account_share {
            let partner = if t.next_f64() < 0.75 {
                AccountId(1 + t.next_below(cfg.accounts as u64 - 1))
            } else {
                AccountId(self.sample_global(&mut t))
            };
            return if t.next_bool() {
                Transaction::transfer(self.hot_account(), partner)
            } else {
                Transaction::transfer(partner, self.hot_account())
            };
        }

        let sender = self.sample_global(&mut t);
        if t.next_f64() < cfg.self_loop_prob {
            return Transaction::transfer(AccountId(sender), AccountId(sender));
        }

        // Everything attributed to the sender comes from its own
        // counter-based stream.
        let mut a = Draws::for_account(self.seed, sender, ord);
        let receiver = if a.next_f64() < cfg.new_account_prob {
            // Births mint deterministic ids above the static universe; at
            // most one birth per transaction, so the ordinal is unique.
            self.initial_accounts() + ord
        } else if a.next_f64() < cfg.intra_group_prob {
            let group = self.group_of[sender as usize] as usize;
            self.sample_member_excluding(group, sender, &mut a)
        } else if a.next_f64() < 0.5 {
            // Diffuse mixing: a uniformly random counterparty.
            1 + a.next_below(cfg.accounts as u64 - 1)
        } else {
            // Drifting mixing: a member of a currently-popular group.
            let group = self.sample_group(epoch, &mut a);
            self.sample_member(group, &mut a)
        };

        if a.next_f64() < cfg.multi_io_prob {
            let extras = 1 + a.next_below(cfg.max_extra_outputs.max(1) as u64);
            let group = self.group_of[sender as usize] as usize;
            let mut outputs = vec![AccountId(receiver)];
            for _ in 0..extras {
                outputs.push(AccountId(self.sample_member(group, &mut a)));
            }
            outputs.sort_unstable();
            outputs.dedup();
            return Transaction::new(vec![AccountId(sender)], outputs)
                .expect("non-empty endpoints by construction"); // txallo-lint: allow(lib-unwrap) — inputs and outputs are built non-empty a few lines above, the only Transaction::new error
        }

        Transaction::transfer(AccountId(sender), AccountId(receiver))
    }

    /// Synthesizes the block at `height` — pure, so any block is
    /// regenerable independently and replay is bit-identical to a
    /// materialized run by construction.
    pub fn block_at(&self, height: BlockHeight) -> Block {
        let txs: Vec<Transaction> = (0..self.config.block_size)
            .map(|i| self.transaction_at(height, i))
            .collect();
        Block::new(height, txs)
    }

    /// Synthesizes a contiguous range of blocks.
    pub fn blocks(&self, heights: Range<u64>) -> Vec<Block> {
        heights.map(|h| self.block_at(h)).collect()
    }

    /// Lazily synthesizes a contiguous range of blocks — one block alive
    /// at a time, for feeding iterator-driven replay loops
    /// (`ShardedChainSim::warmup_streamed`, or `ChainService::process_block`
    /// per block) without materializing the range.
    pub fn block_iter(&self, heights: Range<u64>) -> impl Iterator<Item = Block> + '_ {
        heights.map(|h| self.block_at(h))
    }

    /// Synthesizes epoch `epoch` of an `epoch_blocks`-block epoch grid —
    /// the unit the out-of-core replay loop materializes at a time.
    pub fn epoch_blocks(&self, epoch: u64, epoch_blocks: u64) -> Vec<Block> {
        let start = epoch * epoch_blocks;
        self.blocks(start..start + epoch_blocks)
    }

    /// Materializes the first `count` blocks as a [`Ledger`] (for tests
    /// and small-scale comparisons against the streamed path).
    pub fn ledger(&self, count: u64) -> Ledger {
        // txallo-lint: allow(lib-unwrap) — blocks() numbers heights contiguously from 0, the only Ledger::from_blocks error
        Ledger::from_blocks(self.blocks(0..count)).expect("heights are contiguous by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::{GraphStats, TxGraph};

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 2_000,
            transactions: 30_000,
            block_size: 100,
            groups: 40,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn blocks_are_pure_and_order_independent() {
        let s = StreamingWorkload::new(small_config(), 99);
        // Query out of order, then in order — identical blocks.
        let backwards: Vec<Block> = (0..20u64).rev().map(|h| s.block_at(h)).collect();
        let forwards = s.blocks(0..20);
        for (f, b) in forwards.iter().zip(backwards.iter().rev()) {
            assert_eq!(f, b);
        }
    }

    #[test]
    fn epochs_are_regenerable_independently() {
        let s = StreamingWorkload::new(small_config(), 7);
        let all = s.blocks(0..30);
        for e in 0..3 {
            let epoch = s.epoch_blocks(e, 10);
            assert_eq!(&all[(e * 10) as usize..((e + 1) * 10) as usize], &epoch[..]);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = StreamingWorkload::new(small_config(), 1);
        let b = StreamingWorkload::new(small_config(), 2);
        assert_ne!(a.block_at(0), b.block_at(0));
    }

    #[test]
    fn hot_account_share_is_near_target() {
        let s = StreamingWorkload::new(small_config(), 42);
        let stats = s.ledger(300).stats();
        let share = stats.hottest_account_share();
        assert!(
            (0.08..0.25).contains(&share),
            "hottest account share {share} not in the expected band"
        );
    }

    #[test]
    fn activity_is_long_tailed() {
        let cfg = WorkloadConfig {
            accounts: 10_000,
            transactions: 30_000,
            block_size: 100,
            groups: 100,
            ..WorkloadConfig::default()
        };
        let s = StreamingWorkload::new(cfg, 42);
        let graph = TxGraph::from_ledger(&s.ledger(300));
        let stats = GraphStats::compute(&graph);
        assert!(stats.gini > 0.5, "gini = {}", stats.gini);
        assert!(
            stats.low_activity_fraction > 0.3,
            "got {}",
            stats.low_activity_fraction
        );
    }

    #[test]
    fn group_structure_is_present() {
        let s = StreamingWorkload::new(small_config(), 7);
        let mut intra = 0usize;
        let mut cross = 0usize;
        for block in s.blocks(0..300) {
            for tx in block.transactions() {
                let set = tx.account_set();
                if set.len() != 2 || set[0].0 == 0 {
                    continue;
                }
                let (Some(ga), Some(gb)) = (s.group_of(set[0]), s.group_of(set[1])) else {
                    continue;
                };
                if ga == gb {
                    intra += 1;
                } else {
                    cross += 1;
                }
            }
        }
        let ratio = intra as f64 / (intra + cross).max(1) as f64;
        assert!(ratio > 0.5, "intra-group ratio too low: {ratio}");
    }

    #[test]
    fn births_mint_fresh_ids_above_the_universe() {
        let mut cfg = small_config();
        cfg.new_account_prob = 0.05;
        let s = StreamingWorkload::new(cfg, 5);
        let mut born = Vec::new();
        for block in s.blocks(0..50) {
            for tx in block.transactions() {
                for a in tx.account_set() {
                    if a.0 >= s.initial_accounts() {
                        born.push(a.0);
                    }
                }
            }
        }
        assert!(!born.is_empty(), "expected account births");
        born.sort_unstable();
        let len = born.len();
        born.dedup();
        assert_eq!(born.len(), len, "birth ids are unique");
    }

    #[test]
    fn self_loops_and_multi_io_appear() {
        let mut cfg = small_config();
        cfg.self_loop_prob = 0.05;
        cfg.multi_io_prob = 0.2;
        let s = StreamingWorkload::new(cfg, 11);
        let stats = s.ledger(100).stats();
        assert!(stats.self_loop_count > 0, "expected self-loops");
        assert!(stats.multi_io_count > 0, "expected multi-IO transactions");
    }

    #[test]
    fn blocks_are_contiguous_and_sized() {
        let s = StreamingWorkload::new(small_config(), 3);
        for (i, b) in s.blocks(5..10).iter().enumerate() {
            assert_eq!(b.height(), 5 + i as u64);
            assert_eq!(b.len(), 100);
        }
    }
}
