//! The Ethereum-like trace generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use txallo_model::{AccountId, Block, BlockHeight, Ledger, Transaction};

use crate::config::WorkloadConfig;
use crate::zipf::ZipfTable;

/// Streaming generator of an Ethereum-like transaction trace.
///
/// Construction is `O(accounts)`; each call to [`next_block`] advances the
/// stream deterministically (the same seed + config always produces the
/// same ledger). See the crate docs for the statistical properties.
///
/// ```
/// use txallo_workload::{EthereumLikeGenerator, WorkloadConfig};
///
/// let config = WorkloadConfig { accounts: 500, block_size: 50, ..Default::default() };
/// let mut generator = EthereumLikeGenerator::new(config, 42);
/// let ledger = generator.ledger(10);
/// assert_eq!(ledger.block_count(), 10);
/// assert_eq!(ledger.transaction_count(), 500);
/// ```
///
/// [`next_block`]: EthereumLikeGenerator::next_block
#[derive(Debug, Clone)]
pub struct EthereumLikeGenerator {
    config: WorkloadConfig,
    rng: SmallRng,
    /// Global activity table over the *non-hot* accounts (ranks map to
    /// account ids `1..accounts`).
    activity: ZipfTable,
    /// Group id of each static account.
    group_of: Vec<u32>,
    /// Static members per group (ascending account id), account 0 excluded.
    members: Vec<Vec<u64>>,
    /// Activity table per group, aligned with `members`.
    member_activity: Vec<ZipfTable>,
    /// Accounts born during generation, per group.
    dynamic_members: Vec<Vec<u64>>,
    /// Base Zipf weights over groups (popularity before rotation).
    group_weights: Vec<f64>,
    next_account: u64,
    next_height: BlockHeight,
}

impl EthereumLikeGenerator {
    /// Builds the generator. `seed` fixes the whole trace.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = config.accounts;
        let g = config.groups.min(n / 2).max(1);

        // Group popularity (sizes) follow a Zipf law of their own.
        let group_weights: Vec<f64> = (0..g)
            .map(|i| 1.0 / ((i + 1) as f64).powf(config.group_size_exponent))
            .collect();
        let group_table = ZipfTable::from_weights(&group_weights);

        // Assign accounts to groups: the first 2g accounts round-robin (so
        // no group is empty), the rest by popularity.
        let mut group_of = vec![0u32; n];
        for (i, slot) in group_of.iter_mut().enumerate() {
            *slot = if i < 2 * g {
                (i % g) as u32
            } else {
                group_table.sample(&mut rng) as u32
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
        let next_account = n as u64;

        Self {
            config,
            rng,
            activity,
            group_of,
            members,
            member_activity,
            dynamic_members: vec![Vec::new(); g],
            group_weights,
            next_account,
            next_height: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Total accounts created so far (static + born).
    pub fn account_count(&self) -> u64 {
        self.next_account
    }

    /// The id of the globally hottest account.
    pub fn hot_account(&self) -> AccountId {
        AccountId(0)
    }

    /// The latent group of a static account (useful as ground truth in
    /// tests and examples).
    pub fn group_of(&self, account: AccountId) -> Option<u32> {
        self.group_of.get(account.0 as usize).copied()
    }

    /// Samples a non-hot account id from the global activity law.
    fn sample_global(&mut self) -> u64 {
        self.activity.sample(&mut self.rng) as u64 + 1
    }

    /// Current popularity rank of `group` under drift rotation.
    fn rotated_weight(&self, group: usize, epoch: u64) -> f64 {
        let g = self.group_weights.len();
        self.group_weights[(group + epoch as usize) % g]
    }

    /// Samples a group by drifted popularity.
    fn sample_group(&mut self, epoch: u64) -> usize {
        let g = self.group_weights.len();
        let weights: Vec<f64> = (0..g).map(|i| self.rotated_weight(i, epoch)).collect();
        ZipfTable::from_weights(&weights).sample(&mut self.rng)
    }

    /// Samples a member of `group` (static by activity; occasionally a
    /// dynamically-born account so newcomers keep transacting).
    fn sample_member(&mut self, group: usize) -> u64 {
        let dynamic = &self.dynamic_members[group];
        if !dynamic.is_empty() && self.rng.gen::<f64>() < 0.05 {
            return dynamic[self.rng.gen_range(0..dynamic.len())];
        }
        if self.members[group].is_empty() {
            return self.sample_global();
        }
        let idx = self.member_activity[group].sample(&mut self.rng);
        self.members[group][idx]
    }

    /// Samples a member of `group` other than `exclude`. Retries a few
    /// times (the within-group activity law concentrates on the group head,
    /// which is often the sender), then falls back to a deterministic scan;
    /// only a single-member group escalates to a global sample.
    fn sample_member_excluding(&mut self, group: usize, exclude: u64) -> u64 {
        for _ in 0..8 {
            let r = self.sample_member(group);
            if r != exclude {
                return r;
            }
        }
        if let Some(&m) = self.members[group].iter().find(|&&m| m != exclude) {
            return m;
        }
        if let Some(&m) = self.dynamic_members[group].iter().find(|&&m| m != exclude) {
            return m;
        }
        self.sample_global()
    }

    /// Births a new account into a popularity-sampled group.
    fn birth_account(&mut self, epoch: u64) -> u64 {
        let id = self.next_account;
        self.next_account += 1;
        let group = self.sample_group(epoch);
        self.dynamic_members[group].push(id);
        id
    }

    fn group_of_account(&self, id: u64) -> Option<usize> {
        if (id as usize) < self.group_of.len() {
            return Some(self.group_of[id as usize] as usize);
        }
        // Dynamic accounts: linear probe per group is too slow; exploit the
        // fact that births are appended in id order per group.
        for (g, dyn_members) in self.dynamic_members.iter().enumerate() {
            if dyn_members.binary_search(&id).is_ok() {
                return Some(g);
            }
        }
        None
    }

    /// Generates a single transaction at the given drift epoch.
    fn next_transaction(&mut self, epoch: u64) -> Transaction {
        let cfg_self_loop = self.config.self_loop_prob;
        let cfg_hot = self.config.hot_account_share;
        let cfg_intra = self.config.intra_group_prob;
        let cfg_new = self.config.new_account_prob;
        let cfg_multi = self.config.multi_io_prob;

        // Hot-account involvement (the Fig. 1 "11%" account). Like a real
        // exchange, most of its counterparties are low-activity accounts
        // (sampled uniformly, i.e. from the tail) — which is what lets a
        // good allocator colocate them with the hot account; a minority are
        // other active accounts.
        if self.rng.gen::<f64>() < cfg_hot {
            let partner = if self.rng.gen::<f64>() < 0.75 {
                AccountId(self.rng.gen_range(1..self.config.accounts as u64))
            } else {
                AccountId(self.sample_global())
            };
            return if self.rng.gen::<bool>() {
                Transaction::transfer(self.hot_account(), partner)
            } else {
                Transaction::transfer(partner, self.hot_account())
            };
        }

        let sender = self.sample_global();
        if self.rng.gen::<f64>() < cfg_self_loop {
            return Transaction::transfer(AccountId(sender), AccountId(sender));
        }

        let receiver = if self.rng.gen::<f64>() < cfg_new {
            self.birth_account(epoch)
        } else if self.rng.gen::<f64>() < cfg_intra {
            let group = self.group_of_account(sender).unwrap_or(0);
            self.sample_member_excluding(group, sender)
        } else if self.rng.gen::<f64>() < 0.5 {
            // Diffuse mixing: a uniformly random counterparty. Keeping half
            // of the cross-group traffic flat prevents the popular groups
            // from fusing into one giant community (real-world inter-
            // community traffic is spread over many account pairs).
            self.rng.gen_range(1..self.config.accounts as u64)
        } else {
            // Drifting mixing: a member of a currently-popular group.
            let group = self.sample_group(epoch);
            self.sample_member(group)
        };

        if self.rng.gen::<f64>() < cfg_multi {
            let extras = self.rng.gen_range(1..=self.config.max_extra_outputs.max(1));
            let group = self.group_of_account(sender).unwrap_or(0);
            let mut outputs = vec![AccountId(receiver)];
            for _ in 0..extras {
                outputs.push(AccountId(self.sample_member(group)));
            }
            outputs.sort_unstable();
            outputs.dedup();
            return Transaction::new(vec![AccountId(sender)], outputs)
                .expect("non-empty endpoints by construction"); // txallo-lint: allow(lib-unwrap) — inputs and outputs are built non-empty a few lines above, the only Transaction::new error
        }

        Transaction::transfer(AccountId(sender), AccountId(receiver))
    }

    /// Generates the next block of `config.block_size` transactions.
    pub fn next_block(&mut self) -> Block {
        let height = self.next_height;
        self.next_height += 1;
        let epoch = height / self.config.drift_interval.max(1);
        let txs: Vec<Transaction> = (0..self.config.block_size)
            .map(|_| self.next_transaction(epoch))
            .collect();
        Block::new(height, txs)
    }

    /// Generates `count` consecutive blocks.
    pub fn blocks(&mut self, count: u64) -> Vec<Block> {
        (0..count).map(|_| self.next_block()).collect()
    }

    /// Generates a whole ledger of `count` blocks.
    pub fn ledger(&mut self, count: u64) -> Ledger {
        // txallo-lint: allow(lib-unwrap) — blocks() numbers heights 0..count contiguously, the only Ledger::from_blocks error
        Ledger::from_blocks(self.blocks(count)).expect("heights are contiguous by construction")
    }

    /// Generates the configured default trace
    /// (`config.transactions / config.block_size` blocks).
    pub fn default_ledger(&mut self) -> Ledger {
        self.ledger(self.config.block_count())
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
    fn trace_is_deterministic() {
        let mut a = EthereumLikeGenerator::new(small_config(), 99);
        let mut b = EthereumLikeGenerator::new(small_config(), 99);
        let la = a.ledger(20);
        let lb = b.ledger(20);
        assert_eq!(la.blocks().len(), lb.blocks().len());
        for (x, y) in la.transactions().zip(lb.transactions()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = EthereumLikeGenerator::new(small_config(), 1);
        let mut b = EthereumLikeGenerator::new(small_config(), 2);
        let la = a.ledger(5);
        let lb = b.ledger(5);
        assert!(la
            .transactions()
            .zip(lb.transactions())
            .any(|(x, y)| x != y));
    }

    #[test]
    fn hot_account_share_is_near_target() {
        let mut gen = EthereumLikeGenerator::new(small_config(), 42);
        let ledger = gen.default_ledger();
        let stats = ledger.stats();
        let share = stats.hottest_account_share();
        assert!(
            (0.08..0.25).contains(&share),
            "hottest account share {share} not in the expected band"
        );
    }

    #[test]
    fn activity_is_long_tailed() {
        // Paper-like sparsity: ~7 transactions per account on average.
        let cfg = WorkloadConfig {
            accounts: 10_000,
            transactions: 30_000,
            block_size: 100,
            groups: 100,
            ..WorkloadConfig::default()
        };
        let mut gen = EthereumLikeGenerator::new(cfg, 42);
        let ledger = gen.default_ledger();
        let graph = TxGraph::from_ledger(&ledger);
        let s = GraphStats::compute(&graph);
        assert!(
            s.gini > 0.5,
            "activity should be concentrated, gini = {}",
            s.gini
        );
        assert!(
            s.low_activity_fraction > 0.3,
            "most accounts are barely active, got {}",
            s.low_activity_fraction
        );
    }

    #[test]
    fn group_structure_is_present() {
        // Most non-hot 2-account transactions stay within a latent group.
        let mut gen = EthereumLikeGenerator::new(small_config(), 7);
        let ledger = gen.default_ledger();
        let mut intra = 0usize;
        let mut cross = 0usize;
        for tx in ledger.transactions() {
            let set = tx.account_set();
            if set.len() != 2 || set[0].0 == 0 {
                continue;
            }
            let (Some(ga), Some(gb)) = (gen.group_of(set[0]), gen.group_of(set[1])) else {
                continue;
            };
            if ga == gb {
                intra += 1;
            } else {
                cross += 1;
            }
        }
        let ratio = intra as f64 / (intra + cross).max(1) as f64;
        assert!(ratio > 0.5, "intra-group ratio too low: {ratio}");
    }

    #[test]
    fn new_accounts_are_born() {
        let mut gen = EthereumLikeGenerator::new(small_config(), 5);
        let before = gen.account_count();
        let _ = gen.ledger(100);
        assert!(gen.account_count() > before, "expected account births");
    }

    #[test]
    fn blocks_are_contiguous_and_sized() {
        let mut gen = EthereumLikeGenerator::new(small_config(), 3);
        let blocks = gen.blocks(5);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.height(), i as u64);
            assert_eq!(b.len(), 100);
        }
        // Continuing the stream keeps heights monotone.
        let next = gen.next_block();
        assert_eq!(next.height(), 5);
    }

    #[test]
    fn self_loops_and_multi_io_appear() {
        let mut cfg = small_config();
        cfg.self_loop_prob = 0.05;
        cfg.multi_io_prob = 0.2;
        let mut gen = EthereumLikeGenerator::new(cfg, 11);
        let ledger = gen.ledger(100);
        let stats = ledger.stats();
        assert!(stats.self_loop_count > 0, "expected self-loops");
        assert!(stats.multi_io_count > 0, "expected multi-IO transactions");
    }
}
