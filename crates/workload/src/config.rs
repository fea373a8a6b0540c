//! Workload configuration.

/// Parameters of the synthetic Ethereum-like trace.
///
/// Defaults are calibrated to the paper's dataset description (§VI-A,
/// Fig. 1) at a laptop-friendly scale; `accounts`/`transactions` scale the
/// trace up or down without changing its shape.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of initially existing accounts.
    pub accounts: usize,
    /// Total number of transactions to generate (across all blocks),
    /// rounded down to whole blocks: 1000 at block size 150 writes 900.
    pub transactions: usize,
    /// Transactions per block (Ethereum in the paper's window: ~150).
    pub block_size: usize,
    /// Fraction of transactions involving the single hottest account
    /// (paper: "about 11% transactions are associated with the most active
    /// account").
    pub hot_account_share: f64,
    /// Number of latent communities.
    pub groups: usize,
    /// Probability that a transaction stays inside the sender's group
    /// (`1 − μ_mix`). Drives how much structure allocators can exploit.
    pub intra_group_prob: f64,
    /// Probability that a transaction has extra outputs (multi-IO).
    pub multi_io_prob: f64,
    /// Probability that a transaction's receiver is a brand-new account
    /// (account birth; feeds A-TxAllo's phase 1).
    pub new_account_prob: f64,
    /// Every `drift_interval` blocks the group-popularity profile rotates
    /// by one step, slowly shifting which communities are busy.
    pub drift_interval: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            accounts: 20_000,
            transactions: 200_000,
            block_size: 150,
            hot_account_share: 0.08,
            groups: 400,
            intra_group_prob: 0.9,
            multi_io_prob: 0.05,
            new_account_prob: 0.002,
            drift_interval: 100,
        }
    }
}

impl WorkloadConfig {
    /// A paper-scale-shaped config scaled by `factor` relative to the
    /// default (1.0 → 20k accounts / 200k transactions).
    pub fn scaled(factor: f64) -> Self {
        let base = Self::default();
        Self {
            accounts: ((base.accounts as f64 * factor) as usize).max(100),
            transactions: ((base.transactions as f64 * factor) as usize).max(1_000),
            groups: ((base.groups as f64 * factor.sqrt()) as usize).max(10),
            ..base
        }
    }

    /// Number of whole blocks the configured transaction budget fills.
    pub fn block_count(&self) -> u64 {
        (self.transactions / self.block_size.max(1)) as u64
    }

    /// Checks that the configuration is internally consistent, naming
    /// the first rule it breaks.
    pub fn check(&self) -> Result<(), &'static str> {
        let probabilities = [
            self.hot_account_share,
            self.intra_group_prob,
            self.multi_io_prob,
            self.new_account_prob,
        ];
        if self.accounts < 2 {
            Err("need at least two accounts")
        } else if self.block_size < 1 {
            Err("blocks must hold transactions")
        } else if self.groups < 1 {
            Err("need at least one group")
        } else if !probabilities.iter().all(|p| (0.0..=1.0).contains(p)) {
            Err("probabilities must lie in [0, 1]")
        } else {
            Ok(())
        }
    }

    /// Panics if the configuration is internally inconsistent (the
    /// message is [`WorkloadConfig::check`]'s).
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        WorkloadConfig::default().validate();
    }

    #[test]
    fn scaled_respects_minimums() {
        let tiny = WorkloadConfig::scaled(0.0001);
        tiny.validate();
        assert!(tiny.accounts >= 100);
        assert!(tiny.transactions >= 1_000);
        assert!(tiny.groups >= 10);
    }

    #[test]
    fn block_count_division() {
        let c = WorkloadConfig {
            transactions: 1000,
            block_size: 100,
            ..Default::default()
        };
        assert_eq!(c.block_count(), 10);
    }

    #[test]
    fn check_names_the_broken_rule() {
        assert_eq!(WorkloadConfig::default().check(), Ok(()));
        let one_account = WorkloadConfig {
            accounts: 1,
            ..Default::default()
        };
        assert_eq!(one_account.check(), Err("need at least two accounts"));
        let hot = WorkloadConfig {
            hot_account_share: 1.5,
            ..Default::default()
        };
        assert_eq!(hot.check(), Err("probabilities must lie in [0, 1]"));
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn invalid_probability_panics() {
        let c = WorkloadConfig {
            hot_account_share: 1.5,
            ..Default::default()
        };
        c.validate();
    }
}
