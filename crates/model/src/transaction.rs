//! Multi-input/multi-output transactions (§III-A).

use crate::account::AccountId;
use crate::error::ModelError;

/// A transaction `Tx := (A_in, A_out)` over account sets.
///
/// Only the associated accounts matter for allocation (the paper drops
/// values, gas and scripts), so that is all we store. Inputs and outputs may
/// overlap — a self-transfer ("self-loop" in §V-B) is a transaction whose
/// deduplicated account set has a single element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    inputs: Vec<AccountId>,
    outputs: Vec<AccountId>,
}

impl Transaction {
    /// Creates a transaction, validating the paper's well-formedness rule
    /// `A_in, A_out ≠ ∅`.
    pub fn new(inputs: Vec<AccountId>, outputs: Vec<AccountId>) -> Result<Self, ModelError> {
        if inputs.is_empty() || outputs.is_empty() {
            return Err(ModelError::EmptyEndpointSet);
        }
        Ok(Self { inputs, outputs })
    }

    /// Convenience constructor for the common 1-input/1-output transfer.
    pub fn transfer(from: AccountId, to: AccountId) -> Self {
        Self {
            inputs: vec![from],
            outputs: vec![to],
        }
    }

    /// Input account list (`A_in`, possibly with duplicates as submitted).
    pub fn inputs(&self) -> &[AccountId] {
        &self.inputs
    }

    /// Output account list (`A_out`).
    pub fn outputs(&self) -> &[AccountId] {
        &self.outputs
    }

    /// The deduplicated, sorted account set `A_Tx = A_in ∪ A_out`.
    pub fn account_set(&self) -> Vec<AccountId> {
        let mut all: Vec<AccountId> = self
            .inputs
            .iter()
            .chain(self.outputs.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// `|A_Tx|` without allocating when the transaction is a plain transfer.
    pub fn account_count(&self) -> usize {
        if self.inputs.len() == 1 && self.outputs.len() == 1 {
            return if self.inputs[0] == self.outputs[0] {
                1
            } else {
                2
            };
        }
        self.account_set().len()
    }

    /// Whether the transaction touches a single account (a self-loop edge in
    /// the transaction graph).
    pub fn is_self_loop(&self) -> bool {
        self.account_count() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: u64) -> AccountId {
        AccountId(v)
    }

    #[test]
    fn rejects_empty_endpoints() {
        assert!(Transaction::new(vec![], vec![a(1)]).is_err());
        assert!(Transaction::new(vec![a(1)], vec![]).is_err());
    }

    #[test]
    fn transfer_has_two_accounts_and_one_pair() {
        let tx = Transaction::transfer(a(1), a(2));
        assert_eq!(tx.account_count(), 2);
        assert!(!tx.is_self_loop());
    }

    #[test]
    fn self_transfer_is_self_loop() {
        let tx = Transaction::transfer(a(7), a(7));
        assert!(tx.is_self_loop());
        assert_eq!(tx.account_count(), 1);
        assert_eq!(tx.account_set(), vec![a(7)]);
    }

    #[test]
    fn multi_io_clique_expansion() {
        // 2 inputs + 2 distinct outputs => |A_Tx| = 4.
        let tx = Transaction::new(vec![a(1), a(2)], vec![a(3), a(4)]).unwrap();
        assert_eq!(tx.account_count(), 4);
        assert_eq!(tx.account_set(), vec![a(1), a(2), a(3), a(4)]);
        assert!(!tx.is_self_loop());
    }

    #[test]
    fn duplicate_endpoints_are_deduplicated() {
        let tx = Transaction::new(vec![a(1), a(1)], vec![a(2), a(1)]).unwrap();
        assert_eq!(tx.account_set(), vec![a(1), a(2)]);
        assert_eq!(tx.account_count(), 2);
    }

    #[test]
    fn three_account_transaction() {
        let tx = Transaction::new(vec![a(1)], vec![a(2), a(3)]).unwrap();
        assert_eq!(tx.account_count(), 3);
        assert_eq!(tx.account_set(), vec![a(1), a(2), a(3)]);
    }
}
