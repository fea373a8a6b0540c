//! Account → dense node-id interning.

use std::fmt;

use txallo_model::{AccountId, FxHashMap};

use crate::traits::{fit_u32, NodeId};

/// The dense node-id space is exhausted: interning one more account would
/// need an id past [`AccountInterner::MAX_ACCOUNTS`]. Node ids are `u32`
/// with `u32::MAX` reserved as the unassigned sentinel (the sweep kernels'
/// `UNASSIGNED`), so the id space ends one short of `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpaceExhausted;

impl fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node-id space exhausted: at most {} accounts fit a u32 id \
             (u32::MAX is the unassigned sentinel)",
            AccountInterner::MAX_ACCOUNTS
        )
    }
}

impl std::error::Error for IdSpaceExhausted {}

/// Bidirectional mapping between sparse [`AccountId`]s and dense [`NodeId`]s.
///
/// Node ids are assigned in first-seen order, which is deterministic for a
/// given transaction stream — the property the paper's determinism argument
/// (§IV-A) relies on.
#[derive(Debug, Clone, Default)]
pub struct AccountInterner {
    to_node: FxHashMap<AccountId, NodeId>,
    to_account: Vec<AccountId>,
}

impl AccountInterner {
    /// Most accounts an interner can hold: every id must fit a `u32` and
    /// `u32::MAX` stays free as the unassigned sentinel.
    pub const MAX_ACCOUNTS: usize = NodeId::MAX as usize;

    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id a `len`-account interner would assign next, or
    /// [`IdSpaceExhausted`] at the boundary. Factored out so the boundary
    /// is unit-testable without allocating 2³² entries.
    fn next_id_for_len(len: usize) -> Result<NodeId, IdSpaceExhausted> {
        if len >= Self::MAX_ACCOUNTS {
            Err(IdSpaceExhausted)
        } else {
            Ok(fit_u32(len))
        }
    }

    /// Interns `account`, returning its node id (allocating one on first
    /// sight), or [`IdSpaceExhausted`] once the u32 id space is full —
    /// instead of silently wrapping past [`NodeId::MAX`].
    pub fn try_intern(&mut self, account: AccountId) -> Result<NodeId, IdSpaceExhausted> {
        if let Some(&n) = self.to_node.get(&account) {
            return Ok(n);
        }
        let n = Self::next_id_for_len(self.to_account.len())?;
        self.to_node.insert(account, n);
        self.to_account.push(account);
        Ok(n)
    }

    /// Interns `account`, returning its node id (allocating one on first
    /// sight).
    ///
    /// # Panics
    /// Panics if the u32 node-id space is exhausted; use
    /// [`AccountInterner::try_intern`] to handle that case.
    pub fn intern(&mut self, account: AccountId) -> NodeId {
        #[expect(
            clippy::expect_used,
            reason = "intern() is the documented panicking convenience over try_intern for callers that accept the 4-billion-account cap"
        )]
        self.try_intern(account)
            .expect("node-id space exhausted (u32 ids)")
    }

    /// Looks up the node id of an already-interned account.
    pub fn get(&self, account: AccountId) -> Option<NodeId> {
        self.to_node.get(&account).copied()
    }

    /// The account behind a node id.
    ///
    /// # Panics
    /// Panics if `node` was never allocated.
    pub fn account(&self, node: NodeId) -> AccountId {
        self.to_account[node as usize]
    }

    /// Number of interned accounts.
    pub fn len(&self) -> usize {
        self.to_account.len()
    }

    /// Whether no account has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.to_account.is_empty()
    }

    /// All accounts in node-id order.
    pub fn accounts(&self) -> &[AccountId] {
        &self.to_account
    }

    /// Approximate resident bytes: the id vector plus a capacity-based
    /// estimate of the hash map (key + value + control byte per slot).
    pub fn approx_bytes(&self) -> usize {
        let vec_bytes = self.to_account.capacity() * std::mem::size_of::<AccountId>();
        let entry = std::mem::size_of::<AccountId>() + std::mem::size_of::<NodeId>() + 1;
        vec_bytes + self.to_node.capacity() * entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut it = AccountInterner::new();
        let a = it.intern(AccountId(100));
        let b = it.intern(AccountId(200));
        assert_ne!(a, b);
        assert_eq!(it.intern(AccountId(100)), a);
        assert_eq!(it.get(AccountId(200)), Some(b));
        assert_eq!(it.get(AccountId(300)), None);
        assert_eq!(it.account(a), AccountId(100));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut it = AccountInterner::new();
        for v in [5u64, 3, 9, 3, 5, 1] {
            it.intern(AccountId(v));
        }
        assert_eq!(it.len(), 4);
        assert_eq!(
            it.accounts(),
            &[AccountId(5), AccountId(3), AccountId(9), AccountId(1)]
        );
        for (i, &acct) in it.accounts().iter().enumerate() {
            assert_eq!(it.get(acct), Some(i as NodeId));
        }
    }

    #[test]
    fn id_space_boundary_errors_instead_of_wrapping() {
        // The last assignable id is MAX_ACCOUNTS - 1; at MAX_ACCOUNTS the
        // next id would collide with the u32::MAX sentinel.
        assert_eq!(
            AccountInterner::next_id_for_len(AccountInterner::MAX_ACCOUNTS - 1),
            Ok(NodeId::MAX - 1)
        );
        assert_eq!(
            AccountInterner::next_id_for_len(AccountInterner::MAX_ACCOUNTS),
            Err(IdSpaceExhausted)
        );
        assert_eq!(
            AccountInterner::next_id_for_len(usize::MAX),
            Err(IdSpaceExhausted)
        );
        // Known ids keep resolving even at the boundary (lookup never
        // allocates).
        let mut it = AccountInterner::new();
        assert_eq!(it.try_intern(AccountId(7)), Ok(0));
        assert_eq!(it.try_intern(AccountId(7)), Ok(0));
        assert!(!IdSpaceExhausted.to_string().is_empty());
    }
}
