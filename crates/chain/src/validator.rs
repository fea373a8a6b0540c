//! Validators (miners) and their shard assignment / reshuffling.

use txallo_model::hash::mix64;

use crate::error::ChainError;

/// Globally unique validator id.
pub type ValidatorId = u32;

/// One consensus participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validator {
    /// Stable identity.
    pub id: ValidatorId,
    /// Whether the validator behaves Byzantine (silent in this model — it
    /// never votes; equivocation is strictly weaker against PBFT's quorum
    /// intersection, so silence is the worst case for liveness).
    pub byzantine: bool,
}

/// The full validator population with its current shard assignment.
///
/// Assignment is by deterministic pseudo-random permutation seeded from the
/// epoch (Elastico-style reshuffling, §II-B): every shard gets an equal
/// slice of a `mix64`-keyed shuffle, so Byzantine validators spread out
/// statistically and every shard has the same expected capacity.
#[derive(Debug, Clone)]
pub struct ValidatorSet {
    validators: Vec<Validator>,
    shard_of: Vec<u32>,
    shard_count: usize,
    epoch: u64,
}

impl ValidatorSet {
    /// Creates `total` validators, the first `byzantine` of which are
    /// faulty, split across `shard_count` shards at epoch 0.
    ///
    /// # Panics
    /// Panics on the configurations [`ValidatorSet::try_new`] rejects.
    pub fn new(total: usize, byzantine: usize, shard_count: usize) -> Self {
        Self::try_new(total, byzantine, shard_count).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ValidatorSet::new`], returning a typed error instead of
    /// panicking. Beyond the structural checks, a population whose
    /// Byzantine count breaks the `f < n/3` PBFT bound is rejected: with
    /// `byzantine·3 ≥ total`, even a perfectly even reshuffle leaves some
    /// shard below quorum, so the set is unsound by construction.
    pub fn try_new(total: usize, byzantine: usize, shard_count: usize) -> Result<Self, ChainError> {
        if shard_count == 0 {
            return Err(ChainError::NoShards);
        }
        if total < shard_count {
            return Err(ChainError::NoValidators {
                total,
                shards: shard_count,
            });
        }
        if byzantine > total {
            return Err(ChainError::TooManyFaults { byzantine, total });
        }
        if byzantine > 0 && byzantine * 3 >= total {
            return Err(ChainError::QuorumViolation {
                byzantine,
                total,
                shards: shard_count,
            });
        }
        Ok(Self::new_unchecked(total, byzantine, shard_count))
    }

    /// [`ValidatorSet::new`] without the quorum-soundness check — for
    /// tests and experiments that *want* an overwhelmed population (e.g.
    /// measuring liveness loss past `f`). Structural requirements (at
    /// least one shard, one validator per shard) still hold.
    pub fn new_unchecked(total: usize, byzantine: usize, shard_count: usize) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        assert!(
            total >= shard_count,
            "need at least one validator per shard"
        );
        assert!(
            byzantine <= total,
            "cannot have more faults than validators"
        );
        let validators: Vec<Validator> = (0..total as u32)
            .map(|id| Validator {
                id,
                byzantine: (id as usize) < byzantine,
            })
            .collect();
        let mut set = Self {
            validators,
            shard_of: vec![0; total],
            shard_count,
            epoch: 0,
        };
        set.reshuffle(0);
        set
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Current reshuffle epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Deterministically reassigns every validator for `epoch`.
    pub fn reshuffle(&mut self, epoch: u64) {
        self.epoch = epoch;
        let n = self.validators.len();
        // Sort validator indices by a keyed hash — a deterministic
        // permutation that changes completely between epochs.
        let mut order: Vec<usize> = (0..n).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "mix64 and the XOR with a fixed word are bijections, so distinct indices get distinct keys"
        )]
        order.sort_unstable_by_key(|&i| mix64((i as u64) ^ mix64(epoch).rotate_left(17)));
        for (rank, &i) in order.iter().enumerate() {
            self.shard_of[i] = (rank % self.shard_count) as u32;
        }
    }

    /// The members of one shard.
    pub fn shard_members(&self, shard: u32) -> Vec<Validator> {
        self.validators
            .iter()
            .zip(self.shard_of.iter())
            .filter(|&(_, &s)| s == shard)
            .map(|(v, _)| *v)
            .collect()
    }

    /// Shard of a validator.
    pub fn shard_of(&self, id: ValidatorId) -> u32 {
        self.shard_of[id as usize]
    }

    /// Number of Byzantine members currently in `shard`.
    pub fn byzantine_in_shard(&self, shard: u32) -> usize {
        self.shard_members(shard)
            .iter()
            .filter(|v| v.byzantine)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_gets_a_fair_share() {
        let set = ValidatorSet::new(100, 0, 4);
        for shard in 0..4 {
            assert_eq!(set.shard_members(shard).len(), 25);
        }
    }

    #[test]
    fn uneven_division_spreads_remainder() {
        let set = ValidatorSet::new(10, 0, 3);
        let sizes: Vec<usize> = (0..3).map(|s| set.shard_members(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn reshuffle_is_deterministic_and_epoch_sensitive() {
        let mut a = ValidatorSet::new(40, 5, 4);
        let mut b = ValidatorSet::new(40, 5, 4);
        a.reshuffle(7);
        b.reshuffle(7);
        for id in 0..40u32 {
            assert_eq!(a.shard_of(id), b.shard_of(id));
        }
        b.reshuffle(8);
        let moved = (0..40u32)
            .filter(|&id| a.shard_of(id) != b.shard_of(id))
            .count();
        assert!(
            moved > 10,
            "a new epoch must reassign a large fraction, moved {moved}"
        );
    }

    #[test]
    fn byzantine_validators_spread_statistically() {
        // 1/5 Byzantine overall. Reshuffling cannot *guarantee* every shard
        // stays under f (that needs large shards — the point of §II-B's
        // sizing analysis); what it does guarantee is that faults do not
        // cluster: the average per-shard fault fraction tracks the global
        // rate and no shard gets a Byzantine majority.
        let mut set = ValidatorSet::new(200, 40, 8);
        for epoch in 0..10 {
            set.reshuffle(epoch);
            let mut total_faults = 0usize;
            for shard in 0..8 {
                let members = set.shard_members(shard).len();
                let faults = set.byzantine_in_shard(shard);
                total_faults += faults;
                assert!(
                    faults * 2 < members,
                    "epoch {epoch} shard {shard}: Byzantine majority {faults}/{members}"
                );
            }
            assert_eq!(total_faults, 40, "faults are conserved");
        }
    }

    #[test]
    #[should_panic(expected = "at least one validator per shard")]
    fn too_few_validators_panics() {
        let _ = ValidatorSet::new(2, 0, 3);
    }

    #[test]
    fn quorum_breaking_population_is_rejected() {
        // 2 of 4 Byzantine: f = 1 per the n/3 bound, so 2 is unsound.
        let err = ValidatorSet::try_new(4, 2, 1).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ChainError::QuorumViolation { .. }
        ));
        // Exactly n/3 is still too many (f must be strictly < n/3).
        assert!(ValidatorSet::try_new(9, 3, 1).is_err());
        // Under the bound is fine, as is a fault-free set.
        assert!(ValidatorSet::try_new(10, 3, 1).is_ok());
        assert!(ValidatorSet::try_new(4, 0, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn quorum_breaking_population_panics_via_new() {
        let _ = ValidatorSet::new(6, 2, 2);
    }

    #[test]
    fn unchecked_constructor_allows_overwhelmed_sets() {
        let set = ValidatorSet::new_unchecked(4, 3, 1);
        assert_eq!(set.byzantine_in_shard(0), 3);
    }
}
