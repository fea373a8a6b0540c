//! Cross-shard atomic commit (client-driven Atomix, OmniLedger-style).
//!
//! A cross-shard transaction touching shards `S = {s₁, …, s_µ}` runs:
//!
//! 1. **Lock phase** — every *input* shard runs a consensus round to lock
//!    the transaction's state and emits a proof-of-acceptance (or
//!    proof-of-rejection).
//! 2. **Commit/abort phase** — given all proofs, every involved shard runs
//!    a second consensus round to apply (or unlock) the transaction.
//!
//! Each phase is a full intra-shard consensus round per shard, which is
//! exactly why the paper charges a cross-shard transaction `η > 1` per
//! involved shard: processing it costs ≈ 2 consensus rounds instead of a
//! share of one batched round, plus the client's proof relay messages.
//!
//! There is one commit, [`AtomixProtocol::run`], and it always runs under
//! a [`FaultInjector`]. The fault-free protocol is that commit under
//! [`FaultPlan::none`](crate::fault::FaultPlan::none), which draws
//! nothing: same code, no faults.

use crate::fault::FaultInjector;
use crate::pbft::PbftShard;

/// Result of running Atomix for one cross-shard transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomixOutcome {
    /// Whether every shard accepted (commit) or anything aborted.
    pub committed: bool,
    /// Total consensus + relay messages across all phases and shards.
    pub messages: u64,
    /// Consensus rounds executed across all involved shards.
    pub rounds: u32,
    /// Timeout-driven retries across all rounds and the proof relay
    /// (always 0 under [`FaultPlan::none`](crate::fault::FaultPlan::none),
    /// which drops nothing).
    pub retries: u32,
}

/// The 2-phase cross-shard protocol over a set of shard consensus
/// instances.
#[derive(Debug)]
pub struct AtomixProtocol;

impl AtomixProtocol {
    /// Runs lock + commit for a transaction involving `shards` (indices
    /// into `instances`) under `inj`'s fault regime. Each per-shard
    /// consensus round runs with timeouts/retries
    /// ([`PbftShard::run_round`]), and the client's proof-relay bundle can
    /// itself be dropped, forcing a rebroadcast. Atomicity is preserved by
    /// construction: any failed lock (including one that exhausted its
    /// retries) turns phase 2 into the unlock round, so no shard ever
    /// applies a partially-locked transaction — an abort still costs the
    /// unlock round.
    pub fn run(
        instances: &mut [PbftShard],
        shards: &[u32],
        inj: &mut FaultInjector,
    ) -> AtomixOutcome {
        assert!(
            shards.len() >= 2,
            "Atomix is only for cross-shard transactions"
        );
        let mut out = AtomixOutcome {
            committed: true,
            messages: 0,
            rounds: 0,
            retries: 0,
        };
        // Phase 1: lock in every involved shard.
        Self::phase(instances, shards, inj, &mut out);
        // Client relays µ proofs to every involved shard; a lost bundle is
        // re-sent in full (the client cannot tell which copy made it).
        let relay = (shards.len() * shards.len()) as u64;
        out.messages += relay;
        if inj.drop_message() {
            out.messages += relay;
            out.retries += 1;
        }
        // Phase 2: commit (or unlock) everywhere.
        Self::phase(instances, shards, inj, &mut out);
        out
    }

    /// One consensus round in every involved shard, its cost added to
    /// `out`; a round that fails to commit marks the transaction aborted.
    fn phase(
        instances: &mut [PbftShard],
        shards: &[u32],
        inj: &mut FaultInjector,
        out: &mut AtomixOutcome,
    ) {
        for &s in shards {
            let round = instances[s as usize].run_round(inj);
            out.messages += round.messages;
            out.rounds += 1;
            out.retries += round.retries;
            out.committed &= round.committed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::validator::Validator;

    fn no_faults() -> FaultInjector {
        FaultInjector::new(FaultPlan::none())
    }

    fn healthy_shard(n: usize) -> PbftShard {
        PbftShard::new(
            (0..n as u32)
                .map(|id| Validator {
                    id,
                    byzantine: false,
                })
                .collect(),
        )
    }

    fn broken_shard(n: usize) -> PbftShard {
        // Majority Byzantine: can never reach quorum.
        PbftShard::new(
            (0..n as u32)
                .map(|id| Validator {
                    id,
                    byzantine: id < (n as u32 * 2) / 3 + 1,
                })
                .collect(),
        )
    }

    #[test]
    fn two_shard_commit() {
        let mut shards = vec![healthy_shard(4), healthy_shard(4)];
        let out = AtomixProtocol::run(&mut shards, &[0, 1], &mut no_faults());
        assert!(out.committed);
        assert_eq!(out.rounds, 4, "2 shards × 2 phases");
    }

    #[test]
    fn any_failed_lock_aborts_atomically() {
        let mut shards = vec![healthy_shard(4), broken_shard(4)];
        let out = AtomixProtocol::run(&mut shards, &[0, 1], &mut no_faults());
        assert!(
            !out.committed,
            "atomicity: one rejecting shard aborts the whole tx"
        );
        assert_eq!(out.rounds, 4, "the unlock phase still runs");
    }

    #[test]
    fn message_cost_grows_with_mu() {
        let run_mu = |mu: usize| {
            let mut shards: Vec<PbftShard> = (0..mu).map(|_| healthy_shard(4)).collect();
            let ids: Vec<u32> = (0..mu as u32).collect();
            AtomixProtocol::run(&mut shards, &ids, &mut no_faults()).messages
        };
        let m2 = run_mu(2);
        let m4 = run_mu(4);
        assert!(m4 > m2, "more involved shards cost more");
        // Roughly linear in µ (per-shard consensus dominates).
        let ratio = m4 as f64 / m2 as f64;
        assert!((1.5..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "cross-shard")]
    fn rejects_single_shard_use() {
        let mut shards = vec![healthy_shard(4)];
        let _ = AtomixProtocol::run(&mut shards, &[0], &mut no_faults());
    }

    #[test]
    fn fault_free_run_costs_the_plain_protocol_and_draws_nothing() {
        // Two healthy 4-replica shards: 2 phases × 2 shards × 27-message
        // rounds, plus the client's 2² proof relay.
        let mut inj = no_faults();
        let mut shards = vec![healthy_shard(4), healthy_shard(4)];
        let out = AtomixProtocol::run(&mut shards, &[0, 1], &mut inj);
        assert_eq!(
            out,
            AtomixOutcome {
                committed: true,
                messages: 112,
                rounds: 4,
                retries: 0,
            }
        );
        assert_eq!(inj.counter(), 0, "FaultPlan::none() draws nothing");
    }

    #[test]
    fn faulty_run_preserves_atomicity_and_is_deterministic() {
        let plan = FaultPlan {
            seed: 3,
            drop_rate: 0.35,
            duplicate_rate: 0.2,
            max_retries: 1,
            ..FaultPlan::none()
        };
        let run = || {
            let mut inj = FaultInjector::new(plan);
            let mut outs = Vec::new();
            for _ in 0..100 {
                let mut shards = vec![healthy_shard(4), healthy_shard(4), healthy_shard(4)];
                outs.push(AtomixProtocol::run(&mut shards, &[0, 1, 2], &mut inj));
            }
            outs
        };
        let outs = run();
        assert_eq!(outs, run(), "fault schedule must be deterministic");
        // Under this drop rate some runs abort (a lock exhausted its
        // retries) and some commit — and an abort still pays both phases.
        assert!(outs.iter().any(|o| o.committed));
        let aborted: Vec<_> = outs.iter().filter(|o| !o.committed).collect();
        assert!(!aborted.is_empty());
        assert!(
            aborted.iter().all(|o| o.rounds == 6),
            "unlock phase still runs"
        );
        assert!(outs.iter().any(|o| o.retries > 0));
    }
}
