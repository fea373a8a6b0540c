//! Property-based tests of the consensus substrate.

use proptest::prelude::*;
use txallo_chain::{
    AtomixProtocol, ChainEngine, ChainEngineConfig, ChainService, ChainServiceConfig,
    FaultInjector, FaultPlan, PbftShard, Validator, ValidatorSet,
};
use txallo_core::{Allocation, HybridSchedule, StateCarry};
use txallo_graph::{TxGraph, WeightedGraph};
use txallo_model::{AccountId, Block, Transaction};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

fn no_faults() -> FaultInjector {
    FaultInjector::new(FaultPlan::none())
}

fn members(n: usize, byz: usize) -> Vec<Validator> {
    (0..n as u32)
        .map(|id| Validator {
            id,
            byzantine: (id as usize) < byz,
        })
        .collect()
}

proptest! {
    /// PBFT safety/liveness boundary: commits iff honest ≥ 2f + 1.
    #[test]
    fn pbft_quorum_boundary(n in 4usize..40, byz_frac in 0.0f64..1.0) {
        let byz = ((n as f64) * byz_frac) as usize;
        let mut shard = PbftShard::new(members(n, byz));
        let expected = (n - byz) >= shard.quorum();
        let out = shard.run_round(&mut no_faults());
        prop_assert_eq!(out.committed, expected, "n={} byz={} quorum={}", n, byz, shard.quorum());
    }

    /// Validator reshuffling conserves the population and keeps shard
    /// sizes within one of each other, at every epoch.
    #[test]
    fn reshuffle_conserves_and_balances(
        total in 8usize..120,
        shards in 1usize..8,
        epoch in 0u64..50,
    ) {
        prop_assume!(total >= shards);
        let mut set = ValidatorSet::new(total, total / 5, shards);
        set.reshuffle(epoch);
        let sizes: Vec<usize> = (0..shards as u32).map(|s| set.shard_members(s).len()).collect();
        prop_assert_eq!(sizes.iter().sum::<usize>(), total);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "sizes {sizes:?}");
    }

    /// Atomix atomicity: the outcome is commit iff every involved shard
    /// could commit both its rounds.
    #[test]
    fn atomix_atomicity(healthy in prop::collection::vec(any::<bool>(), 2..6)) {
        let mut shards: Vec<PbftShard> = healthy
            .iter()
            .map(|&ok| {
                if ok {
                    PbftShard::new(members(4, 0))
                } else {
                    PbftShard::new(members(4, 3)) // quorum-less
                }
            })
            .collect();
        let ids: Vec<u32> = (0..shards.len() as u32).collect();
        let out = AtomixProtocol::run(&mut shards, &ids, &mut no_faults());
        prop_assert_eq!(out.committed, healthy.iter().all(|&h| h));
        prop_assert_eq!(out.rounds as usize, 2 * healthy.len());
    }

    /// The engine conserves transactions: committed + aborted equals the
    /// number fed in, for arbitrary small traffic patterns.
    #[test]
    fn engine_conserves_transactions(pairs in prop::collection::vec((0u64..20, 0u64..20), 1..40)) {
        let mut g = TxGraph::new();
        let txs: Vec<Transaction> = pairs
            .iter()
            .map(|&(a, b)| Transaction::transfer(AccountId(a), AccountId(b)))
            .collect();
        let n_txs = txs.len() as u64;
        let block = Block::new(0, txs);
        g.ingest_block(&block);
        let labels: Vec<u32> = (0..g.node_count() as u32).map(|v| v % 3).collect();
        let alloc = Allocation::new(labels, 3);
        let mut engine = ChainEngine::new(ChainEngineConfig {
            shards: 3,
            validators: 12,
            byzantine: 0,
            batch_size: 8,
            reshuffle_interval: 0,
        });
        engine.process_block(&block, &g, &alloc);
        let r = engine.report();
        prop_assert_eq!(r.intra_committed + r.cross_committed + r.aborted, n_txs);
        prop_assert_eq!(r.aborted, 0, "no faults configured");
        prop_assert!(r.total_messages > 0);
    }
}

fn small_trace(seed: u64, blocks: u64) -> Vec<Block> {
    let cfg = WorkloadConfig {
        accounts: 300,
        transactions: 10_000,
        block_size: 25,
        groups: 12,
        new_account_prob: 0.01,
        drift_interval: 15,
        ..WorkloadConfig::default()
    };
    StreamingWorkload::new(cfg, seed).blocks(0..blocks)
}

fn faulty_config(shards: usize) -> ChainServiceConfig {
    ChainServiceConfig {
        engine: ChainEngineConfig {
            shards,
            validators: shards * 8,
            byzantine: 0,
            batch_size: 16,
            reshuffle_interval: 0,
        },
        epoch_blocks: 10,
        schedule: HybridSchedule::Hybrid { global_gap: 2 },
        ..ChainServiceConfig::new(shards)
    }
}

/// Every registry method, and whether its resume is warm. `scheduler`
/// keeps transaction-level state that a checkpoint cannot hold, so it
/// reopens cold (`StateCarry::Rebuilt`).
const METHODS: [(&str, bool); 4] = [
    ("txallo", true),
    ("hash", true),
    ("metis", true),
    ("scheduler", false),
];

fn method_config(method: &str) -> ChainServiceConfig {
    ChainServiceConfig {
        method: method.to_string(),
        ..faulty_config(3)
    }
}

fn service(method: &str, plan: FaultPlan) -> ChainService {
    let mut service = ChainService::new(method_config(method));
    service.set_fault_plan(plan);
    service
}

proptest! {
    // Every case drives two full chain services per method and fault
    // plan (16 in all); keep the case count modest so the suite stays
    // quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// §IV-A determinism across restarts, composed over every method and
    /// both fault plans (`FaultPlan::none()` and `mixed`): crashing at
    /// *any* epoch boundary and resuming from the checkpoint yields a run
    /// bit-identical to the uninterrupted one — same labels, same
    /// substrate report. This also covers every per-close cache of the
    /// allocators (the sweep cache's gathers and drift, the snapshot):
    /// none of it may leak into the image or survive the restart. The
    /// `scheduler` reopens cold, so its resumed run must only keep every
    /// label in range and every epoch's diff consistent with the mapping
    /// it applies to.
    #[test]
    fn crash_at_any_epoch_resumes_bit_identically(
        crash_after in 1u64..5,
        workload_seed in 0u64..500,
        fault_seed in 0u64..500,
    ) {
        let warm = small_trace(workload_seed, 90);
        let (warmup, live) = warm.split_at(40);
        let crash_block = (crash_after * 10) as usize;
        for (method, warm_resume) in METHODS {
            for plan in [FaultPlan::none(), FaultPlan::mixed(fault_seed)] {
                let mut reference = service(method, plan);
                reference.warmup(warmup);
                let reference_updates = reference.run(live);

                let mut crashed = service(method, plan);
                crashed.warmup(warmup);
                let before = crashed.run(&live[..crash_block]);
                prop_assert_eq!(crashed.epochs_closed(), crash_after);
                let image = crashed.checkpoint().expect("boundary checkpoint");
                drop(crashed);

                let mut resumed = ChainService::resume(method_config(method), &image).expect("resume");
                let at_resume = resumed.allocation().clone();
                let after = resumed.run(&live[crash_block..]);
                prop_assert_eq!(before.len() + after.len(), reference_updates.len(), "{}", method);

                if !warm_resume {
                    prop_assert_eq!(resumed.resume_carry(), Some(StateCarry::Rebuilt), "{}", method);
                    let mut replayed = at_resume;
                    for update in &after {
                        replayed.apply_update(update);
                    }
                    prop_assert_eq!(&replayed, resumed.allocation(), "{}: diffs rebuild the mapping", method);
                    prop_assert_eq!(replayed.len(), resumed.graph().node_count());
                    prop_assert!(replayed.labels().iter().all(|&l| l < 3), "{}: labels in range", method);
                    continue;
                }
                for (i, (live_u, split_u)) in reference_updates
                    .iter()
                    .zip(before.iter().chain(after.iter()))
                    .enumerate()
                {
                    prop_assert_eq!(live_u.kind, split_u.kind, "{} epoch {}", method, i);
                    prop_assert_eq!(live_u.migrations(), split_u.migrations(), "{} epoch {}", method, i);
                }
                prop_assert_eq!(
                    reference.allocation().labels(),
                    resumed.allocation().labels(),
                    "{}: restart must not perturb the served mapping",
                    method
                );
                prop_assert_eq!(
                    format!("{:?}", reference.report()),
                    format!("{:?}", resumed.report()),
                    "{}: substrate tallies (messages, retries, aborts) must survive the restart",
                    method
                );
            }
        }
    }
}

proptest! {
    /// Atomix atomicity under arbitrary drop/duplication patterns: both
    /// phases always run in every involved shard (no partial commit), a
    /// quorum-less shard forces a global abort no matter what the network
    /// does, and the same fault seed replays to the same outcome.
    #[test]
    fn atomix_atomicity_under_any_drop_pattern(
        fault_seed in any::<u64>(),
        drop_rate in 0.0f64..0.6,
        duplicate_rate in 0.0f64..0.4,
        healthy in prop::collection::vec(any::<bool>(), 2..5),
    ) {
        let plan = FaultPlan {
            seed: fault_seed,
            drop_rate,
            delay_rate: 0.1,
            duplicate_rate,
            max_retries: 2,
            crash_rate: 0.0,
            rejoin_after: 0,
        };
        let build = || -> Vec<PbftShard> {
            healthy
                .iter()
                .map(|&ok| {
                    if ok {
                        PbftShard::new(members(4, 0))
                    } else {
                        PbftShard::new(members(4, 3)) // quorum-less
                    }
                })
                .collect()
        };
        let ids: Vec<u32> = (0..healthy.len() as u32).collect();

        let mut shards = build();
        let mut inj = FaultInjector::new(plan);
        let out = AtomixProtocol::run(&mut shards, &ids, &mut inj);

        // Atomicity: the unlock/commit phase runs everywhere even after
        // an abort decision, so every shard always executes both rounds.
        prop_assert_eq!(out.rounds as usize, 2 * healthy.len());
        if !healthy.iter().all(|&h| h) {
            prop_assert!(!out.committed, "a quorum-less shard can never lock");
        }
        if out.committed {
            prop_assert!(healthy.iter().all(|&h| h), "commit implies every lock succeeded");
        }
        // Bounded recovery: each consensus round and the proof relay
        // retry at most `max_retries` times.
        prop_assert!(out.retries <= (out.rounds + healthy.len() as u32) * plan.max_retries);

        // Determinism: replaying the same plan over fresh shards gives
        // the identical outcome and draw count.
        let mut shards2 = build();
        let mut inj2 = FaultInjector::new(plan);
        let out2 = AtomixProtocol::run(&mut shards2, &ids, &mut inj2);
        prop_assert_eq!(out, out2);
        prop_assert_eq!(inj.counter(), inj2.counter());
    }
}
