//! Property-based tests of the simulator invariants.

use proptest::prelude::*;
use txallo_core::Allocation;
use txallo_graph::{TxGraph, WeightedGraph};
use txallo_model::{AccountId, Block, Transaction};
use txallo_sim::{epoch_metrics, ShardQueueSim};

fn block_of(pairs: &[(u64, u64)]) -> Block {
    Block::new(
        0,
        pairs
            .iter()
            .map(|&(a, b)| Transaction::transfer(AccountId(a), AccountId(b)))
            .collect(),
    )
}

proptest! {
    /// epoch_metrics conservation: cross ≤ total; per-shard workload sums
    /// to intra + µ·η-weighted cross; throughput never exceeds the ideal.
    #[test]
    fn epoch_metrics_conservation(
        pairs in prop::collection::vec((0u64..30, 0u64..30), 1..80),
        k in 1usize..6,
        eta in 1.0f64..8.0,
    ) {
        let mut g = TxGraph::new();
        let block = block_of(&pairs);
        g.ingest_block(&block);
        let labels: Vec<u32> = (0..g.node_count() as u32).map(|v| v % k as u32).collect();
        let alloc = Allocation::new(labels, k);
        let m = epoch_metrics(std::slice::from_ref(&block), &g, &alloc, k, eta);
        prop_assert_eq!(m.transactions, pairs.len());
        prop_assert!(m.cross_shard <= m.transactions);
        prop_assert!((0.0..=1.0).contains(&m.cross_shard_ratio));
        // Workload decomposition: Σσ = intra·1 + Σ_cross µ(Tx)·η.
        let sigma_sum: f64 = m.shard_workloads.iter().sum();
        prop_assert!(sigma_sum >= m.transactions as f64 - 1e-9);
        // Throughput is capped by both |T| and k·λ.
        prop_assert!(m.throughput <= m.transactions as f64 + 1e-9);
        prop_assert!(m.throughput_normalized <= k as f64 + 1e-9);
    }

    /// Queue simulation conserves transactions and latency is ≥ 1.
    #[test]
    fn queue_conserves_transactions(
        pairs in prop::collection::vec((0u64..25, 0u64..25), 1..60),
        k in 1usize..5,
        capacity in 1.0f64..50.0,
    ) {
        let mut g = TxGraph::new();
        let block = block_of(&pairs);
        g.ingest_block(&block);
        let labels: Vec<u32> = (0..g.node_count() as u32).map(|v| v % k as u32).collect();
        let alloc = Allocation::new(labels, k);
        let mut sim = ShardQueueSim::new(k, capacity, 2.0);
        sim.step_block(&block, &g, &alloc);
        sim.drain(100_000);
        let s = sim.stats();
        prop_assert_eq!(s.confirmed + s.unconfirmed, pairs.len());
        prop_assert_eq!(s.unconfirmed, 0, "drain must finish everything");
        if s.confirmed > 0 {
            prop_assert!(s.mean_latency >= 1.0 - 1e-12);
            prop_assert!(s.p50_latency <= s.p99_latency + 1e-12);
            prop_assert!(s.p99_latency <= s.max_latency + 1e-12);
        }
    }

    /// More capacity never increases measured mean latency (monotonicity).
    #[test]
    fn queue_latency_monotone_in_capacity(
        pairs in prop::collection::vec((0u64..20, 0u64..20), 5..50),
    ) {
        let mut g = TxGraph::new();
        let block = block_of(&pairs);
        g.ingest_block(&block);
        let labels: Vec<u32> = (0..g.node_count() as u32).map(|v| v % 2).collect();
        let alloc = Allocation::new(labels, 2);
        let run = |cap: f64| {
            let mut sim = ShardQueueSim::new(2, cap, 2.0);
            sim.step_block(&block, &g, &alloc);
            sim.drain(100_000);
            sim.stats().mean_latency
        };
        prop_assert!(run(20.0) <= run(2.0) + 1e-9);
    }
}

use txallo_sim::{HybridSchedule, ShardedChainSim, SimConfig};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The streamed replay loop — blocks synthesized per epoch, one epoch
    /// of blocks alive at a time — reproduces the materialized-ledger run
    /// bit-for-bit: same update kinds, same cross-shard counts, same
    /// throughput bits, same final labels.
    #[test]
    fn streamed_replay_matches_materialized(
        seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let cfg = WorkloadConfig {
            accounts: 600,
            transactions: 20_000,
            block_size: 40,
            groups: 12,
            ..WorkloadConfig::default()
        };
        let w = StreamingWorkload::new(cfg, seed);
        let (epoch_blocks, warm_epochs, epochs) = (5u64, 2u64, 6u64);
        let sim_config = || SimConfig {
            epoch_blocks: epoch_blocks as usize,
            schedule: HybridSchedule::Hybrid { global_gap: 3 },
            decay_per_epoch: Some(0.9),
            ..SimConfig::new(shards)
        };
        // Materialized reference: the whole ledger as slices up front.
        let mut mat = ShardedChainSim::new(sim_config());
        mat.warmup(&w.blocks(0..warm_epochs * epoch_blocks));
        let stream =
            w.blocks(warm_epochs * epoch_blocks..(warm_epochs + epochs) * epoch_blocks);
        let want = mat.run_stream(&stream);
        // Streamed twin: one epoch of blocks alive at a time.
        let mut sim = ShardedChainSim::new(sim_config());
        sim.warmup_streamed(w.block_iter(0..warm_epochs * epoch_blocks));
        let got = sim.run_stream_with(epochs, |e| w.epoch_blocks(e + warm_epochs, epoch_blocks));
        prop_assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            prop_assert_eq!(a.update, b.update);
            prop_assert_eq!(a.metrics.cross_shard, b.metrics.cross_shard);
            prop_assert_eq!(
                a.metrics.throughput_normalized.to_bits(),
                b.metrics.throughput_normalized.to_bits()
            );
            prop_assert_eq!(a.metrics.migrated_accounts, b.metrics.migrated_accounts);
        }
        prop_assert_eq!(mat.allocation().labels(), sim.allocation().labels());
    }
}
