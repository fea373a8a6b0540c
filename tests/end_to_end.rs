//! Cross-crate integration tests: the full pipeline from workload
//! generation through allocation to metrics, exercising every allocator.

use txallo::core::GTxAllo;
use txallo::prelude::*;

fn small_dataset(seed: u64) -> Dataset {
    let config = WorkloadConfig {
        accounts: 3_000,
        transactions: 30_000,
        block_size: 100,
        groups: 50,
        ..WorkloadConfig::default()
    };
    let blocks = config.block_count();
    Dataset::from_ledger(StreamingWorkload::new(config, seed).ledger(blocks))
}

/// Runs the method `name` through the registry and returns its report.
fn evaluate(name: &str, dataset: &Dataset, k: usize, eta: f64) -> MetricsReport {
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);
    let allocation = AllocatorRegistry::builtin()
        .allocate(name, &params, dataset)
        .unwrap();
    assert_eq!(
        allocation.len(),
        dataset.graph().node_count(),
        "{name} must label all"
    );
    assert!(
        allocation.labels().iter().all(|&l| (l as usize) < k),
        "{name} produced out-of-range labels"
    );
    MetricsReport::compute(dataset.graph(), &allocation, &params)
}

#[test]
fn full_pipeline_all_allocators() {
    let dataset = small_dataset(1);
    let k = 8;
    let r_tx = evaluate("txallo", &dataset, k, 2.0);
    let r_hash = evaluate("hash", &dataset, k, 2.0);
    let r_metis = evaluate("metis", &dataset, k, 2.0);
    let r_sched = evaluate("scheduler", &dataset, k, 2.0);

    // The paper's headline ordering (§VI-B7).
    assert!(
        r_tx.cross_shard_ratio < r_metis.cross_shard_ratio,
        "TxAllo must beat METIS on γ"
    );
    assert!(
        r_metis.cross_shard_ratio < r_hash.cross_shard_ratio,
        "METIS must beat hash on γ"
    );
    assert!(
        r_tx.cross_shard_ratio < r_sched.cross_shard_ratio,
        "TxAllo must beat Scheduler on γ"
    );
    assert!(
        r_tx.throughput >= r_hash.throughput,
        "TxAllo throughput {} must be at least hash {}",
        r_tx.throughput,
        r_hash.throughput
    );
    assert!(
        r_tx.avg_latency <= r_hash.avg_latency,
        "TxAllo must confirm faster than hash"
    );
}

#[test]
fn gamma_improves_with_structure() {
    // More intra-group preference → lower achievable γ.
    let mk = |intra: f64| {
        let config = WorkloadConfig {
            accounts: 2_000,
            transactions: 20_000,
            block_size: 100,
            groups: 40,
            intra_group_prob: intra,
            ..WorkloadConfig::default()
        };
        let blocks = config.block_count();
        let ds = Dataset::from_ledger(StreamingWorkload::new(config, 3).ledger(blocks));
        let params = TxAlloParams::for_graph(ds.graph(), 8);
        let alloc = GTxAllo::new(params.clone()).allocate_graph(ds.graph());
        MetricsReport::compute(ds.graph(), &alloc, &params).cross_shard_ratio
    };
    let strong = mk(0.95);
    let weak = mk(0.4);
    assert!(
        strong < weak,
        "structured traffic must allocate better: γ(0.95) = {strong} vs γ(0.4) = {weak}"
    );
}

#[test]
fn deterministic_end_to_end() {
    // Same seed → byte-identical allocations across the whole pipeline.
    let d1 = small_dataset(9);
    let d2 = small_dataset(9);
    let k = 6;
    let p1 = TxAlloParams::for_graph(d1.graph(), k);
    let p2 = TxAlloParams::for_graph(d2.graph(), k);
    let a1 = GTxAllo::new(p1).allocate_graph(d1.graph());
    let a2 = GTxAllo::new(p2).allocate_graph(d2.graph());
    assert_eq!(a1.labels(), a2.labels());
}

#[test]
fn adaptive_tracks_global_quality() {
    // After several adaptive epochs, A-TxAllo's γ must stay within a
    // reasonable band of a fresh global run (Fig. 9's "acceptable loss").
    let config = WorkloadConfig {
        accounts: 2_000,
        transactions: 60_000,
        block_size: 100,
        groups: 40,
        ..WorkloadConfig::default()
    };
    let wl = StreamingWorkload::new(config, 5);
    let warm = wl.blocks(0..300);
    let mut sim = ShardedChainSim::new(SimConfig {
        shards: 6,
        eta: 2.0,
        epoch_blocks: 50,
        method: "txallo".into(),
        schedule: HybridSchedule::AlwaysAdaptive,
        decay_per_epoch: None,
        ..SimConfig::new(6)
    });
    sim.warmup(&warm);
    let stream = wl.blocks(300..600);
    let reports = sim.run_stream(&stream);
    let adaptive_gamma = reports.last().unwrap().metrics.cross_shard_ratio;

    // Fresh global allocation on the same accumulated graph.
    let params = TxAlloParams::for_graph(sim.graph(), 6);
    let global = GTxAllo::new(params.clone()).allocate_graph(sim.graph());
    let last_epoch_blocks = &stream[250..];
    let global_metrics =
        txallo::sim::epoch_metrics(last_epoch_blocks, sim.graph(), &global, 6, 2.0);

    assert!(
        adaptive_gamma <= global_metrics.cross_shard_ratio + 0.15,
        "adaptive γ {adaptive_gamma} drifted too far from global γ {}",
        global_metrics.cross_shard_ratio
    );
}

#[test]
fn scheduler_balances_better_than_gtxallo_under_hot_account() {
    // The paper's Fig. 3/4: the transaction-level baseline wins on balance.
    let config = WorkloadConfig {
        accounts: 3_000,
        transactions: 30_000,
        block_size: 100,
        groups: 50,
        hot_account_share: 0.2, // exaggerate the hot spot
        ..WorkloadConfig::default()
    };
    let blocks = config.block_count();
    let dataset = Dataset::from_ledger(StreamingWorkload::new(config, 17).ledger(blocks));
    let k = 10;
    let r_sched = evaluate("scheduler", &dataset, k, 2.0);
    let r_tx = evaluate("txallo", &dataset, k, 2.0);
    assert!(
        r_sched.workload_std_normalized < r_tx.workload_std_normalized,
        "scheduler ρ {} must beat G-TxAllo ρ {}",
        r_sched.workload_std_normalized,
        r_tx.workload_std_normalized
    );
}

#[test]
fn eta_self_adjustment() {
    // §VI-B2: larger η makes G-TxAllo prioritize γ. The γ achieved with
    // η = 10 must be no worse than with η = 2 (allowing small noise).
    let dataset = small_dataset(23);
    let k = 8;
    let gamma = |eta: f64| {
        let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);
        let alloc = GTxAllo::new(params.clone()).allocate_graph(dataset.graph());
        MetricsReport::compute(dataset.graph(), &alloc, &params).cross_shard_ratio
    };
    let g2 = gamma(2.0);
    let g10 = gamma(10.0);
    assert!(
        g10 <= g2 + 0.02,
        "γ(η=10) = {g10} should not exceed γ(η=2) = {g2}"
    );
}
