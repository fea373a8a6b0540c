//! Registry conformance suite: every allocator in the registry — whatever
//! the table holds, including future additions — must satisfy the
//! contracts of both entry points of the two-level allocation API.
//!
//! For each name (streaming: under every [`HybridSchedule`]):
//! 1. batch and streaming entry points produce in-range labels covering
//!    every node;
//! 2. both are deterministic across two runs;
//! 3. the empty graph is handled (begin + an empty epoch);
//! 4. streaming diffs are lossless: the `begin` allocation plus every
//!    emitted [`AllocationUpdate`] applied incrementally reconstructs the
//!    stream's label vector exactly, epoch by epoch.

use txallo_core::{
    Allocation, AllocatorRegistry, Dataset, EpochKind, HybridSchedule, TxAlloParams,
};
use txallo_graph::{TxGraph, WeightedGraph};
use txallo_model::{AccountId, Block, Ledger, Transaction};

const K: usize = 4;

/// Every global-refresh policy; schedule-free streams ignore it.
const SCHEDULES: [HybridSchedule; 3] = [
    HybridSchedule::AlwaysGlobal,
    HybridSchedule::Hybrid { global_gap: 2 },
    HybridSchedule::AlwaysAdaptive,
];

/// Deterministic pseudo-random transfer blocks: clustered traffic over a
/// bounded universe plus a trickle of brand-new accounts, so streams see
/// placements *and* migrations.
fn make_blocks(seed: u64, start_height: u64, count: u64, txs_per_block: u64) -> Vec<Block> {
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(11);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..count)
        .map(|i| {
            let txs: Vec<Transaction> = (0..txs_per_block)
                .map(|_| {
                    let r = next();
                    let cluster = (r % 6) * 10;
                    let a = cluster + (r >> 8) % 10;
                    let b = if r % 23 == 0 {
                        // New account territory, appearing over time.
                        1_000 + (r >> 16) % (10 + 4 * (start_height + i))
                    } else {
                        cluster + (r >> 16) % 10
                    };
                    Transaction::transfer(AccountId(a), AccountId(b))
                })
                .collect();
            Block::new(start_height + i, txs)
        })
        .collect()
}

fn warm_dataset() -> Dataset {
    Dataset::from_ledger(Ledger::from_blocks(make_blocks(7, 0, 10, 40)).expect("contiguous"))
}

fn assert_valid(allocation: &Allocation, graph: &TxGraph, context: &str) {
    assert_eq!(
        allocation.len(),
        graph.node_count(),
        "{context}: every node must be labelled"
    );
    assert!(
        allocation.labels().iter().all(|&l| (l as usize) < K),
        "{context}: labels must be in range"
    );
    assert_eq!(allocation.shard_count(), K, "{context}: k must round-trip");
}

/// One full streaming run: begin on the warm graph, then `epochs` epochs,
/// applying every diff to a mirror and checking it against the stream.
/// Returns the final label vector.
fn streaming_run(
    registry: &AllocatorRegistry,
    name: &str,
    schedule: HybridSchedule,
    epochs: u64,
) -> Vec<u32> {
    let mut graph = TxGraph::new();
    for b in make_blocks(7, 0, 10, 40) {
        graph.ingest_block(&b);
    }
    let params = TxAlloParams::for_graph(&graph, K);
    let mut stream = registry
        .streaming(name, &params, schedule)
        .expect("registered");
    let name = format!("{name} {schedule:?}");
    let mut mirror = stream.begin(&graph, &params);
    assert_valid(&mirror, &graph, &format!("{name}/begin"));

    for epoch in 0..epochs {
        for block in make_blocks(100 + epoch, 10 + epoch * 5, 5, 30) {
            let nodes = graph.ingest_block_nodes(&block);
            stream.on_block_nodes(&graph, &block, &nodes);
        }
        let update = stream.end_epoch(&graph, EpochKind::Scheduled);
        assert_eq!(update.shard_count, K, "{name}: update k");
        assert_eq!(
            update.len,
            graph.node_count(),
            "{name}: update must cover the grown graph"
        );
        mirror.apply_update(&update);
        let published = stream.allocation();
        assert_valid(&published, &graph, &format!("{name}/epoch {epoch}"));
        assert_eq!(
            mirror.labels(),
            published.labels(),
            "{name}: epoch {epoch}: applying the diffs must reconstruct the stream's labels"
        );
    }
    mirror.labels().to_vec()
}

#[test]
fn batch_entry_points_are_valid_and_deterministic() {
    let registry = AllocatorRegistry::builtin();
    let dataset = warm_dataset();
    let params = TxAlloParams::for_graph(dataset.graph(), K);
    for name in registry.names() {
        let first = registry
            .allocate(name, &params, &dataset)
            .expect("registered");
        assert_valid(&first, dataset.graph(), &format!("{name}/batch"));
        let second = registry
            .allocate(name, &params, &dataset)
            .expect("registered");
        assert_eq!(first, second, "{name}: batch must be deterministic");
    }
}

#[test]
fn streaming_entry_points_are_valid_deterministic_and_diff_lossless() {
    let registry = AllocatorRegistry::builtin();
    for name in registry.names() {
        for schedule in SCHEDULES {
            let first = streaming_run(&registry, name, schedule, 4);
            let second = streaming_run(&registry, name, schedule, 4);
            assert_eq!(
                first, second,
                "{name} {schedule:?}: streaming must be deterministic"
            );
        }
    }
}

#[test]
fn empty_graph_is_handled_by_both_entry_points() {
    let registry = AllocatorRegistry::builtin();
    let empty_dataset = Dataset::from_ledger(Ledger::from_blocks(Vec::new()).expect("empty ok"));
    let empty_graph = TxGraph::new();
    let params = TxAlloParams::for_total_weight(0.0, K);
    for name in registry.names() {
        let batch = registry
            .allocate(name, &params, &empty_dataset)
            .expect("registered");
        assert!(batch.is_empty(), "{name}: empty dataset → empty allocation");

        for schedule in SCHEDULES {
            let mut stream = registry
                .streaming(name, &params, schedule)
                .expect("registered");
            let name = format!("{name} {schedule:?}");
            let mut mirror = stream.begin(&empty_graph, &params);
            assert!(mirror.is_empty(), "{name}: empty begin");
            let update = stream.end_epoch(&empty_graph, EpochKind::Scheduled);
            assert!(update.moves.is_empty(), "{name}: empty epoch has no moves");
            mirror.apply_update(&update);
            assert!(mirror.is_empty(), "{name}: still empty after empty epoch");
        }
    }
}
