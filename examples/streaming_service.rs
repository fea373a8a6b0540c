//! An epoch loop driven purely through the `StreamingAllocator` service
//! API — no simulator, no direct algorithm construction.
//!
//! This is the §V-C serving story at its barest: resolve a stream from
//! the registry, `begin` it on the warm-up history, then per epoch feed
//! blocks through `on_block_nodes` and close with `end_epoch`, folding each
//! returned `AllocationUpdate` *diff* into a locally held mapping with
//! `Allocation::apply_update`. The diff is the point — migrations are
//! enumerated, not hidden inside a wholesale relabel, so the loop can
//! price them (here: printed; in `ChainService`: charged to Atomix).
//!
//! Run with: `cargo run --release --example streaming_service [method]`

use txallo::prelude::*;

fn main() {
    let method = std::env::args().nth(1).unwrap_or_else(|| "txallo".into());
    let registry = AllocatorRegistry::builtin();

    let config = WorkloadConfig {
        accounts: 6_000,
        transactions: 200_000,
        block_size: 100,
        groups: 80,
        new_account_prob: 0.004,
        drift_interval: 40,
        ..WorkloadConfig::default()
    };
    let wl = StreamingWorkload::new(config, 2025);
    let (k, epoch_blocks, epochs) = (10usize, 50usize, 12u64);

    // Warm-up: accumulate history, open the service on it.
    let mut graph = TxGraph::new();
    let history = 500;
    for block in wl.block_iter(0..history) {
        graph.ingest_block(&block);
    }
    let params = TxAlloParams::for_graph(&graph, k);
    let mut stream =
        match registry.streaming(&method, &params, HybridSchedule::Hybrid { global_gap: 5 }) {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
    let mut allocation = stream.begin(&graph, &params);
    println!(
        "{method} serving {} accounts across {k} shards (via registry)\n",
        allocation.len()
    );
    println!(
        "{:>5} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}",
        "epoch", "kind", "moves", "migrated", "placed", "carry", "γ %"
    );

    for epoch in 0..epochs {
        // Serve one epoch: ingest each block, then let the stream see it.
        let start = history + epoch * epoch_blocks as u64;
        let blocks = wl.blocks(start..start + epoch_blocks as u64);
        for block in &blocks {
            let nodes = graph.ingest_block_nodes(block);
            stream.on_block_nodes(&graph, block, &nodes);
        }
        let update = stream.end_epoch(&graph, EpochKind::Scheduled);
        allocation.apply_update(&update);
        assert_eq!(
            allocation.labels(),
            stream.allocation().labels(),
            "the applied diffs reconstruct the stream's mapping exactly"
        );

        let metrics = txallo::sim::epoch_metrics(&blocks, &graph, &allocation, k, params.eta);
        println!(
            "{epoch:>5} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8.1}",
            match update.kind {
                UpdateKind::Global => "global",
                UpdateKind::Adaptive => "adaptive",
            },
            update.moves.len(),
            update.migrations(),
            update.placements(),
            match update.carry {
                StateCarry::Stateless => "none",
                StateCarry::Rebuilt => "rebuilt",
                StateCarry::Warm => "warm",
                StateCarry::WarmRescaled => "rescaled",
            },
            100.0 * metrics.cross_shard_ratio,
        );
    }

    println!(
        "\nfinal mapping: {} accounts, {} shards — served epoch-by-epoch, \
         every move accounted for",
        allocation.len(),
        allocation.shard_count()
    );
}
