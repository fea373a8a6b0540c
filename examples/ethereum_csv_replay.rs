//! Replay a real (or exported) transaction trace from CSV.
//!
//! The CSV format is one transaction per line:
//! `block_height,in1|in2|…,out1|out2|…` — what an Ethereum-ETL export
//! reduces to once values/gas are dropped. With no argument, the example
//! writes a synthetic trace to a temp file first, so it is runnable out of
//! the box:
//!
//! `cargo run --release --example ethereum_csv_replay [trace.csv [k]]`

use std::fs::File;
use std::io::{BufReader, BufWriter};

use txallo::prelude::*;
use txallo::sim::epoch_metrics;
use txallo::workload::{read_ledger_csv, write_ledger_csv};

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next();
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    let path = match path {
        Some(p) => p,
        None => {
            // No trace supplied: synthesize one so the example just works.
            let tmp = std::env::temp_dir().join("txallo_demo_trace.csv");
            let config = WorkloadConfig {
                accounts: 5_000,
                transactions: 50_000,
                block_size: 100,
                groups: 60,
                ..WorkloadConfig::default()
            };
            let blocks = config.block_count();
            let ledger = StreamingWorkload::new(config, 11).ledger(blocks);
            let file = File::create(&tmp).expect("create temp trace");
            write_ledger_csv(&ledger, BufWriter::new(file)).expect("write trace");
            println!(
                "(no trace given — wrote a synthetic one to {})\n",
                tmp.display()
            );
            tmp.to_string_lossy().into_owned()
        }
    };

    let file = File::open(&path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
    let ledger = read_ledger_csv(BufReader::new(file)).expect("parse trace");
    let stats = ledger.stats();
    println!(
        "loaded {}: {} blocks, {} transactions, {} accounts ({} self-loops, {} multi-IO)",
        path,
        stats.block_count,
        stats.transaction_count,
        stats.account_count,
        stats.self_loop_count,
        stats.multi_io_count
    );

    let dataset = Dataset::from_ledger(ledger);
    let params = TxAlloParams::for_graph(dataset.graph(), k);
    let registry = AllocatorRegistry::builtin();

    for name in ["txallo", "hash"] {
        let allocation = registry
            .allocate(name, &params, &dataset)
            .expect("registered");
        let r = MetricsReport::compute(dataset.graph(), &allocation, &params);
        // The whole ledger scored as one epoch: its share of `µ(Tx) > 1`.
        let (blocks, shards) = (dataset.ledger().blocks(), allocation.shard_count());
        let tx_gamma = epoch_metrics(blocks, dataset.graph(), &allocation, shards, params.eta)
            .cross_shard_ratio;
        println!(
            "{name:>9}: γ(graph) = {:.1}%, γ(tx-level) = {:.1}%, Λ/λ = {:.2}×, ζ = {:.2} blocks",
            100.0 * r.cross_shard_ratio,
            100.0 * tx_gamma,
            r.throughput_normalized,
            r.avg_latency
        );
    }
}
