//! Regenerates every table and figure of the paper's evaluation (§VI).
//!
//! ```text
//! cargo run --release -p txallo-bench --bin experiments -- <experiment> [--scale F] [--seed N] [--quick]
//!
//! experiments:
//!   fig1            dataset structure statistics
//!   fig2 .. fig8    the (k, η, allocator) sweep figures
//!   fig9            A-TxAllo throughput evolution (τ₂ sweep)
//!   fig10           running time: pure G-TxAllo vs hybrid
//!   runtime-table   §VI-B6 running-time comparison
//!   ablation        G-TxAllo design-choice ablations
//!   latency-validation   measured queue latency vs capacity headroom
//!   measure-eta     empirical η from the consensus substrate
//!   broker          BrokerChain-style hot-account splitting on TxAllo
//!   recency         full-history vs window vs decayed training graphs
//!   headline        γ at k = 60 (98% / 28% / 12% in the paper)
//!   scale-stream    streaming replay (--accounts/--epochs; --max-resident-mib F
//!                   exits nonzero when the accounted peak breaches F MiB)
//!   bench-snapshot  hot-path component timings -> BENCH_pr8.json (or --out FILE)
//!   all             everything above
//! ```
//!
//! `--scale` multiplies the default workload (20k accounts / 200k
//! transactions); `--quick` shrinks the sweeps for smoke testing; `--out`
//! redirects the bench-snapshot JSON.

use txallo_bench::figures;
use txallo_bench::{build_dataset, run_stream_bench, ExperimentScale, StreamBenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut scale = ExperimentScale::default();
    let mut quick = false;
    // Default snapshot name for `bench-snapshot`; later PRs bump it (or
    // pass `--out BENCH_prN.json`) so earlier baselines are never clobbered.
    let mut out_path = String::from("BENCH_pr10.json");
    // `scale-stream` knobs.
    let mut stream_accounts: usize = 1_000_000;
    let mut stream_epochs: u64 = 60;
    let mut max_resident_mib: Option<f64> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale.factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--seed" => {
                scale.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--quick" => quick = true,
            "--out" => {
                out_path = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--out needs a file path"));
            }
            "--accounts" => {
                stream_accounts = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--accounts needs an integer"));
            }
            "--epochs" => {
                stream_epochs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--epochs needs an integer"));
            }
            "--max-resident-mib" => {
                max_resident_mib = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--max-resident-mib needs a number")),
                );
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let experiment = experiment.unwrap_or_else(|| "all".to_string());

    let needs_sweep = matches!(
        experiment.as_str(),
        "fig2" | "fig3" | "fig5" | "fig6" | "fig7" | "fig8" | "all"
    );
    let sweep_rows = if needs_sweep {
        eprintln!(
            "# building dataset (scale {:.2}, seed {})...",
            scale.factor, scale.seed
        );
        let dataset = build_dataset(scale);
        eprintln!(
            "# dataset: {} transactions / {} accounts",
            dataset.ledger().transaction_count(),
            {
                use txallo_graph::WeightedGraph;
                dataset.graph().node_count()
            }
        );
        eprintln!("# running (k, eta, allocator) sweep...");
        Some(figures::run_sweep(&dataset, quick))
    } else {
        None
    };

    match experiment.as_str() {
        "fig1" => figures::fig1(scale),
        "fig2" => figures::fig2(sweep_rows.as_deref().expect("sweep computed")),
        "fig3" => figures::fig3(sweep_rows.as_deref().expect("sweep computed")),
        "fig4" => figures::fig4(scale),
        "fig5" => figures::fig5(sweep_rows.as_deref().expect("sweep computed")),
        "fig6" => figures::fig6(sweep_rows.as_deref().expect("sweep computed")),
        "fig7" => figures::fig7(sweep_rows.as_deref().expect("sweep computed")),
        "fig8" => figures::fig8(sweep_rows.as_deref().expect("sweep computed")),
        "fig9" => figures::fig9(scale, quick),
        "fig10" => figures::fig10(scale, quick),
        "runtime-table" => figures::runtime_table(scale),
        "ablation" => figures::ablation(scale),
        "latency-validation" => figures::latency_validation(scale),
        "measure-eta" => figures::measure_eta(scale),
        "broker" => figures::broker(scale),
        "recency" => figures::recency(scale),
        "headline" => figures::headline(scale),
        "scale-stream" => {
            let config = StreamBenchConfig {
                accounts: stream_accounts,
                epochs: stream_epochs,
                seed: scale.seed,
                ..StreamBenchConfig::at_scale(stream_accounts)
            };
            eprintln!(
                "# streaming replay: {} accounts, {} epochs...",
                config.accounts, config.epochs
            );
            let report = run_stream_bench(&config);
            println!("{}", report.to_json());
            let peak_mib = report.peak_resident_bytes as f64 / (1024.0 * 1024.0);
            eprintln!(
                "# peak resident {peak_mib:.1} MiB ({} distinct accounts)",
                report.distinct_accounts,
            );
            if let Some(ceiling) = max_resident_mib {
                if peak_mib > ceiling {
                    die(&format!(
                        "peak resident {peak_mib:.1} MiB exceeds the {ceiling:.1} MiB ceiling"
                    ));
                }
                eprintln!("# ceiling ok: {peak_mib:.1} <= {ceiling:.1} MiB");
            }
        }
        "bench-snapshot" => figures::bench_snapshot(&out_path),
        "all" => {
            let rows = sweep_rows.as_deref().expect("sweep computed");
            figures::fig1(scale);
            figures::fig2(rows);
            figures::fig3(rows);
            figures::fig4(scale);
            figures::fig5(rows);
            figures::fig6(rows);
            figures::fig7(rows);
            figures::fig8(rows);
            figures::fig9(scale, quick);
            figures::fig10(scale, quick);
            figures::runtime_table(scale);
            figures::ablation(scale);
            figures::latency_validation(scale);
            figures::measure_eta(scale);
            figures::broker(scale);
            figures::recency(scale);
            figures::headline(scale);
            figures::bench_snapshot(&out_path);
        }
        other => die(&format!(
            "unknown experiment {other:?} (expected fig1..fig10, runtime-table, ablation, \
             headline, scale-stream, bench-snapshot, all)"
        )),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
