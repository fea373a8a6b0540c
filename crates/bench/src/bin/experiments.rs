//! Regenerates every table and figure of the paper's evaluation (§VI), and
//! runs the repository's timing measurements.
//!
//! ```text
//! cargo run --release -p txallo-bench --bin experiments -- <experiment> [--scale F] [--seed N]
//!     [--quick] [--out FILE] [--accounts N] [--epochs N] [--max-resident-mib F]
//! ```
//!
//! `experiments help` lists the experiments, from the one table that also
//! dispatches them, runs `all` and names them when a name is unknown; the
//! [`txallo_bench::figures`] docs say what each figure prints. `all`, the
//! default, runs the figures and tables, not the measurements the table
//! marks. `components` prints the median and min–max of every case of
//! [`txallo_bench::components`].
//!
//! `--scale` multiplies the default workload (20k accounts / 200k
//! transactions); `--quick` shrinks the sweeps and times each component
//! case once, for smoke testing. `bench-snapshot` needs `--out FILE`, a file
//! that does not exist yet. `scale-stream` replays `--accounts` accounts
//! for `--epochs` epochs and exits nonzero when its accounted peak breaches
//! `--max-resident-mib`.

#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

use std::cell::OnceCell;

use txallo_bench::figures::{self, SweepRow};
use txallo_bench::{
    build_dataset, components, run_stream_bench, ExperimentScale, StreamBenchConfig,
};
use txallo_graph::WeightedGraph;

/// Everything an experiment reads from the command line.
struct Args {
    scale: ExperimentScale,
    quick: bool,
    out: Option<String>,
    stream_accounts: usize,
    stream_epochs: u64,
    max_resident_mib: Option<f64>,
    sweep: OnceCell<Vec<SweepRow>>,
}

impl Args {
    /// The (k, η, allocator) sweep of Figures 2–8, run once on first use.
    fn sweep(&self) -> &[SweepRow] {
        self.sweep.get_or_init(|| {
            eprintln!(
                "# building dataset (scale {:.2}, seed {})...",
                self.scale.factor, self.scale.seed
            );
            let dataset = build_dataset(self.scale);
            eprintln!(
                "# dataset: {} transactions / {} accounts",
                dataset.ledger().transaction_count(),
                dataset.graph().node_count()
            );
            eprintln!("# running (k, eta, allocator) sweep...");
            figures::run_sweep(&dataset, self.quick)
        })
    }
}

/// Runs one experiment.
type Run = fn(&Args);

/// The experiments, in `all`'s order. `all` runs those marked `true`, the
/// figures and tables, and leaves out the measurements.
const EXPERIMENTS: &[(&str, bool, Run)] = &[
    ("fig1", true, |a| figures::fig1(a.scale)),
    ("fig2", true, |a| figures::fig2(a.sweep())),
    ("fig3", true, |a| figures::fig3(a.sweep())),
    ("fig4", true, |a| figures::fig4(a.scale)),
    ("fig5", true, |a| figures::fig5(a.sweep())),
    ("fig6", true, |a| figures::fig6(a.sweep())),
    ("fig7", true, |a| figures::fig7(a.sweep())),
    ("fig8", true, |a| figures::fig8(a.sweep())),
    ("fig9", true, |a| figures::fig9(a.scale, a.quick)),
    ("fig10", true, |a| figures::fig10(a.scale, a.quick)),
    ("runtime-table", true, |a| figures::runtime_table(a.scale)),
    ("ablation", true, |a| figures::ablation(a.scale)),
    ("latency-validation", true, |a| {
        figures::latency_validation(a.scale)
    }),
    ("measure-eta", true, |a| figures::measure_eta(a.scale)),
    ("broker", true, |a| figures::broker(a.scale)),
    ("recency", true, |a| figures::recency(a.scale)),
    ("headline", true, |a| figures::headline(a.scale)),
    ("scale-stream", false, scale_stream),
    ("components", false, |a| {
        components::run(a.quick, |t| println!("{t}"));
    }),
    ("bench-snapshot", false, bench_snapshot),
    ("all", false, |a| {
        for (_, in_all, run) in EXPERIMENTS {
            if *in_all {
                run(a);
            }
        }
    }),
];

fn main() {
    let mut args = Args {
        scale: ExperimentScale::default(),
        quick: false,
        out: None,
        stream_accounts: 1_000_000,
        stream_epochs: 60,
        max_resident_mib: None,
        sweep: OnceCell::new(),
    };
    let mut experiment = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => args.scale.factor = value(&mut it, &arg, "a number"),
            "--seed" => args.scale.seed = value(&mut it, &arg, "an integer"),
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value(&mut it, &arg, "a file path")),
            "--accounts" => args.stream_accounts = value(&mut it, &arg, "an integer"),
            "--epochs" => args.stream_epochs = value(&mut it, &arg, "an integer"),
            "--max-resident-mib" => args.max_resident_mib = Some(value(&mut it, &arg, "a number")),
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let experiment = experiment.unwrap_or_else(|| "all".to_string());
    if experiment == "help" {
        print!("{}", usage());
        return;
    }
    match EXPERIMENTS.iter().find(|(name, _, _)| *name == experiment) {
        Some((_, _, run)) => run(&args),
        None => die(&format!("unknown experiment {experiment:?}\n{}", usage())),
    }
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _, _)| *name).collect();
    format!("experiments: {}\n", names.join(", "))
}

fn scale_stream(a: &Args) {
    let config = StreamBenchConfig {
        accounts: a.stream_accounts,
        epochs: a.stream_epochs,
        seed: a.scale.seed,
        ..StreamBenchConfig::at_scale(a.stream_accounts)
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
    if let Some(ceiling) = a.max_resident_mib {
        if peak_mib > ceiling {
            die(&format!(
                "peak resident {peak_mib:.1} MiB exceeds the {ceiling:.1} MiB ceiling"
            ));
        }
        eprintln!("# ceiling ok: {peak_mib:.1} <= {ceiling:.1} MiB");
    }
}

/// Refuses, before timing anything, to run without `--out` or onto an
/// existing file: a snapshot is a committed baseline.
fn bench_snapshot(a: &Args) {
    let Some(out) = &a.out else {
        die("bench-snapshot needs --out FILE")
    };
    if std::path::Path::new(out).exists() {
        die(&format!(
            "{out} exists; bench-snapshot never overwrites a file"
        ));
    }
    if let Err(e) = figures::bench_snapshot(out) {
        die(&format!("could not write {out}: {e}"));
    }
}

/// The value after `flag`, parsed.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
