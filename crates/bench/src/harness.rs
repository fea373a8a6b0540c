//! Dataset construction, allocator dispatch and result recording.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use txallo_core::{Allocation, AllocatorRegistry, Dataset, GTxAllo, GTxAlloPlan, TxAlloParams};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

/// Scale knobs for the experiments (the paper runs 91.8M transactions on a
/// cluster node; the default here reproduces the shapes on a laptop).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Scale factor relative to the default workload (1.0 → 20k accounts /
    /// 200k transactions).
    pub factor: f64,
    /// Seed for the synthetic trace.
    pub seed: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            factor: 1.0,
            seed: 42,
        }
    }
}

impl ExperimentScale {
    /// The workload configuration at this scale.
    pub fn config(&self) -> WorkloadConfig {
        WorkloadConfig::scaled(self.factor)
    }
}

/// Builds the shared experiment dataset.
pub fn build_dataset(scale: ExperimentScale) -> Dataset {
    let config = scale.config();
    let blocks = config.block_count();
    Dataset::from_ledger(StreamingWorkload::new(config, scale.seed).ledger(blocks))
}

/// The four methods of the paper's comparison, as (registry name, figure
/// legend), in the legend order of Figs. 2–8.
pub const METHODS: [(&str, &str); 4] = [
    ("txallo", "Our Method"),
    ("hash", "Random"),
    ("metis", "Metis"),
    ("scheduler", "Shard Scheduler"),
];

/// The figure legend of the registry name `name`.
///
/// # Panics
/// Panics if `name` is not in [`METHODS`].
pub fn legend_of(name: &str) -> &'static str {
    METHODS
        .iter()
        .find(|&&(method, _)| method == name)
        .map(|&(_, legend)| legend)
        .expect("a method of the comparison")
}

/// Runs the method `name` through the shared [`AllocatorRegistry`], timing
/// the full allocation (for `txallo` a cached [`GTxAlloPlan`] — canonical
/// order + CSR snapshot + Louvain init — may be supplied; the plan is
/// independent of both `k` and `η`, so sweeps reuse it; pass `None` to
/// time end-to-end).
pub fn run_allocator(
    name: &str,
    dataset: &Dataset,
    k: usize,
    eta: f64,
    cached_plan: Option<&GTxAlloPlan>,
) -> (Allocation, Duration) {
    let params = TxAlloParams::for_graph(dataset.graph(), k).with_eta(eta);
    timed(|| match cached_plan {
        Some(plan) if name == "txallo" => GTxAllo::new(params).allocate_planned(plan).allocation,
        _ => AllocatorRegistry::builtin()
            .allocate(name, &params, dataset)
            .expect("a registered method"),
    })
}

/// Runs `f` once and returns its result with the wall time it took: the
/// crate's one clock read, which every timing here goes through.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the harness measures wall time for its reports; no allocation reads the clock"
    )]
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Prints CSV rows to stdout and mirrors them into `results/<name>.csv`.
pub struct ResultWriter {
    file: Option<fs::File>,
    name: String,
}

impl ResultWriter {
    /// Opens `results/<name>.csv` (best-effort — falls back to
    /// stdout-only when the directory cannot be created).
    pub fn new(name: &str) -> Self {
        let dir = PathBuf::from("results");
        let file = fs::create_dir_all(&dir)
            .ok()
            .and_then(|_| fs::File::create(dir.join(format!("{name}.csv"))).ok());
        Self {
            file,
            name: name.to_string(),
        }
    }

    /// Emits one row.
    pub fn row(&mut self, line: &str) {
        println!("{line}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{line}");
        }
    }

    /// Emits a comment/header line (prefixed `#` in the CSV mirror).
    pub fn note(&mut self, line: &str) {
        println!("{line}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "# {line}");
        }
    }

    /// Experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The k values swept by Figures 2–8 (paper: 2..60).
pub fn k_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 10, 30]
    } else {
        vec![2, 5, 10, 20, 30, 40, 50, 60]
    }
}

/// The η values swept by Figures 2–8.
pub fn eta_sweep(quick: bool) -> Vec<f64> {
    if quick {
        vec![2.0]
    } else {
        vec![2.0, 4.0, 6.0, 8.0, 10.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_have_expected_shape() {
        assert!(k_sweep(true).len() < k_sweep(false).len());
        assert!(eta_sweep(true).len() < eta_sweep(false).len());
        assert!(k_sweep(false).contains(&60), "paper sweeps up to k = 60");
        assert!(eta_sweep(false).contains(&2.0) && eta_sweep(false).contains(&10.0));
    }

    #[test]
    fn scale_produces_usable_config() {
        let scale = ExperimentScale {
            factor: 0.01,
            seed: 1,
        };
        let cfg = scale.config();
        cfg.validate();
        assert!(cfg.transactions >= 1_000);
    }

    #[test]
    fn tiny_dataset_runs_every_allocator() {
        let dataset = build_dataset(ExperimentScale {
            factor: 0.01,
            seed: 3,
        });
        for (name, _) in METHODS {
            let (alloc, time) = run_allocator(name, &dataset, 4, 2.0, None);
            assert_eq!(alloc.len(), {
                use txallo_graph::WeightedGraph;
                dataset.graph().node_count()
            });
            assert!(time.as_nanos() > 0);
        }
    }

    #[test]
    fn txallo_cached_plan_matches_uncached() {
        let dataset = build_dataset(ExperimentScale {
            factor: 0.01,
            seed: 5,
        });
        let plan = GTxAlloPlan::new(dataset.graph(), &txallo_louvain::LouvainConfig);
        let (a, _) = run_allocator("txallo", &dataset, 5, 2.0, Some(&plan));
        let (b, _) = run_allocator("txallo", &dataset, 5, 2.0, None);
        assert_eq!(a, b, "cached plan must not change the result");
    }

    #[test]
    fn allocator_names_match_paper_legend() {
        assert_eq!(legend_of("txallo"), "Our Method");
        assert_eq!(legend_of("hash"), "Random");
        assert_eq!(legend_of("metis"), "Metis");
        assert_eq!(legend_of("scheduler"), "Shard Scheduler");
        let mut names = METHODS.map(|(name, _)| name);
        names.sort();
        assert_eq!(
            names,
            AllocatorRegistry::builtin().names(),
            "every registered method has exactly one legend"
        );
    }
}
