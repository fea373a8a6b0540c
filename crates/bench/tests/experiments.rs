//! Command-line checks of the `experiments` binary that run no experiment.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty directory to run in, so nothing the binary might write
/// lands in the source tree.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("txallo_experiments_tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    dir
}

fn experiments(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run experiments")
}

#[test]
fn unknown_experiment_exits_2_and_names_every_experiment() {
    let out = experiments(&fresh_dir("unknown"), &["nope"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed: Vec<&str> = stderr
        .lines()
        .find_map(|line| line.strip_prefix("experiments: "))
        .expect("the error lists the experiments")
        .split(", ")
        .collect();
    let names = "fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 runtime-table ablation \
                 latency-validation measure-eta broker recency headline scale-stream components \
                 bench-snapshot all";
    for name in names.split_whitespace() {
        assert!(listed.contains(&name), "{name} missing: {stderr}");
    }
}

#[test]
fn bench_snapshot_without_out_exits_2() {
    let dir = fresh_dir("no_out");
    let out = experiments(&dir, &["bench-snapshot"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out FILE"));
    assert_eq!(
        std::fs::read_dir(dir).unwrap().count(),
        0,
        "nothing written"
    );
}

#[test]
fn bench_snapshot_never_overwrites_its_out_file() {
    let dir = fresh_dir("existing");
    let existing = dir.join("BENCH_existing.json");
    std::fs::write(&existing, "{\"kept\": true}\n").unwrap();
    let out = experiments(&dir, &["bench-snapshot", "--out", "BENCH_existing.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    assert_eq!(std::fs::read(&existing).unwrap(), b"{\"kept\": true}\n");
}
