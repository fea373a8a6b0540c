//! End-to-end tests of the CLI command functions (exercised in-process via
//! the binary's modules — the binary itself is a thin dispatcher).

use std::process::Command;

use txallo_workload::{read_ledger_csv, StreamingWorkload, WorkloadConfig};

fn txallo_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_txallo"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("txallo_cli_tests");
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    dir.join(name)
}

#[test]
fn generate_stats_allocate_evaluate_pipeline() {
    let trace = tmp("pipeline_trace.csv");
    let mapping = tmp("pipeline_mapping.csv");

    // generate
    let out = txallo_bin()
        .args([
            "generate",
            "--out",
            trace.to_str().unwrap(),
            "--accounts",
            "500",
            "--transactions",
            "5000",
            "--seed",
            "7",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());
    // The written trace is `StreamingWorkload`'s, the source `simulate`
    // streams from.
    let file = std::fs::File::open(&trace).expect("open trace");
    let written = read_ledger_csv(std::io::BufReader::new(file)).expect("read trace");
    let config = WorkloadConfig {
        accounts: 500,
        transactions: 5_000,
        ..WorkloadConfig::default()
    };
    assert_eq!(
        written.blocks()[0],
        StreamingWorkload::new(config, 7).block_at(0)
    );

    // stats
    let out = txallo_bin()
        .args(["stats", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("transactions"), "stats output: {stdout}");
    assert!(stdout.contains("hottest account share"));

    // allocate (txallo) + write mapping
    let out = txallo_bin()
        .args([
            "allocate",
            "--trace",
            trace.to_str().unwrap(),
            "--method",
            "txallo",
            "-k",
            "4",
            "--out",
            mapping.to_str().unwrap(),
        ])
        .output()
        .expect("run allocate");
    assert!(
        out.status.success(),
        "allocate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(mapping.exists());

    // evaluate the saved mapping
    let out = txallo_bin()
        .args([
            "evaluate",
            "--trace",
            trace.to_str().unwrap(),
            "--mapping",
            mapping.to_str().unwrap(),
        ])
        .output()
        .expect("run evaluate");
    assert!(
        out.status.success(),
        "evaluate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cross-shard"), "evaluate output: {stdout}");
    assert!(stdout.contains("throughput"));
}

#[test]
fn allocate_all_methods_work() {
    let trace = tmp("methods_trace.csv");
    let out = txallo_bin()
        .args([
            "generate",
            "--out",
            trace.to_str().unwrap(),
            "--accounts",
            "300",
            "--transactions",
            "3000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    for method in txallo_core::AllocatorRegistry::builtin().names() {
        let out = txallo_bin()
            .args([
                "allocate",
                "--trace",
                trace.to_str().unwrap(),
                "--method",
                method,
                "-k",
                "3",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "method {method} failed");
    }
}

/// One row per epoch. `--gap N` runs G-TxAllo at epochs N, 2N, … and
/// A-TxAllo in the others; `--gap 0` never runs G-TxAllo.
#[test]
fn simulate_produces_epoch_rows() {
    for (gap, algos) in [
        ("2", ["adaptive", "adaptive", "global"]),
        ("0", ["adaptive"; 3]),
    ] {
        let out = txallo_bin()
            .args(["simulate", "--shards", "3", "--epochs", "3"])
            .args(["--epoch-blocks", "10", "--gap", gap])
            .output()
            .expect("run simulate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "simulate failed: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let rows = stdout.lines().filter(|l| l.starts_with(char::is_numeric));
        let algo: Vec<&str> = rows.filter_map(|row| row.split(',').nth(1)).collect();
        assert_eq!(
            algo, algos,
            "--gap {gap}, the algo column of each epoch: {stdout}"
        );
    }
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let out = txallo_bin()
        .args(["frobnicate", "--x", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Missing required flag.
    let out = txallo_bin().args(["stats"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));
    // Unknown method.
    let trace = tmp("err_trace.csv");
    txallo_bin()
        .args([
            "generate",
            "--out",
            trace.to_str().unwrap(),
            "--accounts",
            "200",
            "--transactions",
            "2000",
        ])
        .output()
        .unwrap();
    let out = txallo_bin()
        .args([
            "allocate",
            "--trace",
            trace.to_str().unwrap(),
            "--method",
            "nope",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
}

#[test]
fn help_prints_usage() {
    let out = txallo_bin().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn convert_etl_export_roundtrip() {
    let etl = tmp("convert_etl.csv");
    let out = tmp("convert_out.csv");
    std::fs::write(
        &etl,
        "hash,block_number,from_address,to_address\n\
         0xaa,100,0xAb,0xCd\n\
         0xbb,100,0xCd,0xAb\n\
         0xcc,101,0xAb,\n",
    )
    .unwrap();
    let result = txallo_bin()
        .args([
            "convert",
            "--etl",
            etl.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run convert");
    assert!(
        result.status.success(),
        "convert failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    // The converted trace is loadable by stats.
    let result = txallo_bin()
        .args(["stats", "--trace", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(result.status.success());
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(
        stdout.contains("transactions           : 3"),
        "stats: {stdout}"
    );
}

/// A flag the command does not read is an error naming it, not a silent
/// run on the default (`--shard` for `--shards` ran on 12 shards).
#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    let out = txallo_bin()
        .args(["simulate", "--shard", "4", "--epochs", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --shard "), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");

    let trace = tmp("unknown_flag_trace.csv");
    let out = txallo_bin()
        .args([
            "allocate",
            "--trace",
            trace.to_str().unwrap(),
            "--method",
            "txallo",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --threads "), "{stderr}");
}

/// Out-of-range workload flags are reported as CLI errors (exit 2), not
/// as a panic inside `StreamingWorkload::new` (exit 101), and `generate`
/// writes nothing: a budget below one block would leave an empty trace
/// that every later command refuses.
#[test]
fn invalid_workload_flags_exit_2() {
    let path = tmp("invalid_workload_trace.csv");
    let _ = std::fs::remove_file(&path);
    let trace = path.to_str().unwrap();
    let cases: [(&[&str], &str); 4] = [
        (
            &["generate", "--out", trace, "--accounts", "1"],
            "need at least two accounts",
        ),
        (
            &["generate", "--out", trace, "--hot-share", "1.5"],
            "probabilities must lie in [0, 1]",
        ),
        (
            &["generate", "--out", trace, "--transactions", "100"],
            "--transactions 100 fills no block of --block-size 150",
        ),
        (
            &["simulate", "--accounts", "1"],
            "need at least two accounts",
        ),
    ];
    for (args, message) in cases {
        let out = txallo_bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {message}")),
            "{args:?}: {stderr}"
        );
    }
    assert!(!path.exists(), "no trace may be written");
}

/// Out-of-range `--eta` (below 1, infinite or NaN) and `--decay` (outside
/// (0, 1], or NaN) are CLI errors (exit 2) naming the flag, not a panic in the
/// library (exit 101) or a silent run without decay.
#[test]
fn out_of_range_eta_and_decay_exit_2() {
    let trace = tmp("range_trace.csv");
    let mapping = tmp("range_mapping.csv");
    let (trace, mapping) = (trace.to_str().unwrap(), mapping.to_str().unwrap());
    let out = txallo_bin()
        .args(["generate", "--out", trace, "--accounts", "200"])
        .args(["--transactions", "500", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = txallo_bin()
        .args(["allocate", "--trace", trace, "--method", "hash", "-k", "4"])
        .args(["--out", mapping])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let eta_prefixes: [&[&str]; 3] = [
        &["allocate", "--trace", trace, "--method", "hash", "-k", "4"],
        &["evaluate", "--trace", trace, "--mapping", mapping],
        &["simulate", "--epochs", "1", "--epoch-blocks", "5"],
    ];
    for prefix in eta_prefixes {
        for eta in ["0.5", "inf", "NaN"] {
            let out = txallo_bin()
                .args(prefix)
                .args(["--eta", eta])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{prefix:?} --eta {eta}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("error: flag --eta: ")
                    && stderr.contains("is not a finite value of at least 1"),
                "{prefix:?} --eta {eta}: {stderr}"
            );
        }
    }
    for decay in ["0", "-0.5", "1.5", "NaN"] {
        let out = txallo_bin()
            .args(["simulate", "--epochs", "1", "--epoch-blocks", "5"])
            .args(["--decay", decay])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--decay {decay}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: flag --decay: ") && stderr.contains("is not in (0, 1]"),
            "--decay {decay}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing may run: --decay {decay}");
    }
}

/// `simulate` always streams its blocks, so `--stream` is an unknown flag.
#[test]
fn simulate_stream_flag_exits_2_and_names_it() {
    let out = txallo_bin()
        .args(["simulate", "--stream", "true"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --stream "), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

/// The name of the recursive-bisection METIS driver is not a method (one
/// METIS driver, the direct k-way V-cycle, backs `metis`): `allocate` and
/// `simulate` exit 2 with an error that lists the registered names, and
/// run nothing.
#[test]
fn deleted_method_name_exits_2_and_lists_the_methods() {
    let deleted = "metis-recursive";
    let trace = tmp("refusal_trace.csv");
    let trace = trace.to_str().unwrap();
    let out = txallo_bin()
        .args(["generate", "--out", trace, "--accounts", "200"])
        .args(["--transactions", "500", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let commands: [&[&str]; 2] = [
        &["allocate", "--trace", trace, "-k", "4"],
        &["simulate", "--epochs", "1", "--epoch-blocks", "5"],
    ];
    for prefix in commands {
        let out = txallo_bin()
            .args(prefix)
            .args(["--method", deleted])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{prefix:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown method {deleted:?}"))
                && stderr.contains("(registered: hash|metis|scheduler|txallo)"),
            "{prefix:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing may run: {prefix:?}");
    }
}

/// `evaluate` scores a mapping with the shard count it was allocated
/// with: at `-k 60` over about a hundred accounts the highest shards hold
/// no account, so the labels alone would undercount `k` and inflate Λ/λ.
#[test]
fn evaluate_uses_the_allocated_shard_count() {
    let trace = tmp("shard_count_trace.csv");
    let mapping = tmp("shard_count_mapping.csv");
    let (trace, mapping) = (trace.to_str().unwrap(), mapping.to_str().unwrap());
    let out = txallo_bin()
        .args(["generate", "--out", trace, "--accounts", "100"])
        .args(["--transactions", "1000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = txallo_bin()
        .args([
            "allocate", "--trace", trace, "--method", "txallo", "-k", "60",
        ])
        .args(["--out", mapping])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let throughput = |text: &str| -> String {
        let line = text
            .lines()
            .find(|l| l.starts_with("throughput Λ/λ"))
            .unwrap_or_else(|| panic!("no throughput line in {text}"));
        line.split(':').nth(1).unwrap().trim().to_owned()
    };
    let allocated = throughput(&String::from_utf8_lossy(&out.stderr));

    let out = txallo_bin()
        .args(["evaluate", "--trace", trace, "--mapping", mapping])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l == "shards               : 60"),
        "{stdout}"
    );
    assert_eq!(throughput(&stdout), allocated, "{stdout}");
}
