//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Serves one workload for about `S` seconds and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! untraced, or the per-layer metrics with `--trace 1`. A context line
//! (digest, repeats, process CPU and wall time) precedes it.

use std::process::ExitCode;

use perfbench::shape::{Shape, DEFAULT_SEED, SHAPES};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Shape::by_name(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => {
                trace = value == "1";
                value == "0" || value == "1"
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(shape) = workload else {
        return usage("--workload is required");
    };
    // Library defaults read TXALLO_THREADS (and the METIS stream's
    // configuration has no other knob): pin it to the workload's own
    // thread count so an ambient value cannot change the program under
    // test. The workload configs set the same count explicitly.
    std::env::set_var("TXALLO_THREADS", shape.threads.to_string());

    let outcome = perfbench::run(&shape, seed, seconds, trace);
    println!("{}", outcome.notes);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
