//! CLI entry point: `cargo run -p txallo-lint --release -- --workspace`.
//!
//! Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/io error.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
txallo-lint — static determinism-contract checks for the txallo workspace

USAGE:
    txallo-lint [--workspace] [--root DIR] [--verbose] [--rules] [FILE...]

    --workspace   lint every crate under the workspace root (default when
                  no FILEs are given)
    --root DIR    workspace root (default: current directory)
    --verbose     also print suppressed findings with their reasons
    --rules       list the rule set and exit

Findings print as `file:line rule message`; the final stdout line is a
machine-readable JSON summary, which also counts the scanned files'
non-blank lines outside `#[cfg(test)]` items (`lines`). Suppress a
finding with a trailing (or directly-preceding standalone) comment:

    // txallo-lint: allow(rule-id) — reason (mandatory)
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut verbose = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--verbose" => verbose = true,
            "--rules" => {
                for rule in txallo_lint::rules::RULES {
                    println!("{:24} [{}] {}", rule.id, rule.contract, rule.summary);
                }
                println!("{:24} [meta] suppressions need a known rule id and a written reason (not suppressible)", "suppression-hygiene");
                println!("{:24} [meta] suppressions that match no finding are flagged (self-exempt by listing this rule)", "unused-suppression");
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            file => files.push(file.to_owned()),
        }
    }

    let report = if files.is_empty() {
        match txallo_lint::run_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("txallo-lint: workspace walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut report = txallo_lint::Report::default();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(source) => report.add(&f.replace('\\', "/"), &source),
                Err(e) => {
                    eprintln!("txallo-lint: cannot read {f}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        report
    };

    for f in &report.findings {
        match &f.suppressed {
            None => println!("{}:{} {} {}", f.file, f.line, f.rule, f.message),
            Some(reason) if verbose => {
                println!("{}:{} {} suppressed — {}", f.file, f.line, f.rule, reason);
            }
            Some(_) => {}
        }
    }
    println!("{}", report.json_summary());
    if report.active_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
