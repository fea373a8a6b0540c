//! Tiny-size self-test of the benchmark: every workload emits every named
//! metric with its unit, the traced replay reproduces the untraced digest,
//! and a tampered mapping fails the correctness check.

use perfbench::shape::{Shape, SHAPES};
use perfbench::{run, serve, serve_traced, verify, Outcome, END_TO_END, PER_LAYER};

const SEED: u64 = 7;

fn names_and_units(outcome: &Outcome) -> Vec<(&'static str, &'static str)> {
    outcome.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for shape in SHAPES.iter().map(|s| s.tiny()) {
        let untraced = run(&shape, SEED, 0.0, false);
        assert!(untraced.correct, "{}: {}", shape.name, untraced.notes);
        assert_eq!(untraced.failed, 0, "{}", shape.name);
        assert!(untraced.attempted > 0);
        assert_eq!(
            names_and_units(&untraced),
            END_TO_END.to_vec(),
            "{}",
            shape.name
        );
        for m in &untraced.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                shape.name
            );
        }

        // Correct only if the traced replay reproduced the untraced digest.
        let traced = run(&shape, SEED, 0.0, true);
        assert!(traced.correct, "{}: {}", shape.name, traced.notes);
        assert_eq!(
            names_and_units(&traced),
            PER_LAYER.to_vec(),
            "{}",
            shape.name
        );
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(traced.digest, untraced.digest, "{}", shape.name);
    }
}

#[test]
fn traced_replay_reproduces_the_untraced_trajectory() {
    for shape in SHAPES.iter().map(|s| s.tiny()) {
        let untraced = serve(&shape, SEED);
        let (traced, trace) = serve_traced(&shape, SEED);
        assert_eq!(traced.cross_shard, untraced.cross_shard, "{}", shape.name);
        assert_eq!(traced.labels, untraced.labels, "{}", shape.name);
        assert_eq!(trace.shadows.dropped, 0, "{}", shape.name);
        assert!(verify(&shape, SEED, &[&untraced, &traced]));
    }
}

#[test]
fn flipping_one_label_fails_the_check() {
    for shape in SHAPES.iter().map(|s| s.tiny()) {
        let served = serve(&shape, SEED);
        let mut flipped = served.clone();
        flipped.labels[0] = (flipped.labels[0] + 1) % shape.shards as u32;
        assert!(
            !verify(&shape, SEED, &[&served, &flipped]),
            "{}",
            shape.name
        );
        let mut out_of_range = served.clone();
        out_of_range.labels[0] = shape.shards as u32;
        assert!(!verify(&shape, SEED, &[&out_of_range]), "{}", shape.name);
    }
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // Every listed workload is one the binary serves.
    let workloads = json
        .split("\"workloads\"")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("BENCHMARK.json lists its workloads");
    for entry in workloads.split("\"name\": \"").skip(1) {
        let name = entry.split('"').next().unwrap_or_default();
        assert!(Shape::by_name(name).is_some(), "unknown workload {name}");
    }
    let declared = json.matches("\"unit\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
