//@ path: crates/core/src/fixture_d5_reduction.rs
// Fixture: D5-adhoc-reduction — float folds over per-chunk partials must
// stay in serial caller code in canonical order; no combiner is exempt.

fn trigger_sum(partials: Vec<f64>) -> f64 {
    let total: f64 = partials.iter().sum();
    //~^ D5-adhoc-reduction
    total
}

fn trigger_multiline_fold(chunk_gains: &[f64]) -> f64 {
    let total = chunk_gains
        .iter()
        .fold(0.0, |acc, g| acc + g);
    //~^ D5-adhoc-reduction
    total
}

fn suppressed_documented(shard_weights: &[f64]) -> f64 {
    // txallo-lint: allow(D5-adhoc-reduction) — shard list is canonical (one slot per fixed shard id), fold order is data-defined, not thread-defined
    let total: f64 = shard_weights.iter().sum();
    //~^ SUPPRESSED D5-adhoc-reduction
    total
}

fn negative_integer_counts(chunk_counts: &[usize]) -> usize {
    // Integer folds are exact in any order.
    let n: usize = chunk_counts.iter().sum();
    n
}

fn negative_plain_serial(weights: &[f64]) -> f64 {
    // A float fold over non-chunk data is ordinary serial code.
    let m: f64 = weights.iter().sum();
    m
}
