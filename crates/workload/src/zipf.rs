//! Zipf sampling via a precomputed cumulative table.
//!
//! The workspace has no distribution crate: its one external dependency
//! is the vendored `proptest` stub (see ARCHITECTURE.md's paragraph on
//! vendored stubs). For a fixed support size a cumulative table + binary
//! search is simpler, exact and deterministic.

/// Samples ranks `0..n` with probability `∝ 1/(rank+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the table for `n` ranks with exponent `s ≥ 0` (`s = 0` is
    /// uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "support must be non-empty");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        Self { cdf }
    }

    /// Builds a table from arbitrary positive weights.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "support must be non-empty");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "weights must be non-negative");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Maps a uniform draw `x01 ∈ [0, 1)` to a rank. Callers bring their
    /// own uniforms, such as the counter-based streams of
    /// [`StreamingWorkload`](crate::StreamingWorkload).
    pub fn sample_at(&self, x01: f64) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "both constructors assert a non-empty support and push one cdf entry per rank"
        )]
        let total = *self.cdf.last().expect("non-empty");
        let x = x01 * total;
        // partition_point returns the first rank whose cumulative weight
        // exceeds x.
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }

    /// Probability of a given rank.
    pub fn probability(&self, rank: usize) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "both constructors assert a non-empty support and push one cdf entry per rank"
        )]
        let total = *self.cdf.last().expect("non-empty");
        let prev = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        (self.cdf[rank] - prev) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_model::hash::mix64;

    /// `count` uniform points in `[0, 1)` from a counter-based stream.
    fn uniforms(seed: u64, count: u64) -> impl Iterator<Item = f64> {
        (0..count).map(move |i| (mix64(seed ^ mix64(i)) >> 11) as f64 / (1u64 << 53) as f64)
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let t = ZipfTable::new(4, 0.0);
        for r in 0..4 {
            assert!((t.probability(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_head_dominates() {
        let t = ZipfTable::new(1000, 1.2);
        assert!(t.probability(0) > 10.0 * t.probability(9));
        assert!(t.probability(0) > t.probability(1));
    }

    #[test]
    fn sampling_matches_probabilities() {
        let t = ZipfTable::new(10, 1.0);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for x in uniforms(7, n as u64) {
            counts[t.sample_at(x)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            let p = t.probability(r);
            assert!((freq - p).abs() < 0.01, "rank {r}: {freq} vs {p}");
        }
    }

    #[test]
    fn from_weights_respects_ratios() {
        let t = ZipfTable::from_weights(&[3.0, 1.0]);
        assert!((t.probability(0) - 0.75).abs() < 1e-12);
        assert!((t.probability(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = ZipfTable::new(100, 1.0);
        let draw =
            |seed: u64| -> Vec<usize> { uniforms(seed, 50).map(|x| t.sample_at(x)).collect() };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_panics() {
        let _ = ZipfTable::new(0, 1.0);
    }
}
