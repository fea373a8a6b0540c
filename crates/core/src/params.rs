//! Hyper-parameters of the allocation problem (§V-A).
//!
//! The paper's parameters are `k`, `η`, `λ` and `ε`; the sweep cap
//! [`MAX_SWEEPS`] is a fixed safety bound, not a setting. A-TxAllo has one
//! snapshot route (the touched rows of `V̂`), so there is no route knob.

use txallo_graph::WeightedGraph;
use txallo_louvain::LouvainConfig;

/// Safety cap on the optimization sweeps of G-TxAllo's phase 2 and
/// A-TxAllo's epoch sweep. The paper loops until `ΔΛ < ε`; this bound
/// guards against pathological non-convergence, and on long hybrid
/// streams it is what ends most global closes.
pub const MAX_SWEEPS: usize = 64;

/// The hyper-parameters shared by the metrics and the TxAllo algorithms.
#[derive(Debug, Clone)]
pub struct TxAlloParams {
    /// Number of shards `k`.
    pub shards: usize,
    /// Workload of processing a cross-shard transaction, `η > 1`
    /// (an intra-shard transaction costs 1).
    pub eta: f64,
    /// Processing capacity `λ` of each shard. The paper's experiments use
    /// `λ = |T| / k` so that the ideal all-intra, perfectly-balanced system
    /// has throughput exactly `|T|` (§VI-B1).
    pub capacity: f64,
    /// Convergence threshold `ε` for the optimization loops. The paper uses
    /// `ε = 10⁻⁵ · |T|`.
    pub epsilon: f64,
    /// The Louvain initialization's settings, which have no fields (Louvain
    /// runs at one fixed setting). Kept, ignored, only because the frozen
    /// benchmark harness passes it to `GTxAlloPlan::new`.
    pub louvain: LouvainConfig,
}

impl TxAlloParams {
    /// Paper-default parameters for `graph` with `k` shards and `η = 2`:
    /// `λ = |T|/k`, `ε = 10⁻⁵·|T|`.
    pub fn for_graph(graph: &impl WeightedGraph, shards: usize) -> Self {
        let total = graph.total_weight();
        Self::for_total_weight(total, shards)
    }

    /// Same as [`TxAlloParams::for_graph`] but from a precomputed `|T|`.
    pub fn for_total_weight(total_weight: f64, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        Self {
            shards,
            eta: 2.0,
            capacity: total_weight / shards as f64,
            epsilon: 1e-5 * total_weight,
            louvain: LouvainConfig,
        }
    }

    /// Re-derives the weight-dependent parameters (`λ = |T|/k`,
    /// `ε = 10⁻⁵·|T|`) from the graph's *current* total weight, keeping
    /// every other knob (`k`, `η`).
    ///
    /// This is the per-epoch parameter refresh of the streaming service:
    /// the accumulated history grows (or decays) every epoch, and the
    /// paper's scaling ties capacity and convergence threshold to it.
    pub fn rescaled_for_graph(&self, graph: &impl WeightedGraph) -> Self {
        let total = graph.total_weight();
        Self {
            capacity: total / self.shards as f64,
            epsilon: 1e-5 * total,
            ..self.clone()
        }
    }

    /// Returns a copy with a different `η`, which must be finite and at
    /// least 1.
    pub fn with_eta(mut self, eta: f64) -> Self {
        assert!(
            eta >= 1.0 && eta.is_finite(),
            "η must be at least 1 (cross-shard is never cheaper) and finite"
        );
        self.eta = eta;
        self
    }

    /// Returns the copy unchanged. Every allocation kernel is
    /// single-threaded, so there is no thread count to set; the method is
    /// kept, ignored, only so that existing callers still build.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Returns the copy unchanged. A-TxAllo has one snapshot route, the
    /// touched rows of `V̂`, so there is no route threshold to set; the
    /// method is kept, ignored, only because the frozen benchmark harness
    /// (`perfbench/`) still calls it.
    pub fn with_incremental_threshold(self, _threshold: f64) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::CsrGraph;

    #[test]
    fn defaults_follow_the_paper() {
        let g = CsrGraph::from_edges(4, vec![(0u32, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let p = TxAlloParams::for_graph(&g, 3);
        assert_eq!(p.shards, 3);
        assert!((p.capacity - 1.0).abs() < 1e-12, "λ = |T|/k = 3/3");
        assert!((p.epsilon - 3e-5).abs() < 1e-12);
        assert!((p.eta - 2.0).abs() < 1e-12);
    }

    #[test]
    fn builders() {
        let p = TxAlloParams::for_total_weight(100.0, 4).with_eta(6.0);
        assert!((p.eta - 6.0).abs() < 1e-12);
        assert!((p.capacity - 25.0).abs() < 1e-12, "λ stays |T|/k");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = TxAlloParams::for_total_weight(10.0, 0);
    }

    #[test]
    #[should_panic(expected = "η must be at least 1")]
    fn eta_below_one_panics() {
        let _ = TxAlloParams::for_total_weight(10.0, 2).with_eta(0.5);
    }

    /// An infinite `η` passes a bare `η ≥ 1` check, and G-TxAllo's
    /// truncation sort then panics on a non-finite workload.
    #[test]
    #[should_panic(expected = "and finite")]
    fn infinite_eta_panics() {
        let _ = TxAlloParams::for_total_weight(10.0, 2).with_eta(f64::INFINITY);
    }
}
