//! Blockchain-level performance metrics (§III-B) evaluated on an
//! account-shard mapping.

use txallo_graph::WeightedGraph;

use crate::allocation::Allocation;
use crate::params::TxAlloParams;
use crate::state::{capped_throughput, CommunityState};

/// Average confirmation latency of a shard with normalized workload
/// `x = σ/λ` (Eq. 4), in block time units.
///
/// Derivation: transactions are processed chronologically; in each of the
/// `T = ⌈x⌉` time units a `1/x` fraction finishes, so the mean latency is
/// `(∫₀ˣ ⌈t⌉ dt) / x = [T(T−1)/2 + (x − T + 1)·T] / x`. For `x ≤ 1` every
/// transaction confirms within one unit.
pub fn latency_of_normalized_load(x: f64) -> f64 {
    if x <= 1.0 {
        return 1.0;
    }
    let t = x.ceil();
    ((t - 1.0) * t / 2.0 + (x - (t - 1.0)) * t) / x
}

/// Worst-case confirmation latency of a shard with normalized load `x`:
/// the number of time units until the backlog drains, `⌈x⌉`.
pub fn worst_latency_of_normalized_load(x: f64) -> f64 {
    x.ceil().max(1.0)
}

/// A full evaluation of one allocation: every metric the paper's Figures
/// 2–7 plot.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Number of shards `k`.
    pub shards: usize,
    /// Cross-shard workload parameter `η`.
    pub eta: f64,
    /// Shard capacity `λ`.
    pub capacity: f64,
    /// Total transaction weight `|T|`.
    pub total_weight: f64,
    /// Cross-shard transaction ratio `γ` (graph form: inter-community
    /// weight over total weight).
    pub cross_shard_ratio: f64,
    /// Per-shard normalized workloads `σᵢ/λ` (Fig. 4's y-axis).
    pub shard_loads: Vec<f64>,
    /// Workload standard deviation `ρ` (Eq. 1), in absolute units.
    pub workload_std: f64,
    /// `ρ/λ` — the normalized balance metric the paper's Fig. 3 plots.
    pub workload_std_normalized: f64,
    /// System throughput `Λ` (Eq. 2–3), absolute.
    pub throughput: f64,
    /// `Λ/λ` — "how many times an unsharded chain" (Fig. 5's y-axis).
    pub throughput_normalized: f64,
    /// Average confirmation latency `ζ` in blocks (Fig. 6).
    pub avg_latency: f64,
    /// Worst-case latency of the most overloaded shard in blocks (Fig. 7).
    pub worst_latency: f64,
}

impl MetricsReport {
    /// Evaluates `allocation` on `graph` under `params`.
    ///
    /// Every node must carry a real shard label (no
    /// [`crate::state::UNASSIGNED`]).
    pub fn compute(
        graph: &impl WeightedGraph,
        allocation: &Allocation,
        params: &TxAlloParams,
    ) -> Self {
        let k = allocation.shard_count();
        let state =
            CommunityState::from_labels(graph, allocation.labels(), k, params.eta, params.capacity);
        let m = graph.total_weight();

        // Each inter-community edge contributes to exactly two cuts.
        let cut_total: f64 = (0..k as u32).map(|c| state.cut(c)).sum::<f64>() / 2.0;
        let gamma = if m > 0.0 { cut_total / m } else { 0.0 };

        let sigmas: Vec<f64> = (0..k as u32).map(|c| state.sigma(c)).collect();
        let hats: Vec<f64> = (0..k as u32).map(|c| state.lambda_hat(c)).collect();
        let load = LoadMetrics::new(&sigmas, &hats, params.capacity);

        Self {
            shards: k,
            eta: params.eta,
            capacity: params.capacity,
            total_weight: m,
            cross_shard_ratio: gamma,
            shard_loads: load.shard_loads,
            workload_std: load.workload_std,
            workload_std_normalized: load.workload_std / params.capacity,
            throughput: load.throughput,
            throughput_normalized: load.throughput / params.capacity,
            avg_latency: load.avg_latency,
            worst_latency: load.worst_latency,
        }
    }
}

/// The metrics that follow from the per-shard workloads alone: balance,
/// capped throughput and latency. [`MetricsReport::compute`] and
/// [`crate::broker::evaluate_with_brokers`] both finish with them.
pub(crate) struct LoadMetrics {
    /// Per-shard normalized workloads `σᵢ/λ`.
    pub(crate) shard_loads: Vec<f64>,
    /// Workload standard deviation `ρ` (Eq. 1), absolute.
    pub(crate) workload_std: f64,
    /// Capacity-capped system throughput `Λ` (Eq. 2–3), absolute.
    pub(crate) throughput: f64,
    /// Average confirmation latency `ζ` (Eq. 4), in blocks.
    pub(crate) avg_latency: f64,
    /// Worst-case latency of the most loaded shard, in blocks.
    pub(crate) worst_latency: f64,
}

impl LoadMetrics {
    /// The metrics of shards with workloads `sigmas` and uncapped
    /// throughputs `lambda_hats` (`Λ̂ᵢ`, one per shard) at capacity
    /// `capacity`.
    pub(crate) fn new(sigmas: &[f64], lambda_hats: &[f64], capacity: f64) -> Self {
        let k = sigmas.len() as f64;
        let mean = sigmas.iter().sum::<f64>() / k;
        let variance = sigmas.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / k;
        let throughput = sigmas
            .iter()
            .zip(lambda_hats)
            .map(|(&sigma, &hat)| capped_throughput(sigma, hat, capacity))
            .sum();
        let loads: Vec<f64> = sigmas.iter().map(|s| s / capacity).collect();
        let avg_latency = loads
            .iter()
            .map(|&x| latency_of_normalized_load(x))
            .sum::<f64>()
            / k;
        let worst_load = loads.iter().copied().fold(0.0f64, f64::max);
        Self {
            shard_loads: loads,
            workload_std: variance.sqrt(),
            throughput,
            avg_latency,
            worst_latency: worst_latency_of_normalized_load(worst_load),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::CsrGraph;

    #[test]
    fn latency_formula_matches_integral() {
        assert!((latency_of_normalized_load(0.5) - 1.0).abs() < 1e-12);
        assert!((latency_of_normalized_load(1.0) - 1.0).abs() < 1e-12);
        assert!((latency_of_normalized_load(2.0) - 1.5).abs() < 1e-12);
        // x = 2.5, T = 3: (3 + 0.5·3)/2.5 = 1.8 (paper's closed form).
        assert!((latency_of_normalized_load(2.5) - 1.8).abs() < 1e-12);
        // Monotonically nondecreasing.
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.1;
            let l = latency_of_normalized_load(x.max(0.01));
            assert!(l >= prev - 1e-12, "latency must not decrease at x={x}");
            prev = l;
        }
    }

    #[test]
    fn worst_latency_is_ceiling() {
        assert_eq!(worst_latency_of_normalized_load(0.3), 1.0);
        assert_eq!(worst_latency_of_normalized_load(2.1), 3.0);
        assert_eq!(worst_latency_of_normalized_load(5.0), 5.0);
    }

    /// Two shards, one cross edge: γ = 1/3, throughput accounting by hand.
    #[test]
    fn report_on_tiny_graph() {
        let g = CsrGraph::from_edges(4, vec![(0u32, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)]);
        let alloc = Allocation::new(vec![0, 0, 1, 1], 2);
        let params = TxAlloParams::for_graph(&g, 2); // λ = 1.5, η = 2
        let r = MetricsReport::compute(&g, &alloc, &params);
        assert!((r.cross_shard_ratio - 1.0 / 3.0).abs() < 1e-12);
        // σ per shard = 1 + 2·1 = 3 > λ = 1.5 → capped: Λ_i = 1.5/3 · 1.5 = 0.75
        assert!((r.throughput - 1.5).abs() < 1e-12);
        assert!((r.throughput_normalized - 1.0).abs() < 1e-12);
        assert!((r.workload_std - 0.0).abs() < 1e-12, "perfectly balanced");
        // loads = 2 each → avg latency 1.5, worst 2.
        assert!((r.avg_latency - 1.5).abs() < 1e-12);
        assert!((r.worst_latency - 2.0).abs() < 1e-12);
    }

    #[test]
    fn all_intra_allocation_is_ideal() {
        let g = CsrGraph::from_edges(4, vec![(0u32, 1, 2.0), (2, 3, 2.0)]);
        let alloc = Allocation::new(vec![0, 0, 1, 1], 2);
        let params = TxAlloParams::for_graph(&g, 2); // λ = 2
        let r = MetricsReport::compute(&g, &alloc, &params);
        assert_eq!(r.cross_shard_ratio, 0.0);
        assert!((r.throughput - 4.0).abs() < 1e-12, "ideal throughput = |T|");
        assert!(
            (r.throughput_normalized - 2.0).abs() < 1e-12,
            "k× an unsharded chain"
        );
        assert!((r.avg_latency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_shard_throughput_is_capacity_bound() {
        // Everything in one shard of a k=2 system: σ₀ = 2m > λ.
        let g = CsrGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 1.0)]);
        let alloc = Allocation::new(vec![0, 0, 0], 2);
        let params = TxAlloParams::for_graph(&g, 2); // λ = 1
        let r = MetricsReport::compute(&g, &alloc, &params);
        assert_eq!(r.cross_shard_ratio, 0.0);
        // σ₀ = 2, Λ̂₀ = 2 → Λ = 1·2/2 = 1 = λ; shard 1 idle.
        assert!((r.throughput - 1.0).abs() < 1e-12);
        assert!(r.workload_std > 0.0, "maximally imbalanced");
    }
}
