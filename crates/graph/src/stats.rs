//! Structural statistics of the transaction graph (Fig. 1 analysis).

use crate::traits::{fit_u32, WeightedGraph};

/// Summary of a transaction graph's structure: the numbers behind the
/// paper's Fig. 1 narrative (long-tailed activity, one dominant account).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes (accounts).
    pub node_count: usize,
    /// Total edge weight (= number of transactions).
    pub total_weight: f64,
    /// Largest per-node incident weight.
    pub max_incident_weight: f64,
    /// Share of the total incident weight carried by the hottest node.
    ///
    /// (Each transaction contributes its weight to up to `|A_Tx|` incident
    /// sums; for 1-to-1 traffic this is ≈ "fraction of transactions that
    /// touch the hottest account" — ~11% in the paper's dataset.)
    pub hottest_share: f64,
    /// Mean incident weight.
    pub mean_incident_weight: f64,
    /// Gini coefficient of incident weights — 0 is perfectly uniform,
    /// →1 is maximally concentrated. Quantifies the "long tail".
    pub gini: f64,
    /// Deciles of the incident-weight distribution (10 values, ascending).
    pub incident_deciles: [f64; 10],
    /// Fraction of nodes with ≤ 2 incident transactions ("most accounts are
    /// not active and only have very few transaction records", §VI-A).
    pub low_activity_fraction: f64,
}

impl GraphStats {
    /// Computes statistics over any weighted graph.
    pub fn compute(g: &impl WeightedGraph) -> Self {
        let n = g.node_count();
        if n == 0 {
            return Self {
                node_count: 0,
                total_weight: 0.0,
                max_incident_weight: 0.0,
                hottest_share: 0.0,
                mean_incident_weight: 0.0,
                gini: 0.0,
                incident_deciles: [0.0; 10],
                low_activity_fraction: 0.0,
            };
        }
        let mut weights: Vec<f64> = (0..fit_u32(n)).map(|v| g.incident_weight(v)).collect();
        #[expect(
            clippy::expect_used,
            clippy::disallowed_methods,
            reason = "incident weights are finite sums of finite transaction weights; sorting bare f64 values (no payload, equal keys indistinguishable)"
        )]
        weights.sort_unstable_by(|a, b| a.partial_cmp(b).expect("weights are finite"));
        let sum: f64 = weights.iter().sum();
        #[expect(
            clippy::expect_used,
            reason = "the n == 0 case returned the zero struct a few lines above"
        )]
        let max = *weights.last().expect("n > 0");
        let mean = sum / n as f64;
        // Gini via the sorted-rank formula.
        let mut rank_weighted = 0.0;
        for (i, w) in weights.iter().enumerate() {
            rank_weighted += (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * w;
        }
        let gini = if sum > 0.0 {
            rank_weighted / (n as f64 * sum)
        } else {
            0.0
        };
        let mut deciles = [0.0; 10];
        for (d, slot) in deciles.iter_mut().enumerate() {
            let idx = ((d + 1) * n / 10).saturating_sub(1).min(n - 1);
            *slot = weights[idx];
        }
        let low = weights.iter().filter(|&&w| w <= 2.0).count();
        Self {
            node_count: n,
            total_weight: g.total_weight(),
            max_incident_weight: max,
            hottest_share: if g.total_weight() > 0.0 {
                max / g.total_weight()
            } else {
                0.0
            },
            mean_incident_weight: mean,
            gini,
            incident_deciles: deciles,
            low_activity_fraction: low as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    #[test]
    fn uniform_graph_has_low_gini() {
        // Ring: everyone has identical incident weight.
        let n = 10u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n, 1.0)).collect();
        let g = CsrGraph::from_edges(n as usize, edges);
        let s = GraphStats::compute(&g);
        assert!(
            s.gini.abs() < 1e-9,
            "uniform weights must give gini 0, got {}",
            s.gini
        );
        assert!((s.max_incident_weight - 2.0).abs() < 1e-12);
    }

    #[test]
    fn star_graph_is_concentrated() {
        // Hub node 0 touches every transaction.
        let edges: Vec<_> = (1..100u32).map(|v| (0u32, v, 1.0)).collect();
        let g = CsrGraph::from_edges(100, edges);
        let s = GraphStats::compute(&g);
        assert!(
            s.gini > 0.4,
            "star graph should be concentrated, gini={}",
            s.gini
        );
        assert!(
            (s.hottest_share - 1.0).abs() < 1e-12,
            "hub touches all 99 tx"
        );
        assert!(s.low_activity_fraction > 0.9);
    }

    #[test]
    fn empty_graph_is_all_zero() {
        let g = CsrGraph::from_edges(0, Vec::new());
        let s = GraphStats::compute(&g);
        assert_eq!(s.node_count, 0);
        assert_eq!(s.gini, 0.0);
    }
}
