//! BrokerChain-style hot-account splitting (extension).
//!
//! The paper compares against BrokerChain \[19\], whose key extra mechanism
//! is *brokers*: hyper-active accounts are split so their traffic is
//! served in the counterparty's shard, with brokers settling the split
//! state. Our Fig. 4 reproduction (and the queue-latency extension) shows
//! exactly why that matters: TxAllo's capacity-capped objective happily
//! concentrates a hub account's traffic in one shard.
//!
//! This module layers the mechanism on top of *any* allocation:
//! accounts whose incident weight exceeds `split_threshold × λ` are
//! declared split; each of their edges is then served **locally in the
//! counterparty's shard** (intra workload 1) plus a settlement surcharge
//! `settlement_cost` per unit weight, modeling the broker's periodic
//! cross-shard state reconciliation. The account's self-loops remain in
//! its home shard.

use std::collections::BTreeSet;

use txallo_graph::{fit_u32, NodeId, WeightedGraph};
use txallo_model::FxHashSet;

use crate::allocation::Allocation;
use crate::gtxallo::{GTxAllo, GTxAlloPlan};
use crate::metrics::LoadMetrics;
use crate::params::TxAlloParams;

/// Configuration of the broker mechanism.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// An account is split when its incident weight exceeds this multiple
    /// of the shard capacity λ.
    pub split_threshold: f64,
    /// Settlement overhead charged (per unit of brokered edge weight) to
    /// the serving shard.
    pub settlement_cost: f64,
    /// Upper bound on how many accounts may be split (brokers are a scarce,
    /// trusted-ish resource in BrokerChain).
    pub max_split_accounts: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            split_threshold: 0.5,
            settlement_cost: 0.1,
            max_split_accounts: 16,
        }
    }
}

/// Metrics of an allocation evaluated *with* broker splitting applied.
#[derive(Debug, Clone)]
pub struct BrokeredReport {
    /// Accounts that were split (node ids, heaviest first).
    pub split_accounts: Vec<NodeId>,
    /// Cross-shard ratio after splitting (brokered edges count intra).
    pub cross_shard_ratio: f64,
    /// Normalized per-shard workloads after splitting.
    pub shard_loads: Vec<f64>,
    /// Workload standard deviation over λ.
    pub workload_std_normalized: f64,
    /// Capacity-capped system throughput (absolute).
    pub throughput: f64,
    /// Throughput over λ.
    pub throughput_normalized: f64,
    /// Average confirmation latency (Eq. 4 on the new loads).
    pub avg_latency: f64,
    /// Worst-case latency.
    pub worst_latency: f64,
}

/// Selects the accounts to split under `config`.
pub fn select_split_accounts(
    graph: &impl WeightedGraph,
    params: &TxAlloParams,
    config: &BrokerConfig,
) -> Vec<NodeId> {
    let threshold = config.split_threshold * params.capacity;
    let mut hot: Vec<NodeId> = (0..fit_u32(graph.node_count()))
        .filter(|&v| graph.incident_weight(v) > threshold)
        .collect();
    #[expect(
        clippy::expect_used,
        clippy::disallowed_methods,
        reason = "incident weights are finite sums of finite transaction weights, so partial_cmp is total; the id tie-break makes every key distinct"
    )]
    hot.sort_unstable_by(|&a, &b| {
        graph
            .incident_weight(b)
            .partial_cmp(&graph.incident_weight(a))
            .expect("finite weights")
            .then(a.cmp(&b))
    });
    hot.truncate(config.max_split_accounts);
    hot
}

/// A read-only view of a graph with some nodes' edges masked out.
///
/// Used to partition *as if* the split accounts did not exist: their edges
/// will be served by broker replicas anyway, so they should not drag their
/// counterparties into one shard. Self-loops of masked nodes remain (they
/// stay in the home shard).
pub struct MaskedGraph<'a, G: WeightedGraph> {
    inner: &'a G,
    masked: BTreeSet<NodeId>,
    incident: Vec<f64>,
    total: f64,
}

impl<'a, G: WeightedGraph> MaskedGraph<'a, G> {
    /// Builds the view in `O(V + Σ masked rows)`.
    ///
    /// The weights are the inner graph's, minus the masked edges' weights,
    /// subtracted in ascending masked-node order; a masked node's incident
    /// weight is its self-loop. An empty mask thus reports the inner
    /// graph's weights bit for bit.
    pub fn new(inner: &'a G, masked: impl IntoIterator<Item = NodeId>) -> Self {
        let masked: BTreeSet<NodeId> = masked.into_iter().collect();
        let mut incident: Vec<f64> = (0..fit_u32(inner.node_count()))
            .map(|v| inner.incident_weight(v))
            .collect();
        let mut total = inner.total_weight();
        for &m in &masked {
            incident[m as usize] = inner.self_loop(m);
            inner.for_each_neighbor(m, |u, w| {
                if !masked.contains(&u) {
                    incident[u as usize] -= w;
                    total -= w;
                } else if u > m {
                    total -= w; // An edge between two masked nodes, once.
                }
            });
        }
        Self {
            inner,
            masked,
            incident,
            total,
        }
    }
}

impl<G: WeightedGraph> WeightedGraph for MaskedGraph<'_, G> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn total_weight(&self) -> f64 {
        self.total
    }

    fn self_loop(&self, v: NodeId) -> f64 {
        self.inner.self_loop(v)
    }

    fn incident_weight(&self, v: NodeId) -> f64 {
        self.incident[v as usize]
    }

    fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId, f64)) {
        if self.masked.contains(&v) {
            return;
        }
        self.inner.for_each_neighbor(v, |u, w| {
            if !self.masked.contains(&u) {
                f(u, w);
            }
        });
    }

    fn neighbor_count(&self, v: NodeId) -> usize {
        if self.masked.contains(&v) {
            return 0;
        }
        let mut n = 0;
        self.inner.for_each_neighbor(v, |u, _| {
            if !self.masked.contains(&u) {
                n += 1;
            }
        });
        n
    }
}

/// Evaluates `allocation` with the broker mechanism applied.
pub fn evaluate_with_brokers(
    graph: &impl WeightedGraph,
    allocation: &Allocation,
    params: &TxAlloParams,
    config: &BrokerConfig,
) -> BrokeredReport {
    let k = allocation.shard_count();
    let split = select_split_accounts(graph, params, config);
    let split_set: FxHashSet<NodeId> = split.iter().copied().collect();

    // "Floating" counterparties have no edges besides those to split
    // accounts; the broker system routes their traffic dynamically, so
    // their weight is water-filled across shards instead of following
    // their (arbitrary) static placement.
    let mut anchored_weight = vec![0.0f64; graph.node_count()];
    for v in 0..fit_u32(graph.node_count()) {
        graph.for_each_neighbor(v, |u, w| {
            if !split_set.contains(&u) {
                anchored_weight[v as usize] += w;
            }
        });
    }
    let is_floating =
        |v: NodeId| -> bool { !split_set.contains(&v) && anchored_weight[v as usize] <= 0.0 };

    // Per-shard accounting with brokered edges redirected.
    let mut intra = vec![0.0f64; k];
    let mut cut = vec![0.0f64; k];
    let mut brokered = vec![0.0f64; k]; // settlement-charged weight per shard
    let mut floating_pool = 0.0f64;
    let mut cross_weight = 0.0f64;
    let total = graph.total_weight();

    for v in 0..fit_u32(graph.node_count()) {
        let sv = allocation.shard_of(v).index();
        intra[sv] += graph.self_loop(v);
        let v_split = split_set.contains(&v);
        graph.for_each_neighbor(v, |u, w| {
            if u < v {
                return; // each edge once
            }
            let su = allocation.shard_of(u).index();
            let u_split = split_set.contains(&u);
            match (v_split, u_split) {
                // Both split: serve anywhere; charge the lighter-loaded of
                // the two home shards as intra (deterministic: smaller id).
                (true, true) => {
                    let s = sv.min(su);
                    intra[s] += w;
                    brokered[s] += w;
                }
                // One split: serve in the counterparty's shard — unless the
                // counterparty is floating, in which case the broker routes
                // it to wherever capacity is available.
                (true, false) => {
                    if is_floating(u) {
                        floating_pool += w;
                    } else {
                        intra[su] += w;
                        brokered[su] += w;
                    }
                }
                (false, true) => {
                    if is_floating(v) {
                        floating_pool += w;
                    } else {
                        intra[sv] += w;
                        brokered[sv] += w;
                    }
                }
                (false, false) => {
                    if sv == su {
                        intra[sv] += w;
                    } else {
                        cut[sv] += w;
                        cut[su] += w;
                        cross_weight += w;
                    }
                }
            }
        });
    }

    let mut sigmas: Vec<f64> = (0..k)
        .map(|s| intra[s] + params.eta * cut[s] + config.settlement_cost * brokered[s])
        .collect();

    // Water-fill the floating pool: each unit costs (1 + settlement) σ and
    // yields 1 unit of intra throughput, placed on the lightest shards.
    if floating_pool > 0.0 {
        let unit_cost = 1.0 + config.settlement_cost;
        let mut remaining = floating_pool * unit_cost;
        // Greedy exact water-fill over sorted levels.
        let mut order: Vec<usize> = (0..k).collect();
        // Tie-break on shard id: with equal σ levels the unstable sort
        // would otherwise scramble which shard falls inside the
        // `take(filled + 1)` window, and the fill would not replay.
        #[expect(
            clippy::expect_used,
            clippy::disallowed_methods,
            reason = "σ is a finite sum of finite workloads, so partial_cmp is total here; the shard-id tie-break makes every key distinct"
        )]
        order.sort_unstable_by(|&a, &b| {
            sigmas[a]
                .partial_cmp(&sigmas[b])
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut filled = 0usize;
        while remaining > 0.0 && filled < k {
            let level = sigmas[order[filled]];
            let next_level = if filled + 1 < k {
                sigmas[order[filled + 1]]
            } else {
                f64::INFINITY
            };
            let span = (filled + 1) as f64;
            let capacity_to_next = (next_level - level) * span;
            let add = remaining.min(capacity_to_next);
            for &s in order.iter().take(filled + 1) {
                sigmas[s] += add / span;
                intra[s] += (add / span) / unit_cost;
                brokered[s] += (add / span) / unit_cost;
            }
            remaining -= add;
            filled += 1;
        }
        if remaining > 0.0 {
            // Pool exceeds all level gaps: spread the rest evenly.
            for s in 0..k {
                sigmas[s] += remaining / k as f64;
                intra[s] += (remaining / k as f64) / unit_cost;
                brokered[s] += (remaining / k as f64) / unit_cost;
            }
        }
    }
    let hats: Vec<f64> = (0..k).map(|s| intra[s] + cut[s] / 2.0).collect();
    let load = LoadMetrics::new(&sigmas, &hats, params.capacity);

    BrokeredReport {
        split_accounts: split,
        cross_shard_ratio: if total > 0.0 {
            cross_weight / total
        } else {
            0.0
        },
        shard_loads: load.shard_loads,
        workload_std_normalized: load.workload_std / params.capacity,
        throughput: load.throughput,
        throughput_normalized: load.throughput / params.capacity,
        avg_latency: load.avg_latency,
        worst_latency: load.worst_latency,
    }
}

/// The full broker-aware pipeline: select split accounts, partition the
/// graph *without* their edges, then score with brokered serving. Returns
/// the allocation and its brokered report.
///
/// The partition is production G-TxAllo on the masked view: a
/// [`GTxAlloPlan`] in the graph's canonical order, then
/// [`GTxAllo::allocate_planned`]. So a broker that splits nothing returns
/// [`GTxAllo::allocate_graph`]'s labels, and the comparison with plain
/// G-TxAllo measures the split alone.
pub fn allocate_with_brokers(
    graph: &txallo_graph::TxGraph,
    params: &TxAlloParams,
    config: &BrokerConfig,
) -> (Allocation, BrokeredReport) {
    let split = select_split_accounts(graph, params, config);
    let masked = MaskedGraph::new(graph, split.iter().copied());
    // Recompute λ/ε for the reduced weight so the optimizer is not skewed,
    // but keep the caller's η and shard count.
    let masked_params = TxAlloParams::for_graph(&masked, params.shards).with_eta(params.eta);
    let plan = GTxAlloPlan::with_order(&masked, graph.nodes_in_canonical_order());
    let outcome = GTxAllo::new(masked_params).allocate_planned(&plan);
    let report = evaluate_with_brokers(graph, &outcome.allocation, params, config);
    (outcome.allocation, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsReport;
    use txallo_graph::TxGraph;
    use txallo_model::{AccountId, Transaction};

    /// Hub account 0 touches everyone; two background clusters.
    fn hub_graph() -> TxGraph {
        let mut g = TxGraph::new();
        for i in 1..=40u64 {
            for _ in 0..3 {
                g.ingest_transaction(&Transaction::transfer(AccountId(0), AccountId(i)));
            }
        }
        for base in [100u64, 200] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        g
    }

    #[test]
    fn hub_account_is_selected() {
        let g = hub_graph();
        let params = TxAlloParams::for_graph(&g, 4);
        let split = select_split_accounts(&g, &params, &BrokerConfig::default());
        assert!(!split.is_empty());
        assert_eq!(g.account(split[0]), AccountId(0), "the hub must rank first");
    }

    #[test]
    fn broker_pipeline_improves_balance_and_worst_latency() {
        // The proper pipeline: split *before* partitioning, so the hub's
        // one-shot counterparties fall back to their own communities
        // instead of piling into the hub's shard.
        let g = hub_graph();
        let k = 4;
        let params = TxAlloParams::for_graph(&g, k);
        let plain_alloc = GTxAllo::new(params.clone()).allocate_graph(&g);
        let before = MetricsReport::compute(&g, &plain_alloc, &params);
        let (_, after) = allocate_with_brokers(&g, &params, &BrokerConfig::default());
        assert!(
            after.workload_std_normalized < before.workload_std_normalized,
            "broker split must flatten the load: {} -> {}",
            before.workload_std_normalized,
            after.workload_std_normalized
        );
        assert!(after.worst_latency <= before.worst_latency);
        assert!(after.cross_shard_ratio <= before.cross_shard_ratio + 1e-9);
    }

    #[test]
    fn masked_graph_hides_edges_but_keeps_loops() {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(AccountId(1), AccountId(2)));
        g.ingest_transaction(&Transaction::transfer(AccountId(2), AccountId(3)));
        g.ingest_transaction(&Transaction::transfer(AccountId(1), AccountId(1)));
        use txallo_graph::WeightedGraph;
        let n1 = g.node_of(AccountId(1)).unwrap();
        let masked = MaskedGraph::new(&g, [n1]);
        assert_eq!(masked.node_count(), g.node_count());
        assert_eq!(masked.neighbor_count(n1), 0);
        assert!((masked.self_loop(n1) - 1.0).abs() < 1e-12);
        assert!(
            (masked.incident_weight(n1) - 1.0).abs() < 1e-12,
            "only the loop remains"
        );
        // Edge 2-3 survives; total = loop(1) + edge(2,3) = 2.
        assert!((masked.total_weight() - 2.0).abs() < 1e-12);
        let n2 = g.node_of(AccountId(2)).unwrap();
        assert_eq!(masked.neighbor_count(n2), 1, "edge to node 1 hidden");
    }

    #[test]
    fn no_split_below_threshold_is_identity_shaped() {
        // Uniform traffic, nobody hot: the brokered report must match the
        // plain metrics.
        let mut g = TxGraph::new();
        for i in 0..20u64 {
            g.ingest_transaction(&Transaction::transfer(
                AccountId(2 * i),
                AccountId(2 * i + 1),
            ));
        }
        let params = TxAlloParams::for_graph(&g, 4);
        let alloc = GTxAllo::new(params.clone()).allocate_graph(&g);
        let cfg = BrokerConfig {
            split_threshold: 10.0,
            ..BrokerConfig::default()
        };
        let brokered = evaluate_with_brokers(&g, &alloc, &params, &cfg);
        assert!(brokered.split_accounts.is_empty());
        let plain = MetricsReport::compute(&g, &alloc, &params);
        assert!((brokered.cross_shard_ratio - plain.cross_shard_ratio).abs() < 1e-9);
        assert!((brokered.workload_std_normalized - plain.workload_std_normalized).abs() < 1e-9);
        assert!((brokered.throughput - plain.throughput).abs() < 1e-9);
    }

    #[test]
    fn settlement_cost_is_charged() {
        let g = hub_graph();
        let params = TxAlloParams::for_graph(&g, 4);
        let alloc = GTxAllo::new(params.clone()).allocate_graph(&g);
        let cheap = evaluate_with_brokers(
            &g,
            &alloc,
            &params,
            &BrokerConfig {
                settlement_cost: 0.0,
                ..BrokerConfig::default()
            },
        );
        let costly = evaluate_with_brokers(
            &g,
            &alloc,
            &params,
            &BrokerConfig {
                settlement_cost: 1.0,
                ..BrokerConfig::default()
            },
        );
        let cheap_total: f64 = cheap.shard_loads.iter().sum();
        let costly_total: f64 = costly.shard_loads.iter().sum();
        assert!(costly_total > cheap_total, "settlement must cost something");
    }

    #[test]
    fn split_cap_is_respected() {
        let g = hub_graph();
        let params = TxAlloParams::for_graph(&g, 4);
        let cfg = BrokerConfig {
            split_threshold: 0.0,
            max_split_accounts: 3,
            ..BrokerConfig::default()
        };
        let split = select_split_accounts(&g, &params, &cfg);
        assert_eq!(split.len(), 3);
        // Heaviest-first ordering.
        use txallo_graph::WeightedGraph;
        assert!(g.incident_weight(split[0]) >= g.incident_weight(split[1]));
        assert!(g.incident_weight(split[1]) >= g.incident_weight(split[2]));
    }
}
