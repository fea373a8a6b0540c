//! Ablations of G-TxAllo's design choices.
//!
//! The paper motivates two specific choices that deserve measurement:
//!
//! 1. **Louvain initialization** (§V-B): the optimization phase starts from
//!    a community structure instead of from scratch. Ablations replace it
//!    with hash-based or singleton-free random starts.
//! 2. **Candidate communities `C_v`** (Eq. 9): only communities a node
//!    already touches are evaluated, instead of all `k`. The ablation
//!    measures what the restriction costs in quality (nothing, per the
//!    paper's argument) and buys in time.
//!
//! Run via `experiments ablation`.

use txallo_graph::{TxGraph, WeightedGraph};
use txallo_louvain::{split_disconnected, LouvainResult};

use crate::allocation::Allocation;
use crate::gtxallo::{GTxAllo, GTxAlloOutcome, GTxAlloPlan};
use crate::params::{TxAlloParams, MAX_SWEEPS};

/// How the optimization phase is seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// The paper's choice: Louvain communities, truncated to `k`.
    Louvain,
    /// Hash-based start: every account seeded at `H(address) mod k`
    /// (what a system gets "for free" from its existing allocation).
    Hash,
    /// Round-robin over the canonical node order — a structure-free but
    /// balanced start.
    RoundRobin,
    /// Louvain followed by a connectivity split (Leiden-style): internally
    /// disconnected communities — the hub-glomming artifact classic
    /// Louvain can produce on transaction graphs — are fragmented before
    /// truncation.
    LouvainSplit,
}

impl InitStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [InitStrategy; 4] = [
        InitStrategy::Louvain,
        InitStrategy::Hash,
        InitStrategy::RoundRobin,
        InitStrategy::LouvainSplit,
    ];

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            InitStrategy::Louvain => "louvain",
            InitStrategy::Hash => "hash-init",
            InitStrategy::RoundRobin => "round-robin",
            InitStrategy::LouvainSplit => "louvain+split",
        }
    }
}

/// Runs G-TxAllo with the given initialization strategy.
///
/// Every start is computed in the renumbered space of production's
/// [`GTxAlloPlan`] and swept over its CSR in that order, so the
/// [`InitStrategy::Louvain`] row is production G-TxAllo bit for bit and
/// the other rows differ from it only in their start.
pub fn gtxallo_with_init_strategy(
    params: &TxAlloParams,
    graph: &TxGraph,
    strategy: InitStrategy,
) -> GTxAlloOutcome {
    let plan = GTxAlloPlan::new(graph, &params.louvain);
    let (n, k) = (plan.order().len(), params.shards);
    let synthetic = |communities: Vec<u32>| LouvainResult {
        communities,
        community_count: k.min(n.max(1)),
        levels: 0,
    };
    let init = match strategy {
        InitStrategy::Louvain => plan.init().clone(),
        InitStrategy::LouvainSplit => {
            let split = split_disconnected(plan.csr(), &plan.init().communities);
            LouvainResult {
                communities: split.labels,
                community_count: split.count,
                levels: plan.init().levels,
            }
        }
        InitStrategy::Hash => synthetic(
            plan.order()
                .iter()
                .map(|&v| graph.account(v).hash_shard(k).0)
                .collect(),
        ),
        InitStrategy::RoundRobin => synthetic((0..n).map(|i| (i % k) as u32).collect()),
    };
    GTxAllo::new(params.clone()).allocate_planned_from(&plan, &init)
}

/// The candidate-set ablation: starts from production G-TxAllo's result
/// (the [`GTxAlloPlan`] route), then runs extra optimization sweeps with
/// `C_v` = *all* communities instead of Eq. 9's connected-only restriction.
///
/// Implemented as a standalone sweep (the restricted variant lives inside
/// [`GTxAllo`]); it should gain almost nothing over its start — a node
/// gains nothing from joining a community it has no edge into, except
/// through the capacity term, which the paper argues (and this ablation
/// measures) is negligible.
pub fn gtxallo_full_scan(params: &TxAlloParams, graph: &TxGraph) -> Allocation {
    use crate::state::{CommunityState, MoveScratch};

    // Start from the production pipeline's result…
    let plan = GTxAlloPlan::new(graph, &params.louvain);
    let base = GTxAllo::new(params.clone()).allocate_planned(&plan);
    let order = plan.order();
    let mut labels = base.allocation.labels().to_vec();
    let k = params.shards;

    // …then run extra full-scan sweeps on top.
    let mut state = CommunityState::from_labels(graph, &labels, k, params.eta, params.capacity);
    let mut scratch = MoveScratch::default();
    for _ in 0..MAX_SWEEPS {
        let mut delta = 0.0;
        for &v in order {
            let p = labels[v as usize];
            state.gather_links(graph, &labels, v, &mut scratch);
            let (self_w, d_v) = (graph.self_loop(v), graph.incident_weight(v));
            // Every community is a candidate, connected or not.
            let every = (0..k as u32).map(|q| (q, scratch.weight_to(q)));
            if let Some(mv) = state.best_move(p, self_w, d_v, every) {
                state.apply_move(&mv);
                labels[v as usize] = mv.to;
                delta += mv.gain;
            }
        }
        if delta < params.epsilon {
            break;
        }
    }
    Allocation::new(labels, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsReport;
    use txallo_model::{AccountId, Transaction};

    fn clustered_graph() -> TxGraph {
        let mut g = TxGraph::new();
        for base in [0u64, 10, 20, 30] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        for x in 0..4u64 {
            g.ingest_transaction(&Transaction::transfer(
                AccountId(x * 10),
                AccountId(x * 10 + 11),
            ));
        }
        g
    }

    #[test]
    fn all_strategies_produce_valid_allocations() {
        let g = clustered_graph();
        let params = TxAlloParams::for_graph(&g, 4);
        for strategy in InitStrategy::ALL {
            let out = gtxallo_with_init_strategy(&params, &g, strategy);
            assert_eq!(out.allocation.len(), g.node_count(), "{}", strategy.name());
            assert!(out.allocation.labels().iter().all(|&l| l < 4));
        }
    }

    #[test]
    fn louvain_init_is_at_least_as_good_as_alternatives() {
        let g = clustered_graph();
        let params = TxAlloParams::for_graph(&g, 4);
        let gamma = |s: InitStrategy| {
            let out = gtxallo_with_init_strategy(&params, &g, s);
            MetricsReport::compute(&g, &out.allocation, &params).cross_shard_ratio
        };
        let louvain_gamma = gamma(InitStrategy::Louvain);
        // On a clean clustered graph Louvain must find the clusters; other
        // starts may or may not recover them, but never beat it.
        assert!(louvain_gamma <= gamma(InitStrategy::Hash) + 1e-9);
        assert!(louvain_gamma <= gamma(InitStrategy::RoundRobin) + 1e-9);
    }

    #[test]
    fn full_scan_does_not_beat_candidate_restriction_materially() {
        let g = clustered_graph();
        let params = TxAlloParams::for_graph(&g, 4);
        let restricted = GTxAllo::new(params.clone()).allocate_graph(&g);
        let full = gtxallo_full_scan(&params, &g);
        let r1 = MetricsReport::compute(&g, &restricted, &params);
        let r2 = MetricsReport::compute(&g, &full, &params);
        // Eq. 9's claim: the restriction loses (almost) nothing.
        assert!(
            r2.throughput <= r1.throughput * 1.05 + 1e-9,
            "full scan {} should not materially beat restricted {}",
            r2.throughput,
            r1.throughput
        );
    }

    /// The ablation figure's workload at `--scale 0.2`.
    fn ablation_workload() -> TxGraph {
        use txallo_workload::{StreamingWorkload, WorkloadConfig};
        let cfg = WorkloadConfig::scaled(0.2);
        let blocks = cfg.block_count();
        TxGraph::from_ledger(&StreamingWorkload::new(cfg, 42).ledger(blocks))
    }

    /// Ablation A's `louvain` row is production G-TxAllo (the route of
    /// `allocate_graph`), bit for bit: labels, trajectory, gain and gather
    /// work.
    #[test]
    fn louvain_row_is_production_gtxallo() {
        let g = ablation_workload();
        let params = TxAlloParams::for_graph(&g, 20).with_eta(2.0);
        let plan = GTxAlloPlan::new(&g, &params.louvain);
        let production = GTxAllo::new(params.clone()).allocate_planned(&plan);
        let row = gtxallo_with_init_strategy(&params, &g, InitStrategy::Louvain);
        let counters = |o: &GTxAlloOutcome| {
            (
                o.initial_communities,
                o.sweeps,
                o.moves,
                o.total_gain.to_bits(),
                o.rows_gathered,
                o.entries_gathered,
                o.entries_certified,
            )
        };
        assert_eq!(row.allocation, production.allocation);
        assert_eq!(counters(&row), counters(&production));
    }

    /// The full scan starts where production G-TxAllo ends, so on the
    /// ablation figure's own workload it can only add gain.
    #[test]
    fn full_scan_is_at_least_production_on_the_ablation_workload() {
        let g = ablation_workload();
        let params = TxAlloParams::for_graph(&g, 20).with_eta(2.0);
        let production = GTxAllo::new(params.clone()).allocate_graph(&g);
        let full = gtxallo_full_scan(&params, &g);
        let r1 = MetricsReport::compute(&g, &production, &params);
        let r2 = MetricsReport::compute(&g, &full, &params);
        assert!(
            r2.throughput >= r1.throughput,
            "full scan {} below production {}",
            r2.throughput,
            r1.throughput
        );
    }

    #[test]
    fn strategies_are_deterministic() {
        let g = clustered_graph();
        let params = TxAlloParams::for_graph(&g, 3);
        for s in InitStrategy::ALL {
            let a = gtxallo_with_init_strategy(&params, &g, s);
            let b = gtxallo_with_init_strategy(&params, &g, s);
            assert_eq!(a.allocation, b.allocation, "{}", s.name());
        }
    }
}
