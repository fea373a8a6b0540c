//! Property-based tests of the transaction graph invariants.

use proptest::prelude::*;
use txallo_graph::{CsrGraph, NodeId, TxGraph, WeightedGraph};
use txallo_model::{AccountId, Transaction};

fn txs_strategy(max_acct: u64, len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_acct, 0..max_acct), 1..len)
}

fn build(pairs: &[(u64, u64)]) -> TxGraph {
    let mut g = TxGraph::new();
    for &(a, b) in pairs {
        g.ingest_transaction(&Transaction::transfer(AccountId(a), AccountId(b)));
    }
    g
}

proptest! {
    /// Total weight equals transaction count; incident weights are
    /// consistent with adjacency; strength double-counts self-loops.
    #[test]
    fn weight_accounting(pairs in txs_strategy(40, 80)) {
        let g = build(&pairs);
        prop_assert!((g.total_weight() - pairs.len() as f64).abs() < 1e-9);
        let mut incident_sum = 0.0;
        let mut loop_sum = 0.0;
        for v in 0..g.node_count() as NodeId {
            let mut s = g.self_loop(v);
            g.for_each_neighbor(v, |_, w| s += w);
            prop_assert!((s - g.incident_weight(v)).abs() < 1e-9);
            prop_assert!((g.strength(v) - (g.incident_weight(v) + g.self_loop(v))).abs() < 1e-12);
            incident_sum += g.incident_weight(v);
            loop_sum += g.self_loop(v);
        }
        // Σ incident = 2·(non-loop weight) + loop weight.
        let non_loop = g.total_weight() - loop_sum;
        prop_assert!((incident_sum - (2.0 * non_loop + loop_sum)).abs() < 1e-6);
    }

    /// CsrGraph::from_graph is weight-preserving for arbitrary input.
    #[test]
    fn adjacency_snapshot_preserves(pairs in txs_strategy(25, 50)) {
        let g = build(&pairs);
        let snap = CsrGraph::from_graph(&g);
        prop_assert_eq!(snap.node_count(), g.node_count());
        prop_assert!((snap.total_weight() - g.total_weight()).abs() < 1e-9);
        for v in 0..g.node_count() as NodeId {
            prop_assert!((snap.incident_weight(v) - g.incident_weight(v)).abs() < 1e-9);
            prop_assert!((snap.self_loop(v) - g.self_loop(v)).abs() < 1e-9);
            prop_assert_eq!(snap.neighbor_count(v), g.neighbor_count(v));
        }
    }

    /// The canonical order is a permutation, independent of weights, and
    /// identical across graphs interning the same accounts in the same
    /// order.
    #[test]
    fn canonical_order_permutation(pairs in txs_strategy(30, 40)) {
        let g = build(&pairs);
        let order = g.nodes_in_canonical_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.node_count() as NodeId).collect::<Vec<_>>());
    }

    /// CsrGraph::from_graph(TxGraph) preserves every quantity the sweep
    /// algebra reads: node count, total weight, per-node self-loops and
    /// incident weights, and the exact neighbor sets with their weights.
    #[test]
    fn csr_snapshot_preserves_graph(pairs in txs_strategy(35, 70)) {
        let g = build(&pairs);
        let csr = txallo_graph::CsrGraph::from_graph(&g);
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert!((csr.total_weight() - g.total_weight()).abs() < 1e-9);
        for v in 0..g.node_count() as NodeId {
            prop_assert!((csr.self_loop(v) - g.self_loop(v)).abs() < 1e-9);
            prop_assert!((csr.incident_weight(v) - g.incident_weight(v)).abs() < 1e-9);
            prop_assert_eq!(csr.neighbor_count(v), g.neighbor_count(v));
            // Neighbor sets: CSR rows are sorted; every TxGraph edge must
            // appear with the same weight, and vice versa by counting.
            let ids = csr.neighbor_ids(v);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "row must be strictly sorted");
            let mut seen = 0usize;
            g.for_each_neighbor(v, |u, w| {
                seen += 1;
                let csr_w = csr.weight_between(v, u);
                assert!((csr_w - w).abs() < 1e-9, "edge ({v},{u}) weight {w} vs {csr_w}");
            });
            prop_assert_eq!(seen, ids.len());
        }
    }

    /// The sorted-run slab adjacency must track a hash/ordered-map
    /// reference **bit-for-bit** through an arbitrary ingest stream:
    /// repeated pairs accumulate chronologically to identical weights,
    /// rows stay strictly ascending after every (amortized) merge, and
    /// every derived scalar matches the reference fold.
    #[test]
    fn slab_adjacency_matches_map_reference_bitwise(pairs in txs_strategy(30, 120)) {
        use std::collections::BTreeMap;
        let mut g = TxGraph::new();
        // Reference: per-node map keyed by neighbor, weights accumulated
        // in the same chronological per-pair order ingestion uses.
        let mut adj: Vec<BTreeMap<NodeId, f64>> = Vec::new();
        let mut loops: Vec<f64> = Vec::new();
        let mut interner: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
        for &(a, b) in &pairs {
            let tx = Transaction::transfer(AccountId(a), AccountId(b));
            g.ingest_transaction(&tx);
            let mut node = |acct: AccountId, adj: &mut Vec<BTreeMap<NodeId, f64>>, loops: &mut Vec<f64>| {
                let next = interner.len() as NodeId;
                *interner.entry(acct.0).or_insert_with(|| {
                    adj.push(BTreeMap::new());
                    loops.push(0.0);
                    next
                })
            };
            // Intern in `account_set` order (sorted/deduped) — the order
            // ingestion itself uses.
            let set = tx.account_set();
            let nodes: Vec<NodeId> = set.iter().map(|&acct| node(acct, &mut adj, &mut loops)).collect();
            if nodes.len() == 1 {
                loops[nodes[0] as usize] += 1.0;
            } else {
                let (na, nb) = (nodes[0], nodes[1]);
                *adj[na as usize].entry(nb).or_insert(0.0) += 1.0;
                *adj[nb as usize].entry(na).or_insert(0.0) += 1.0;
            }
            // Invariant checked after *every* transaction, so a merge at
            // any trigger point is covered: rows ascending, weights
            // bit-identical to the reference accumulation.
            for v in 0..g.node_count() as NodeId {
                let mut seen: Vec<(NodeId, u64)> = Vec::new();
                g.for_each_neighbor(v, |u, w| seen.push((u, w.to_bits())));
                assert!(
                    seen.windows(2).all(|p| p[0].0 < p[1].0),
                    "row {v} not strictly ascending"
                );
                let expect: Vec<(NodeId, u64)> = adj[v as usize]
                    .iter()
                    .map(|(&u, &w)| (u, w.to_bits()))
                    .collect();
                assert_eq!(seen, expect, "row {v} diverged from the map reference");
                assert_eq!(g.self_loop(v).to_bits(), loops[v as usize].to_bits());
            }
        }
        // Interning order agrees (first-seen), so node ids line up 1:1.
        prop_assert_eq!(g.node_count(), interner.len());
    }

    /// Degenerate streams: pure self-transfers and one pair repeated many
    /// times — the slab must keep exact unit accumulation with no spurious
    /// edges (the satellite's degenerate coverage at property scale).
    #[test]
    fn slab_degenerate_self_and_repeat_streams(
        selfers in 1usize..60,
        repeats in 1usize..200,
    ) {
        let mut g = TxGraph::new();
        for _ in 0..selfers {
            g.ingest_transaction(&Transaction::transfer(AccountId(7), AccountId(7)));
        }
        for _ in 0..repeats {
            g.ingest_transaction(&Transaction::transfer(AccountId(1), AccountId(2)));
        }
        let n7 = g.node_of(AccountId(7)).unwrap();
        prop_assert_eq!(g.neighbor_count(n7), 0);
        prop_assert_eq!(g.self_loop(n7).to_bits(), (selfers as f64).to_bits());
        let (n1, n2) = (g.node_of(AccountId(1)).unwrap(), g.node_of(AccountId(2)).unwrap());
        prop_assert_eq!(g.edge_count(), 1);
        prop_assert_eq!(g.weight_between(n1, n2).to_bits(), (repeats as f64).to_bits());
        prop_assert_eq!(g.weight_between(n2, n1).to_bits(), (repeats as f64).to_bits());
        prop_assert!((g.total_weight() - (selfers + repeats) as f64).abs() < 1e-12);
    }

    /// Strength and the incident/self-loop identities hold on the CSR form.
    #[test]
    fn csr_weight_identities(pairs in txs_strategy(25, 50)) {
        let g = build(&pairs);
        let csr = txallo_graph::CsrGraph::from_graph(&g);
        for v in 0..csr.node_count() as NodeId {
            let row_sum: f64 = csr.neighbor_weights(v).iter().sum();
            prop_assert!((csr.incident_weight(v) - (row_sum + csr.self_loop(v))).abs() < 1e-9);
            prop_assert!(
                (csr.strength(v) - (csr.incident_weight(v) + csr.self_loop(v))).abs() < 1e-12
            );
        }
    }
}
