//! Property-based tests of the core invariants, using proptest.

use proptest::prelude::*;

use txallo::core::latency_of_normalized_load;
use txallo::core::state::{capped_throughput, CommunityState, MoveScratch};
use txallo::core::{AtxAlloSession, GTxAllo, HashAllocator, MetisAllocator};
use txallo::model::Block;
use txallo::prelude::*;

/// Strategy: a random list of transfers over a bounded account universe.
fn transfers(max_accounts: u64, len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_accounts, 0..max_accounts), 1..len)
}

fn graph_of(pairs: &[(u64, u64)]) -> TxGraph {
    let mut g = TxGraph::new();
    for &(a, b) in pairs {
        g.ingest_transaction(&Transaction::transfer(AccountId(a), AccountId(b)));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Definition 1: every allocation is a partition (uniqueness +
    /// completeness), for every allocator.
    #[test]
    fn allocations_are_partitions(pairs in transfers(200, 120), k in 1usize..12) {
        let g = graph_of(&pairs);
        let params = TxAlloParams::for_graph(&g, k);
        let allocs = [
            GTxAllo::new(params.clone()).allocate_graph(&g),
            HashAllocator::new(k).allocate_graph(&g),
            MetisAllocator::new(k).allocate_graph(&g),
        ];
        for alloc in allocs {
            prop_assert_eq!(alloc.len(), g.node_count());
            prop_assert!(alloc.labels().iter().all(|&l| (l as usize) < k));
        }
    }

    /// Total transaction weight is conserved by the graph, and the sum of
    /// per-shard σ decomposes as intra + η·cut consistently: Σσ = m + (η·2 − 1)·cut.
    #[test]
    fn workload_decomposition(pairs in transfers(100, 100), k in 2usize..8, eta in 1.0f64..10.0) {
        let g = graph_of(&pairs);
        let params = TxAlloParams::for_graph(&g, k).with_eta(eta);
        let alloc = HashAllocator::new(k).allocate_graph(&g);
        let r = MetricsReport::compute(&g, &alloc, &params);
        let m = g.total_weight();
        let cut = r.cross_shard_ratio * m;
        let sigma_sum: f64 = r.shard_loads.iter().map(|&x| x * params.capacity).sum();
        // Each intra edge contributes 1; each cut edge contributes η in both
        // of its two shards: Σσ = (m − cut) + 2·η·cut.
        let expected = (m - cut) + 2.0 * eta * cut;
        prop_assert!((sigma_sum - expected).abs() < 1e-6 * expected.max(1.0),
            "Σσ = {sigma_sum}, expected {expected}");
    }

    /// The incremental gain formulas agree with from-scratch recomputation
    /// for arbitrary moves (the heart of §V-B).
    #[test]
    fn gain_formulas_match_recomputation(
        pairs in transfers(40, 60),
        k in 2usize..6,
        eta in 1.0f64..8.0,
        node_pick in 0usize..1000,
        dest_pick in 0usize..1000,
    ) {
        let g = graph_of(&pairs);
        prop_assume!(g.node_count() >= 2);
        let labels: Vec<u32> = (0..g.node_count()).map(|v| (v % k) as u32).collect();
        let capacity = g.total_weight() / k as f64;
        let state = CommunityState::from_labels(&g, &labels, k, eta, capacity);

        let v = (node_pick % g.node_count()) as NodeId;
        let p = labels[v as usize];
        let q = (dest_pick % k) as u32;
        prop_assume!(p != q);

        let mut scratch = MoveScratch::default();
        state.gather_links(&g, &labels, v, &mut scratch);
        let self_w = g.self_loop(v);
        let d_v = g.incident_weight(v);
        let w_vp = scratch.weight_to(p);
        let w_vq = scratch.weight_to(q);
        let predicted = state.move_gain(p, q, self_w, d_v, w_vp, w_vq);

        let mut labels2 = labels.clone();
        labels2[v as usize] = q;
        let state2 = CommunityState::from_labels(&g, &labels2, k, eta, capacity);
        let actual = state2.total_throughput() - state.total_throughput();
        prop_assert!((predicted - actual).abs() < 1e-9,
            "predicted {predicted} vs actual {actual}");
    }

    /// Capped throughput never exceeds the uncapped value and never exceeds
    /// capacity when σ is the binding constraint... (Λ ≤ Λ̂ and Λ ≤ λ·Λ̂/σ).
    #[test]
    fn capped_throughput_bounds(sigma in 0.0f64..100.0, hat in 0.0f64..100.0, cap in 0.1f64..100.0) {
        let t = capped_throughput(sigma, hat, cap);
        prop_assert!(t <= hat + 1e-12);
        prop_assert!(t >= 0.0);
        if sigma > cap {
            prop_assert!((t - cap / sigma * hat).abs() < 1e-12);
        }
    }

    /// Eq. 4 latency: ≥ 1, monotone, and equals (x+1)/2 at integers.
    #[test]
    fn latency_properties(x in 0.01f64..50.0) {
        let l = latency_of_normalized_load(x);
        prop_assert!(l >= 1.0 - 1e-12);
        prop_assert!(l <= latency_of_normalized_load(x + 0.5) + 1e-12);
        let xi = x.ceil();
        let li = latency_of_normalized_load(xi);
        if xi > 1.0 {
            let expected = (xi + 1.0) / 2.0;
            prop_assert!((li - expected).abs() < 1e-9, "ζ({xi}) = {li}, expected {expected}");
        }
    }

    /// A-TxAllo never unassigns anyone and extends coverage to new nodes.
    #[test]
    fn adaptive_update_covers_graph(
        pairs in transfers(60, 60),
        extra in transfers(80, 30),
        k in 2usize..6,
    ) {
        let mut g = graph_of(&pairs);
        let params = TxAlloParams::for_graph(&g, k);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let txs: Vec<Transaction> = extra
            .iter()
            .map(|&(a, b)| Transaction::transfer(AccountId(a), AccountId(b)))
            .collect();
        let block = Block::new(0, txs);
        let touched = g.ingest_block(&block);
        let params = TxAlloParams::for_graph(&g, k);
        let mut session = AtxAlloSession::new(&g, &prev, &params);
        session.update(&g, &touched, &params);
        prop_assert_eq!(session.labels().len(), g.node_count());
        prop_assert!(session.labels().iter().all(|&l| (l as usize) < k));
    }

    /// Graph ingestion: total weight always equals the transaction count.
    #[test]
    fn unit_weight_per_transaction(pairs in transfers(50, 80)) {
        let g = graph_of(&pairs);
        prop_assert!((g.total_weight() - pairs.len() as f64).abs() < 1e-6);
    }
}
