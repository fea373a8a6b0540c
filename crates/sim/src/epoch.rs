//! Per-epoch, transaction-level evaluation (blockchain-side definitions of
//! §III-B, complementing the graph-level [`txallo_core::MetricsReport`]).

use std::time::Duration;

use txallo_core::state::capped_throughput;
use txallo_core::{Allocation, Degradation, StateCarry};
use txallo_graph::TxGraph;
use txallo_model::Block;

// The epoch-boundary vocabulary now lives with the streaming API in
// `txallo_core::streaming`; re-exported here so simulator consumers keep
// their imports.
pub use txallo_core::UpdateKind;

/// Transaction-level metrics of one epoch's blocks under an allocation.
#[derive(Debug, Clone)]
pub struct EpochMetrics {
    /// Transactions in the epoch.
    pub transactions: usize,
    /// Cross-shard transactions (`µ(Tx) > 1`).
    pub cross_shard: usize,
    /// Cross-shard ratio over the epoch.
    pub cross_shard_ratio: f64,
    /// Per-shard workloads (intra 1, cross η each).
    pub shard_workloads: Vec<f64>,
    /// Capacity-capped system throughput over the epoch (absolute).
    pub throughput: f64,
    /// Throughput normalized by the epoch capacity `λ = |T_epoch|/k`
    /// ("how many times an unsharded chain" — Fig. 9's y-axis).
    pub throughput_normalized: f64,
    /// Accounts the epoch's [`AllocationUpdate`] migrated between shards
    /// (first placements excluded) — the migration cost the mapping
    /// update itself incurs, from the update's move diff. Zero for
    /// metrics computed outside an epoch loop.
    ///
    /// [`AllocationUpdate`]: txallo_core::AllocationUpdate
    pub migrated_accounts: usize,
}

/// Scores `blocks` under `allocation`.
///
/// Every account appearing in `blocks` must already be interned in `graph`
/// and labelled by `allocation` (the driver updates the allocation before
/// scoring, matching the paper's "apply the new mapping, then process").
pub fn epoch_metrics(
    blocks: &[Block],
    graph: &TxGraph,
    allocation: &Allocation,
    shards: usize,
    eta: f64,
) -> EpochMetrics {
    let mut tx_count = 0usize;
    let mut cross = 0usize;
    let mut workloads = vec![0.0f64; shards];
    // Uncapped per-shard throughput contributions (1/µ per involved shard).
    let mut hat = vec![0.0f64; shards];

    let mut shard_scratch: Vec<u32> = Vec::with_capacity(8);
    for block in blocks {
        for tx in block.transactions() {
            tx_count += 1;
            allocation.tx_shards_into(graph, tx, &mut shard_scratch);
            let mu = shard_scratch.len();
            let unit = if mu > 1 { eta } else { 1.0 };
            if mu > 1 {
                cross += 1;
            }
            for &s in &shard_scratch {
                workloads[s as usize] += unit;
                hat[s as usize] += 1.0 / mu as f64;
            }
        }
    }

    let capacity = if tx_count == 0 {
        1.0
    } else {
        tx_count as f64 / shards as f64
    };
    let throughput: f64 = (0..shards)
        .map(|s| capped_throughput(workloads[s], hat[s], capacity))
        .sum();

    EpochMetrics {
        transactions: tx_count,
        cross_shard: cross,
        cross_shard_ratio: if tx_count == 0 {
            0.0
        } else {
            cross as f64 / tx_count as f64
        },
        shard_workloads: workloads,
        throughput,
        throughput_normalized: throughput / capacity,
        migrated_accounts: 0,
    }
}

/// Everything recorded about one simulated epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based, after warm-up).
    pub epoch: u64,
    /// Height of the first and last block of the epoch.
    pub height_range: (u64, u64),
    /// Which algorithm ran at this boundary.
    pub update: UpdateKind,
    /// How the stream's serving state crossed the boundary — in
    /// particular, whether a decay epoch *folded* into the warm session's
    /// aggregates ([`StateCarry::WarmRescaled`]) or forced a rebuild
    /// ([`StateCarry::Rebuilt`]).
    pub carry: StateCarry,
    /// Wall-clock time of the epoch-boundary allocation update.
    pub update_time: Duration,
    /// Brand-new accounts placed this epoch.
    pub new_accounts: usize,
    /// The serving-state health rung after this boundary's audit (see
    /// [`Degradation`]): `None` while the stream is healthy, degraded
    /// rungs once the consistency check has tripped the recovery ladder.
    pub degradation: Degradation,
    /// Transaction-level metrics of the epoch under the updated mapping.
    pub metrics: EpochMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_model::{AccountId, Transaction};

    #[test]
    fn epoch_metrics_by_hand() {
        let mut graph = TxGraph::new();
        let txs = vec![
            Transaction::transfer(AccountId(1), AccountId(2)), // intra (both shard 0)
            Transaction::transfer(AccountId(3), AccountId(4)), // intra (both shard 1)
            Transaction::transfer(AccountId(1), AccountId(3)), // cross
        ];
        let block = Block::new(0, txs);
        graph.ingest_block(&block);
        let mut labels = vec![0u32; 4];
        labels[graph.node_of(AccountId(3)).unwrap() as usize] = 1;
        labels[graph.node_of(AccountId(4)).unwrap() as usize] = 1;
        let alloc = Allocation::new(labels, 2);

        let m = epoch_metrics(&[block], &graph, &alloc, 2, 2.0);
        assert_eq!(m.transactions, 3);
        assert_eq!(m.cross_shard, 1);
        assert!((m.cross_shard_ratio - 1.0 / 3.0).abs() < 1e-12);
        // Each shard: 1 intra (1.0) + 1 cross (η = 2) = 3; capacity = 1.5.
        assert!((m.shard_workloads[0] - 3.0).abs() < 1e-12);
        assert!((m.shard_workloads[1] - 3.0).abs() < 1e-12);
        // hat per shard = 1 + 0.5 = 1.5; capped: 1.5/3 · 1.5 = 0.75 each.
        assert!((m.throughput - 1.5).abs() < 1e-12);
        assert!((m.throughput_normalized - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_intra_epoch_is_ideal() {
        let mut graph = TxGraph::new();
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(1), AccountId(2)),
                Transaction::transfer(AccountId(3), AccountId(4)),
            ],
        );
        graph.ingest_block(&block);
        let mut labels = vec![0u32; 4];
        labels[graph.node_of(AccountId(3)).unwrap() as usize] = 1;
        labels[graph.node_of(AccountId(4)).unwrap() as usize] = 1;
        let alloc = Allocation::new(labels, 2);
        let m = epoch_metrics(&[block], &graph, &alloc, 2, 4.0);
        assert_eq!(m.cross_shard, 0);
        assert!(
            (m.throughput_normalized - 2.0).abs() < 1e-12,
            "k× the unsharded chain"
        );
    }

    #[test]
    fn empty_epoch() {
        let graph = TxGraph::new();
        let alloc = Allocation::new(vec![], 3);
        let m = epoch_metrics(&[], &graph, &alloc, 3, 2.0);
        assert_eq!(m.transactions, 0);
        assert_eq!(m.cross_shard_ratio, 0.0);
        assert_eq!(m.throughput, 0.0);
    }
}
