//! Shard Scheduler — the transaction-level allocation baseline (Król et
//! al., AFT'21; \[28\] in the paper).
//!
//! Unlike the graph-based methods, Shard Scheduler decides placement *per
//! incoming transaction*: affected accounts are placed (or migrated) into
//! the least-loaded eligible shard when their history justifies it. The
//! paper reports it achieves the best workload balance (Fig. 3/4) and
//! worst-case latency (Fig. 7) but a mediocre cross-shard ratio and by far
//! the longest running time (Fig. 8 — it touches every transaction).
//!
//! The original system tracks per-object placement with broker-mediated
//! migration; this reproduction keeps the two published decision rules that
//! drive its measured behaviour (see DESIGN.md):
//!
//! 1. **New accounts** go to the least-loaded shard at arrival time.
//! 2. **Migration**: when a transaction is cross-shard, each affected
//!    account may migrate to the least-loaded shard among the transaction's
//!    shards, provided its historical affinity to the destination is at
//!    least its affinity to its current shard and the destination stays
//!    within the capacity buffer (`capacity × BUFFER_RATIO`, buffer 1 per
//!    the paper's setting §VI-B1).

use txallo_graph::{NodeId, TxGraph, WeightedGraph};
use txallo_model::FxHashMap;

use crate::allocation::Allocation;
use crate::dataset::Dataset;
use crate::Allocator;

/// Buffer ratio: a migration may not push a shard's accumulated load past
/// `capacity × BUFFER_RATIO`. The paper's comparison uses 1.0 (§VI-B1).
const BUFFER_RATIO: f64 = 1.0;

/// Configuration of the Shard Scheduler baseline.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Number of shards `k`.
    pub shards: usize,
    /// Workload of a cross-shard transaction (`η`).
    pub eta: f64,
    /// Per-shard capacity `λ` (same convention as [`crate::TxAlloParams`]).
    pub capacity: f64,
}

impl SchedulerConfig {
    /// Paper-default configuration for `total_weight` transactions over
    /// `shards` shards (`λ = |T|/k`, η = 2).
    pub fn new(shards: usize, total_weight: f64) -> Self {
        assert!(shards > 0);
        Self {
            shards,
            eta: 2.0,
            capacity: total_weight / shards as f64,
        }
    }

    /// Returns a copy with a different η.
    pub fn with_eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }
}

/// The transaction-level allocator.
#[derive(Debug, Clone)]
pub struct ShardScheduler {
    config: SchedulerConfig,
}

impl ShardScheduler {
    /// Creates the scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        Self { config }
    }

    /// Replays the dataset's ledger transaction by transaction and returns
    /// the final account-shard mapping.
    pub fn allocate_dataset(&self, dataset: &Dataset) -> Allocation {
        let graph = dataset.graph();
        let mut state = SchedulerState::new(self.config.clone());
        state.ensure_nodes(graph.node_count());
        let (mut accounts, mut nodes) = (Vec::new(), Vec::new());
        for tx in dataset.ledger().transactions() {
            // `tx.account_set()` through the interner, in reused buffers.
            accounts.clear();
            accounts.extend(tx.inputs().iter().chain(tx.outputs()));
            accounts.sort_unstable();
            accounts.dedup();
            nodes.clear();
            nodes.extend(
                accounts
                    .iter()
                    .map(|&a| graph.node_of(a).expect("account in graph")), // txallo-lint: allow(lib-unwrap) — a dataset's graph is built from its own ledger, so it interns every ledger account
            );
            state.process_nodes(&nodes);
        }
        // Accounts never seen in the ledger cannot exist (graph is built
        // from the same ledger), so every label is set.
        debug_assert!(state.labels().iter().all(|&s| s != u32::MAX));
        Allocation::new(state.into_labels(), self.config.shards)
    }
}

/// The scheduler's per-account decision state, factored out of the batch
/// replay so that it can also run *incrementally* — the scheduler is
/// transaction-level by design, which makes it the one baseline whose
/// streaming adapter ([`crate::SchedulerStream`]) is its native mode
/// rather than a per-epoch re-solve.
///
/// [`SchedulerState::process_nodes`] applies the two published decision
/// rules (placement + migration, see the [module docs](self)) to one
/// transaction's interned account set; the batch
/// [`ShardScheduler::allocate_dataset`] is a fresh state replayed over the
/// whole ledger.
#[derive(Debug, Clone)]
pub struct SchedulerState {
    config: SchedulerConfig,
    shard_of: Vec<u32>,
    load: Vec<f64>,
    /// Historical affinity: per account, accumulated interaction weight
    /// with each shard (by partner placement at interaction time).
    affinity: Vec<FxHashMap<u32, f64>>,
    /// The distinct shards of the transaction in progress (scratch,
    /// reused so that a transaction allocates nothing).
    shards: Vec<u32>,
}

impl SchedulerState {
    /// Fresh state with no accounts placed.
    pub fn new(config: SchedulerConfig) -> Self {
        let load = vec![0.0f64; config.shards];
        Self {
            config,
            shard_of: Vec::new(),
            load,
            affinity: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// Grows the per-account tables to cover `n` nodes (new slots are
    /// unplaced). Node ids only ever grow, matching the graph interner.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.shard_of.len() < n {
            self.shard_of.resize(n, u32::MAX);
            self.affinity.resize(n, FxHashMap::default());
        }
    }

    /// Updates the per-shard capacity `λ` (streaming callers refresh it
    /// per epoch as `|T|` grows; the batch replay keeps it fixed).
    pub fn set_capacity(&mut self, capacity: f64) {
        self.config.capacity = capacity;
    }

    /// Scales the accumulated history — per-shard loads and per-account
    /// affinities — by `factor`, mirroring a uniform decay of the
    /// transaction history they were accrued from. Without this, a
    /// decaying capacity (`λ = |T|/k` shrinks with the decayed total)
    /// would be compared against undecayed loads and permanently disable
    /// the migration rule.
    pub fn scale_history(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        for load in &mut self.load {
            *load *= factor;
        }
        for per_account in &mut self.affinity {
            for weight in per_account.values_mut() {
                *weight *= factor;
            }
        }
    }

    /// The current labels (`u32::MAX` = not yet placed).
    pub fn labels(&self) -> &[u32] {
        &self.shard_of
    }

    /// Consumes the state, yielding the label vector.
    pub fn into_labels(self) -> Vec<u32> {
        self.shard_of
    }

    fn least_loaded(&self) -> u32 {
        let mut best = 0usize;
        for s in 1..self.load.len() {
            if self.load[s] < self.load[best] {
                best = s;
            }
        }
        best as u32
    }

    /// Warm-starts from an accumulated graph when no transaction history
    /// is available (the streaming `begin`): accounts are placed greedily
    /// into the least-loaded shard in node-id order — first-appearance
    /// order, i.e. the order rule 1 would have seen them arrive — with
    /// their incident weight as the load proxy, and affinities are seeded
    /// from the placed adjacency. A deterministic approximation of the
    /// replay, documented as such; live traffic thereafter uses the exact
    /// per-transaction rules.
    pub fn seed_from_graph(&mut self, graph: &TxGraph) {
        let n = graph.node_count();
        self.ensure_nodes(n);
        for v in 0..n as NodeId {
            if self.shard_of[v as usize] != u32::MAX {
                continue;
            }
            let s = self.least_loaded();
            self.shard_of[v as usize] = s;
            self.load[s as usize] += graph.incident_weight(v);
        }
        for v in 0..n as NodeId {
            graph.for_each_neighbor(v, |u, w| {
                let su = self.shard_of[u as usize];
                *self.affinity[v as usize].entry(su).or_insert(0.0) += w;
            });
        }
    }

    /// Runs the placement + migration rules on one transaction, given as
    /// its account set's node ids in `account_set` order (what
    /// [`BlockNodes::tx_nodes`](txallo_graph::BlockNodes::tx_nodes)
    /// holds). Every node must be below the last
    /// [`SchedulerState::ensure_nodes`] count.
    pub fn process_nodes(&mut self, nodes: &[NodeId]) {
        let k = self.config.shards;
        // Place new accounts into the least-loaded shard (rule 1).
        for &v in nodes {
            if self.shard_of[v as usize] == u32::MAX {
                self.shard_of[v as usize] = self.least_loaded();
            }
        }

        // Distinct shards the transaction currently touches.
        distinct_shards(&self.shard_of, nodes, &mut self.shards);

        if self.shards.len() > 1 {
            // Cross-shard: each affected account is scored against
            // *every* shard (as the original scheduler does — this scan
            // is what makes the method O(|T|·k) and the slowest in
            // Fig. 8): highest historical affinity wins, ties broken
            // toward the lighter shard, respecting the capacity buffer.
            let cap = self.config.capacity * BUFFER_RATIO;
            for &v in nodes {
                let current = self.shard_of[v as usize];
                let mut best = current;
                let mut best_aff = self.affinity[v as usize]
                    .get(&current)
                    .copied()
                    .unwrap_or(0.0);
                let mut best_load = self.load[current as usize];
                for s in 0..k as u32 {
                    if s == current || self.load[s as usize] >= cap {
                        continue;
                    }
                    let a = self.affinity[v as usize].get(&s).copied().unwrap_or(0.0);
                    if a > best_aff || (a == best_aff && self.load[s as usize] < best_load) {
                        best = s;
                        best_aff = a;
                        best_load = self.load[s as usize];
                    }
                }
                self.shard_of[v as usize] = best;
            }
            // Re-evaluate µ after migrations.
            distinct_shards(&self.shard_of, nodes, &mut self.shards);
        }

        // Charge the workload to every involved shard.
        let unit = if self.shards.len() > 1 {
            self.config.eta
        } else {
            1.0
        };
        for &s in &self.shards {
            self.load[s as usize] += unit;
        }

        // Update pairwise affinities (each account ↔ partners' shards).
        for &v in nodes {
            for &u in nodes {
                if u == v {
                    continue;
                }
                let su = self.shard_of[u as usize];
                *self.affinity[v as usize].entry(su).or_insert(0.0) += 1.0;
            }
        }
    }
}

/// Writes the distinct shards of `nodes` under `shard_of` into `out`,
/// ascending.
fn distinct_shards(shard_of: &[u32], nodes: &[NodeId], out: &mut Vec<u32>) {
    out.clear();
    out.extend(nodes.iter().map(|&v| shard_of[v as usize]));
    out.sort_unstable();
    out.dedup();
}

impl Allocator for ShardScheduler {
    fn name(&self) -> &str {
        "Shard Scheduler"
    }

    fn allocate(&mut self, dataset: &Dataset) -> Allocation {
        self.allocate_dataset(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsReport;
    use crate::params::TxAlloParams;
    use txallo_model::{AccountId, Block, Ledger, Transaction};

    fn dataset_from_txs(txs: Vec<Transaction>) -> Dataset {
        let ledger = Ledger::from_blocks(vec![Block::new(0, txs)]).unwrap();
        Dataset::from_ledger(ledger)
    }

    #[test]
    fn every_account_is_placed() {
        let txs: Vec<Transaction> = (0..50u64)
            .map(|i| Transaction::transfer(AccountId(i), AccountId(i + 50)))
            .collect();
        let ds = dataset_from_txs(txs);
        let cfg = SchedulerConfig::new(4, ds.graph().total_weight());
        let alloc = ShardScheduler::new(cfg).allocate_dataset(&ds);
        assert_eq!(alloc.len(), ds.graph().node_count());
        assert!(alloc.labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn balances_a_hot_account_workload() {
        // One account in 60% of transactions: graph methods would overload
        // its shard; the scheduler keeps shard loads close.
        let mut txs = Vec::new();
        for i in 0..300u64 {
            txs.push(Transaction::transfer(AccountId(0), AccountId(1000 + i)));
        }
        for i in 0..200u64 {
            txs.push(Transaction::transfer(
                AccountId(2000 + i),
                AccountId(3000 + i),
            ));
        }
        let ds = dataset_from_txs(txs);
        let k = 5;
        let cfg = SchedulerConfig::new(k, ds.graph().total_weight());
        let alloc = ShardScheduler::new(cfg).allocate_dataset(&ds);
        let params = TxAlloParams::for_graph(ds.graph(), k);
        let r = MetricsReport::compute(ds.graph(), &alloc, &params);
        // Balance must be much better than "everything on one shard".
        assert!(
            r.workload_std_normalized < 2.0,
            "scheduler balance too poor: ρ/λ = {}",
            r.workload_std_normalized
        );
    }

    #[test]
    fn co_active_pair_converges_to_one_shard() {
        // Two accounts transacting repeatedly end up co-located.
        let mut txs = Vec::new();
        for _ in 0..20 {
            txs.push(Transaction::transfer(AccountId(1), AccountId(2)));
        }
        // Background traffic so shards have load.
        for i in 0..20u64 {
            txs.push(Transaction::transfer(
                AccountId(100 + i),
                AccountId(200 + i),
            ));
        }
        let ds = dataset_from_txs(txs);
        let cfg = SchedulerConfig::new(3, ds.graph().total_weight());
        let alloc = ShardScheduler::new(cfg).allocate_dataset(&ds);
        let g = ds.graph();
        assert_eq!(
            alloc.shard_of(g.node_of(AccountId(1)).unwrap()),
            alloc.shard_of(g.node_of(AccountId(2)).unwrap()),
            "frequent partners should share a shard"
        );
    }

    #[test]
    fn is_deterministic() {
        let txs: Vec<Transaction> = (0..60u64)
            .map(|i| Transaction::transfer(AccountId(i % 7), AccountId((i * 3) % 11 + 20)))
            .collect();
        let ds = dataset_from_txs(txs);
        let cfg = SchedulerConfig::new(4, ds.graph().total_weight());
        let a = ShardScheduler::new(cfg.clone()).allocate_dataset(&ds);
        let b = ShardScheduler::new(cfg).allocate_dataset(&ds);
        assert_eq!(a, b);
    }
}
