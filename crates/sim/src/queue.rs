//! Discrete per-shard queue simulation.
//!
//! Eq. 4 of the paper derives confirmation latency *analytically* from the
//! normalized workload. This module measures it instead: every shard is a
//! FIFO queue draining `λ` workload units per block, transactions are
//! charged 1 (intra) or `η` (cross) per involved shard, and — unlike the
//! analytic model — a cross-shard transaction only *confirms* when **all**
//! involved shards have processed it (the atomic-commit barrier of §II-B).
//!
//! The gap between the measured mean latency and Eq. 4's prediction is
//! therefore exactly the cost of cross-shard coordination that the paper's
//! closed form folds into `η`.

use txallo_core::Allocation;
use txallo_graph::{fit_u32, TxGraph};
use txallo_model::Block;

/// One pending unit of work in a shard's queue.
#[derive(Debug, Clone, Copy)]
struct QueuedWork {
    /// Global id of the transaction this work belongs to.
    tx: u32,
    /// Workload units this shard must spend on it.
    cost: f64,
}

/// Latency statistics of a queue simulation run.
#[derive(Debug, Clone)]
pub struct QueueStats {
    /// Number of confirmed transactions.
    pub confirmed: usize,
    /// Transactions still unconfirmed when the simulation ended.
    pub unconfirmed: usize,
    /// Mean confirmation latency in blocks (confirmed transactions only).
    pub mean_latency: f64,
    /// Median confirmation latency.
    pub p50_latency: f64,
    /// 99th-percentile confirmation latency.
    pub p99_latency: f64,
    /// Worst observed latency.
    pub max_latency: f64,
    /// Mean latency among intra-shard transactions.
    pub mean_intra_latency: f64,
    /// Mean latency among cross-shard transactions.
    pub mean_cross_latency: f64,
}

/// Per-shard FIFO queue simulator.
#[derive(Debug)]
pub struct ShardQueueSim {
    eta: f64,
    capacity_per_block: f64,
    queues: Vec<std::collections::VecDeque<QueuedWork>>,
    /// Per-shard fractional progress into the head-of-line item.
    progress: Vec<f64>,
    /// Per transaction: remaining shard count and arrival block.
    remaining: Vec<u32>,
    arrival: Vec<u64>,
    completion: Vec<Option<u64>>,
    cross_flag: Vec<bool>,
    clock: u64,
}

impl ShardQueueSim {
    /// Creates the simulator: `shards` queues, each draining
    /// `capacity_per_block` workload units per block tick.
    pub fn new(shards: usize, capacity_per_block: f64, eta: f64) -> Self {
        assert!(shards > 0 && capacity_per_block > 0.0 && eta >= 1.0);
        Self {
            eta,
            capacity_per_block,
            queues: vec![std::collections::VecDeque::new(); shards],
            progress: vec![0.0; shards],
            remaining: Vec::new(),
            arrival: Vec::new(),
            completion: Vec::new(),
            cross_flag: Vec::new(),
            clock: 0,
        }
    }

    /// Current simulated block height.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Enqueues a block's transactions (at the current clock) and then
    /// advances the clock by one tick, draining every queue.
    pub fn step_block(&mut self, block: &Block, graph: &TxGraph, allocation: &Allocation) {
        let mut shards_scratch: Vec<u32> = Vec::with_capacity(8);
        for tx in block.transactions() {
            let id = fit_u32(self.remaining.len());
            allocation.tx_shards_into(graph, tx, &mut shards_scratch);
            let mu = shards_scratch.len();
            let cost = if mu > 1 { self.eta } else { 1.0 };
            self.remaining.push(mu as u32);
            self.arrival.push(self.clock);
            self.completion.push(None);
            self.cross_flag.push(mu > 1);
            for &s in &shards_scratch {
                self.queues[s as usize].push_back(QueuedWork { tx: id, cost });
            }
        }
        self.tick();
    }

    /// Drains one block's worth of capacity from every shard.
    pub fn tick(&mut self) {
        for s in 0..self.queues.len() {
            let mut budget = self.capacity_per_block;
            while budget > 0.0 {
                let Some(head) = self.queues[s].front().copied() else {
                    break;
                };
                let left = head.cost - self.progress[s];
                if left <= budget {
                    budget -= left;
                    self.progress[s] = 0.0;
                    self.queues[s].pop_front();
                    let rem = &mut self.remaining[head.tx as usize];
                    *rem -= 1;
                    if *rem == 0 {
                        self.completion[head.tx as usize] = Some(self.clock);
                    }
                } else {
                    self.progress[s] += budget;
                    budget = 0.0;
                }
            }
        }
        self.clock += 1;
    }

    /// Runs extra ticks until every queue is empty (bounded by `max_ticks`).
    pub fn drain(&mut self, max_ticks: u64) {
        let mut ticks = 0;
        while ticks < max_ticks && self.queues.iter().any(|q| !q.is_empty()) {
            self.tick();
            ticks += 1;
        }
    }

    /// Summarizes latencies. Latency of a transaction is
    /// `completion_block − arrival_block + 1` (a transaction processed in
    /// its arrival block confirms with latency 1, matching Eq. 4's floor).
    pub fn stats(&self) -> QueueStats {
        let mut latencies: Vec<f64> = Vec::new();
        let mut intra_sum = 0.0;
        let mut intra_n = 0usize;
        let mut cross_sum = 0.0;
        let mut cross_n = 0usize;
        let mut unconfirmed = 0usize;
        for tx in 0..self.remaining.len() {
            match self.completion[tx] {
                Some(done) => {
                    let latency = (done - self.arrival[tx] + 1) as f64;
                    latencies.push(latency);
                    if self.cross_flag[tx] {
                        cross_sum += latency;
                        cross_n += 1;
                    } else {
                        intra_sum += latency;
                        intra_n += 1;
                    }
                }
                None => unconfirmed += 1,
            }
        }
        #[expect(
            clippy::expect_used,
            clippy::disallowed_methods,
            reason = "confirmation heights are finite by construction; sorting bare u64-derived f64 latencies with no payload to scramble"
        )]
        latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let confirmed = latencies.len();
        let pct = |p: f64| -> f64 {
            if latencies.is_empty() {
                0.0
            } else {
                latencies[((confirmed - 1) as f64 * p) as usize]
            }
        };
        QueueStats {
            confirmed,
            unconfirmed,
            mean_latency: if confirmed == 0 {
                0.0
            } else {
                latencies.iter().sum::<f64>() / confirmed as f64
            },
            p50_latency: pct(0.5),
            p99_latency: pct(0.99),
            max_latency: latencies.last().copied().unwrap_or(0.0),
            mean_intra_latency: if intra_n == 0 {
                0.0
            } else {
                intra_sum / intra_n as f64
            },
            mean_cross_latency: if cross_n == 0 {
                0.0
            } else {
                cross_sum / cross_n as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_core::metrics::latency_of_normalized_load;
    use txallo_graph::WeightedGraph;
    use txallo_model::{AccountId, Transaction};

    fn setup(labels: Vec<u32>, k: usize, txs: Vec<Transaction>) -> (TxGraph, Allocation, Block) {
        let mut g = TxGraph::new();
        let block = Block::new(0, txs);
        g.ingest_block(&block);
        (g, Allocation::new(labels, k), block)
    }

    #[test]
    fn underloaded_shard_confirms_in_one_block() {
        let (g, alloc, block) = setup(
            vec![0, 0],
            1,
            vec![Transaction::transfer(AccountId(1), AccountId(2))],
        );
        let mut sim = ShardQueueSim::new(1, 10.0, 2.0);
        sim.step_block(&block, &g, &alloc);
        let s = sim.stats();
        assert_eq!(s.confirmed, 1);
        assert_eq!(s.mean_latency, 1.0);
    }

    #[test]
    fn batch_drain_matches_analytic_latency() {
        // One shard, 100 intra transactions arriving at once, λ = 25/block:
        // σ̂ = 4 → Eq. 4 predicts ζ = (4+1)/2 = 2.5.
        let txs: Vec<Transaction> = (0..100)
            .map(|i| Transaction::transfer(AccountId(2 * i), AccountId(2 * i + 1)))
            .collect();
        let labels = vec![0u32; 200];
        let (g, alloc, block) = setup(labels, 1, txs);
        let mut sim = ShardQueueSim::new(1, 25.0, 2.0);
        sim.step_block(&block, &g, &alloc);
        sim.drain(100);
        let s = sim.stats();
        assert_eq!(s.confirmed, 100);
        let predicted = latency_of_normalized_load(4.0);
        assert!(
            (s.mean_latency - predicted).abs() < 0.2,
            "measured {} vs analytic {predicted}",
            s.mean_latency
        );
        assert_eq!(s.max_latency, 4.0, "backlog drains in ⌈σ̂⌉ blocks");
    }

    #[test]
    fn cross_shard_barrier_delays_confirmation() {
        // Two shards; shard 1 is congested by intra traffic, so the
        // cross-shard transaction (processed instantly by shard 0) must
        // wait for shard 1 — the barrier the analytic model folds into η.
        let mut txs = vec![Transaction::transfer(AccountId(0), AccountId(100))]; // cross
        for i in 0..50 {
            txs.push(Transaction::transfer(
                AccountId(100 + 2 * i + 1),
                AccountId(100 + 2 * i + 2),
            ));
        }
        let mut g = TxGraph::new();
        let block = Block::new(0, txs);
        g.ingest_block(&block);
        // Account 0 → shard 0; all 1xx accounts → shard 1.
        let labels: Vec<u32> = (0..g.node_count() as u32)
            .map(|v| if g.account(v).0 == 0 { 0 } else { 1 })
            .collect();
        let alloc = Allocation::new(labels, 2);
        let mut sim = ShardQueueSim::new(2, 10.0, 2.0);
        sim.step_block(&block, &g, &alloc);
        sim.drain(100);
        let s = sim.stats();
        assert_eq!(s.unconfirmed, 0);
        assert!(
            s.mean_cross_latency >= 1.0 && s.confirmed == 51,
            "cross tx must confirm after the barrier"
        );
    }

    #[test]
    fn eta_charges_more_work_for_cross_transactions() {
        // Same traffic, higher η → longer drain.
        let txs: Vec<Transaction> = (0..20)
            .map(|i| Transaction::transfer(AccountId(i), AccountId(100 + i)))
            .collect();
        let mut g = TxGraph::new();
        let block = Block::new(0, txs);
        g.ingest_block(&block);
        let labels: Vec<u32> = (0..g.node_count() as u32)
            .map(|v| if g.account(v).0 < 100 { 0 } else { 1 })
            .collect();
        let run = |eta: f64| {
            let mut sim = ShardQueueSim::new(2, 5.0, eta);
            sim.step_block(&block, &g, &Allocation::new(labels.clone(), 2));
            sim.drain(1000);
            sim.stats().mean_latency
        };
        assert!(
            run(6.0) > run(2.0),
            "higher η must increase measured latency"
        );
    }

    #[test]
    fn steady_state_low_load_keeps_latency_at_one() {
        // λ = 20/block, 10 intra tx per block: the queue never backs up.
        let mut g = TxGraph::new();
        let mut sim = ShardQueueSim::new(1, 20.0, 2.0);
        for h in 0..20u64 {
            let txs: Vec<Transaction> = (0..10)
                .map(|i| {
                    Transaction::transfer(
                        AccountId(h * 100 + 2 * i),
                        AccountId(h * 100 + 2 * i + 1),
                    )
                })
                .collect();
            let block = Block::new(h, txs);
            g.ingest_block(&block);
            let alloc = Allocation::new(vec![0; g.node_count()], 1);
            sim.step_block(&block, &g, &alloc);
        }
        sim.drain(10);
        let s = sim.stats();
        assert_eq!(s.unconfirmed, 0);
        assert!((s.mean_latency - 1.0).abs() < 1e-9, "no queueing at ½ load");
    }
}
