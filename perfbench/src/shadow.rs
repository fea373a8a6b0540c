//! Pure shadow calls that split an epoch close into its layers. Each runs
//! on the stream's own inputs at the boundary; one whose output disagrees
//! with what the stream produced is dropped, not reported.

use std::time::Duration;

use txallo_core::{
    AllocationUpdate, GTxAllo, GTxAlloPlan, MetisAllocator, TxAlloParams, UpdatePath,
};
use txallo_graph::{DeltaCsr, TxGraph};

use crate::measure::{timed, Spans};

/// Kept shadow spans and the work counters they observed.
#[derive(Debug, Default, Clone)]
pub struct Shadows {
    /// `graph.snapshot`, `gtxallo.plan`, `gtxallo.optimize`, `metis.partition`.
    pub spans: Spans,
    /// Shadow calls whose output disagreed with the stream's.
    pub dropped: u64,
    /// Adaptive closes split by a kept snapshot shadow: Σ close, count.
    pub split_close_s: f64,
    pub split_epochs: u64,
    pub snapshot_entries: u64,
    /// Global closes split by a kept G-TxAllo shadow, and its counters.
    pub planned_epochs: u64,
    pub louvain_levels: u64,
    pub louvain_communities: u64,
    pub gtxallo_sweeps: u64,
    pub gtxallo_moves: u64,
    pub metis_epochs: u64,
    /// Reused across epochs, as `AtxAlloSession` reuses its own.
    snapshot: DeltaCsr,
}

impl Shadows {
    /// The snapshot route the adaptive close took, on its touched set
    /// (ascending, deduplicated). Kept when every account the close moved
    /// or placed sits in the snapshot.
    pub fn snapshot(
        &mut self,
        graph: &TxGraph,
        touched: &[u32],
        update: &AllocationUpdate,
        close: Duration,
    ) {
        let snap = &mut self.snapshot;
        let (_, d) = timed(|| match update.path {
            Some(UpdatePath::Full) => snap.refill_full(graph, touched),
            _ => snap.refill_touched(graph, touched),
        });
        let agrees = snap.len() == touched.len()
            && update.moves.iter().all(|m| snap.local_of(m.node).is_some());
        if !agrees {
            self.dropped += 1;
            return;
        }
        self.spans.add("graph.snapshot", d);
        self.split_close_s += close.as_secs_f64();
        self.split_epochs += 1;
        self.snapshot_entries += u64::from(snap.offsets().last().copied().unwrap_or(0));
    }

    /// G-TxAllo on a global close: the plan (canonical CSR + Louvain), then
    /// the optimization sweeps. Kept when it reproduces `served`.
    pub fn gtxallo(&mut self, graph: &TxGraph, params: &TxAlloParams, served: &[u32]) {
        let (plan, plan_d) = timed(|| GTxAlloPlan::new(graph, &params.louvain));
        let (outcome, opt_d) = timed(|| GTxAllo::new(params.clone()).allocate_planned(&plan));
        if outcome.allocation.labels() != served {
            self.dropped += 1;
            return;
        }
        self.spans.add("gtxallo.plan", plan_d);
        self.spans.add("gtxallo.optimize", opt_d);
        self.planned_epochs += 1;
        self.louvain_levels += plan.init().levels as u64;
        self.louvain_communities += plan.init().community_count as u64;
        self.gtxallo_sweeps += outcome.sweeps as u64;
        self.gtxallo_moves += outcome.moves as u64;
    }

    /// METIS re-partition on a global close. Kept when it reproduces
    /// `served`.
    pub fn metis(&mut self, graph: &TxGraph, shards: usize, served: &[u32]) {
        let (fresh, d) = timed(|| MetisAllocator::new(shards).allocate_graph(graph));
        if fresh.labels() != served {
            self.dropped += 1;
            return;
        }
        self.spans.add("metis.partition", d);
        self.metis_epochs += 1;
    }
}
