//! The streaming allocation service API (§V-C).
//!
//! The paper's operational claim is that allocation is a *service* a
//! sharded chain consults every epoch, not a one-shot batch call. This
//! module is that service's contract: a [`StreamingAllocator`] is opened
//! once on the warm-up history ([`StreamingAllocator::begin`]), observes
//! every freshly committed block
//! ([`StreamingAllocator::on_block_nodes`]), and at each epoch boundary
//! emits an [`AllocationUpdate`] — the *diff* of moved accounts
//! ([`StreamingAllocator::end_epoch`]) — so consumers can account
//! migration cost instead of relabelling wholesale.
//!
//! Three implementations cover the paper's §VI comparison end to end:
//!
//! * [`HybridStream`] — TxAllo serving under a [`HybridSchedule`]:
//!   G-TxAllo every `τ₂` epochs, A-TxAllo otherwise, where a long-lived
//!   [`AtxAlloSession`] carries the community aggregates across epochs
//!   (the delta-CSR fast path stays the engine; this type only owns the
//!   schedule, the session lifecycle and the diffing). `AlwaysGlobal`
//!   and `AlwaysAdaptive` are the two ends of the same schedule.
//! * [`GlobalStream`] — a batch solver re-run at every epoch boundary
//!   (hash or METIS, a [`BatchSolver`]).
//! * [`SchedulerStream`] — the transaction-level Shard Scheduler baseline,
//!   which is *naturally* streaming (it decides per incoming transaction).
//!
//! Consumers resolve implementations by name through the
//! [`AllocatorRegistry`](crate::AllocatorRegistry) instead of constructing
//! algorithms directly.
//!
//! ## Epoch-loop contract
//!
//! For each epoch: ingest a block with [`TxGraph::ingest_block_nodes`],
//! *then* hand the block and its interned view to `on_block_nodes`; at
//! the boundary call `end_epoch` and fold the returned diff into your
//! [`Allocation`] with [`Allocation::apply_update`]. Out-of-band uniform
//! reweighting (decay) must be announced through
//! [`StreamingAllocator::on_reweight`] *before* the epoch's blocks are
//! ingested.
//!
//! ```
//! use txallo_core::{AllocatorRegistry, EpochKind, HybridSchedule, TxAlloParams};
//! use txallo_graph::TxGraph;
//! use txallo_model::{AccountId, Block, Transaction};
//!
//! // Warm-up history: two 3-account cliques.
//! let mut graph = TxGraph::new();
//! for base in [0u64, 10] {
//!     for (i, j) in [(0, 1), (1, 2), (0, 2)] {
//!         graph.ingest_transaction(&Transaction::transfer(
//!             AccountId(base + i),
//!             AccountId(base + j),
//!         ));
//!     }
//! }
//!
//! let registry = AllocatorRegistry::builtin();
//! let params = TxAlloParams::for_graph(&graph, 2);
//! let mut stream = registry
//!     .streaming("txallo", &params, HybridSchedule::AlwaysAdaptive)
//!     .unwrap();
//! let mut allocation = stream.begin(&graph, &params);
//!
//! // One served epoch: ingest, observe, close, apply the diff.
//! let block = Block::new(0, vec![Transaction::transfer(AccountId(100), AccountId(0))]);
//! let nodes = graph.ingest_block_nodes(&block);
//! stream.on_block_nodes(&graph, &block, &nodes);
//! let update = stream.end_epoch(&graph, EpochKind::Scheduled);
//! allocation.apply_update(&update);
//!
//! assert_eq!(allocation.len(), 7, "the new account is labelled");
//! assert_eq!(update.placements(), 1);
//! assert_eq!(allocation.labels(), stream.allocation().labels());
//! ```

use txallo_graph::{fit_u32, BlockNodes, NodeId, TxGraph, WeightedGraph};
use txallo_model::{Block, ShardId};

use crate::allocation::Allocation;
use crate::atxallo::UpdatePath;
use crate::checkpoint::CommunityAggregates;
use crate::gtxallo::GTxAllo;
use crate::hash_alloc::HashAllocator;
use crate::metis_alloc::MetisAllocator;
use crate::params::TxAlloParams;
use crate::scheduler::SchedulerState;
use crate::session::AtxAlloSession;
use crate::state::{CommunityState, UNASSIGNED};

/// Which algorithm class produced an epoch's [`AllocationUpdate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// A full re-solve over the whole accumulated graph.
    Global,
    /// An incremental update from the previous mapping.
    Adaptive,
}

/// The driver's request for how to close an epoch
/// ([`StreamingAllocator::end_epoch`]): every stream follows its own
/// policy (e.g. [`HybridStream`]'s schedule), and the returned
/// [`AllocationUpdate::kind`] reports what actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// Follow the stream's own policy.
    Scheduled,
}

/// How a stream's incremental serving state crossed an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateCarry {
    /// The stream keeps no serving state (batch re-solve per epoch).
    Stateless,
    /// Fresh state was built this epoch (cold start, or a global re-solve
    /// replaced the labels wholesale).
    Rebuilt,
    /// Aggregates carried over from the previous epoch unchanged.
    Warm,
    /// Aggregates carried across an out-of-band uniform reweighting
    /// (decay) by exact linear rescaling — see
    /// [`AtxAlloSession::apply_decay`].
    WarmRescaled,
}

/// How far down the recovery ladder a serving pipeline has stepped.
///
/// Ordered from healthy to worst: each rung trades allocation quality for
/// the guarantee that epochs keep closing. Consumers (the chain service,
/// the simulator's epoch reports) surface the rung so degradation is
/// *visible*, never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Degradation {
    /// Serving normally from warm state.
    None,
    /// The health check found diverged aggregates; the warm session was
    /// dropped and rebuilt from its labels at the boundary
    /// ([`StateCarry::Rebuilt`]).
    Invalidated,
    /// Final rung: the stream was replaced by deterministic hash
    /// allocation — allocation quality is sacrificed, epochs still close.
    HashFallback,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Degradation::None => "none",
            Degradation::Invalidated => "invalidated",
            Degradation::HashFallback => "hash-fallback",
        })
    }
}

/// One account changing shard (or being placed for the first time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountMove {
    /// The moved graph node.
    pub node: NodeId,
    /// Previous shard; `None` for a brand-new account's first placement.
    pub from: Option<ShardId>,
    /// New shard.
    pub to: ShardId,
}

/// The diff an epoch's allocation update produced: which accounts moved
/// where, plus enough metadata to validate and apply it
/// ([`Allocation::apply_update`]).
///
/// Carrying the diff — rather than a full relabel — is what lets
/// consumers charge *migration cost*: the simulator surfaces the move
/// count in its epoch metrics, and the chain engine routes each migration
/// through the cross-shard Atomix protocol.
#[derive(Debug, Clone)]
pub struct AllocationUpdate {
    /// Number of shards `k` (must match the allocation the diff applies to).
    pub shard_count: usize,
    /// Node count the post-update allocation covers (the diff may extend
    /// the allocation with freshly placed accounts).
    pub len: usize,
    /// Which algorithm class ran.
    pub kind: UpdateKind,
    /// `Some(UpdatePath::Incremental)` on an adaptive close, `None`
    /// otherwise. A-TxAllo has one snapshot route, so this says nothing
    /// that [`AllocationUpdate::kind`] does not; it is kept only because
    /// the frozen benchmark harness (`perfbench/`) still reads it.
    pub path: Option<UpdatePath>,
    /// How the stream's serving state crossed this boundary.
    pub carry: StateCarry,
    /// The account moves, in ascending node order.
    pub moves: Vec<AccountMove>,
}

impl AllocationUpdate {
    /// Accounts that migrated between shards (previous shard known and
    /// different) — the moves that cost a cross-shard state transfer.
    pub fn migrations(&self) -> usize {
        self.moves
            .iter()
            .filter(|m| m.from.is_some_and(|f| f != m.to))
            .count()
    }

    /// Brand-new accounts placed for the first time (no previous shard).
    pub fn placements(&self) -> usize {
        self.moves.iter().filter(|m| m.from.is_none()).count()
    }
}

/// When a hybrid allocation service runs the global algorithm instead of
/// the adaptive one.
///
/// The paper's Fig. 9 compares `τ₂/τ₁ ∈ {20, 40, 100, 200}` against
/// running G-TxAllo every epoch. [`HybridStream`] consumes this policy
/// directly; the simulator's configuration re-exports it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridSchedule {
    /// Run G-TxAllo every epoch ("Global Method" curve).
    AlwaysGlobal,
    /// Run A-TxAllo every epoch and G-TxAllo every `global_gap` epochs
    /// (epoch 0 is adaptive — warm-up already provided a global mapping).
    Hybrid {
        /// Global refresh period in epochs (`τ₂/τ₁`).
        global_gap: u64,
    },
    /// Never re-run the global algorithm after warm-up ("pure A-TxAllo").
    AlwaysAdaptive,
}

impl HybridSchedule {
    /// Whether epoch `epoch` (0-based, counted from the end of warm-up)
    /// should run the global algorithm.
    pub fn is_global_epoch(&self, epoch: u64) -> bool {
        match *self {
            HybridSchedule::AlwaysGlobal => true,
            HybridSchedule::Hybrid { global_gap } => {
                let gap = global_gap.max(1);
                epoch > 0 && epoch.is_multiple_of(gap)
            }
            HybridSchedule::AlwaysAdaptive => false,
        }
    }
}

/// An epoch-driven allocation service (see the [module docs](self) for the
/// call protocol).
pub trait StreamingAllocator: std::fmt::Debug {
    /// Opens the service on the warm-up graph, returning the initial
    /// account-shard mapping (the paper's one-off global run).
    fn begin(&mut self, graph: &TxGraph, params: &TxAlloParams) -> Allocation;

    /// Observes one freshly committed block. Call *after*
    /// [`TxGraph::ingest_block_nodes`] for the same block, with the
    /// interned view it returned: stateful streams, the transaction-level
    /// scheduler included, reuse the dense node ids ingestion already
    /// resolved instead of re-hashing every `AccountId`.
    fn on_block_nodes(&mut self, graph: &TxGraph, block: &Block, nodes: &BlockNodes);

    /// Announces an out-of-band uniform rescale of every edge weight by
    /// `factor` (exponential decay). Stateful implementations must either
    /// rescale their aggregates to match or rebuild them; the default
    /// no-op is correct only for streams that re-derive everything from
    /// the graph each epoch.
    fn on_reweight(&mut self, factor: f64) {
        let _ = factor;
    }

    /// Closes the epoch: updates the mapping and returns the diff of
    /// moved accounts.
    fn end_epoch(&mut self, graph: &TxGraph, kind: EpochKind) -> AllocationUpdate;

    /// The current full account-shard mapping (equal to folding every
    /// emitted [`AllocationUpdate`] into the [`begin`] allocation — the
    /// conformance suite asserts exactly that).
    ///
    /// [`begin`]: StreamingAllocator::begin
    fn allocation(&self) -> Allocation;

    /// The community aggregates of a warm session, for a boundary
    /// checkpoint: the one serving state the restored graph and labels
    /// cannot rebuild bit-for-bit. `None` — the default — for streams that
    /// hold none.
    fn export_aggregates(&self) -> Option<CommunityAggregates> {
        None
    }

    /// Adopts checkpointed boundary state: `epoch` closes since warm-up,
    /// the served `allocation` (one label per node of the restored graph,
    /// under the stream's shard count) and a warm session's `aggregates`.
    /// Returns the carry the resumed stream starts from —
    /// [`StateCarry::Warm`] when the aggregates survived bit-for-bit,
    /// [`StateCarry::Rebuilt`] when only the labels did — or `None` (the
    /// default) when the stream cannot adopt this state and the consumer
    /// must cold-[`begin`](StreamingAllocator::begin).
    fn import_state(
        &mut self,
        epoch: u64,
        allocation: &Allocation,
        aggregates: Option<CommunityAggregates>,
    ) -> Option<StateCarry> {
        let _ = (epoch, allocation, aggregates);
        None
    }

    /// Audits the stream's maintained aggregates against a from-scratch
    /// recomputation over `graph`, returning the maximum absolute
    /// divergence — the health signal the degradation ladder keys on.
    /// `None` (the default) for streams with no maintained aggregates to
    /// diverge.
    fn consistency_error(&self, graph: &TxGraph) -> Option<f64> {
        let _ = graph;
        None
    }

    /// Drops warm serving state while keeping the labels, forcing a
    /// rebuild at the next epoch boundary. Returns whether any warm state
    /// was actually dropped (the default no-op returns `false`).
    fn invalidate_state(&mut self) -> bool {
        false
    }

    /// Approximate resident bytes of the allocator's own state (session
    /// aggregates, snapshot buffers, scratch) — the allocator-side half of
    /// the memory accounting, alongside
    /// [`TxGraph::memory_footprint`](txallo_graph::TxGraph). Diagnostics
    /// only; the default reports `0` for stateless allocators.
    fn state_bytes(&self) -> usize {
        0
    }
}

/// Diffs two label vectors (`old` may be shorter — missing entries are
/// fresh placements), in ascending node order.
fn diff_full(old: &[u32], new: &[u32]) -> Vec<AccountMove> {
    let mut moves = Vec::new();
    for (i, &to) in new.iter().enumerate() {
        let from = old.get(i).copied().unwrap_or(UNASSIGNED);
        if from != to {
            moves.push(AccountMove {
                node: fit_u32(i),
                from: (from != UNASSIGNED).then_some(ShardId(from)),
                to: ShardId(to),
            });
        }
    }
    moves
}

// ---------------------------------------------------------------------------
// HybridStream
// ---------------------------------------------------------------------------

/// TxAllo as a service (§V-C): G-TxAllo every `τ₂` epochs per the
/// [`HybridSchedule`], A-TxAllo otherwise. A long-lived [`AtxAlloSession`]
/// carries the community aggregates across adaptive epochs, and each
/// adaptive boundary emits the diff of the touched nodes only (`O(|V̂|)` —
/// never a full-graph walk).
///
/// Lifecycle rules:
///
/// * [`begin`](StreamingAllocator::begin) pays one global G-TxAllo run and
///   opens the session on its labels;
/// * decay is *folded* into the session by exact linear rescaling
///   ([`AtxAlloSession::apply_decay`]) — the session survives, reported as
///   [`StateCarry::WarmRescaled`];
/// * a scheduled global re-solve replaces the labels wholesale, so the
///   session is rebuilt from the new mapping — reported as
///   [`StateCarry::Rebuilt`]. Its epoch's blocks are not folded into the
///   session, which the re-solve replaces anyway;
/// * [`invalidate_state`](StreamingAllocator::invalidate_state) (after a
///   failed audit) drops the session and keeps its labels; the next
///   boundary rebuilds the aggregates from the graph
///   ([`StateCarry::Rebuilt`]).
#[derive(Debug, Clone)]
pub struct HybridStream {
    params: TxAlloParams,
    schedule: HybridSchedule,
    /// Epochs closed since [`begin`](StreamingAllocator::begin): the
    /// schedule's phase.
    epoch: u64,
    /// What the stream serves from; `None` until
    /// [`begin`](StreamingAllocator::begin) or a successful
    /// [`import_state`](StreamingAllocator::import_state).
    served: Option<Served>,
    /// Each block's touched nodes this epoch, appended; sorted and
    /// deduplicated at the adaptive close.
    touched: Vec<NodeId>,
    rescaled_this_epoch: bool,
}

/// The state a begun [`HybridStream`] serves from.
#[derive(Debug, Clone)]
enum Served {
    /// A warm session: the labels and their community aggregates.
    Warm(Box<AtxAlloSession>),
    /// Labels only, after an invalidation or a labels-only import: the
    /// next adaptive boundary rebuilds the aggregates from the graph.
    Labels(Allocation),
}

impl Served {
    /// The served labels.
    fn labels(&self) -> &[u32] {
        match self {
            Self::Warm(session) => session.labels(),
            Self::Labels(allocation) => allocation.labels(),
        }
    }
}

impl HybridStream {
    /// Creates the stream with the given refresh policy;
    /// [`begin`](StreamingAllocator::begin) must run before epochs are
    /// served.
    pub fn new(params: TxAlloParams, schedule: HybridSchedule) -> Self {
        Self {
            params,
            schedule,
            epoch: 0,
            served: None,
            touched: Vec::new(),
            rescaled_this_epoch: false,
        }
    }

    /// Whether the open epoch closes with a global re-solve.
    fn global_now(&self) -> bool {
        self.schedule.is_global_epoch(self.epoch)
    }

    /// The adaptive epoch path: warm the served state into a session,
    /// sweep `V̂`, diff the touched rows. Returns the update and the
    /// session to serve from next.
    fn adaptive_epoch(
        &mut self,
        served: Served,
        graph: &TxGraph,
        params: &TxAlloParams,
    ) -> (AllocationUpdate, Box<AtxAlloSession>) {
        let (mut session, carry) = match served {
            Served::Warm(session) if self.rescaled_this_epoch => {
                (session, StateCarry::WarmRescaled)
            }
            Served::Warm(session) => (session, StateCarry::Warm),
            Served::Labels(prev) => (
                Box::new(AtxAlloSession::new(graph, &prev, params)),
                StateCarry::Rebuilt,
            ),
        };
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        // Only snapshot rows (touched ∪ new) can move, so diffing the
        // touched set is complete — and keeps the boundary `O(|V̂|)`.
        let before: Vec<u32> = touched
            .iter()
            .map(|&v| {
                session
                    .labels()
                    .get(v as usize)
                    .copied()
                    .unwrap_or(UNASSIGNED)
            })
            .collect();
        session.update(graph, &touched, params);
        let after = session.labels();
        let mut moves = Vec::new();
        for (&v, &old) in touched.iter().zip(&before) {
            let new = after[v as usize];
            if new != old {
                moves.push(AccountMove {
                    node: v,
                    from: (old != UNASSIGNED).then_some(ShardId(old)),
                    to: ShardId(new),
                });
            }
        }
        let update = AllocationUpdate {
            shard_count: params.shards,
            len: graph.node_count(),
            kind: UpdateKind::Adaptive,
            path: Some(UpdatePath::Incremental),
            carry,
            moves,
        };
        (update, session)
    }

    /// The global path: re-solve with G-TxAllo, diff everything against
    /// the `old` labels. Returns the update and the session rebuilt from
    /// the fresh labels.
    fn global_epoch(
        &mut self,
        old: &[u32],
        graph: &TxGraph,
        params: &TxAlloParams,
    ) -> (AllocationUpdate, Box<AtxAlloSession>) {
        let fresh = GTxAllo::new(params.clone()).allocate_graph(graph);
        let moves = diff_full(old, fresh.labels());
        self.touched.clear();
        let update = AllocationUpdate {
            shard_count: params.shards,
            len: graph.node_count(),
            kind: UpdateKind::Global,
            path: None,
            carry: StateCarry::Rebuilt,
            moves,
        };
        (update, Box::new(AtxAlloSession::new(graph, &fresh, params)))
    }
}

impl StreamingAllocator for HybridStream {
    fn begin(&mut self, graph: &TxGraph, params: &TxAlloParams) -> Allocation {
        self.params = params.clone();
        let initial = GTxAllo::new(params.clone()).allocate_graph(graph);
        let session = AtxAlloSession::new(graph, &initial, params);
        self.served = Some(Served::Warm(Box::new(session)));
        self.touched.clear();
        self.epoch = 0;
        self.rescaled_this_epoch = false;
        initial
    }

    fn on_block_nodes(&mut self, _graph: &TxGraph, _block: &Block, nodes: &BlockNodes) {
        assert!(self.served.is_some(), "call begin() before serving blocks");
        // A global boundary replaces labels and session wholesale, so
        // folding this epoch's deltas would be wasted work; the touched
        // set is not needed either.
        if self.global_now() {
            return;
        }
        // The touched ids and every transaction's dense node set come
        // straight from ingestion — no account re-hashing at all.
        self.touched.extend_from_slice(nodes.touched());
        // A warm session folds the block's clique-expansion deltas into
        // its aggregates; an invalidated one rebuilds from the
        // post-ingestion graph at the boundary, where the deltas are
        // already counted.
        if let Some(Served::Warm(session)) = self.served.as_mut() {
            session.apply_block_nodes(nodes);
        }
    }

    fn on_reweight(&mut self, factor: f64) {
        if self.global_now() {
            return;
        }
        if let Some(Served::Warm(session)) = self.served.as_mut() {
            session.apply_decay(factor);
            self.rescaled_this_epoch = true;
        }
    }

    fn end_epoch(&mut self, graph: &TxGraph, _kind: EpochKind) -> AllocationUpdate {
        let Some(served) = self.served.take() else {
            panic!("call begin() before closing epochs");
        };
        self.params = self.params.rescaled_for_graph(graph);
        let params = self.params.clone();
        let (update, session) = if self.global_now() {
            self.global_epoch(served.labels(), graph, &params)
        } else {
            self.adaptive_epoch(served, graph, &params)
        };
        self.served = Some(Served::Warm(session));
        self.epoch += 1;
        self.rescaled_this_epoch = false;
        update
    }

    fn allocation(&self) -> Allocation {
        match &self.served {
            Some(Served::Warm(session)) => session.allocation(),
            Some(Served::Labels(allocation)) => allocation.clone(),
            None => panic!("call begin() before reading the allocation"),
        }
    }

    fn export_aggregates(&self) -> Option<CommunityAggregates> {
        let Some(Served::Warm(session)) = &self.served else {
            return None;
        };
        let (state, shards) = (session.state(), self.params.shards as u32);
        Some(CommunityAggregates {
            intra: (0..shards).map(|c| state.intra(c)).collect(),
            cut: (0..shards).map(|c| state.cut(c)).collect(),
            eta: state.eta(),
            capacity: state.capacity(),
        })
    }

    fn import_state(
        &mut self,
        epoch: u64,
        allocation: &Allocation,
        aggregates: Option<CommunityAggregates>,
    ) -> Option<StateCarry> {
        self.touched.clear();
        // The epoch counter is what phases the schedule's global
        // refreshes; restoring it keeps them on the same absolute epochs
        // as the uninterrupted run.
        self.epoch = epoch;
        self.rescaled_this_epoch = false;
        let (served, carry) = match aggregates {
            Some(agg) => {
                // The warm path: adopt the checkpointed accumulations
                // bit-for-bit; the session resumes exactly where the
                // uninterrupted one would be.
                let state = CommunityState::from_raw(agg.intra, agg.cut, agg.eta, agg.capacity);
                let labels = allocation.labels().to_vec();
                let session = AtxAlloSession::from_parts(allocation.shard_count(), labels, state);
                (Served::Warm(Box::new(session)), StateCarry::Warm)
            }
            // Labels-only state: serve from the labels and rebuild the
            // aggregates at the next boundary — a degraded but sound
            // resume.
            None => (Served::Labels(allocation.clone()), StateCarry::Rebuilt),
        };
        self.served = Some(served);
        Some(carry)
    }

    fn consistency_error(&self, graph: &TxGraph) -> Option<f64> {
        match &self.served {
            Some(Served::Warm(session)) => Some(session.consistency_error(graph)),
            _ => None,
        }
    }

    fn invalidate_state(&mut self) -> bool {
        let Some(Served::Warm(session)) = &self.served else {
            return false;
        };
        self.served = Some(Served::Labels(session.allocation()));
        true
    }

    fn state_bytes(&self) -> usize {
        let served = match &self.served {
            Some(Served::Warm(session)) => session.approx_bytes(),
            Some(Served::Labels(allocation)) => std::mem::size_of_val(allocation.labels()),
            None => 0,
        };
        served + self.touched.capacity() * std::mem::size_of::<NodeId>()
    }
}

// ---------------------------------------------------------------------------
// GlobalStream
// ---------------------------------------------------------------------------

/// The batch solver a [`GlobalStream`] re-runs each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSolver {
    /// Hash-based random allocation ([`HashAllocator`]).
    Hash,
    /// The METIS graph partitioner ([`MetisAllocator`]).
    Metis,
}

/// A batch allocator served epoch-wise: re-solve on the whole accumulated
/// graph at every boundary and emit the diff against the previous labels.
///
/// This is how the stateless baselines (hash, METIS) join the
/// epoch-driven comparison; Fig. 9's "Global Method" curve is
/// [`HybridStream`] under [`HybridSchedule::AlwaysGlobal`].
#[derive(Debug)]
pub struct GlobalStream {
    solver: BatchSolver,
    params: TxAlloParams,
    labels: Vec<u32>,
    began: bool,
}

impl GlobalStream {
    /// Creates the stream around `solver` (re-run with per-epoch rescaled
    /// parameters).
    pub fn new(params: TxAlloParams, solver: BatchSolver) -> Self {
        Self {
            solver,
            params,
            labels: Vec::new(),
            began: false,
        }
    }

    fn solve(&mut self, graph: &TxGraph) -> Allocation {
        let shards = self.params.shards;
        let allocation = match self.solver {
            BatchSolver::Hash => HashAllocator::new(shards).allocate_graph(graph),
            BatchSolver::Metis => MetisAllocator::new(shards).allocate_graph(graph),
        };
        assert_eq!(
            allocation.len(),
            graph.node_count(),
            "batch solver must label every node"
        );
        self.labels.clear();
        self.labels.extend_from_slice(allocation.labels());
        allocation
    }
}

impl StreamingAllocator for GlobalStream {
    fn begin(&mut self, graph: &TxGraph, params: &TxAlloParams) -> Allocation {
        self.params = params.clone();
        self.began = true;
        self.solve(graph)
    }

    fn on_block_nodes(&mut self, _graph: &TxGraph, _block: &Block, _nodes: &BlockNodes) {
        // Stateless: everything is re-derived from the graph at the
        // boundary.
    }

    fn end_epoch(&mut self, graph: &TxGraph, _kind: EpochKind) -> AllocationUpdate {
        assert!(self.began, "call begin() before closing epochs");
        self.params = self.params.rescaled_for_graph(graph);
        let old = std::mem::take(&mut self.labels);
        let fresh = self.solve(graph);
        AllocationUpdate {
            shard_count: self.params.shards,
            len: fresh.len(),
            kind: UpdateKind::Global,
            path: None,
            carry: StateCarry::Stateless,
            moves: diff_full(&old, fresh.labels()),
        }
    }

    fn allocation(&self) -> Allocation {
        assert!(self.began, "call begin() before reading the allocation");
        Allocation::new(self.labels.clone(), self.params.shards)
    }

    fn import_state(
        &mut self,
        _epoch: u64,
        allocation: &Allocation,
        _aggregates: Option<CommunityAggregates>,
    ) -> Option<StateCarry> {
        // A batch stream's only serving state is its published labels —
        // everything else is re-derived from the graph at each boundary.
        self.labels = allocation.labels().to_vec();
        self.began = true;
        Some(StateCarry::Stateless)
    }

    fn state_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------------
// SchedulerStream
// ---------------------------------------------------------------------------

/// The Shard Scheduler baseline served epoch-wise. The scheduler is
/// transaction-level by design, so streaming is its native mode:
/// [`on_block_nodes`](StreamingAllocator::on_block_nodes) runs the
/// published decision rules on every transaction of the block as it
/// arrives.
///
/// [`begin`](StreamingAllocator::begin) has no transaction history (only
/// the warm-up *graph*), so it warm-starts with a deterministic
/// approximation: accounts are placed greedily into the least-loaded
/// shard in node-id order — which is first-appearance order, i.e. the
/// order rule 1 would have seen them — weighted by their incident graph
/// weight, and historical affinities are seeded from the placed adjacency.
#[derive(Debug)]
pub struct SchedulerStream {
    state: Option<SchedulerState>,
    published: Vec<u32>,
    shards: usize,
}

impl SchedulerStream {
    /// Creates the stream; [`begin`](StreamingAllocator::begin) must run
    /// before epochs are served.
    pub fn new() -> Self {
        Self {
            state: None,
            published: Vec::new(),
            shards: 0,
        }
    }
}

impl Default for SchedulerStream {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingAllocator for SchedulerStream {
    fn begin(&mut self, graph: &TxGraph, params: &TxAlloParams) -> Allocation {
        let mut state = SchedulerState::new(params);
        state.seed_from_graph(graph);
        self.shards = params.shards;
        self.published = state.labels().to_vec();
        let allocation = Allocation::new(self.published.clone(), self.shards);
        self.state = Some(state);
        allocation
    }

    fn on_block_nodes(&mut self, graph: &TxGraph, _block: &Block, nodes: &BlockNodes) {
        // Ingestion already interned each transaction's account set: the
        // rules run on those node ids, with no lookup or allocation.
        #[expect(
            clippy::expect_used,
            reason = "documented trait contract: begin() runs before on_block_nodes/end_epoch"
        )]
        let state = self.state.as_mut().expect("call begin() first");
        state.ensure_nodes(graph.node_count());
        for i in 0..nodes.tx_count() {
            state.process_nodes(nodes.tx_nodes(i));
        }
    }

    fn on_reweight(&mut self, factor: f64) {
        // The scheduler's loads and affinities are accrued from the same
        // history the decay rescales; scale them to match, or the
        // per-epoch capacity refresh (from the decayed `|T|`) would be
        // compared against undecayed loads.
        if let Some(state) = self.state.as_mut() {
            state.scale_history(factor);
        }
    }

    fn end_epoch(&mut self, graph: &TxGraph, _kind: EpochKind) -> AllocationUpdate {
        #[expect(
            clippy::expect_used,
            reason = "documented trait contract: begin() runs before on_block_nodes/end_epoch"
        )]
        let state = self.state.as_mut().expect("call begin() first");
        // λ = |T|/k grows with the accumulated history; refresh the
        // migration capacity buffer once per epoch, like the other
        // streams refresh their parameters.
        state.set_capacity(graph.total_weight() / self.shards as f64);
        state.ensure_nodes(graph.node_count());
        let moves = diff_full(&self.published, state.labels());
        self.published.clear();
        self.published.extend_from_slice(state.labels());
        AllocationUpdate {
            shard_count: self.shards,
            len: self.published.len(),
            kind: UpdateKind::Adaptive,
            path: None,
            carry: StateCarry::Warm,
            moves,
        }
    }

    fn allocation(&self) -> Allocation {
        assert!(self.state.is_some(), "call begin() first");
        Allocation::new(self.published.clone(), self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_model::{AccountId, Transaction};

    fn clique_graph() -> TxGraph {
        let mut g = TxGraph::new();
        for base in [0u64, 10] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        g
    }

    fn epoch_block(h: u64, pairs: &[(u64, u64)]) -> Block {
        Block::new(
            h,
            pairs
                .iter()
                .map(|&(a, b)| Transaction::transfer(AccountId(a), AccountId(b)))
                .collect(),
        )
    }

    /// Ingests `block` into `g` and hands its interned view to `stream`.
    fn feed(g: &mut TxGraph, stream: &mut impl StreamingAllocator, block: &Block) {
        let nodes = g.ingest_block_nodes(block);
        stream.on_block_nodes(g, block, &nodes);
    }

    #[test]
    fn hybrid_schedule_fires_like_the_paper() {
        let s = HybridSchedule::Hybrid { global_gap: 20 };
        assert!(!s.is_global_epoch(0), "warm-up provided the mapping");
        assert!(!s.is_global_epoch(19));
        assert!(s.is_global_epoch(20));
        assert!(!s.is_global_epoch(21));
        assert!(s.is_global_epoch(40));
        assert!((0..5).all(|e| HybridSchedule::AlwaysGlobal.is_global_epoch(e)));
        assert!((0..100).all(|e| !HybridSchedule::AlwaysAdaptive.is_global_epoch(e)));
        let clamped = HybridSchedule::Hybrid { global_gap: 0 };
        assert!(clamped.is_global_epoch(1), "zero gap is clamped to 1");
    }

    #[test]
    fn adaptive_stream_matches_bare_session() {
        // The stream must reproduce the session's trajectory exactly — it
        // only owns lifecycle + diffing, never the math.
        let mut g1 = clique_graph();
        let mut g2 = clique_graph();
        let params = TxAlloParams::for_graph(&g1, 2);

        let mut stream = HybridStream::new(params.clone(), HybridSchedule::AlwaysAdaptive);
        let initial = stream.begin(&g1, &params);
        let mut session = AtxAlloSession::new(&g2, &initial, &params);
        let mut mirror = initial;

        let epochs: Vec<Vec<(u64, u64)>> = vec![
            vec![(100, 0), (100, 1), (3, 12)],
            vec![(100, 2), (101, 100), (13, 14)],
            vec![(0, 10), (101, 11), (200, 200)],
        ];
        for (h, pairs) in epochs.iter().enumerate() {
            let block = epoch_block(h as u64, pairs);
            feed(&mut g1, &mut stream, &block);
            let update = stream.end_epoch(&g1, EpochKind::Scheduled);
            mirror.apply_update(&update);

            let nodes = g2.ingest_block_nodes(&block);
            session.apply_block_nodes(&nodes);
            let params = TxAlloParams::for_graph(&g2, 2);
            session.update(&g2, nodes.touched(), &params);

            assert_eq!(mirror, session.allocation(), "epoch {h} diverged");
            assert_eq!(mirror, stream.allocation(), "diffs out of sync");
            assert_eq!(update.carry, StateCarry::Warm);
        }
    }

    #[test]
    fn hybrid_runs_global_on_schedule_and_diffs_stay_consistent() {
        let mut g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let mut stream =
            HybridStream::new(params.clone(), HybridSchedule::Hybrid { global_gap: 2 });
        let mut mirror = stream.begin(&g, &params);

        for h in 0..5u64 {
            let block = epoch_block(h, &[(300 + h, h), (h, h + 10)]);
            feed(&mut g, &mut stream, &block);
            let update = stream.end_epoch(&g, EpochKind::Scheduled);
            let expected_kind = if h > 0 && h % 2 == 0 {
                UpdateKind::Global
            } else {
                UpdateKind::Adaptive
            };
            assert_eq!(update.kind, expected_kind, "epoch {h}");
            // A global re-solve rebuilds the session; every adaptive close
            // between them serves from the warm one.
            let expected_carry = match update.kind {
                UpdateKind::Global => StateCarry::Rebuilt,
                UpdateKind::Adaptive => StateCarry::Warm,
            };
            assert_eq!(update.carry, expected_carry, "epoch {h}");
            mirror.apply_update(&update);
            assert_eq!(mirror, stream.allocation(), "epoch {h} diff broken");
        }
    }

    #[test]
    fn scheduler_stream_decays_its_history_with_the_graph() {
        let mut g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 3);
        let mut stream = SchedulerStream::new();
        let mut mirror = stream.begin(&g, &params);
        // Several strongly-decayed epochs: capacity shrinks with |T|; the
        // scheduler's loads must shrink with it or migration (and the
        // co-location it produces) would be disabled forever.
        for h in 0..4u64 {
            g.apply_decay(0.3);
            stream.on_reweight(0.3);
            let block = epoch_block(h, &[(700, 701); 6]);
            feed(&mut g, &mut stream, &block);
            let update = stream.end_epoch(&g, EpochKind::Scheduled);
            mirror.apply_update(&update);
        }
        let n700 = g.node_of(AccountId(700)).unwrap();
        let n701 = g.node_of(AccountId(701)).unwrap();
        assert_eq!(
            mirror.shard_of(n700),
            mirror.shard_of(n701),
            "decayed capacity must still leave migration headroom"
        );
    }

    #[test]
    fn decay_is_folded_not_rebuilt() {
        let mut g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let mut stream = HybridStream::new(params.clone(), HybridSchedule::AlwaysAdaptive);
        stream.begin(&g, &params);

        g.apply_decay(0.5);
        stream.on_reweight(0.5);
        let block = epoch_block(0, &[(100, 0), (100, 1)]);
        feed(&mut g, &mut stream, &block);
        let update = stream.end_epoch(&g, EpochKind::Scheduled);
        assert_eq!(
            update.carry,
            StateCarry::WarmRescaled,
            "decay must fold into the warm session, not drop it"
        );
        // And the folded aggregates must still track a recomputation.
        let next = epoch_block(1, &[(5, 6)]);
        feed(&mut g, &mut stream, &next);
        let update = stream.end_epoch(&g, EpochKind::Scheduled);
        assert_eq!(update.carry, StateCarry::Warm);
    }

    #[test]
    fn invalidate_forces_rebuild() {
        let mut g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let mut stream = HybridStream::new(params.clone(), HybridSchedule::AlwaysAdaptive);
        let before = stream.begin(&g, &params);
        assert!(stream.invalidate_state());
        assert_eq!(stream.allocation(), before, "labels survive invalidation");
        let block = epoch_block(0, &[(100, 0)]);
        feed(&mut g, &mut stream, &block);
        let update = stream.end_epoch(&g, EpochKind::Scheduled);
        assert_eq!(update.kind, UpdateKind::Adaptive);
        assert_eq!(update.carry, StateCarry::Rebuilt);
        // The rebuilt session serves the next close warm.
        let block = epoch_block(1, &[(101, 1)]);
        feed(&mut g, &mut stream, &block);
        let update = stream.end_epoch(&g, EpochKind::Scheduled);
        assert_eq!(update.kind, UpdateKind::Adaptive);
        assert_eq!(update.carry, StateCarry::Warm);
    }

    #[test]
    fn global_stream_reports_full_diffs() {
        let mut g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 4);
        let mut stream = GlobalStream::new(params.clone(), BatchSolver::Hash);
        let mut mirror = stream.begin(&g, &params);
        let block = epoch_block(0, &[(500, 0), (501, 502)]);
        feed(&mut g, &mut stream, &block);
        let update = stream.end_epoch(&g, EpochKind::Scheduled);
        assert_eq!(update.kind, UpdateKind::Global);
        assert_eq!(update.carry, StateCarry::Stateless);
        // Hash labels are a pure function of the account id: existing
        // accounts never move, so the diff is placements only.
        assert_eq!(update.migrations(), 0);
        assert_eq!(update.placements(), 3);
        mirror.apply_update(&update);
        assert_eq!(mirror, stream.allocation());
    }

    #[test]
    fn scheduler_stream_places_and_migrates() {
        let mut g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 3);
        let mut stream = SchedulerStream::new();
        let mut mirror = stream.begin(&g, &params);
        assert_eq!(mirror.len(), g.node_count());

        // A new pair transacting heavily lands together eventually.
        for h in 0..3u64 {
            let block = epoch_block(h, &[(700, 701), (700, 701), (700, 701)]);
            feed(&mut g, &mut stream, &block);
            let update = stream.end_epoch(&g, EpochKind::Scheduled);
            mirror.apply_update(&update);
            assert_eq!(mirror, stream.allocation(), "epoch {h}");
        }
        let n700 = g.node_of(AccountId(700)).unwrap();
        let n701 = g.node_of(AccountId(701)).unwrap();
        assert_eq!(
            mirror.shard_of(n700),
            mirror.shard_of(n701),
            "frequent partners co-locate"
        );
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        // Run a stream for two epochs, checkpoint at the boundary, restore
        // into a fresh stream, then drive both side by side: every later
        // epoch must produce identical diffs and identical labels — the
        // warm-resume contract the chain service builds on. The imported
        // epoch count phases every schedule, `AlwaysAdaptive` included.
        for schedule in [
            HybridSchedule::Hybrid { global_gap: 3 },
            HybridSchedule::AlwaysAdaptive,
        ] {
            let mut g = clique_graph();
            let params = TxAlloParams::for_graph(&g, 2);
            let mut live = HybridStream::new(params.clone(), schedule);
            live.begin(&g, &params);
            for h in 0..2u64 {
                let block = epoch_block(h, &[(100 + h, h), (h, h + 10)]);
                feed(&mut g, &mut live, &block);
                live.end_epoch(&g, EpochKind::Scheduled);
            }

            let aggregates = live.export_aggregates();
            assert!(aggregates.is_some(), "warm session exports aggregates");

            let mut resumed = HybridStream::new(params.clone(), schedule);
            let carry = resumed
                .import_state(2, &live.allocation(), aggregates)
                .expect("adaptive streams adopt checkpointed state");
            assert_eq!(carry, StateCarry::Warm);
            let err = resumed.consistency_error(&g).expect("session restored");
            assert!(err < 1e-9, "restored aggregates diverge by {err}");

            // Under the hybrid schedule epoch 3 is the global refresh:
            // phase must be preserved.
            for h in 2..6u64 {
                let block = epoch_block(h, &[(200 + h, h), (h, 2 * h + 1)]);
                let nodes = g.ingest_block_nodes(&block);
                live.on_block_nodes(&g, &block, &nodes);
                resumed.on_block_nodes(&g, &block, &nodes);
                let a = live.end_epoch(&g, EpochKind::Scheduled);
                let b = resumed.end_epoch(&g, EpochKind::Scheduled);
                assert_eq!(a.moves, b.moves, "{schedule:?} epoch {h} diffs diverged");
                assert_eq!(a.kind, b.kind, "{schedule:?} epoch {h} phase diverged");
                assert_eq!(
                    live.allocation().labels(),
                    resumed.allocation().labels(),
                    "{schedule:?} epoch {h} labels diverged"
                );
            }
        }
    }

    #[test]
    fn labels_only_state_resumes_as_rebuilt() {
        let mut g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let mut stream = HybridStream::new(params.clone(), HybridSchedule::AlwaysAdaptive);
        stream.begin(&g, &params);
        assert!(stream.invalidate_state(), "warm session was dropped");
        assert!(!stream.invalidate_state(), "second drop is a no-op");
        assert!(
            stream.export_aggregates().is_none(),
            "invalidated ⇒ labels only"
        );
        assert!(stream.consistency_error(&g).is_none());

        let mut resumed = HybridStream::new(params.clone(), HybridSchedule::AlwaysAdaptive);
        let carry = resumed.import_state(0, &stream.allocation(), None).unwrap();
        assert_eq!(carry, StateCarry::Rebuilt);
        assert_eq!(resumed.allocation(), stream.allocation());
        // The next boundary rebuilds the aggregates and reports it.
        let block = epoch_block(0, &[(100, 0)]);
        feed(&mut g, &mut resumed, &block);
        let update = resumed.end_epoch(&g, EpochKind::Scheduled);
        assert_eq!(update.carry, StateCarry::Rebuilt);
    }

    #[test]
    fn mismatched_state_is_rejected_not_adopted() {
        // A wrong shard count or stale labels never reach a stream:
        // `EpochLoop::restore` and `decode_checkpoint` refuse them. A
        // stream without checkpoint support says so instead of lying.
        let g = clique_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let mut stream = HybridStream::new(params.clone(), HybridSchedule::AlwaysAdaptive);
        let allocation = stream.begin(&g, &params);
        let mut sched = SchedulerStream::new();
        sched.begin(&g, &params);
        assert!(sched.export_aggregates().is_none());
        assert!(sched
            .import_state(0, &allocation, stream.export_aggregates())
            .is_none());
        assert!(!sched.invalidate_state());
    }

    #[test]
    fn degradation_ladder_is_ordered_and_printable() {
        assert!(Degradation::None < Degradation::Invalidated);
        assert!(Degradation::Invalidated < Degradation::HashFallback);
        assert_eq!(Degradation::Invalidated.to_string(), "invalidated");
        assert_eq!(Degradation::HashFallback.to_string(), "hash-fallback");
        assert_eq!(Degradation::None.to_string(), "none");
    }

    #[test]
    fn global_stream_state_round_trips_labels() {
        for solver in [BatchSolver::Hash, BatchSolver::Metis] {
            let mut g = clique_graph();
            let params = TxAlloParams::for_graph(&g, 4);
            let mut stream = GlobalStream::new(params.clone(), solver);
            stream.begin(&g, &params);
            let block = epoch_block(0, &[(600, 0)]);
            feed(&mut g, &mut stream, &block);
            stream.end_epoch(&g, EpochKind::Scheduled);
            assert!(stream.export_aggregates().is_none(), "{solver:?}");

            let mut resumed = GlobalStream::new(params.clone(), solver);
            let carry = resumed.import_state(1, &stream.allocation(), None);
            assert_eq!(carry, Some(StateCarry::Stateless), "{solver:?}");
            assert_eq!(resumed.allocation(), stream.allocation(), "{solver:?}");
        }
    }

    #[test]
    fn empty_graph_begin_is_fine() {
        let g = TxGraph::new();
        let params = TxAlloParams::for_total_weight(0.0, 2);
        let mut stream = HybridStream::new(params.clone(), HybridSchedule::AlwaysAdaptive);
        let allocation = stream.begin(&g, &params);
        assert!(allocation.is_empty());
        let update = stream.end_epoch(&g, EpochKind::Scheduled);
        assert!(update.moves.is_empty());
        assert_eq!(update.len, 0);
    }
}
