//! The transaction graph of TxAllo (§III-C, Definition 2).
//!
//! Accounts are nodes; every transaction distributes a total weight of `1`
//! over the clique expansion of its (deduplicated) account set, so edge
//! weights directly measure "number of transactions between these accounts".
//! Self-transfers become self-loop weight (§V-B handles these explicitly in
//! the gain formulas).
//!
//! The graph supports **incremental ingestion**: [`TxGraph::ingest_block`]
//! updates adjacency in `O(edges added)` and reports the set of touched
//! nodes `V̂`, which is exactly the input A-TxAllo (Alg. 2) needs.
//!
//! ## Three graph forms: mutable sorted-run slab, flat CSR, delta CSR
//!
//! The crate deliberately ships the graph in three shapes, one per access
//! pattern:
//!
//! * [`TxGraph`] — *ingestion form*. Per-node rows live in a shared,
//!   crate-private sorted-run slab arena: ascending-id sorted runs with a
//!   small amortized-merge tail, so a repeated account pair accumulates
//!   weight in place (binary search, `O(1)` amortized per edge) **and**
//!   the mutable graph is CSR-shaped by construction — neighbor iteration
//!   is always ascending. This is what the block stream mutates.
//!   Implements the shared [`WeightedGraph`] interface.
//! * [`CsrGraph`] — *full-sweep form*. Offsets + packed neighbor/weight
//!   arrays (compressed sparse row), rows sorted and duplicate-merged at
//!   build time. Every repeated-sweep consumer — Louvain levels, the
//!   G-TxAllo optimization phase, METIS coarsening/refinement — snapshots
//!   into this form once ([`CsrGraph::from_graph`]) and then iterates flat
//!   memory. Every constructor finishes through
//!   [`CsrGraph::from_sorted_rows`], which derives the incident weights
//!   and checks each row strictly ascending. Also implements
//!   [`WeightedGraph`].
//! * [`DeltaCsr`] — *epoch-update form*. A compact CSR over just the
//!   epoch's touched node set `V̂` and its incident edges, rows in the
//!   canonical sweep order, built by straight run copies out of the slab
//!   adjacency; each row equals the full [`CsrGraph`]'s row bit for bit
//!   (see [`delta`]). This is what A-TxAllo's epoch sweep runs on.
//!
//! Every form reads rows the same way: [`WeightedGraph::for_each_neighbor`]
//! reports a row in ascending id order, and
//! [`WeightedGraph::copy_row_into`] is the one way a whole row leaves a
//! graph (a slab run copy, a CSR slice copy, or the callback walk for
//! views without row storage).
//!
//! The split matters because the sweeps dominate running time (§VI-B6 of
//! the paper: Louvain initialization alone is 67.6 s of G-TxAllo's
//! 122.3 s). CSR rows cost one contiguous read per node instead of a
//! pointer chase per neighbor list, and their ascending-id order is what
//! lets the sweep kernels enumerate candidate communities deterministically
//! from a [`scratch::DenseAccumulator`] without per-node hashing, allocation
//! or full candidate sorts.
//!
//! Recency weighting (§VI-A) is not a fourth form: it is
//! [`TxGraph::apply_decay`] on the ingestion form (see [`decay`]). Every
//! row of the ingestion form stays in core, and
//! [`TxGraph::memory_footprint`] accounts for it ([`MemoryFootprint`]).
//! Every builder here is serial; the crate starts no threads.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod csr;
pub mod decay;
pub mod delta;
pub mod interner;
pub mod scratch;
mod slab;
pub mod stats;
pub mod traits;
pub mod txgraph;

pub use csr::CsrGraph;
pub use delta::DeltaCsr;
pub use interner::{AccountInterner, IdSpaceExhausted};
pub use scratch::{DenseAccumulator, SweepCache};
pub use stats::GraphStats;
pub use traits::{fit_u32, NodeId, WeightedGraph};
pub use txgraph::{BlockNodes, MemoryFootprint, ResidencyConfig, TxGraph};
