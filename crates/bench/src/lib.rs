//! Shared infrastructure for the experiment harness.
//!
//! Every figure/table of the paper's §VI maps to one function in
//! [`figures`]; the `experiments` binary dispatches to them. Results are
//! printed as CSV rows (same axes as the paper) and mirrored into
//! `results/<experiment>.csv`. The timed component cases, and the runner
//! that times them, are [`components`].

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod components;
pub mod figures;
pub mod harness;
pub mod seed_ref;
pub mod stream_bench;

pub use harness::{
    build_dataset, eta_sweep, k_sweep, run_allocator, AllocatorKind, ExperimentScale, ResultWriter,
    ALL_ALLOCATORS,
};
pub use stream_bench::{run_stream_bench, StreamBenchConfig, StreamBenchReport};
