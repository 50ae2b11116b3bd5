//! Shared harness for the per-figure benchmark binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in `src/bin/` (see DESIGN.md for the index).  This library holds
//! the pieces they share: the synthetic stand-ins for the paper's input
//! graphs, a scheduler-dispatch layer so a single sweep can run every
//! scheduler through the same algorithm, and a tiny command-line/argument
//! and table-printing layer.
//!
//! All sweeps are scaled down by default so the full suite finishes on a
//! laptop-class machine; pass `--scale full` (and a larger `--threads`) to
//! approach the paper's configuration.

#![warn(missing_docs)]

pub mod args;
pub mod graphs;
pub mod report;
pub mod schedulers;

pub use args::{BenchArgs, Scale};
pub use graphs::{standard_graphs, GraphSpec};
pub use report::Table;
pub use schedulers::{
    baseline_tasks, run_workload, run_workload_batched, run_workload_numa, SchedulerSpec, Workload,
    WorkloadResult,
};
