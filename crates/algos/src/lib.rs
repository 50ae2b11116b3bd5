//! Task-parallel graph algorithms formulated over relaxed priority
//! schedulers, plus exact sequential references.
//!
//! **One parallel kernel per algorithm, one run type.**  Every workload is
//! a pool job ([`engine::PoolJob`]: seed tasks, a `process` step
//! classifying each task as useful or wasted, a `prefetch` hint);
//! [`engine`] adds the [`DecreaseKeyWorkload`] trait on top (a
//! shared-state output view and a sequential reference) and the drivers
//! that own the worker-pool invocation and the useful/wasted accounting
//! for every algorithm.  A parallel run is always
//!
//! ```text
//! engine::run_parallel(&Workload::new(..), &scheduler, threads)   // one-shot
//! engine::run_on_pool(&Workload::new(..), &pool)                  // resident pool
//! ```
//!
//! and always returns an [`EngineRun`] `{ output, result }`.  The workloads:
//!
//! * [`sssp`] — single-source shortest paths with priority = tentative
//!   distance (the delta-stepping-style formulation Galois uses), over
//!   32-bit labels when the graph's weight bound proves they fit;
//!   `SsspWorkload::bfs` is the same kernel with unit weights ([`bfs`] holds
//!   the sequential reference), and [`incremental`] constructs it as a
//!   *repair* after a batch of non-increasing graph updates — old distances
//!   as starting labels, the heads of the updated edges as seeds, over a
//!   pinned `smq_graph::LiveGraph` snapshot,
//! * [`astar`] — point-to-point shortest path guided by a Euclidean
//!   (equirectangular-style) distance heuristic, generic over where its
//!   g-scores live ([`engine::LabelStore`]),
//! * [`mst`] — Borůvka's minimum-spanning-forest algorithm with
//!   per-component tasks prioritized by component size,
//! * [`pagerank`] — residual-prioritized PageRank-delta (largest pending
//!   residual first),
//! * [`kcore`] — k-core decomposition via the asynchronous h-index fixed
//!   point (lowest candidate coreness first),
//! * [`cc`] — weakly connected components via min-label propagation
//!   (smallest label first).
//!
//! Every workload is generic over `smq_graph::GraphView`, so the same
//! monomorphized code runs on a static `CsrGraph` or on a pinned snapshot
//! of a `LiveGraph` receiving concurrent updates.  Each module's
//! `sequential` function is an exact reference that shares no relaxation
//! code with the kernel it checks.
//!
//! [`query`] is the service layer on top: a resident
//! [`query::RouteQueryEngine`] answering thousands of independent
//! point-to-point route queries over one shared road graph.  Each query is
//! the [`astar`] kernel run as a job on a resident `smq_pool::WorkerPool`,
//! over epoch-stamped g-score slots the engine reuses across queries
//! (per-query cost O(touched), not O(n)).
//!
//! Every parallel run reports both wall-clock metrics (via `smq-runtime`)
//! and the algorithm-level *work* counters the paper uses to quantify
//! wasted work: how many tasks were executed versus how many a perfectly
//! ordered execution would need.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astar;
pub mod bfs;
pub mod cc;
pub mod engine;
pub mod incremental;
pub mod kcore;
pub mod mst;
pub mod pagerank;
pub mod query;
pub mod sssp;

pub use engine::{
    run_on_pool, run_parallel, DecreaseKeyWorkload, EngineRun, SequentialReference, TaskOutcome,
};
pub use query::{RouteAnswer, RouteQueryEngine};
/// Accounting attached to every parallel algorithm run: the pool's per-job
/// report (metrics plus the useful / wasted task counts behind the paper's
/// work-increase metric).
pub use smq_pool::JobOutput as AlgoResult;

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;
