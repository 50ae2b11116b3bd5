//! Task-parallel graph algorithms formulated over relaxed priority
//! schedulers, plus exact sequential references.
//!
//! All workloads run through one generic driver: [`engine`] defines the
//! [`DecreaseKeyWorkload`] trait (initial
//! tasks, a `process` step classifying each task as useful or wasted, a
//! shared-state output view, and a sequential reference) and
//! [`engine::run_parallel`] / [`engine::run_on_pool`], which own the
//! worker-pool invocation and the useful/wasted accounting for every
//! algorithm.  The workloads:
//!
//! * [`sssp`] — single-source shortest paths with priority = tentative
//!   distance (the delta-stepping-style formulation Galois uses),
//! * [`bfs`] — breadth-first search, i.e. SSSP with unit weights,
//! * [`astar`] — point-to-point shortest path guided by a Euclidean
//!   (equirectangular-style) distance heuristic,
//! * [`mst`] — Borůvka's minimum-spanning-forest algorithm with
//!   per-component tasks prioritized by component size,
//! * [`pagerank`] — residual-prioritized PageRank-delta (largest pending
//!   residual first),
//! * [`kcore`] — k-core decomposition via the asynchronous h-index fixed
//!   point (lowest candidate coreness first),
//! * [`cc`] — weakly connected components via min-label propagation
//!   (smallest label first),
//! * [`incremental`] — incremental SSSP repair after a batch of
//!   non-increasing graph updates (re-relaxation seeded from the heads of
//!   the updated edges, over a pinned `smq_graph::LiveGraph` snapshot).
//!
//! Every workload is generic over `smq_graph::GraphView`, so the same
//! monomorphized code runs on a static `CsrGraph` or on a pinned snapshot
//! of a `LiveGraph` receiving concurrent updates.
//!
//! [`query`] is the service layer on top: a resident
//! [`query::RouteQueryEngine`] answering thousands of
//! independent point-to-point A* route queries over one shared road graph,
//! each executed as a job on a resident `smq_pool::WorkerPool` with
//! epoch-stamped g-score slots (per-query cost O(touched), not O(n)).
//!
//! Every parallel run reports both wall-clock metrics (via `smq-runtime`)
//! and the algorithm-level *work* counters the paper uses to quantify
//! wasted work: how many tasks were executed versus how many a perfectly
//! ordered execution would need.

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
pub use incremental::IncrementalSsspWorkload;
pub use query::{RouteAnswer, RouteQueryEngine};
/// Accounting attached to every parallel algorithm run: the pool's per-job
/// report (metrics plus the useful / wasted task counts behind the paper's
/// work-increase metric).
pub use smq_pool::JobOutput as AlgoResult;
