//! Facade crate re-exporting the whole SMQ reproduction.
//!
//! See the individual crates for details:
//! [`smq_scheduler`] (the paper's contribution), [`smq_multiqueue`],
//! [`smq_obim`], [`smq_spraylist`] (baselines), [`smq_graph`] /
//! [`smq_algos`] / [`smq_runtime`] (the evaluation substrate),
//! [`smq_pool`] (the resident worker pool and job service),
//! [`smq_rank`] (the Theorem-1 analytical model) and
//! [`smq_telemetry`] (opt-in histograms, rank-error probes, phase
//! accounting).

pub use smq_algos as algos;
pub use smq_core as core;
pub use smq_dheap as dheap;
pub use smq_graph as graph;
pub use smq_multiqueue as multiqueue;
pub use smq_obim as obim;
pub use smq_pool as pool;
pub use smq_rank as rank;
pub use smq_runtime as runtime;
pub use smq_scheduler as smq;
pub use smq_skiplist as skiplist;
pub use smq_spraylist as spraylist;
pub use smq_telemetry as telemetry;
