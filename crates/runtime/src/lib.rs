//! Parallel execution substrate for the SMQ reproduction.
//!
//! The paper evaluates schedulers by plugging them into the Galois
//! `for_each` loop: worker threads repeatedly pop a task, execute it
//! (possibly pushing new tasks), and terminate when the scheduler is
//! globally empty.  The loop itself is the worker of the resident pool in
//! `smq-pool`; this crate provides what it relies on: the pending-task
//! termination detection ([`TerminationDetector`], [`SCAN_GATE`]), per-run
//! metrics, a per-worker [`Scratch`] arena, and a *simulated* NUMA topology
//! ([`Topology`], [`NumaConfig`]) used by the NUMA-aware queue samplers.
//!
//! The crate spawns no threads.
//!
//! The topology is simulated because the reproduction targets commodity
//! machines without multiple sockets: NUMA-awareness in the paper is purely
//! a change to the queue sampling distribution (same-node queues get weight
//! 1, remote queues weight 1/K), so its algorithmic effect — how often a
//! thread touches a queue owned by its own node — is measurable without
//! real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod scratch;
pub mod termination;
pub mod topology;

pub use metrics::RunMetrics;
pub use scratch::Scratch;
pub use termination::{TerminationDetector, WorkerTally, SCAN_GATE};
pub use topology::{NumaConfig, Topology, WeightedQueueSampler};

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;
