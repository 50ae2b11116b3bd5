//! Parallel execution substrate for the SMQ reproduction.
//!
//! The paper evaluates schedulers by plugging them into the Galois
//! `for_each` loop: worker threads repeatedly pop a task, execute it
//! (possibly pushing new tasks), and terminate when the scheduler is
//! globally empty.  This crate provides one worker's share of that loop
//! ([`executor::worker_loop`]), the pending-task termination detection it
//! relies on, per-run metrics, a per-worker [`Scratch`] arena, and a
//! *simulated* NUMA topology ([`topology::Topology`]) used by the
//! NUMA-aware queue samplers.
//!
//! The crate spawns no threads.  The fleet that runs the loop is the
//! resident worker pool in `smq-pool`, whose workers park between jobs and
//! re-enter the loop for every job under a fresh termination generation.
//!
//! The topology is simulated because the reproduction targets commodity
//! machines without multiple sockets: NUMA-awareness in the paper is purely
//! a change to the queue sampling distribution (same-node queues get weight
//! 1, remote queues weight 1/K), so its algorithmic effect — how often a
//! thread touches a queue owned by its own node — is measurable without
//! real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod metrics;
pub mod scratch;
pub mod termination;
pub mod topology;

pub use executor::{TaskSink, WorkerLoopOutcome, DEFAULT_BATCH_SIZE};
pub use metrics::RunMetrics;
pub use scratch::Scratch;
pub use termination::{TerminationDetector, WorkerTally};
pub use topology::{Topology, WeightedQueueSampler};
