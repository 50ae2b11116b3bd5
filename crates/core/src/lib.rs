//! Core abstractions shared by every scheduler, substrate, and experiment in
//! the Stealing Multi-Queue (SMQ) reproduction.
//!
//! The paper ("Multi-Queues Can Be State-of-the-Art Priority Schedulers",
//! PPoPP 2022) evaluates a family of *relaxed concurrent priority
//! schedulers*: data structures that hold prioritized tasks, where `insert`
//! adds a task and `delete` removes a task of *approximately* minimal
//! priority.  This crate defines the vocabulary those schedulers share:
//!
//! * [`HasKey`], [`TaskWords`], [`TaskWord`] and the concrete [`Task`]
//!   type — what a task looks like and how the schedulers store it,
//! * [`Scheduler`] / [`SchedulerHandle`] — how worker threads interact with a
//!   scheduler,
//! * [`rng::Pcg32`] — a small, fast, seedable PRNG used on the hot path of
//!   every randomized scheduler,
//! * [`Probability`] — the `1/2^k`-style probabilities the paper sweeps
//!   (`p_steal`, `p_insert`, `p_delete`),
//! * [`stats::OpStats`] — per-thread operation counters used to report wasted
//!   work, steal rates, and NUMA locality,
//! * [`prefetch_read`] — the one safe cache-prefetch hint the workloads and
//!   graph views use to overlap the memory misses of a popped task batch.

#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod prefetch;
pub mod probability;
pub mod rng;
pub mod scheduler;
pub mod stats;
pub mod task;

pub use prefetch::prefetch_read;
pub use probability::Probability;
pub use scheduler::{Scheduler, SchedulerHandle};
pub use stats::OpStats;
pub use task::{HasKey, Task, TaskWord, TaskWords};
