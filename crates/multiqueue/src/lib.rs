//! The classic Multi-Queue priority scheduler and its optimised variants.
//!
//! These are the baselines the paper starts from (Section 2.1 and
//! Appendices C/E):
//!
//! * [`MultiQueue`] — `C·T` lock-protected sequential heaps; `insert` places
//!   the task into a uniformly random queue, `delete` samples two distinct
//!   queues and removes the higher-priority top (Listing 1).
//! * **Task batching** (`Optimization 1`) — inserts are buffered
//!   thread-locally and flushed in bulk; deletes extract a whole batch from
//!   the chosen queue.
//! * **Temporal locality** (`Optimization 2`) — a biased coin decides whether
//!   to keep using the queue from the previous operation.
//! * **NUMA-aware sampling** (Section 4) — queues owned by the calling
//!   thread's node are sampled with weight 1, remote queues with weight
//!   `1/K`.
//! * [`Reld`] — the random-enqueue local-dequeue scheduler from Jeffrey et
//!   al. \[14\], another Figure 2 baseline.
//!
//! All variants are driven by a single [`MultiQueueConfig`], so the
//! benchmark harness can sweep the exact parameter grids of the paper's
//! appendix tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod queue;
pub mod reld;

pub use config::{DeletePolicy, InsertPolicy, MultiQueueConfig};
pub use queue::{MultiQueue, MultiQueueHandle};
pub use reld::{Reld, ReldHandle};
pub use smq_runtime::NumaConfig;

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;
