//! The **Stealing Multi-Queue (SMQ)** — the paper's contribution.
//!
//! Each worker thread owns a sequential priority queue (a *d*-ary heap by
//! default, a skip list in the alternative variant) plus a fixed-capacity
//! [`StealingBuffer`] that publishes the queue's current best `STEAL_SIZE`
//! tasks to other threads.  Inserts are purely thread-local.  A `delete`
//! first drains previously stolen tasks, then — with probability `p_steal` —
//! compares the top of a randomly chosen victim buffer against the local
//! top and steals the *whole* victim batch if it has higher priority;
//! otherwise it removes locally (Listings 2 and 4 of the paper).
//!
//! The combination of thread-local access, lock-free batch stealing, and the
//! probabilistic steal is what gives the SMQ both cache efficiency and the
//! Multi-Queue-style rank guarantees analysed in Section 3 (reproduced
//! empirically in the `smq-rank` crate).
//!
//! [`HeapSmq`]'s local queue is a `smq_dheap::PackedHeap`: a 4-ary heap of
//! one `u64` word per task while every task it holds has a 32-bit key and a
//! 32-bit value, of whole tasks otherwise.  The words order like the tasks,
//! so the heap pops exactly what a heap of tasks would.  [`SkipListSmq`]'s
//! local queue stores whole tasks, so Figure 19 compares a packed heap with
//! an unpacked skip list: both are exact local queues, and their pop order
//! is the same, but the heap moves half the bytes per task.
//!
//! ```
//! use smq_core::{Scheduler, SchedulerHandle, Task};
//! use smq_scheduler::{HeapSmq, SmqConfig};
//!
//! let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
//! let mut handle = smq.handle(0);
//! handle.push(Task::new(10, 0));
//! handle.push(Task::new(3, 1));
//! assert_eq!(handle.pop(), Some(Task::new(3, 1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod local_queue;
pub mod scheduler;
pub mod stealing_buffer;

pub use config::SmqConfig;
pub use local_queue::LocalQueue;
pub use scheduler::{Smq, SmqHandle};
pub use smq_runtime::NumaConfig;
pub use stealing_buffer::StealingBuffer;

use smq_dheap::PackedHeap;
use smq_skiplist::SequentialSkipList;

/// The default SMQ variant: thread-local *d*-ary heaps with stealing buffers
/// (Section 4, "SMQ via d-ary Heaps with Stealing Buffers"), packed to one
/// word per task while the tasks fit.
pub type HeapSmq<T> = Smq<T, PackedHeap<T>>;

/// The alternative variant evaluated in Appendix D: thread-local sequential
/// skip lists with the same stealing-buffer protocol.
pub type SkipListSmq<T> = Smq<T, SequentialSkipList<T>>;

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;
