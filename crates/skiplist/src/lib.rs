//! Skip-list substrates for the SMQ reproduction.
//!
//! Two independent data structures live here:
//!
//! * [`SequentialSkipList`] — a plain, single-threaded skip list.  The paper
//!   evaluates an SMQ variant whose thread-local queues are skip lists
//!   instead of *d*-ary heaps (Appendix D.3/D.4); that variant wraps this
//!   type.  All synchronization happens outside, in the stealing buffer.
//! * [`concurrent::ConcurrentSkipList`] — a lazy, lock-based concurrent skip
//!   list with logical deletion and a randomized *spray* delete-min, the
//!   substrate for the SprayList baseline [Alistarh et al., PPoPP'15].
//!
//! Both lists are min-ordered: smaller elements are removed first, matching
//! the priority convention used throughout the workspace.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod concurrent;
pub mod sequential;

pub use concurrent::ConcurrentSkipList;
pub use sequential::SequentialSkipList;
