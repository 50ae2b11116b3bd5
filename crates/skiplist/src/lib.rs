//! The sequential skip list of the SMQ reproduction.
//!
//! [`SequentialSkipList`] is a plain, single-threaded skip list.  The paper
//! evaluates an SMQ variant whose thread-local queues are skip lists instead
//! of *d*-ary heaps (Appendix D.3/D.4); that variant wraps this type.  All
//! synchronization happens outside, in the stealing buffer.  The list is
//! min-ordered: smaller elements are removed first, matching the priority
//! convention used throughout the workspace.
//!
//! The lazy concurrent skip list behind the SprayList baseline lives with
//! its only user, in `smq-spraylist`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sequential;

pub use sequential::SequentialSkipList;
