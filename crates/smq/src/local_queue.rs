//! Abstraction over the sequential priority queue each thread owns.
//!
//! The paper evaluates two local-queue implementations — *d*-ary heaps and
//! skip lists (Section 4, Appendix D) — behind the identical stealing-buffer
//! protocol.  [`LocalQueue`] captures the handful of operations the SMQ
//! needs so the scheduler is generic over the choice.

use smq_core::TaskWord;
use smq_dheap::{DAryHeap, PackedHeap};
use smq_skiplist::SequentialSkipList;

/// A sequential min-priority queue usable as an SMQ thread-local queue.
pub trait LocalQueue<T: Ord + Copy>: Send {
    /// Creates an empty queue.
    fn create() -> Self;

    /// Inserts a task.
    fn push(&mut self, task: T);

    /// Removes and returns the highest-priority (smallest) task.
    fn pop(&mut self) -> Option<T>;

    /// Returns (a copy of) the highest-priority task without removing it.
    fn peek(&self) -> Option<T>;

    /// Moves up to `k` highest-priority tasks, in ascending order, into
    /// `out`; returns how many were moved.
    fn pop_batch_into(&mut self, k: usize, out: &mut Vec<T>) -> usize;

    /// Number of stored tasks.
    fn len(&self) -> usize;

    /// `true` when no tasks are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Ord + TaskWord + Send> LocalQueue<T> for PackedHeap<T> {
    fn create() -> Self {
        PackedHeap::new()
    }

    fn push(&mut self, task: T) {
        PackedHeap::push(self, task);
    }

    fn pop(&mut self) -> Option<T> {
        PackedHeap::pop(self)
    }

    fn peek(&self) -> Option<T> {
        PackedHeap::peek(self)
    }

    fn pop_batch_into(&mut self, k: usize, out: &mut Vec<T>) -> usize {
        PackedHeap::pop_batch_into(self, k, out)
    }

    fn len(&self) -> usize {
        PackedHeap::len(self)
    }
}

impl<T: Ord + Copy + Send> LocalQueue<T> for DAryHeap<T> {
    fn create() -> Self {
        DAryHeap::new()
    }

    fn push(&mut self, task: T) {
        DAryHeap::push(self, task);
    }

    fn pop(&mut self) -> Option<T> {
        DAryHeap::pop(self)
    }

    fn peek(&self) -> Option<T> {
        DAryHeap::peek(self).copied()
    }

    fn pop_batch_into(&mut self, k: usize, out: &mut Vec<T>) -> usize {
        DAryHeap::pop_batch_into(self, k, out)
    }

    fn len(&self) -> usize {
        DAryHeap::len(self)
    }
}

impl<T: Ord + Copy + Send> LocalQueue<T> for SequentialSkipList<T> {
    fn create() -> Self {
        // Every queue draws its tower heights from this one seed.
        SequentialSkipList::new(0x5EED_5119)
    }

    fn push(&mut self, task: T) {
        self.insert(task);
    }

    fn pop(&mut self) -> Option<T> {
        self.pop_min()
    }

    fn peek(&self) -> Option<T> {
        self.peek_min().copied()
    }

    fn pop_batch_into(&mut self, k: usize, out: &mut Vec<T>) -> usize {
        SequentialSkipList::pop_batch_into(self, k, out)
    }

    fn len(&self) -> usize {
        SequentialSkipList::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<Q: LocalQueue<u64>>() {
        let mut q = Q::create();
        assert!(q.is_empty());
        for v in [5u64, 1, 9, 3, 7] {
            q.push(v);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek(), Some(1));
        assert_eq!(q.pop(), Some(1));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_into(3, &mut out), 3);
        assert_eq!(out, vec![3, 5, 7]);
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn packed_heap_implements_local_queue() {
        exercise::<PackedHeap<u64>>();
    }

    #[test]
    fn dary_heap_implements_local_queue() {
        exercise::<DAryHeap<u64>>();
    }

    #[test]
    fn skip_list_implements_local_queue() {
        exercise::<SequentialSkipList<u64>>();
    }
}
