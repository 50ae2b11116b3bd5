//! The scheduler interface shared by every priority scheduler in the
//! workspace.
//!
//! Worker threads never touch the shared scheduler object directly; they
//! first obtain a [`SchedulerHandle`] bound to their thread id.  The handle
//! owns all thread-local state — insert buffers, stolen-task buffers, the
//! temporal-locality "current queue", the per-thread PRNG — exactly like a
//! Galois worklist handle, so the hot path performs no TLS lookups and no
//! shared-memory writes beyond what the scheduling algorithm requires.

use crate::stats::OpStats;

/// A concurrent priority scheduler: a shared pool of prioritized tasks with
/// relaxed delete-min semantics.
///
/// Implementations must be safe to share across the `num_threads()` worker
/// threads, each of which calls [`Scheduler::handle`] exactly once with its
/// own distinct thread id in `0..num_threads()`.
pub trait Scheduler<T>: Sync {
    /// The per-thread handle type.
    type Handle<'a>: SchedulerHandle<T> + 'a
    where
        Self: 'a;

    /// Number of worker threads this scheduler was configured for.
    fn num_threads(&self) -> usize;

    /// Creates the handle for worker `thread_id`.
    ///
    /// # Panics
    /// Implementations may panic if `thread_id >= num_threads()` or if the
    /// same id is requested twice while a previous handle is still alive
    /// (schedulers with thread-owned local queues require unique ownership).
    fn handle(&self, thread_id: usize) -> Self::Handle<'_>;
}

/// A worker thread's view of a [`Scheduler`].
pub trait SchedulerHandle<T> {
    /// Inserts a task.
    fn push(&mut self, task: T);

    /// Removes a task of approximately minimal priority.
    ///
    /// Returns `None` when the handle cannot find a task anywhere it is
    /// allowed to look.  Because the schedulers are relaxed and concurrent,
    /// `None` does **not** mean the scheduler is globally empty; termination
    /// detection is the worker pool's job (see `smq-runtime`).
    fn pop(&mut self) -> Option<T>;

    /// Inserts a whole batch of tasks, draining `tasks`.
    ///
    /// Semantically this is exactly `for t in tasks.drain(..) { push(t) }` —
    /// a batch insert is N consecutive inserts, so relaxation guarantees are
    /// untouched — but native implementations amortize the per-task
    /// synchronization over the batch: one sub-queue/bucket lock instead of
    /// N (Multi-Queue, OBIM), or one stealing-buffer maintenance pass
    /// instead of N (SMQ).  The default implementation is the per-task loop,
    /// so third-party schedulers keep working unchanged; they simply do not
    /// see the amortization (and leave `OpStats::batch_flushes` at zero).
    ///
    /// `tasks` is always left empty, so callers can reuse its capacity as
    /// their batch buffer.
    fn push_batch(&mut self, tasks: &mut Vec<T>) {
        for task in tasks.drain(..) {
            self.push(task);
        }
    }

    /// Removes up to `max` tasks of approximately minimal priority,
    /// appending them to `out`; returns how many were moved.
    ///
    /// Semantically equivalent to calling [`pop`](Self::pop) up to `max`
    /// times and stopping at the first `None` (which is exactly what the
    /// default implementation does).  Native implementations make one
    /// scheduling decision per batch — one two-choice lock acquisition, one
    /// steal die roll, one bucket scan — and extract the whole run under
    /// it, so locks and indirect calls per popped task drop by ~the batch
    /// factor.  Returning `0` means the same as `pop()` returning `None`:
    /// nothing was found where this handle looked, not that the scheduler
    /// is globally empty.
    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut got = 0;
        while got < max {
            match self.pop() {
                Some(task) => {
                    out.push(task);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    /// Flushes any tasks buffered locally (insert-side batching) into the
    /// shared structure so other threads can observe them.
    ///
    /// Called by a pool worker before it starts spinning on an empty
    /// scheduler, and before termination.  The default is a no-op for
    /// schedulers without insert buffering.
    fn flush(&mut self) {}

    /// Returns a snapshot of this handle's operation counters.
    fn stats(&self) -> OpStats {
        OpStats::default()
    }

    /// A cheap, advisory estimate of the globally smallest key currently
    /// visible to this handle, read from published top-key snapshots
    /// without taking any lock.  `None` when the scheduler publishes no
    /// snapshots (the default) or everything looks empty.
    ///
    /// Used by the telemetry rank-error probe: comparing a popped key
    /// against this estimate bounds how far the relaxed pop strayed from
    /// the true minimum.  The estimate may lag reality in either
    /// direction; it must never be used for correctness decisions.
    fn min_key_hint(&self) -> Option<u64> {
        None
    }
}

/// Blanket implementation so `&mut H` can be passed where a handle is
/// expected (useful for composing algorithms with borrowed handles).
impl<T, H: SchedulerHandle<T> + ?Sized> SchedulerHandle<T> for &mut H {
    #[inline]
    fn push(&mut self, task: T) {
        (**self).push(task);
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        (**self).pop()
    }

    #[inline]
    fn push_batch(&mut self, tasks: &mut Vec<T>) {
        (**self).push_batch(tasks);
    }

    #[inline]
    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        (**self).pop_batch(out, max)
    }

    #[inline]
    fn flush(&mut self) {
        (**self).flush();
    }

    #[inline]
    fn stats(&self) -> OpStats {
        (**self).stats()
    }

    #[inline]
    fn min_key_hint(&self) -> Option<u64> {
        (**self).min_key_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;
    use std::sync::Mutex;

    /// A trivial single-lock scheduler used to exercise the trait plumbing.
    struct GlobalLockScheduler {
        heap: Mutex<BinaryHeap<std::cmp::Reverse<u64>>>,
        threads: usize,
    }

    struct GlobalLockHandle<'a> {
        parent: &'a GlobalLockScheduler,
        stats: OpStats,
    }

    impl Scheduler<u64> for GlobalLockScheduler {
        type Handle<'a> = GlobalLockHandle<'a>;

        fn num_threads(&self) -> usize {
            self.threads
        }

        fn handle(&self, thread_id: usize) -> GlobalLockHandle<'_> {
            assert!(thread_id < self.threads);
            GlobalLockHandle {
                parent: self,
                stats: OpStats::default(),
            }
        }
    }

    impl SchedulerHandle<u64> for GlobalLockHandle<'_> {
        fn push(&mut self, task: u64) {
            self.parent
                .heap
                .lock()
                .unwrap()
                .push(std::cmp::Reverse(task));
            self.stats.pushes += 1;
        }

        fn pop(&mut self) -> Option<u64> {
            let r = self.parent.heap.lock().unwrap().pop().map(|r| r.0);
            if r.is_some() {
                self.stats.pops += 1;
            } else {
                self.stats.empty_pops += 1;
            }
            r
        }

        fn stats(&self) -> OpStats {
            self.stats.clone()
        }
    }

    #[test]
    fn trait_plumbing_works_end_to_end() {
        let sched = GlobalLockScheduler {
            heap: Mutex::new(BinaryHeap::new()),
            threads: 2,
        };
        let mut h = sched.handle(0);
        for v in [5u64, 1, 3] {
            h.push(v);
        }
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.pop(), Some(3));
        assert_eq!(h.pop(), Some(5));
        assert_eq!(h.pop(), None);
        let stats = h.stats();
        assert_eq!(stats.pushes, 3);
        assert_eq!(stats.pops, 3);
        assert_eq!(stats.empty_pops, 1);
    }

    #[test]
    fn default_batch_impls_are_per_task_loops() {
        let sched = GlobalLockScheduler {
            heap: Mutex::new(BinaryHeap::new()),
            threads: 1,
        };
        let mut h = sched.handle(0);
        let mut batch = vec![9u64, 4, 6];
        h.push_batch(&mut batch);
        assert!(batch.is_empty(), "push_batch must drain its input");
        let mut out = Vec::new();
        assert_eq!(h.pop_batch(&mut out, 2), 2);
        assert_eq!(out, vec![4, 6]);
        assert_eq!(h.pop_batch(&mut out, 8), 1, "stops at empty");
        assert_eq!(out, vec![4, 6, 9]);
        assert_eq!(h.pop_batch(&mut out, 8), 0);
        let stats = h.stats();
        // The defaults route through push/pop, so counters stay exact.
        assert_eq!(stats.pushes, 3);
        assert_eq!(stats.pops, 3);
        assert_eq!(stats.empty_pops, 2);
        assert_eq!(stats.batch_flushes, 0, "defaults never count batches");
    }

    #[test]
    fn mut_ref_blanket_impl_forwards() {
        let sched = GlobalLockScheduler {
            heap: Mutex::new(BinaryHeap::new()),
            threads: 1,
        };
        let mut h = sched.handle(0);
        fn use_handle<H: SchedulerHandle<u64>>(mut h: H) -> Option<u64> {
            h.push(9);
            h.flush();
            h.pop()
        }
        assert_eq!(use_handle(&mut h), Some(9));
        assert_eq!(h.stats().pushes, 1);
    }
}
