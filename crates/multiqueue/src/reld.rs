//! RELD — the Random-Enqueue Local-Dequeue scheduler.
//!
//! Described by Jeffrey et al. ("A scalable architecture for ordered
//! parallelism", MICRO'15) and used by the paper as a Figure 2 baseline:
//! tasks are inserted into a uniformly random queue (spreading load), but
//! each thread removes from its *own* queues, falling back to a random
//! remote queue only when its local queues are empty.  Compared with the
//! Multi-Queue this saves the second sample on deletes, at the price of
//! removing the two-choice rank guarantee.

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use smq_core::rng::Pcg32;
use smq_core::{OpStats, Scheduler, SchedulerHandle};
use smq_dheap::DAryHeap;

/// The RELD scheduler: `C·T` locked heaps, random enqueue, local dequeue.
pub struct Reld<T> {
    queues: Vec<CachePadded<Mutex<DAryHeap<T>>>>,
    threads: usize,
    c_factor: usize,
    seed: u64,
}

impl<T: Ord + Copy> Reld<T> {
    /// Creates a RELD scheduler for `threads` workers with `c_factor` queues
    /// per thread (the same `C` as the Multi-Queue; queue `q` is owned by
    /// thread `q % threads`).
    pub fn new(threads: usize, c_factor: usize, seed: u64) -> Self {
        assert!(threads >= 1 && c_factor >= 1);
        assert!(threads * c_factor >= 2, "need at least two queues");
        Self {
            queues: (0..threads * c_factor)
                .map(|_| CachePadded::new(Mutex::new(DAryHeap::new())))
                .collect(),
            threads,
            c_factor,
            seed,
        }
    }

    /// Total number of queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Sum of all queue lengths (exact only when quiescent).
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.lock().len()).sum()
    }

    /// `true` when every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.lock().is_empty())
    }
}

impl<T: Ord + Copy + Send> Scheduler<T> for Reld<T> {
    type Handle<'a>
        = ReldHandle<'a, T>
    where
        T: 'a;

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn handle(&self, thread_id: usize) -> ReldHandle<'_, T> {
        assert!(thread_id < self.threads);
        ReldHandle {
            parent: self,
            thread_id,
            rng: Pcg32::for_thread(self.seed, thread_id),
            stats: OpStats::default(),
        }
    }
}

/// A worker thread's handle onto a [`Reld`] scheduler.
pub struct ReldHandle<'a, T> {
    parent: &'a Reld<T>,
    thread_id: usize,
    rng: Pcg32,
    stats: OpStats,
}

impl<T: Ord + Copy + Send> SchedulerHandle<T> for ReldHandle<'_, T> {
    fn push(&mut self, task: T) {
        self.stats.pushes += 1;
        let mut task = Some(task);
        loop {
            let q = self.rng.next_bounded(self.parent.queues.len());
            match self.parent.queues[q].try_lock() {
                Some(mut guard) => {
                    guard.push(task.take().expect("present until pushed"));
                    return;
                }
                None => self.stats.contention_retries += 1,
            }
        }
    }

    fn pop(&mut self) -> Option<T> {
        // Local dequeue: pop from the first non-empty queue owned by this
        // thread.  RELD does no cross-queue priority comparison — that is
        // exactly the relaxation that distinguishes it from the Multi-Queue.
        for k in 0..self.parent.c_factor {
            let q = k * self.parent.threads + self.thread_id;
            if let Some(task) = self.parent.queues[q].lock().pop() {
                self.stats.pops += 1;
                return Some(task);
            }
        }
        // Local queues are empty: steal from one random queue.
        self.stats.steal_attempts += 1;
        let q = self.rng.next_bounded(self.parent.queues.len());
        let got = self.parent.queues[q].lock().pop();
        match got {
            Some(task) => {
                self.stats.steal_successes += 1;
                self.stats.stolen_tasks += 1;
                self.stats.pops += 1;
                Some(task)
            }
            None => {
                self.stats.empty_pops += 1;
                None
            }
        }
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;

    #[test]
    fn conserves_elements_single_thread() {
        let reld: Reld<u64> = Reld::new(2, 4, 1);
        let mut handle = reld.handle(0);
        for v in 0..300u64 {
            handle.push(v);
        }
        let mut drained = Vec::new();
        let mut misses = 0;
        while misses < 64 {
            match handle.pop() {
                Some(v) => {
                    drained.push(v);
                    misses = 0;
                }
                None => misses += 1,
            }
        }
        drained.sort_unstable();
        assert_eq!(drained, (0..300).collect::<Vec<_>>());
        assert!(reld.is_empty());
    }

    #[test]
    fn local_dequeue_prefers_own_queue() {
        let reld: Reld<u64> = Reld::new(2, 1, 2);
        // Queue 0 belongs to thread 0, queue 1 to thread 1.
        reld.queues[0].lock().push(100);
        reld.queues[1].lock().push(1);
        let mut h0 = reld.handle(0);
        // Thread 0 takes from its own queue even though queue 1 has a
        // higher-priority task — that is exactly RELD's relaxation.
        assert_eq!(h0.pop(), Some(100));
    }

    #[test]
    fn steals_when_local_empty() {
        let reld: Reld<u64> = Reld::new(2, 1, 3);
        reld.queues[1].lock().push(7);
        let mut h0 = reld.handle(0);
        // Thread 0's queue is empty; it must eventually steal task 7.
        let mut got = None;
        for _ in 0..64 {
            if let Some(v) = h0.pop() {
                got = Some(v);
                break;
            }
        }
        assert_eq!(got, Some(7));
        assert!(h0.stats().stolen_tasks >= 1);
    }

    #[test]
    fn concurrent_usage_conserves_elements() {
        hang_guard(|| {
            use std::sync::atomic::{AtomicU64, Ordering};
            let threads = 4;
            let per_thread = 2_000u64;
            let reld: Reld<u64> = Reld::new(threads, 2, 4);
            let popped = AtomicU64::new(0);
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let reld = &reld;
                    let popped = &popped;
                    s.spawn(move || {
                        let mut handle = reld.handle(tid);
                        for i in 0..per_thread {
                            handle.push(i);
                        }
                        while handle.pop().is_some() {
                            popped.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            let remaining = reld.len() as u64;
            assert_eq!(
                popped.load(Ordering::Relaxed) + remaining,
                threads as u64 * per_thread
            );
        });
    }
}
