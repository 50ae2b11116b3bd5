//! The SprayList relaxed priority queue, wrapped as a scheduler.
//!
//! SprayList [Alistarh, Kopinsky, Li, Shavit, PPoPP'15] is one of the
//! guarantee-providing relaxed priority queues the paper compares against in
//! Figure 2.  Tasks live in a single shared concurrent skip list; deletions
//! perform a randomized *spray* walk that lands roughly uniformly within the
//! first `O(p·log²p)` elements (p = threads), spreading contention away from
//! the head of the list.
//!
//! The skip-list substrate, [`ConcurrentSkipList`], is the [`concurrent`]
//! module and holds all of this crate's `unsafe` code; the rest adapts it
//! to the workspace's [`Scheduler`]/[`SchedulerHandle`] interface and keeps
//! per-thread statistics.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod concurrent;

pub use concurrent::ConcurrentSkipList;

use concurrent::SprayParams;
use smq_core::rng::Pcg32;
use smq_core::{OpStats, Scheduler, SchedulerHandle};

/// Configuration of a [`SprayList`].
#[derive(Debug, Clone, Copy)]
pub struct SprayListConfig {
    /// Number of worker threads (used to tune the spray geometry).
    pub threads: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl SprayListConfig {
    /// Default configuration for `threads` workers.
    pub fn default_for_threads(threads: usize) -> Self {
        Self {
            threads,
            seed: 0x5942_41D5,
        }
    }
}

/// A SprayList scheduler: one shared concurrent skip list with spray
/// delete-min.
pub struct SprayList<T: Ord + Copy> {
    list: ConcurrentSkipList<T>,
    config: SprayListConfig,
    spray_params: SprayParams,
}

impl<T: Ord + Copy + Send> SprayList<T> {
    /// Creates an empty SprayList for the given configuration.
    pub fn new(config: SprayListConfig) -> Self {
        assert!(config.threads >= 1, "need at least one thread");
        Self {
            list: ConcurrentSkipList::new(),
            spray_params: SprayParams::for_threads(config.threads),
            config,
        }
    }

    /// Approximate number of tasks currently stored.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// `true` if no tasks are stored (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl<T: Ord + Copy + Send> Scheduler<T> for SprayList<T> {
    type Handle<'a>
        = SprayListHandle<'a, T>
    where
        Self: 'a;

    fn num_threads(&self) -> usize {
        self.config.threads
    }

    fn handle(&self, thread_id: usize) -> SprayListHandle<'_, T> {
        assert!(thread_id < self.config.threads, "thread id out of range");
        SprayListHandle {
            parent: self,
            rng: Pcg32::for_thread(self.config.seed, thread_id),
            stats: OpStats::default(),
        }
    }
}

/// A worker thread's handle onto a [`SprayList`].
pub struct SprayListHandle<'a, T: Ord + Copy> {
    parent: &'a SprayList<T>,
    rng: Pcg32,
    stats: OpStats,
}

impl<T: Ord + Copy + Send> SchedulerHandle<T> for SprayListHandle<'_, T> {
    fn push(&mut self, task: T) {
        self.stats.pushes += 1;
        self.parent.list.insert(task, &mut self.rng);
    }

    fn pop(&mut self) -> Option<T> {
        let got = self
            .parent
            .list
            .spray_delete_min(&mut self.rng, self.parent.spray_params);
        match got {
            Some(task) => {
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
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;

    #[test]
    fn conserves_elements_single_thread() {
        let sl: SprayList<u64> = SprayList::new(SprayListConfig::default_for_threads(1));
        let mut h = sl.handle(0);
        for v in 0..500u64 {
            h.push(v);
        }
        let mut out: Vec<u64> = std::iter::from_fn(|| h.pop()).collect();
        out.sort_unstable();
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        assert!(sl.is_empty());
        assert_eq!(h.stats().pushes, 500);
        assert_eq!(h.stats().pops, 500);
    }

    #[test]
    fn spray_mode_returns_near_minimum_elements() {
        let sl: SprayList<u64> = SprayList::new(SprayListConfig::default_for_threads(4));
        let mut h = sl.handle(0);
        let n = 10_000u64;
        for v in 0..n {
            h.push(v);
        }
        // The first pops should come from a small prefix, not uniformly from
        // the whole list.
        let first: Vec<u64> = (0..20).filter_map(|_| h.pop()).collect();
        let max = *first.iter().max().unwrap();
        assert!(max < n / 10, "spray pops landed too deep: {max}");
    }

    #[test]
    fn concurrent_workers_conserve_elements() {
        hang_guard(|| {
            use std::sync::atomic::{AtomicU64, Ordering};
            let threads = 4;
            let per_thread = 3_000u64;
            let sl: SprayList<u64> = SprayList::new(SprayListConfig::default_for_threads(threads));
            let popped = AtomicU64::new(0);
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let sl = &sl;
                    let popped = &popped;
                    s.spawn(move || {
                        let mut h = sl.handle(tid);
                        for i in 0..per_thread {
                            h.push(tid as u64 * per_thread + i);
                        }
                        while h.pop().is_some() {
                            popped.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            // A `None` from one thread can race with another thread's insert, so
            // drain the remainder before checking conservation.
            let mut h = sl.handle(0);
            while h.pop().is_some() {
                popped.fetch_add(1, Ordering::Relaxed);
            }
            assert_eq!(popped.load(Ordering::Relaxed), threads as u64 * per_thread);
        });
    }
}
