//! OBIM and PMOD: the scheduling heuristics the paper compares against.
//!
//! **OBIM** (Ordered By Integer Metric, Nguyen et al., SOSP'13) maps each
//! task priority to a *bucket* using a Δ shift (`bucket = priority >> Δ`);
//! every bucket owns a *bag* of per-thread FIFO queues.  Threads insert into
//! their own queue of the right bag and delete *chunks* of up to
//! `CHUNK_SIZE` tasks from the lowest known non-empty bucket, stealing a
//! chunk from another thread's queue in the same bag when their own is
//! empty.  Priority inversions happen when the globally minimal bucket is
//! discovered lazily — that is OBIM's deliberate trade of ordering for
//! throughput.
//!
//! **PMOD** (Yesil et al., SC'19) is OBIM plus a dynamic Δ: it merges
//! buckets (Δ ← Δ+1) when there are so many sparse buckets that threads run
//! out of work, and splits them (Δ ← Δ−1) when individual buckets grow so
//! large that priority order degrades.  Here the adaptation is driven by the
//! ratio of active buckets to threads, evaluated every 256 deletes of a
//! thread.
//!
//! Buckets are keyed by their *range start* (`priority & !((1<<Δ)-1)`), so
//! bucket keys remain comparable across Δ changes — a PMOD adjustment only
//! affects how future insertions group tasks, never the relative order of
//! existing bags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, RwLock};
use smq_core::{HasKey, OpStats, Scheduler, SchedulerHandle};

/// Priority value used as "no bucket known" hint.
const EMPTY_HINT: u64 = u64::MAX;

/// Δ-management policy: fixed shift for OBIM, adaptive for PMOD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPolicy {
    /// OBIM: the shift never changes.
    Fixed,
    /// PMOD: the shift is adjusted at runtime between the given bounds.
    Adaptive {
        /// Smallest shift the adaptation may reach (finest bucketing).
        min_shift: u32,
        /// Largest shift the adaptation may reach (coarsest bucketing).
        max_shift: u32,
    },
}

/// Configuration shared by OBIM and PMOD.
#[derive(Debug, Clone)]
pub struct ObimConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Initial Δ shift: tasks with priorities in the same `2^Δ`-aligned
    /// range share a bucket.
    pub delta_shift: u32,
    /// Maximum number of tasks moved out of a bag per delete (the Galois
    /// `CHUNK_SIZE`).
    pub chunk_size: usize,
    /// Fixed (OBIM) or adaptive (PMOD) Δ.
    pub policy: DeltaPolicy,
    /// How many deletes a thread performs between adaptation checks: never
    /// for OBIM, every 256 for PMOD.  Set by the two presets only.
    pub(crate) adapt_interval: u64,
}

impl ObimConfig {
    /// OBIM with the given Δ shift and chunk size.
    pub fn obim(threads: usize, delta_shift: u32, chunk_size: usize) -> Self {
        Self {
            threads,
            delta_shift,
            chunk_size,
            policy: DeltaPolicy::Fixed,
            adapt_interval: u64::MAX,
        }
    }

    /// PMOD starting from the given Δ shift.
    pub fn pmod(threads: usize, delta_shift: u32, chunk_size: usize) -> Self {
        Self {
            threads,
            delta_shift,
            chunk_size,
            policy: DeltaPolicy::Adaptive {
                min_shift: 0,
                max_shift: 20,
            },
            adapt_interval: 256,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) {
        assert!(self.threads >= 1, "need at least one thread");
        assert!(self.chunk_size >= 1, "chunk size must be >= 1");
        assert!(self.delta_shift < 64, "delta shift must be < 64");
        if let DeltaPolicy::Adaptive {
            min_shift,
            max_shift,
        } = self.policy
        {
            assert!(min_shift <= max_shift, "min_shift must be <= max_shift");
            assert!(
                (min_shift..=max_shift).contains(&self.delta_shift),
                "initial delta must lie within the adaptive bounds"
            );
            assert!(self.adapt_interval >= 1, "adapt interval must be >= 1");
        }
    }
}

/// A bag: one FIFO queue per thread for a single priority bucket.
struct Bag<T> {
    queues: Vec<CachePadded<Mutex<VecDeque<T>>>>,
}

impl<T> Bag<T> {
    fn new(threads: usize) -> Self {
        Self {
            queues: (0..threads)
                .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
                .collect(),
        }
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.lock().is_empty())
    }
}

/// The OBIM / PMOD scheduler.
pub struct Obim<T> {
    /// Bucket key (range start) → bag.
    buckets: RwLock<BTreeMap<u64, Arc<Bag<T>>>>,
    /// Lower bound on the smallest bucket that may contain tasks.
    min_hint: AtomicU64,
    /// Current Δ shift (constant for OBIM, adapted for PMOD).
    delta_shift: AtomicU32,
    config: ObimConfig,
}

impl<T: HasKey + Send> Obim<T> {
    /// Builds an OBIM/PMOD scheduler from a validated configuration.
    pub fn new(config: ObimConfig) -> Self {
        config.validate();
        Self {
            buckets: RwLock::new(BTreeMap::new()),
            min_hint: AtomicU64::new(EMPTY_HINT),
            delta_shift: AtomicU32::new(config.delta_shift),
            config,
        }
    }

    /// The configuration this scheduler was built from.
    pub fn config(&self) -> &ObimConfig {
        &self.config
    }

    /// The Δ shift currently in effect (changes over time under PMOD).
    pub fn current_delta_shift(&self) -> u32 {
        self.delta_shift.load(Ordering::Relaxed)
    }

    /// Total number of queued tasks (exact only when quiescent).
    pub fn len(&self) -> usize {
        self.buckets
            .read()
            .values()
            .map(|bag| bag.queues.iter().map(|q| q.lock().len()).sum::<usize>())
            .sum()
    }

    /// `true` when no tasks are queued anywhere (quiescent check).
    pub fn is_empty(&self) -> bool {
        self.buckets.read().values().all(|bag| bag.is_empty())
    }

    fn bucket_key(&self, priority: u64) -> u64 {
        let shift = self.delta_shift.load(Ordering::Relaxed);
        if shift >= 64 {
            0
        } else {
            priority & !((1u64 << shift) - 1)
        }
    }

    fn bag_for(&self, bucket: u64) -> Arc<Bag<T>> {
        if let Some(bag) = self.buckets.read().get(&bucket) {
            return Arc::clone(bag);
        }
        let mut map = self.buckets.write();
        Arc::clone(
            map.entry(bucket)
                .or_insert_with(|| Arc::new(Bag::new(self.config.threads))),
        )
    }

    /// Lowers the global minimum-bucket hint to `bucket` if it is smaller.
    fn lower_hint(&self, bucket: u64) {
        self.min_hint.fetch_min(bucket, Ordering::AcqRel);
    }

    /// Number of non-empty buckets (used by PMOD's adaptation heuristic).
    fn active_buckets(&self) -> usize {
        self.buckets
            .read()
            .values()
            .filter(|bag| !bag.is_empty())
            .count()
    }

    /// PMOD adaptation step: merge buckets when work is too spread out,
    /// split when individual buckets grow too coarse.
    fn adapt_delta(&self) {
        let DeltaPolicy::Adaptive {
            min_shift,
            max_shift,
        } = self.config.policy
        else {
            return;
        };
        let active = self.active_buckets();
        let threads = self.config.threads;
        let shift = self.delta_shift.load(Ordering::Relaxed);
        if active > threads.saturating_mul(4) && shift < max_shift {
            // Too many sparse buckets: threads waste time scanning — merge.
            self.delta_shift.store(shift + 1, Ordering::Relaxed);
        } else if active <= threads / 2 && shift > min_shift {
            // Too few buckets: priority order is getting too coarse — split.
            self.delta_shift.store(shift - 1, Ordering::Relaxed);
        }
    }
}

impl<T: HasKey + Send> Scheduler<T> for Obim<T> {
    type Handle<'a>
        = ObimHandle<'a, T>
    where
        T: 'a;

    fn num_threads(&self) -> usize {
        self.config.threads
    }

    fn handle(&self, thread_id: usize) -> ObimHandle<'_, T> {
        assert!(thread_id < self.config.threads, "thread id out of range");
        ObimHandle {
            parent: self,
            thread_id,
            stats: OpStats::default(),
            chunk: VecDeque::with_capacity(self.config.chunk_size),
            cached_bucket: None,
            deletes_since_adapt: 0,
        }
    }
}

/// A worker thread's handle onto an [`Obim`] scheduler.
///
/// Dropping it pushes the rest of its current chunk back into the bags.
pub struct ObimHandle<'a, T: HasKey + Send> {
    parent: &'a Obim<T>,
    thread_id: usize,
    stats: OpStats,
    /// Tasks of the chunk currently being worked through.
    chunk: VecDeque<T>,
    /// Cache of the most recently used (bucket key, bag).
    cached_bucket: Option<(u64, Arc<Bag<T>>)>,
    /// Deletes performed since the last PMOD adaptation check.
    deletes_since_adapt: u64,
}

impl<T: HasKey + Send> ObimHandle<'_, T> {
    fn bag_cached(&mut self, bucket: u64) -> Arc<Bag<T>> {
        if let Some((key, bag)) = &self.cached_bucket {
            if *key == bucket {
                return Arc::clone(bag);
            }
        }
        let bag = self.parent.bag_for(bucket);
        self.cached_bucket = Some((bucket, Arc::clone(&bag)));
        bag
    }

    /// Pulls a chunk of tasks from the lowest non-empty bucket, preferring
    /// this thread's own queue and falling back to stealing a chunk from
    /// another thread's queue in the same bag.  Every refill counts as one
    /// delete towards the PMOD adaptation check.
    fn refill_chunk(&mut self) -> bool {
        self.deletes_since_adapt += 1;
        if self.deletes_since_adapt >= self.parent.config.adapt_interval {
            self.deletes_since_adapt = 0;
            self.parent.adapt_delta();
        }
        let start_hint = self.parent.min_hint.load(Ordering::Acquire);
        if self.refill_chunk_from(start_hint, start_hint) {
            return true;
        }
        // The hint can overshoot a bucket that holds tasks: a scan passes
        // bucket `b` while it is empty, a push then fills `b` (its
        // `lower_hint` is a no-op, the hint is still below `b`), and the
        // scan's `advance_hint` then raises the hint past `b`.  Nothing
        // lowers it again unless someone pushes at or below `b`, so a miss
        // above the hint proves nothing: look at the buckets below it too.
        start_hint > 0 && self.refill_chunk_from(0, start_hint)
    }

    /// [`Self::refill_chunk`] over the buckets at or above `from`;
    /// `start_hint` is the hint the caller observed.
    fn refill_chunk_from(&mut self, from: u64, start_hint: u64) -> bool {
        let chunk_size = self.parent.config.chunk_size;
        // Snapshot the candidate buckets.
        let candidates: Vec<(u64, Arc<Bag<T>>)> = {
            let map = self.parent.buckets.read();
            map.range(from..)
                .map(|(k, v)| (*k, Arc::clone(v)))
                .collect()
        };
        for (bucket, bag) in candidates {
            // Own queue first.
            let mut own = bag.queues[self.thread_id].lock();
            if !own.is_empty() {
                for _ in 0..chunk_size {
                    match own.pop_front() {
                        Some(t) => self.chunk.push_back(t),
                        None => break,
                    }
                }
                drop(own);
                self.advance_hint(start_hint, bucket);
                return true;
            }
            drop(own);
            // Steal a chunk from another thread's queue in this bag.
            for offset in 1..self.parent.config.threads {
                let victim = (self.thread_id + offset) % self.parent.config.threads;
                let mut queue = bag.queues[victim].lock();
                if queue.is_empty() {
                    continue;
                }
                self.stats.steal_attempts += 1;
                self.stats.steal_successes += 1;
                for _ in 0..chunk_size {
                    match queue.pop_front() {
                        Some(t) => {
                            self.chunk.push_back(t);
                            self.stats.stolen_tasks += 1;
                        }
                        None => break,
                    }
                }
                drop(queue);
                self.advance_hint(start_hint, bucket);
                return true;
            }
        }
        false
    }

    /// The next task of the current chunk; one bucket scan refills the
    /// whole chunk when it ran dry.
    fn next_task(&mut self) -> Option<T> {
        if self.chunk.is_empty() && !self.refill_chunk() {
            return None;
        }
        self.chunk.pop_front()
    }

    /// After finding work in `found_bucket`, raise the global hint if it
    /// still points below it (lazily skipping drained buckets).  Racy by
    /// design: a concurrent insert into a lower bucket lowers the hint again
    /// through `lower_hint`, and [`Self::refill_chunk`] looks below the hint
    /// before it reports a miss.  Work found *below* the hint pulls it back
    /// down, so the rest of that bucket is in every thread's view again.
    fn advance_hint(&self, observed_hint: u64, found_bucket: u64) {
        if found_bucket > observed_hint {
            let _ = self.parent.min_hint.compare_exchange(
                observed_hint,
                found_bucket,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        } else if found_bucket < observed_hint {
            self.parent.lower_hint(found_bucket);
        }
    }
}

impl<T: HasKey + Send> SchedulerHandle<T> for ObimHandle<'_, T> {
    fn push(&mut self, task: T) {
        self.stats.pushes += 1;
        let bucket = self.parent.bucket_key(task.key());
        let bag = self.bag_cached(bucket);
        self.stats.push_locks_acquired += 1;
        bag.queues[self.thread_id].lock().push_back(task);
        self.parent.lower_hint(bucket);
    }

    fn push_batch(&mut self, tasks: &mut Vec<T>) {
        if tasks.is_empty() {
            return;
        }
        let n = tasks.len() as u64;
        self.stats.pushes += n;
        self.stats.batch_flushes += 1;
        self.stats.tasks_batched += n;
        // Group consecutive same-bucket tasks under one queue lock.  Batches
        // come from one task's follow-ups, so runs of equal (or Δ-close)
        // priorities are the common case; a pathological alternating batch
        // degrades to the per-task cost, never worse.
        let mut drain = tasks.drain(..).peekable();
        while let Some(task) = drain.next() {
            let bucket = self.parent.bucket_key(task.key());
            let bag = self.bag_cached(bucket);
            self.stats.push_locks_acquired += 1;
            let mut queue = bag.queues[self.thread_id].lock();
            queue.push_back(task);
            while let Some(next) = drain.peek() {
                if self.parent.bucket_key(next.key()) != bucket {
                    break;
                }
                queue.push_back(drain.next().expect("peeked"));
            }
            drop(queue);
            self.parent.lower_hint(bucket);
        }
    }

    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        for got in 0..max {
            let Some(task) = self.next_task() else {
                if got == 0 {
                    self.stats.empty_pops += 1;
                }
                return got;
            };
            self.stats.pops += 1;
            out.push(task);
        }
        max
    }

    fn pop(&mut self) -> Option<T> {
        let task = self.next_task();
        if task.is_some() {
            self.stats.pops += 1;
        } else {
            self.stats.empty_pops += 1;
        }
        task
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

impl<T: HasKey + Send> Drop for ObimHandle<'_, T> {
    fn drop(&mut self) {
        // The chunk's tasks were taken out of their bags and exist nowhere
        // else: put them back through the ordinary insert path.
        let mut chunk = Vec::from(std::mem::take(&mut self.chunk));
        self.push_batch(&mut chunk);
    }
}

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use smq_core::Task;

    fn drain(handle: &mut ObimHandle<'_, Task>) -> Vec<Task> {
        let mut out = Vec::new();
        while let Some(t) = handle.pop() {
            out.push(t);
        }
        out
    }

    #[test]
    fn bucket_key_respects_delta() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(1, 3, 4));
        assert_eq!(obim.bucket_key(0), 0);
        assert_eq!(obim.bucket_key(7), 0);
        assert_eq!(obim.bucket_key(8), 8);
        assert_eq!(obim.bucket_key(13), 8);
        assert_eq!(obim.bucket_key(16), 16);
    }

    #[test]
    fn single_thread_respects_bucket_order() {
        // With delta 0 every priority is its own bucket, so a single-threaded
        // OBIM is an exact priority queue.
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(1, 0, 4));
        let mut h = obim.handle(0);
        for v in [9u64, 2, 7, 0, 5] {
            h.push(Task::new(v, v));
        }
        let keys: Vec<u64> = drain(&mut h).into_iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![0, 2, 5, 7, 9]);
    }

    #[test]
    fn tasks_in_same_bucket_come_out_fifo() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(1, 4, 8));
        let mut h = obim.handle(0);
        // All priorities below 16 share bucket 0.
        for v in [3u64, 1, 2] {
            h.push(Task::new(v, v));
        }
        let keys: Vec<u64> = drain(&mut h).into_iter().map(|t| t.key).collect();
        assert_eq!(
            keys,
            vec![3, 1, 2],
            "within a bucket OBIM is FIFO, not sorted"
        );
    }

    #[test]
    fn tasks_below_an_overshot_hint_are_still_found() {
        // The state the push / scan race leaves behind: a task in bucket 4
        // while the hint already points at bucket 8.
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 2, 1));
        let mut h = obim.handle(0);
        h.push(Task::new(5, 1));
        h.push(Task::new(6, 2));
        obim.min_hint.store(8, Ordering::Release);
        assert_eq!(h.pop(), Some(Task::new(5, 1)));
        assert_eq!(obim.min_hint.load(Ordering::Acquire), 4);
        assert_eq!(obim.handle(1).pop(), Some(Task::new(6, 2)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn conserves_elements_across_buckets() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 2, 4));
        let mut h = obim.handle(0);
        for v in 0..200u64 {
            h.push(Task::new(v % 37, v));
        }
        let drained = drain(&mut h);
        assert_eq!(drained.len(), 200);
        assert!(obim.is_empty());
        // Bucket-level ordering: the sequence of bucket keys is non-strictly
        // increasing once a bucket is drained (single thread, no inversions).
        let buckets: Vec<u64> = drained.iter().map(|t| t.key & !0b11).collect();
        let mut max_seen = 0;
        for b in buckets {
            assert!(b >= max_seen || b == max_seen, "bucket went backwards");
            max_seen = max_seen.max(b);
        }
    }

    #[test]
    fn batch_push_groups_bucket_runs_under_one_lock() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(1, 4, 8));
        let mut h = obim.handle(0);
        // Three consecutive bucket runs: [0,16), [16,32), [0,16) again.
        let mut batch = vec![
            Task::new(1, 0),
            Task::new(2, 1),
            Task::new(3, 2),
            Task::new(17, 3),
            Task::new(18, 4),
            Task::new(2, 5),
        ];
        h.push_batch(&mut batch);
        assert!(batch.is_empty());
        let stats = h.stats();
        assert_eq!(stats.pushes, 6);
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.tasks_batched, 6);
        assert_eq!(
            stats.push_locks_acquired, 3,
            "one lock per consecutive same-bucket run"
        );
        // Batch pop drains bucket by bucket, FIFO within each bucket.
        let mut out = Vec::new();
        assert_eq!(h.pop_batch(&mut out, 10), 6);
        let keys: Vec<u64> = out.iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![1, 2, 3, 2, 17, 18]);
        assert_eq!(h.pop_batch(&mut out, 4), 0);
        assert_eq!(h.stats().pops, 6);
        assert_eq!(h.stats().empty_pops, 1);
    }

    #[test]
    fn chunk_stealing_moves_work_between_threads() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 0, 4));
        {
            let mut h0 = obim.handle(0);
            for v in 0..32u64 {
                h0.push(Task::new(v, v));
            }
        }
        let mut h1 = obim.handle(1);
        let drained = drain(&mut h1);
        assert_eq!(drained.len(), 32);
        assert!(h1.stats().stolen_tasks > 0);
    }

    #[test]
    fn dropping_a_handle_returns_the_rest_of_its_chunk() {
        // Δ = 8 puts every key below 256 into one bucket, so the first pop
        // takes a whole chunk of 32 out of thread 0's queue.
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 8, 32));
        let mut h = obim.handle(0);
        for v in 0..64u64 {
            h.push(Task::new(v, v));
        }
        let first = h.pop().expect("64 tasks queued");
        assert_eq!(h.chunk.len(), 31);
        drop(h);
        let mut back = drain(&mut obim.handle(1));
        back.push(first);
        back.sort_unstable();
        assert_eq!(back, (0..64).map(|v| Task::new(v, v)).collect::<Vec<_>>());
    }

    #[test]
    fn min_hint_follows_new_lower_priority_inserts() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(1, 0, 2));
        let mut h = obim.handle(0);
        h.push(Task::new(100, 0));
        assert_eq!(h.pop(), Some(Task::new(100, 0)));
        // A new, lower-priority bucket appears afterwards.
        h.push(Task::new(5, 1));
        h.push(Task::new(200, 2));
        assert_eq!(h.pop().unwrap().key, 5);
    }

    #[test]
    fn pmod_merges_when_buckets_are_sparse() {
        let config = ObimConfig {
            adapt_interval: 8,
            ..ObimConfig::pmod(1, 0, 4)
        };
        let obim: Obim<Task> = Obim::new(config);
        let mut h = obim.handle(0);
        // Many distinct priorities => many sparse buckets at delta 0.
        for v in 0..512u64 {
            h.push(Task::new(v * 16, v));
        }
        let before = obim.current_delta_shift();
        let _ = drain(&mut h);
        let after = obim.current_delta_shift();
        assert!(
            after > before,
            "PMOD should have merged buckets ({before} -> {after})"
        );
    }

    #[test]
    fn pmod_splits_when_buckets_are_coarse() {
        let config = ObimConfig {
            adapt_interval: 4,
            policy: DeltaPolicy::Adaptive {
                min_shift: 0,
                max_shift: 16,
            },
            ..ObimConfig::pmod(2, 10, 4)
        };
        let obim: Obim<Task> = Obim::new(config);
        let mut h = obim.handle(0);
        // Everything lands in one giant bucket at delta 10.
        for v in 0..256u64 {
            h.push(Task::new(v, v));
        }
        let before = obim.current_delta_shift();
        let _ = drain(&mut h);
        assert!(
            obim.current_delta_shift() < before,
            "PMOD should have split buckets"
        );
    }

    #[test]
    fn concurrent_workers_conserve_elements() {
        hang_guard(|| {
            use std::sync::atomic::{AtomicU64, Ordering};
            let threads = 4;
            let per_thread = 3_000u64;
            let obim: Obim<Task> = Obim::new(ObimConfig::obim(threads, 3, 16));
            let popped = AtomicU64::new(0);
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let obim = &obim;
                    let popped = &popped;
                    s.spawn(move || {
                        let mut h = obim.handle(tid);
                        for i in 0..per_thread {
                            h.push(Task::new(i % 97, tid as u64 * per_thread + i));
                        }
                        while h.pop().is_some() {
                            popped.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            // Finish any remainder single-threaded (a worker may observe None
            // while another worker still holds unpushed chunk tasks).
            let mut h = obim.handle(0);
            while h.pop().is_some() {
                popped.fetch_add(1, Ordering::Relaxed);
            }
            assert_eq!(popped.load(Ordering::Relaxed), threads as u64 * per_thread);
            assert!(obim.is_empty());
        });
    }
}
