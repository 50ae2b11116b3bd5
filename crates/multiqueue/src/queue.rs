//! The Multi-Queue scheduler (Listing 1) with configurable insert/delete
//! policies, optional NUMA-aware sampling, and cached top-key snapshots.
//!
//! # Cached top-key snapshots
//!
//! The classic two-choice delete locks **both** sampled queues before
//! comparing their tops, paying two lock acquisitions per pop.  Here every
//! sub-queue additionally publishes the key of its current minimum in a
//! cache-padded `AtomicU64` (`u64::MAX` when empty), maintained while the
//! queue's lock is held.  The delete compares the two snapshots *without
//! locking*, try-locks only the apparent winner, and re-checks the decision
//! under that single lock; only when the snapshot turns out stale (the
//! winner emptied or its top degraded past the loser's snapshot) does it
//! fall back to locking the second queue.  The common case therefore costs
//! one lock per pop — tracked by [`smq_core::OpStats::locks_acquired`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use smq_core::rng::Pcg32;
use smq_core::{HasKey, OpStats, Probability, Scheduler, SchedulerHandle, TaskWord};
use smq_dheap::PackedHeap;
use smq_runtime::{Topology, WeightedQueueSampler};

use crate::config::{DeletePolicy, InsertPolicy, MultiQueueConfig};

/// How many `try_lock` failures an insert tolerates before degrading to a
/// blocking `lock()`.  Bounded so a fully contended configuration (more
/// threads than queues, every queue held) cannot livelock the push path.
const TRY_LOCK_RETRY_CAP: u32 = 16;

/// Native `push_batch` runs larger than this are halved across *two*
/// independently sampled sub-queues instead of dumped into one, keeping
/// per-queue key distributions balanced under big batches while still
/// paying at most two insert locks per batch.  Batches up to this size keep
/// the one-queue/one-lock fast path.
const BATCH_SPLIT: usize = 16;

/// One lock-protected sequential heap, one word per task while the tasks
/// fit ([`PackedHeap`]), plus the lock-free snapshot of its current minimum
/// key.
pub(crate) struct SubQueue<T> {
    heap: CachePadded<Mutex<PackedHeap<T>>>,
    /// Key of the heap's current minimum (`u64::MAX` when empty).  Written
    /// only while `heap`'s lock is held; read without the lock by the
    /// two-choice delete.  Kept on its own cache line so snapshot readers
    /// do not contend with the lock word.
    top_key: CachePadded<AtomicU64>,
}

impl<T: Ord + HasKey + TaskWord> SubQueue<T> {
    fn new() -> Self {
        Self {
            heap: CachePadded::new(Mutex::new(PackedHeap::new())),
            top_key: CachePadded::new(AtomicU64::new(u64::MAX)),
        }
    }

    /// The published key of this queue's minimum; `u64::MAX` means "empty
    /// at last publication".  May be stale by the time the caller acts on
    /// it — every locking path re-validates under the lock.
    #[inline]
    pub(crate) fn top_key(&self) -> u64 {
        self.top_key.load(Ordering::Acquire)
    }

    /// Locks the heap, blocking.  The returned guard republishes the top
    /// key on drop.
    pub(crate) fn lock(&self) -> SubQueueGuard<'_, T> {
        SubQueueGuard {
            heap: self.heap.lock(),
            top_key: &self.top_key,
        }
    }

    /// Attempts to lock the heap without blocking.
    pub(crate) fn try_lock(&self) -> Option<SubQueueGuard<'_, T>> {
        self.heap.try_lock().map(|heap| SubQueueGuard {
            heap,
            top_key: &self.top_key,
        })
    }
}

/// A locked view of a [`SubQueue`].  Dereferences to the underlying
/// [`PackedHeap`]; publishes the (possibly changed) top key when dropped, so
/// the snapshot can never stay stale across an unlock.
pub(crate) struct SubQueueGuard<'a, T: Ord + HasKey + TaskWord> {
    heap: MutexGuard<'a, PackedHeap<T>>,
    top_key: &'a AtomicU64,
}

impl<T: Ord + HasKey + TaskWord> std::ops::Deref for SubQueueGuard<'_, T> {
    type Target = PackedHeap<T>;

    fn deref(&self) -> &PackedHeap<T> {
        &self.heap
    }
}

impl<T: Ord + HasKey + TaskWord> std::ops::DerefMut for SubQueueGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut PackedHeap<T> {
        &mut self.heap
    }
}

impl<T: Ord + HasKey + TaskWord> Drop for SubQueueGuard<'_, T> {
    fn drop(&mut self) {
        // `u64::MAX` is reserved as the pure "empty" sentinel, so published
        // keys are clamped to `u64::MAX - 1`: a legitimate MAX-keyed task
        // advertises itself one notch too optimistically instead of making
        // the queue look empty (which would strand it forever).  The
        // under-lock re-check in the delete recovers the exact ordering.
        let key = self
            .heap
            .peek()
            .map_or(u64::MAX, |top| top.key().min(u64::MAX - 1));
        // Release pairs with the Acquire in `SubQueue::top_key`; the store
        // happens while the lock is still held, so snapshots move through
        // the exact sequence of values the heap's minimum went through.
        self.top_key.store(key, Ordering::Release);
    }
}

/// The Multi-Queue: `C·T` lock-protected sequential heaps with randomized
/// insert and snapshot-guided two-choice delete, plus the paper's batching,
/// temporal locality, and NUMA-aware sampling optimisations.
pub struct MultiQueue<T> {
    pub(crate) queues: Vec<SubQueue<T>>,
    sampler: WeightedQueueSampler,
    config: MultiQueueConfig,
}

impl<T: Ord + HasKey + TaskWord> MultiQueue<T> {
    /// Builds a Multi-Queue from a validated configuration.
    pub fn new(config: MultiQueueConfig) -> Self {
        config.validate();
        let queues = (0..config.num_queues()).map(|_| SubQueue::new()).collect();
        let sampler = match &config.numa {
            Some(numa) => WeightedQueueSampler::new(numa.topology.clone(), config.c_factor, numa.k),
            None => WeightedQueueSampler::uniform(
                Topology::single_node(config.threads),
                config.c_factor,
            ),
        };
        Self {
            queues,
            sampler,
            config,
        }
    }

    /// The configuration this scheduler was built from.
    pub fn config(&self) -> &MultiQueueConfig {
        &self.config
    }

    /// Total number of underlying queues (`C·T`).
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Sum of the lengths of all queues.  Approximate under concurrency;
    /// exact when quiescent.  Does not include tasks buffered in handles.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.lock().len()).sum()
    }

    /// `true` when every underlying queue is empty (tasks buffered inside
    /// handles are not visible here).
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.lock().is_empty())
    }

    /// The published top-key snapshot of queue `q` (diagnostics/tests).
    pub fn snapshot_key(&self, q: usize) -> u64 {
        self.queues[q].top_key()
    }
}

impl<T: Ord + HasKey + TaskWord + Send> Scheduler<T> for MultiQueue<T> {
    type Handle<'a>
        = MultiQueueHandle<'a, T>
    where
        T: 'a;

    fn num_threads(&self) -> usize {
        self.config.threads
    }

    fn handle(&self, thread_id: usize) -> MultiQueueHandle<'_, T> {
        assert!(thread_id < self.config.threads, "thread id out of range");
        MultiQueueHandle {
            parent: self,
            thread_id,
            rng: Pcg32::for_thread(self.config.seed, thread_id),
            stats: OpStats::default(),
            insert_buffer: Vec::new(),
            delete_buffer: VecDeque::new(),
            tl_insert_queue: None,
            tl_delete_queue: None,
        }
    }
}

/// A worker thread's handle onto a [`MultiQueue`].
///
/// Dropping it hands the tasks it buffers back to the shared queues.
pub struct MultiQueueHandle<'a, T: Ord + HasKey + TaskWord> {
    parent: &'a MultiQueue<T>,
    thread_id: usize,
    rng: Pcg32,
    stats: OpStats,
    /// Pending inserts under [`InsertPolicy::Batching`].
    insert_buffer: Vec<T>,
    /// Prefetched tasks under [`DeletePolicy::Batching`], ascending order.
    delete_buffer: VecDeque<T>,
    /// "Current" queue under [`InsertPolicy::TemporalLocality`].
    tl_insert_queue: Option<usize>,
    /// "Current" queue under [`DeletePolicy::TemporalLocality`].
    tl_delete_queue: Option<usize>,
}

impl<'a, T: Ord + HasKey + TaskWord> MultiQueueHandle<'a, T> {
    /// Samples one queue index, recording NUMA locality statistics.
    fn sample_queue(&mut self) -> usize {
        let (q, local) = self.parent.sampler.sample(self.thread_id, &mut self.rng);
        if local {
            self.stats.local_samples += 1;
        } else {
            self.stats.remote_samples += 1;
        }
        q
    }

    /// Samples two distinct queue indices.  Terminates because
    /// `MultiQueueConfig::validate` guarantees at least two queues.
    fn sample_two_distinct(&mut self) -> (usize, usize) {
        let a = self.sample_queue();
        loop {
            let b = self.sample_queue();
            if b != a {
                return (a, b);
            }
        }
    }

    /// Locks a freshly sampled queue for an insert, resampling on lock
    /// failure like Listing 1 — but with a bounded number of `try_lock`
    /// attempts: past [`TRY_LOCK_RETRY_CAP`] failures it blocks on the
    /// next sampled queue, so a fully contended configuration cannot
    /// livelock.
    #[inline]
    fn lock_sampled(&mut self) -> SubQueueGuard<'a, T> {
        let parent = self.parent;
        let mut attempts = 0u32;
        loop {
            let queue = &parent.queues[self.sample_queue()];
            let guard = if attempts >= TRY_LOCK_RETRY_CAP {
                Some(queue.lock())
            } else {
                queue.try_lock()
            };
            match guard {
                Some(guard) => {
                    self.stats.push_locks_acquired += 1;
                    return guard;
                }
                None => {
                    self.stats.contention_retries += 1;
                    attempts += 1;
                }
            }
        }
    }

    /// Locks the temporally "current" insert queue, changing it first with
    /// the configured probability.  Re-acquiring a recently used, usually
    /// uncontended lock is cheap; temporal locality deliberately trades
    /// contention for cache reuse.
    fn lock_current_insert(&mut self, change: Probability) -> SubQueueGuard<'a, T> {
        let q = match self.tl_insert_queue {
            Some(q) if !change.sample(&mut self.rng) => q,
            _ => {
                let q = self.sample_queue();
                self.tl_insert_queue = Some(q);
                q
            }
        };
        self.stats.push_locks_acquired += 1;
        self.parent.queues[q].lock()
    }

    /// Flushes the insert buffer into a single randomly chosen queue.  The
    /// lock amortization is counted; `batch_flushes` is not — that counter
    /// tracks native `push_batch` calls only, and this flush may be fed by
    /// per-task pushes.
    fn flush_insert_buffer(&mut self) {
        if self.insert_buffer.is_empty() {
            return;
        }
        self.lock_sampled().extend(self.insert_buffer.drain(..));
    }

    /// Snapshot-guided two-choice delete: compare the two sampled queues'
    /// published top keys without locking, lock only the winner, re-check
    /// under the lock, and fall back to the second lock on staleness.
    /// Returns the task together with the queue it came from.
    fn pop_two_choice(&mut self, batch: usize) -> Option<(T, usize)> {
        let parent = self.parent;
        loop {
            let (q1, q2) = self.sample_two_distinct();
            let k1 = parent.queues[q1].top_key();
            let k2 = parent.queues[q2].top_key();
            if k1 == u64::MAX && k2 == u64::MAX {
                // Both appeared empty.  Snapshots are republished on every
                // unlock, so when the scheduler is quiescent this is exact;
                // under concurrency a spurious `None` is fine (the pool
                // worker re-checks via termination detection).
                return None;
            }
            let (winner, loser) = if k1 <= k2 { (q1, q2) } else { (q2, q1) };
            let mut guard = match parent.queues[winner].try_lock() {
                Some(g) => g,
                None => {
                    self.stats.contention_retries += 1;
                    continue;
                }
            };
            self.stats.locks_acquired += 1;
            // Re-check under the lock: is the winner still at least as good
            // as the loser's current snapshot?
            let loser_key = parent.queues[loser].top_key();
            let still_winner = match guard.peek() {
                Some(top) => top.key() <= loser_key,
                None => false,
            };
            if still_winner {
                // Batch extraction is *bounded by the loser's snapshot*:
                // the prefetch keeps taking from the winner only while its
                // top would still win the two-choice comparison, so a batch
                // of B costs one lock but preserves (snapshot-grade)
                // per-task delete quality — extracting the winner's run
                // unconditionally was measurably worse on small frontiers,
                // where one queue's run is a big slice of the open set.
                return Some((self.extract_batch(&mut guard, batch, loser_key)?, winner));
            }
            // Stale snapshot: the winner emptied or degraded.  Fall back to
            // the classic both-locked comparison so the delete still returns
            // the better of the two sampled queues.
            match parent.queues[loser].try_lock() {
                Some(loser_guard) => {
                    self.stats.locks_acquired += 1;
                    match self.extract_from_better((winner, guard), (loser, loser_guard), batch) {
                        Some(found) => return Some(found),
                        // Both genuinely empty under their locks: resample
                        // unless the whole structure looks drained.
                        None => {
                            if parent.queues.iter().all(|q| q.top_key() == u64::MAX) {
                                return None;
                            }
                        }
                    }
                }
                None => {
                    drop(guard);
                    self.stats.contention_retries += 1;
                }
            }
        }
    }

    /// Given both locked queues, picks the one whose top task has higher
    /// priority and extracts a batch from it, bounded by the other queue's
    /// current top.  Returns the task together with the queue it came from.
    fn extract_from_better(
        &mut self,
        (q1, mut guard1): (usize, SubQueueGuard<'_, T>),
        (q2, mut guard2): (usize, SubQueueGuard<'_, T>),
        batch: usize,
    ) -> Option<(T, usize)> {
        let use_first = match (guard1.peek(), guard2.peek()) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (source, other, q) = if use_first {
            (&mut guard1, &guard2, q1)
        } else {
            (&mut guard2, &guard1, q2)
        };
        let bound = other.peek().map_or(u64::MAX, |t| t.key());
        Some((self.extract_batch(source, batch, bound)?, q))
    }

    /// Extracts up to `batch` tasks from a locked queue, returning the
    /// first.  The prefetched remainder (everything past the first task)
    /// only keeps flowing while the queue's next top is `<= bound` — the
    /// sampled rival's key — so a batched delete never returns tasks the
    /// per-task two-choice rule would have rejected.
    fn extract_batch(
        &mut self,
        queue: &mut SubQueueGuard<'_, T>,
        batch: usize,
        bound: u64,
    ) -> Option<T> {
        let first = queue.pop()?;
        for _ in 1..batch {
            match queue.peek() {
                Some(next) if next.key() <= bound => {
                    let task = queue.pop().expect("peeked task present");
                    self.delete_buffer.push_back(task);
                }
                _ => break,
            }
        }
        Some(first)
    }

    /// Pops from the temporally "current" queue.  With the configured
    /// probability, or when that queue looks empty or runs dry, re-selects
    /// it with one two-choice delete, stale-snapshot fallback included, and
    /// keeps the queue that delete took from.
    fn pop_temporal(&mut self, change: Probability) -> Option<T> {
        if let Some(q) = self.tl_delete_queue {
            // Snapshot re-check before paying the lock (the same idiom as
            // the two-choice delete): a `u64::MAX` snapshot means the
            // current queue was empty at its last unlock, so a blocking
            // lock would almost surely confirm emptiness at full price —
            // fall straight through to a fresh selection instead.  A stale
            // non-MAX snapshot merely costs the (previous) lock-and-miss.
            if !change.sample(&mut self.rng) && self.parent.queues[q].top_key() != u64::MAX {
                self.stats.locks_acquired += 1;
                if let Some(task) = self.parent.queues[q].lock().pop() {
                    return Some(task);
                }
            }
        }
        let (task, q) = self.pop_two_choice(1)?;
        self.tl_delete_queue = Some(q);
        Some(task)
    }

    /// The next task under the configured delete policy: the prefetch
    /// buffer first — tasks already paid for — then one policy delete.  The
    /// two-choice and batching deletes extract up to `want` tasks from the
    /// winning queue under its single lock (the rest land in the buffer);
    /// the temporal delete takes one task per lock, its lock already
    /// amortized across the streak.
    fn next_task(&mut self, want: usize) -> Option<T> {
        if let Some(task) = self.delete_buffer.pop_front() {
            return Some(task);
        }
        match self.parent.config.delete {
            DeletePolicy::TwoChoice => self.pop_two_choice(want).map(|(task, _)| task),
            DeletePolicy::TemporalLocality(p) => self.pop_temporal(p),
            DeletePolicy::Batching(batch) => {
                self.pop_two_choice(want.max(batch)).map(|(task, _)| task)
            }
        }
    }
}

impl<T: Ord + HasKey + TaskWord + Send> SchedulerHandle<T> for MultiQueueHandle<'_, T> {
    fn push(&mut self, task: T) {
        self.stats.pushes += 1;
        match self.parent.config.insert {
            InsertPolicy::Direct => self.lock_sampled().push(task),
            InsertPolicy::TemporalLocality(p) => self.lock_current_insert(p).push(task),
            InsertPolicy::Batching(batch) => {
                self.insert_buffer.push(task);
                if self.insert_buffer.len() >= batch {
                    self.flush_insert_buffer();
                }
            }
        }
    }

    fn pop(&mut self) -> Option<T> {
        let task = self.next_task(1);
        if task.is_some() {
            self.stats.pops += 1;
        } else {
            self.stats.empty_pops += 1;
        }
        task
    }

    fn push_batch(&mut self, tasks: &mut Vec<T>) {
        if tasks.is_empty() {
            return;
        }
        let n = tasks.len() as u64;
        self.stats.pushes += n;
        self.stats.batch_flushes += 1;
        self.stats.tasks_batched += n;
        match self.parent.config.insert {
            // The policy already batches: merge into its buffer and let its
            // own threshold decide when the lock is paid.
            InsertPolicy::Batching(batch) => {
                self.insert_buffer.append(tasks);
                if self.insert_buffer.len() >= batch {
                    self.flush_insert_buffer();
                }
            }
            // One sampled queue, one lock, the whole batch — unless the
            // batch exceeds `BATCH_SPLIT`, in which case it is halved
            // across two independently sampled sub-queues so a single
            // queue's key distribution does not absorb the entire run
            // (two locks instead of one, still far under one per task).
            // Relaxation is untouched either way: each half is N
            // consecutive inserts into one lock-protected sub-queue,
            // exactly what `InsertPolicy::Batching` already does on its
            // own flush boundary.
            InsertPolicy::Direct => {
                if tasks.len() > BATCH_SPLIT {
                    let tail = tasks.split_off(tasks.len() / 2);
                    self.lock_sampled().extend(tasks.drain(..));
                    self.lock_sampled().extend(tail);
                } else {
                    self.lock_sampled().extend(tasks.drain(..));
                }
            }
            // Temporal locality: one change-die roll and one lock on the
            // "current" queue for the whole batch.
            InsertPolicy::TemporalLocality(change) => {
                self.lock_current_insert(change).extend(tasks.drain(..));
            }
        }
    }

    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        for got in 0..max {
            let Some(task) = self.next_task(max - got) else {
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

    fn flush(&mut self) {
        self.flush_insert_buffer();
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn min_key_hint(&self) -> Option<u64> {
        // Minimum over every sub-queue's published top-key snapshot (the
        // same Acquire loads pop's two-choice comparison reads).  Tasks
        // still sitting in handles' insert buffers are invisible here —
        // the estimate is advisory, exactly like the snapshots themselves.
        let best = self
            .parent
            .queues
            .iter()
            .map(|q| q.top_key())
            .min()
            .unwrap_or(u64::MAX);
        (best != u64::MAX).then_some(best)
    }
}

impl<T: Ord + HasKey + TaskWord> Drop for MultiQueueHandle<'_, T> {
    fn drop(&mut self) {
        // Buffered inserts and prefetched deletes exist nowhere else: flush
        // both into a sampled queue instead of dropping them.
        self.insert_buffer.extend(self.delete_buffer.drain(..));
        self.flush_insert_buffer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use smq_core::Task;

    fn drain_all<T: Ord + HasKey + Send + TaskWord>(
        handle: &mut MultiQueueHandle<'_, T>,
    ) -> Vec<T> {
        // Relaxed schedulers may need several attempts to find the last
        // tasks; an empty result 64 times in a row means truly empty for a
        // single-threaded test.
        let mut out = Vec::new();
        let mut misses = 0;
        while misses < 64 {
            match handle.pop() {
                Some(t) => {
                    out.push(t);
                    misses = 0;
                }
                None => misses += 1,
            }
        }
        out
    }

    fn conserves_elements(config: MultiQueueConfig) {
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut handle = mq.handle(0);
        let n = 500u64;
        for v in 0..n {
            handle.push(v);
        }
        handle.flush();
        let mut drained = drain_all(&mut handle);
        drained.sort_unstable();
        assert_eq!(drained, (0..n).collect::<Vec<_>>());
        assert!(mq.is_empty());
        let stats = handle.stats();
        assert_eq!(stats.pushes, n);
        assert_eq!(stats.pops, n);
    }

    #[test]
    fn classic_conserves_elements() {
        conserves_elements(MultiQueueConfig::classic(2));
        // The smallest configuration `validate` admits: two queues, so the
        // two-choice sample is always the same pair.
        conserves_elements(MultiQueueConfig::classic(1).with_c_factor(2));
    }

    #[test]
    fn batching_insert_conserves_elements() {
        conserves_elements(MultiQueueConfig::classic(2).with_insert(InsertPolicy::Batching(16)));
    }

    #[test]
    fn batching_delete_conserves_elements() {
        conserves_elements(MultiQueueConfig::classic(2).with_delete(DeletePolicy::Batching(8)));
    }

    #[test]
    fn temporal_locality_conserves_elements() {
        conserves_elements(
            MultiQueueConfig::classic(2)
                .with_insert(InsertPolicy::TemporalLocality(Probability::new(4)))
                .with_delete(DeletePolicy::TemporalLocality(Probability::new(4))),
        );
    }

    #[test]
    fn numa_variant_conserves_elements_and_tracks_locality() {
        let config = MultiQueueConfig::classic(4)
            .with_numa(Topology::split(4, 2), 16)
            .with_seed(11);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut handle = mq.handle(1);
        for v in 0..200u64 {
            handle.push(v);
        }
        // K = 16 makes remote queues rare two-choice candidates, so the
        // last stragglers on the far node need far more attempts than the
        // uniform drain budget: be patient rather than lossy.
        let mut drained = Vec::new();
        let mut misses = 0;
        while misses < 4096 {
            match handle.pop() {
                Some(t) => {
                    drained.push(t);
                    misses = 0;
                }
                None => misses += 1,
            }
        }
        assert_eq!(drained.len(), 200);
        let stats = handle.stats();
        assert!(stats.local_samples > 0);
        // K = 16 strongly biases towards the local node.
        assert!(stats.local_samples > stats.remote_samples);
        assert!(stats.locality_rate().unwrap() > 0.5);
    }

    #[test]
    fn two_choice_prefers_higher_priority_top() {
        // With exactly two queues and deterministic contents, the two-choice
        // delete must return the global minimum.
        let config = MultiQueueConfig::classic(1).with_c_factor(2).with_seed(3);
        let mq: MultiQueue<Task> = MultiQueue::new(config);
        // Manually place tasks into both queues.
        mq.queues[0].lock().push(Task::new(50, 0));
        mq.queues[1].lock().push(Task::new(10, 1));
        let mut handle = mq.handle(0);
        assert_eq!(handle.pop(), Some(Task::new(10, 1)));
        assert_eq!(handle.pop(), Some(Task::new(50, 0)));
        assert_eq!(handle.pop(), None);
    }

    #[test]
    fn snapshots_track_heap_minimum() {
        let config = MultiQueueConfig::classic(1).with_c_factor(2).with_seed(3);
        let mq: MultiQueue<Task> = MultiQueue::new(config);
        assert_eq!(mq.snapshot_key(0), u64::MAX);
        mq.queues[0].lock().push(Task::new(50, 0));
        assert_eq!(mq.snapshot_key(0), 50);
        mq.queues[0].lock().push(Task::new(7, 1));
        assert_eq!(mq.snapshot_key(0), 7);
        assert_eq!(mq.queues[0].lock().pop(), Some(Task::new(7, 1)));
        assert_eq!(mq.snapshot_key(0), 50);
        assert_eq!(mq.queues[0].lock().pop(), Some(Task::new(50, 0)));
        assert_eq!(mq.snapshot_key(0), u64::MAX);
    }

    #[test]
    fn single_lock_delete_uses_one_lock_per_pop_when_uncontended() {
        // Single-threaded: snapshots are always exact, so every successful
        // pop must acquire exactly one lock (the acceptance criterion of the
        // snapshot optimisation; the classic implementation acquired two).
        let config = MultiQueueConfig::classic(2).with_seed(17);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut handle = mq.handle(0);
        for v in 0..1_000u64 {
            handle.push(v);
        }
        let drained = drain_all(&mut handle);
        assert_eq!(drained.len(), 1_000);
        let stats = handle.stats();
        assert_eq!(stats.pops, 1_000);
        assert_eq!(
            stats.locks_acquired, 1_000,
            "uncontended snapshot delete must lock exactly once per pop"
        );
    }

    #[test]
    fn stale_snapshot_falls_back_to_second_lock() {
        // Forge a stale snapshot: make queue 0 advertise a better key than
        // it actually holds, so the delete locks it as the "winner", finds
        // the re-check failing, and must recover the true minimum from
        // queue 1 via the fallback path.  The temporal delete re-selects
        // through the same two-choice delete, so it takes the same task and
        // keeps the queue that delete returned as its current queue.
        for delete in [
            DeletePolicy::TwoChoice,
            DeletePolicy::TemporalLocality(Probability::new(4)),
        ] {
            let config = MultiQueueConfig::classic(1)
                .with_c_factor(2)
                .with_delete(delete)
                .with_seed(3);
            let mq: MultiQueue<Task> = MultiQueue::new(config);
            mq.queues[0].lock().push(Task::new(80, 0));
            mq.queues[1].lock().push(Task::new(20, 1));
            // Overwrite queue 0's snapshot with a lie (better than queue 1's).
            mq.queues[0].top_key.store(5, Ordering::Release);
            let mut handle = mq.handle(0);
            assert_eq!(handle.pop(), Some(Task::new(20, 1)), "{delete:?}");
            let stats = handle.stats();
            assert!(
                stats.locks_acquired >= 2,
                "stale snapshot must trigger the two-lock fallback ({delete:?})"
            );
            if let DeletePolicy::TemporalLocality(_) = delete {
                assert_eq!(handle.tl_delete_queue, Some(1));
            }
            // The fallback republished queue 0's honest snapshot.
            assert_eq!(mq.snapshot_key(0), 80, "{delete:?}");
            assert_eq!(handle.pop(), Some(Task::new(80, 0)), "{delete:?}");
            assert_eq!(handle.pop(), None, "{delete:?}");
        }
    }

    #[test]
    fn stale_fallback_takes_the_better_of_both_locked_queues() {
        // Both snapshots lie: queue 0 advertises 5 but holds 80, queue 1
        // advertises 20 but holds 90.  The re-check under queue 0's lock
        // fails (80 > 20), so the fallback locks queue 1 too and must take
        // the better of the two true tops — for both delete policies.
        for delete in [
            DeletePolicy::TwoChoice,
            DeletePolicy::TemporalLocality(Probability::new(4)),
        ] {
            let config = MultiQueueConfig::classic(1)
                .with_c_factor(2)
                .with_delete(delete)
                .with_seed(3);
            let mq: MultiQueue<Task> = MultiQueue::new(config);
            mq.queues[0].lock().push(Task::new(80, 0));
            mq.queues[1].lock().push(Task::new(90, 1));
            mq.queues[0].top_key.store(5, Ordering::Release);
            mq.queues[1].top_key.store(20, Ordering::Release);
            let mut handle = mq.handle(0);
            assert_eq!(handle.pop(), Some(Task::new(80, 0)), "{delete:?}");
            assert_eq!(handle.stats().locks_acquired, 2, "{delete:?}");
            if let DeletePolicy::TemporalLocality(_) = delete {
                assert_eq!(handle.tl_delete_queue, Some(0));
            }
        }
    }

    #[test]
    fn max_keyed_tasks_are_not_stranded_by_the_empty_sentinel() {
        // `u64::MAX` doubles as the snapshot's "empty" marker; a legitimate
        // MAX-keyed task must still be findable (published keys clamp to
        // MAX - 1, so the queue never advertises itself as empty).
        let config = MultiQueueConfig::classic(1).with_c_factor(2).with_seed(3);
        let mq: MultiQueue<Task> = MultiQueue::new(config);
        mq.queues[0].lock().push(Task::new(u64::MAX, 7));
        assert_eq!(mq.snapshot_key(0), u64::MAX - 1);
        let mut handle = mq.handle(0);
        assert_eq!(handle.pop(), Some(Task::new(u64::MAX, 7)));
        assert_eq!(handle.pop(), None);
        assert_eq!(mq.snapshot_key(0), u64::MAX);
    }

    #[test]
    fn stale_empty_snapshot_recovers_remaining_task() {
        // The reverse staleness: the winner advertises a task but is empty.
        let config = MultiQueueConfig::classic(1).with_c_factor(2).with_seed(3);
        let mq: MultiQueue<Task> = MultiQueue::new(config);
        mq.queues[1].lock().push(Task::new(30, 2));
        // Queue 0 is empty but claims to hold the global minimum.
        mq.queues[0].top_key.store(1, Ordering::Release);
        let mut handle = mq.handle(0);
        assert_eq!(handle.pop(), Some(Task::new(30, 2)));
        assert_eq!(mq.snapshot_key(0), u64::MAX, "lie must be corrected");
        assert_eq!(handle.pop(), None);
    }

    #[test]
    fn temporal_delete_skips_the_lock_when_the_current_queue_looks_empty() {
        // Drain everything, then keep popping: every queue's snapshot is
        // MAX, so neither the temporal "current queue" path nor the
        // two-choice fallback may acquire another lock.
        let config = MultiQueueConfig::classic(2)
            .with_delete(DeletePolicy::TemporalLocality(Probability::new(64)))
            .with_seed(13);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut handle = mq.handle(0);
        for v in 0..200u64 {
            handle.push(v);
        }
        let drained = drain_all(&mut handle);
        assert_eq!(drained.len(), 200);
        let locks_after_drain = handle.stats().locks_acquired;
        for _ in 0..50 {
            assert_eq!(handle.pop(), None);
        }
        assert_eq!(
            handle.stats().locks_acquired,
            locks_after_drain,
            "pops on an all-empty-snapshot scheduler must not lock"
        );
    }

    #[test]
    fn delete_batching_prefetches_in_priority_order() {
        let config = MultiQueueConfig::classic(1)
            .with_c_factor(2)
            .with_delete(DeletePolicy::Batching(4))
            .with_seed(5);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        // All tasks in one queue so a single batch grabs the four smallest.
        {
            let mut q = mq.queues[0].lock();
            for v in [9u64, 3, 7, 1, 5] {
                q.push(v);
            }
        }
        let mut handle = mq.handle(0);
        assert_eq!(handle.pop(), Some(1));
        // The next three come from the prefetch buffer in ascending order,
        // without touching the shared queues.
        assert_eq!(handle.delete_buffer.len(), 3);
        assert_eq!(handle.pop(), Some(3));
        assert_eq!(handle.pop(), Some(5));
        assert_eq!(handle.pop(), Some(7));
        assert_eq!(handle.pop(), Some(9));
    }

    #[test]
    fn insert_batching_defers_until_flush_or_full() {
        let config = MultiQueueConfig::classic(2)
            .with_insert(InsertPolicy::Batching(8))
            .with_seed(6);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut handle = mq.handle(0);
        for v in 0..5u64 {
            handle.push(v);
        }
        // Fewer than the batch size: nothing visible in the shared queues.
        assert!(mq.is_empty());
        handle.flush();
        assert_eq!(mq.len(), 5);
        for v in 5..13u64 {
            handle.push(v);
        }
        // Crossing the batch size triggered an automatic flush.
        assert!(mq.len() >= 13 - 5);
    }

    #[test]
    fn dropping_a_handle_returns_its_buffered_inserts() {
        let config = MultiQueueConfig::classic(2)
            .with_insert(InsertPolicy::Batching(16))
            .with_seed(6);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut handle = mq.handle(0);
        for v in 0..5u64 {
            handle.push(v);
        }
        assert!(mq.is_empty(), "below the batch size nothing is flushed");
        drop(handle);
        let mut back = drain_all(&mut mq.handle(1));
        back.sort_unstable();
        assert_eq!(back, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_a_handle_returns_its_prefetched_deletes() {
        let config = MultiQueueConfig::classic(1)
            .with_c_factor(2)
            .with_delete(DeletePolicy::Batching(8))
            .with_seed(5);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        // All tasks in one queue, so the first pop prefetches seven more.
        mq.queues[0].lock().extend(0..64u64);
        let mut handle = mq.handle(0);
        let first = handle.pop().expect("64 tasks queued");
        assert_eq!(handle.delete_buffer.len(), 7);
        drop(handle);
        let mut back = drain_all(&mut mq.handle(0));
        back.push(first);
        back.sort_unstable();
        assert_eq!(back, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn batch_insert_pays_one_lock_per_batch() {
        let config = MultiQueueConfig::classic(2).with_seed(5);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut h = mq.handle(0);
        let mut batch: Vec<u64> = (0..16u64).collect();
        h.push_batch(&mut batch);
        assert!(batch.is_empty());
        let stats = h.stats();
        assert_eq!(stats.pushes, 16);
        assert_eq!(stats.push_locks_acquired, 1, "one lock for the batch");
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.tasks_batched, 16);
        assert_eq!(stats.locks_per_push(), Some(1.0 / 16.0));
    }

    #[test]
    fn oversized_batch_is_halved_across_two_queues() {
        let config = MultiQueueConfig::classic(2).with_seed(5);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut h = mq.handle(0);
        let mut batch: Vec<u64> = (0..64u64).collect();
        h.push_batch(&mut batch);
        assert!(batch.is_empty());
        let stats = h.stats();
        assert_eq!(stats.pushes, 64);
        assert_eq!(stats.push_locks_acquired, 2, "one lock per batch half");
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.tasks_batched, 64);
        // No single sub-queue absorbed the whole run.
        let largest = (0..mq.num_queues())
            .map(|q| mq.queues[q].lock().len())
            .max()
            .unwrap();
        assert!(largest < 64, "batch must be split across two sub-queues");
        assert_eq!(mq.len(), 64);
    }

    #[test]
    fn batch_delete_extracts_the_run_under_one_lock() {
        let config = MultiQueueConfig::classic(2).with_seed(5);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut h = mq.handle(0);
        let mut batch: Vec<u64> = (0..16u64).collect();
        h.push_batch(&mut batch);
        // The whole batch landed in one sub-queue; a batched delete that
        // samples it must extract the full run under its single lock.
        let mut out = Vec::new();
        let mut misses = 0;
        while out.len() < 16 && misses < 256 {
            let want = 16 - out.len();
            if h.pop_batch(&mut out, want) == 0 {
                misses += 1;
            }
        }
        assert_eq!(out, (0..16u64).collect::<Vec<_>>());
        let stats = h.stats();
        assert_eq!(stats.pops, 16);
        assert!(
            stats.locks_acquired <= 2,
            "batched delete must not pay per-task locks (got {})",
            stats.locks_acquired
        );
        // Fully drained: further batch pops see all-MAX snapshots and do
        // not lock at all.
        let locks = h.stats().locks_acquired;
        assert_eq!(h.pop_batch(&mut out, 8), 0);
        assert_eq!(h.stats().locks_acquired, locks);
    }

    #[test]
    fn batch_insert_respects_the_batching_policy_buffer() {
        let config = MultiQueueConfig::classic(2)
            .with_insert(InsertPolicy::Batching(32))
            .with_seed(6);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut h = mq.handle(0);
        let mut batch: Vec<u64> = (0..8u64).collect();
        h.push_batch(&mut batch);
        // Below the policy threshold: merged into the insert buffer, not
        // yet visible.
        assert!(mq.is_empty());
        assert_eq!(h.stats().pushes, 8);
        let mut batch: Vec<u64> = (8..40u64).collect();
        h.push_batch(&mut batch);
        // Crossing the threshold flushed everything in one lock.
        assert_eq!(mq.len(), 40);
        let stats = h.stats();
        assert_eq!(stats.push_locks_acquired, 1);
        // Both native push_batch calls are counted, flushed or not.
        assert_eq!(stats.batch_flushes, 2);
        assert_eq!(stats.tasks_batched, 40);
    }

    #[test]
    fn policy_flushes_from_per_task_pushes_are_not_batches() {
        // `batch_flushes` tracks native push_batch calls only: a
        // threshold flush fed by per-task `push` amortizes the lock but
        // must not report batch activity (batch size 1 never batches).
        let config = MultiQueueConfig::classic(2)
            .with_insert(InsertPolicy::Batching(8))
            .with_seed(6);
        let mq: MultiQueue<u64> = MultiQueue::new(config);
        let mut h = mq.handle(0);
        for v in 0..20u64 {
            h.push(v);
        }
        h.flush();
        let stats = h.stats();
        assert_eq!(stats.pushes, 20);
        assert_eq!(stats.batch_flushes, 0);
        assert_eq!(stats.tasks_batched, 0);
        assert!(
            stats.push_locks_acquired >= 1,
            "policy flushes still count their lock"
        );
    }

    #[test]
    fn concurrent_push_pop_conserves_elements() {
        hang_guard(|| {
            use std::sync::atomic::AtomicU64 as SharedCounter;
            let threads = 4;
            let per_thread = 5_000u64;
            let config = MultiQueueConfig::classic(threads).with_seed(8);
            let mq: MultiQueue<u64> = MultiQueue::new(config);
            let popped = SharedCounter::new(0);
            let sum = SharedCounter::new(0);
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let mq = &mq;
                    let popped = &popped;
                    let sum = &sum;
                    s.spawn(move || {
                        let mut handle = mq.handle(tid);
                        for i in 0..per_thread {
                            handle.push(tid as u64 * per_thread + i);
                        }
                        handle.flush();
                        while let Some(v) = handle.pop() {
                            popped.fetch_add(1, Ordering::Relaxed);
                            sum.fetch_add(v, Ordering::Relaxed);
                        }
                    });
                }
            });
            let total = threads as u64 * per_thread;
            // Every thread pops until it sees two empty samples; collectively
            // they must have removed everything that is not still in a queue.
            let remaining = mq.len() as u64;
            assert_eq!(popped.load(Ordering::Relaxed) + remaining, total);
            // Finish draining single-threaded and check the value sum.  A single
            // None is not "empty" for a relaxed scheduler (both sampled queues
            // may happen to be empty), so tolerate a run of misses.
            let mut handle = mq.handle(0);
            let mut misses = 0;
            while misses < 64 {
                match handle.pop() {
                    Some(v) => {
                        sum.fetch_add(v, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::Relaxed);
                        misses = 0;
                    }
                    None => misses += 1,
                }
            }
            assert_eq!(popped.load(Ordering::Relaxed), total);
            assert!(mq.is_empty());
            assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        });
    }
}
