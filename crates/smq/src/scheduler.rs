//! The Stealing Multi-Queue scheduler (Listings 2 and 4).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crossbeam_utils::CachePadded;
use smq_core::rng::Pcg32;
use smq_core::{HasKey, OpStats, Probability, Scheduler, SchedulerHandle, TaskWords};
use smq_runtime::{Topology, WeightedQueueSampler};

use crate::config::SmqConfig;
use crate::local_queue::LocalQueue;
use crate::stealing_buffer::StealingBuffer;

/// Probability of probing one uniformly random *remote* victim after the
/// weighted (node-local-preferring) victim loses the snapshot comparison.
/// Keeps remote batches from being stranded when the caller's node runs dry
/// while staying off the common path.
const REMOTE_FALLBACK: Probability = Probability::new(4);

/// One thread's local state: the sequential priority queue and the
/// stealing buffer (shared).
struct PerThread<T, Q> {
    /// The sequential queue while no handle for this slot is alive; the
    /// live handle owns it, so a second handle finds `None`.
    queue: Mutex<Option<Q>>,
    /// The shared stealing buffer other threads steal from.
    buffer: StealingBuffer<T>,
}

impl<T, Q> PerThread<T, Q> {
    /// The slot's queue while no handle holds it.  A lock holder only takes
    /// or puts back the whole `Option`, so a poisoned lock is still valid.
    fn parked_queue(&self) -> MutexGuard<'_, Option<Q>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The Stealing Multi-Queue, generic over the local queue implementation
/// (`DAryHeap` for [`crate::HeapSmq`], `SequentialSkipList` for
/// [`crate::SkipListSmq`]).
pub struct Smq<T, Q> {
    slots: Vec<CachePadded<PerThread<T, Q>>>,
    sampler: WeightedQueueSampler,
    config: SmqConfig,
}

impl<T, Q> Smq<T, Q>
where
    T: Ord + HasKey + TaskWords + Send,
    Q: LocalQueue<T>,
{
    /// Builds an SMQ from a validated configuration.
    pub fn new(config: SmqConfig) -> Self {
        config.validate();
        let slots = (0..config.threads)
            .map(|_| {
                CachePadded::new(PerThread {
                    queue: Mutex::new(Some(Q::create())),
                    buffer: StealingBuffer::new(config.steal_size),
                })
            })
            .collect();
        let sampler = match &config.numa {
            Some(numa) => WeightedQueueSampler::new(numa.topology.clone(), 1, numa.k),
            None => WeightedQueueSampler::uniform(Topology::single_node(config.threads), 1),
        };
        Self {
            slots,
            sampler,
            config,
        }
    }

    /// The configuration this scheduler was built from.
    pub fn config(&self) -> &SmqConfig {
        &self.config
    }

    /// The best (smallest) task currently published by thread `t`'s stealing
    /// buffer, if any.  This is the `queues[t].top()` of Listing 2: tasks
    /// still inside the thread-local queue are not visible here.
    pub fn published_top(&self, thread_id: usize) -> Option<T> {
        self.slots[thread_id].buffer.top()
    }
}

impl<T, Q> Scheduler<T> for Smq<T, Q>
where
    T: Ord + HasKey + TaskWords + Send,
    Q: LocalQueue<T>,
{
    type Handle<'a>
        = SmqHandle<'a, T, Q>
    where
        Self: 'a;

    fn num_threads(&self) -> usize {
        self.config.threads
    }

    fn handle(&self, thread_id: usize) -> SmqHandle<'_, T, Q> {
        assert!(thread_id < self.config.threads, "thread id out of range");
        let Some(queue) = self.slots[thread_id].parked_queue().take() else {
            panic!("a handle for thread {thread_id} is already alive; SMQ local queues are single-owner");
        };
        SmqHandle {
            parent: self,
            thread_id,
            queue,
            rng: Pcg32::for_thread(self.config.seed, thread_id),
            stats: OpStats::default(),
            stolen_tasks: VecDeque::with_capacity(self.config.steal_size),
            scratch: Vec::with_capacity(self.config.steal_size),
        }
    }
}

/// A worker thread's handle onto an [`Smq`].
///
/// Owns the thread's local queue and its `stolenTasks` buffer (Listing 2).
/// Dropping it pushes whatever is left in `stolenTasks` into the queue and
/// hands the queue back to the scheduler for the slot's next handle.
pub struct SmqHandle<'a, T: Ord + HasKey + TaskWords + Send, Q: LocalQueue<T>> {
    parent: &'a Smq<T, Q>,
    thread_id: usize,
    /// This thread's sequential queue, out of its slot while the handle lives.
    queue: Q,
    rng: Pcg32,
    stats: OpStats,
    /// Tasks claimed from a stealing buffer but not yet returned to the
    /// caller, in ascending priority order.
    stolen_tasks: VecDeque<T>,
    /// Reusable scratch space for buffer refills and steals.
    scratch: Vec<T>,
}

impl<'a, T, Q> SmqHandle<'a, T, Q>
where
    T: Ord + HasKey + TaskWords + Send,
    Q: LocalQueue<T>,
{
    #[inline]
    fn my_slot(&self) -> &'a PerThread<T, Q> {
        &self.parent.slots[self.thread_id]
    }

    /// Moves the best `STEAL_SIZE` tasks from the local queue into the
    /// stealing buffer, if the buffer has been stolen and the queue has
    /// tasks to publish (`fillBuffer()` of Listing 4).
    fn refill_buffer_if_stolen(&mut self) {
        let slot = self.my_slot();
        if !slot.buffer.is_stolen() {
            return;
        }
        let steal_size = self.parent.config.steal_size;
        self.scratch.clear();
        if self.queue.pop_batch_into(steal_size, &mut self.scratch) > 0 {
            slot.buffer.fill(&self.scratch);
            self.scratch.clear();
        } else {
            // Nothing to republish: retract the advisory snapshot left over
            // from the stolen batch so thieves stop probing this buffer.
            // Owner-only write — see `StealingBuffer::retract_top_key`.
            slot.buffer.retract_top_key();
        }
    }

    /// The key of the best task this thread could return without stealing:
    /// the minimum over its published buffer's top-key snapshot and its
    /// private queue's top.  `u64::MAX` when there is nothing local.
    fn local_top_key(&self) -> u64 {
        let buffer_key = self.my_slot().buffer.top_key();
        let queue_key = self.queue.peek().map_or(u64::MAX, HasKey::key);
        buffer_key.min(queue_key)
    }

    /// Claims the whole batch published by `victim`'s stealing buffer.  The
    /// best task is returned; the rest are kept in `stolen_tasks`.
    fn claim_buffer(&mut self, victim: usize) -> Option<T> {
        self.scratch.clear();
        let n = self.parent.slots[victim]
            .buffer
            .steal_into(&mut self.scratch);
        if n == 0 {
            return None;
        }
        let first = self.scratch[0];
        for &task in &self.scratch[1..] {
            self.stolen_tasks.push_back(task);
        }
        self.scratch.clear();
        Some(first)
    }

    /// Claims `victim`'s batch, recording success/failure statistics and
    /// classifying a successful steal as local or remote.
    fn claim_recorded(&mut self, victim: usize, victim_local: bool) -> Option<T> {
        match self.claim_buffer(victim) {
            Some(task) => {
                self.stats.steal_successes += 1;
                if victim_local {
                    self.stats.local_steals += 1;
                } else {
                    self.stats.remote_steals += 1;
                }
                self.stats.stolen_tasks += 1 + self.stolen_tasks.len() as u64;
                Some(task)
            }
            None => {
                // The snapshot said the victim was better, but the claim
                // came back empty: the batch was raced away (or the
                // advisory key was stale).  Counted so the success/failure
                // pair can quantify snapshot staleness.
                self.stats.steal_failed_claims += 1;
                None
            }
        }
    }

    /// Rolls the [`REMOTE_FALLBACK`] die and, when it fires, picks one
    /// uniformly random victim on a *different* node.  `None` without NUMA
    /// configuration, on single-node topologies, or when the die says stay
    /// local.
    fn remote_fallback_victim(&mut self) -> Option<usize> {
        let topology = &self.parent.config.numa.as_ref()?.topology;
        if topology.num_nodes() <= 1 || !REMOTE_FALLBACK.sample(&mut self.rng) {
            return None;
        }
        self.stats.remote_samples += 1;
        Some(
            self.parent
                .sampler
                .sample_remote(self.thread_id, &mut self.rng),
        )
    }

    /// `trySteal()` of Listing 2: pick a random victim, compare its
    /// published top against our local top, and claim its batch if it wins.
    ///
    /// With NUMA-aware sampling the victim choice is weighted towards the
    /// caller's node; when the preferred (local) victim loses the snapshot
    /// comparison, one additional uniformly random *remote* victim is
    /// probed with probability [`REMOTE_FALLBACK`] so in-node work
    /// imbalances cannot strand remote batches.
    fn try_steal(&mut self) -> Option<T> {
        if self.parent.config.threads == 1 {
            return None;
        }
        self.stats.steal_attempts += 1;
        // Sample a victim; with NUMA-aware sampling this is weighted towards
        // the caller's node.
        let (victim, victim_local) = loop {
            let (v, local) = self.parent.sampler.sample(self.thread_id, &mut self.rng);
            if local {
                self.stats.local_samples += 1;
            } else {
                self.stats.remote_samples += 1;
            }
            if v != self.thread_id {
                break (v, local);
            }
        };
        // Compare advisory top-key snapshots — the same idiom as the
        // Multi-Queue's snapshot-guided delete: no seqlock read loop, no
        // slot access, just two relaxed word reads.  `claim_buffer`
        // re-validates through the epoch-checked state word, so a stale
        // snapshot costs at most a wasted claim attempt.
        let victim_key = self.parent.slots[victim].buffer.top_key();
        if victim_key < self.local_top_key() {
            return self.claim_recorded(victim, victim_local);
        }
        if victim_local {
            if let Some(remote) = self.remote_fallback_victim() {
                let remote_key = self.parent.slots[remote].buffer.top_key();
                if remote_key < self.local_top_key() {
                    return self.claim_recorded(remote, false);
                }
            }
        }
        None
    }

    /// Removes the best locally available task: either the head of our own
    /// published buffer (reclaimed wholesale, exactly like a steal) or the
    /// top of the private queue, whichever is better.
    ///
    /// Listing 4's `extractTopLocal()` only consults the private heap; the
    /// full implementation must also reclaim the thread's own buffer,
    /// otherwise tasks published there would be stranded once other threads
    /// stop stealing (e.g. at the end of a run).
    fn pop_local(&mut self) -> Option<T> {
        self.refill_buffer_if_stolen();
        let slot = self.my_slot();
        let buffer_top = slot.buffer.top();
        let queue_top = self.queue.peek().copied();
        match (buffer_top, queue_top) {
            (Some(b), Some(q)) if q <= b => self.queue.pop(),
            (Some(_), _) => self.claim_buffer(self.thread_id),
            (None, Some(_)) => self.queue.pop(),
            (None, None) => None,
        }
    }

    /// Moves up to `max` previously stolen tasks into `out`, oldest first,
    /// counting each as a pop.
    fn take_stolen(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = max.min(self.stolen_tasks.len());
        out.extend(self.stolen_tasks.drain(..n));
        self.stats.pops += n as u64;
        n
    }

    /// The pop order of Listing 2; the outer [`SchedulerHandle::pop`] wraps
    /// this with statistics and the eager buffer refill.
    fn pop_task(&mut self) -> Option<T> {
        // 1. Previously stolen tasks are processed first (Listing 2).
        if let Some(task) = self.stolen_tasks.pop_front() {
            return Some(task);
        }
        // 2. With probability p_steal, try to steal a better batch.
        if self.parent.config.p_steal.sample(&mut self.rng) {
            if let Some(task) = self.try_steal() {
                return Some(task);
            }
        }
        // 3. Take the best local task.
        if let Some(task) = self.pop_local() {
            return Some(task);
        }
        // 4. The local queue is empty: stealing is the only option left.
        self.try_steal()
    }
}

impl<T, Q> SchedulerHandle<T> for SmqHandle<'_, T, Q>
where
    T: Ord + HasKey + TaskWords + Send,
    Q: LocalQueue<T>,
{
    fn push(&mut self, task: T) {
        self.stats.pushes += 1;
        self.queue.push(task);
        // `addLocal()` of Listing 4: keep the stealing buffer populated.
        // The shared-state inspection (plus possible refill) is the SMQ's
        // per-push synchronization cost — the quantity `push_batch`
        // amortizes, counted as the insert-path "lock".
        self.stats.push_locks_acquired += 1;
        self.refill_buffer_if_stolen();
    }

    fn push_batch(&mut self, tasks: &mut Vec<T>) {
        if tasks.is_empty() {
            return;
        }
        let n = tasks.len() as u64;
        self.stats.pushes += n;
        self.stats.batch_flushes += 1;
        self.stats.tasks_batched += n;
        for task in tasks.drain(..) {
            self.queue.push(task);
        }
        // One stealing-buffer maintenance pass for the whole batch instead
        // of one per task: the heap absorbs N inserts back to back and the
        // buffer is republished (if stolen) exactly once.
        self.stats.push_locks_acquired += 1;
        self.refill_buffer_if_stolen();
    }

    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // 1. Previously stolen tasks are processed first (Listing 2).
        let mut got = self.take_stolen(out, max);
        if got >= max {
            return got;
        }
        // 2. One full per-task pop: the steal die roll, the victim
        //    comparison, and the local/buffer arbitration run once per
        //    *batch*, not once per task.
        match self.pop_task() {
            Some(task) => {
                self.stats.pops += 1;
                out.push(task);
                got += 1;
            }
            None => {
                if got == 0 {
                    self.stats.empty_pops += 1;
                }
                return got;
            }
        }
        // 3. A successful steal may have parked a whole claimed batch in
        //    `stolen_tasks`; drain it before touching the private queue.
        got += self.take_stolen(out, max - got);
        // 4. Fill the remainder straight from the private queue — no
        //    further scheduling decisions, one heap drain pass.  Tasks the
        //    stealing buffer still publishes stay claimable by thieves and
        //    are reclaimed by this thread's next `pop_local`.
        if got < max {
            let moved = self.queue.pop_batch_into(max - got, out);
            self.stats.pops += moved as u64;
            got += moved;
        }
        // One buffer republish for the whole batch.
        self.refill_buffer_if_stolen();
        got
    }

    fn pop(&mut self) -> Option<T> {
        match self.pop_task() {
            Some(task) => {
                self.stats.pops += 1;
                // Eager owner-side refill: if our buffer was claimed (by a
                // thief, or by ourselves in `pop_local`), republish the next
                // batch *now* instead of waiting for the next push.  Thieves
                // therefore never observe a stolen buffer — or its stale /
                // `u64::MAX` top-key snapshot — for longer than one owner
                // operation while the owner still has work to publish.
                self.refill_buffer_if_stolen();
                Some(task)
            }
            None => {
                self.stats.empty_pops += 1;
                None
            }
        }
    }

    fn flush(&mut self) {
        // All pushes are immediately visible to the owner; publishing to the
        // stealing buffer (so *other* threads can see work) only needs a
        // refill when the buffer was previously claimed.
        self.refill_buffer_if_stolen();
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn min_key_hint(&self) -> Option<u64> {
        // The advisory global minimum: this thread's exact local top plus
        // every other slot's published top-key snapshot.  Snapshot reads
        // are the same relaxed/acquire loads the stealing heuristic uses —
        // no locks taken, no counters perturbed.
        let mut best = self.local_top_key();
        for (i, slot) in self.parent.slots.iter().enumerate() {
            if i != self.thread_id {
                best = best.min(slot.buffer.top_key());
            }
        }
        (best != u64::MAX).then_some(best)
    }
}

impl<T, Q> Drop for SmqHandle<'_, T, Q>
where
    T: Ord + HasKey + TaskWords + Send,
    Q: LocalQueue<T>,
{
    fn drop(&mut self) {
        // Tasks claimed from a victim's buffer but not yet handed to the
        // caller exist nowhere else: put them into this slot's queue for
        // its next owner instead of dropping them.
        for task in self.stolen_tasks.drain(..) {
            self.queue.push(task);
        }
        let queue = std::mem::replace(&mut self.queue, Q::create());
        *self.my_slot().parked_queue() = Some(queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use crate::{HeapSmq, SkipListSmq};
    use smq_core::{Probability, Task};

    fn drain<T: Ord + HasKey + TaskWords + Send, Q: LocalQueue<T>>(
        handle: &mut SmqHandle<'_, T, Q>,
    ) -> Vec<T> {
        let mut out = Vec::new();
        let mut misses = 0;
        while misses < 16 {
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

    #[test]
    fn heap_smq_single_thread_is_exact_priority_queue() {
        // With one thread and no one to steal from, the SMQ must behave like
        // a strict priority queue.
        let smq: HeapSmq<u64> = HeapSmq::new(SmqConfig::default_for_threads(1));
        let mut h = smq.handle(0);
        for v in [5u64, 2, 9, 0, 7, 3] {
            h.push(v);
        }
        let drained = drain(&mut h);
        assert_eq!(drained, vec![0, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn skiplist_smq_single_thread_is_exact_priority_queue() {
        let smq: SkipListSmq<u64> = SkipListSmq::new(SmqConfig::default_for_threads(1));
        let mut h = smq.handle(0);
        for v in [8u64, 1, 6, 4] {
            h.push(v);
        }
        assert_eq!(drain(&mut h), vec![1, 4, 6, 8]);
    }

    #[test]
    fn tasks_published_in_buffer_are_not_stranded() {
        // Push enough tasks that some end up in the stealing buffer, then
        // drain single-threaded: everything must come back.
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2).with_steal_size(4));
        let mut h = smq.handle(0);
        for v in 0..100u64 {
            h.push(Task::new(v, v));
        }
        // The buffer holds the four best tasks now.
        assert_eq!(smq.published_top(0), Some(Task::new(0, 0)));
        let drained = drain(&mut h);
        assert_eq!(drained.len(), 100);
        // And they came out in exact priority order (single owner, no other
        // threads interfering).
        assert!(drained.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn batch_push_amortizes_buffer_maintenance_to_one_pass() {
        let smq: HeapSmq<u64> = HeapSmq::new(SmqConfig::default_for_threads(1));
        let mut h = smq.handle(0);
        let mut batch: Vec<u64> = (0..32u64).rev().collect();
        h.push_batch(&mut batch);
        assert!(batch.is_empty(), "push_batch must drain its input");
        let stats = h.stats();
        assert_eq!(stats.pushes, 32);
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.tasks_batched, 32);
        assert_eq!(
            stats.push_locks_acquired, 1,
            "one buffer maintenance pass per batch, not per task"
        );
        assert_eq!(stats.locks_per_push(), Some(1.0 / 32.0));
    }

    #[test]
    fn batch_pop_returns_exact_order_single_threaded() {
        let smq: HeapSmq<u64> = HeapSmq::new(SmqConfig::default_for_threads(1));
        let mut h = smq.handle(0);
        let mut batch: Vec<u64> = (0..32u64).rev().collect();
        h.push_batch(&mut batch);
        let mut out = Vec::new();
        assert_eq!(h.pop_batch(&mut out, 10), 10);
        assert_eq!(out, (0..10u64).collect::<Vec<_>>());
        assert_eq!(h.pop_batch(&mut out, 64), 22, "remainder in one batch");
        assert_eq!(out, (0..32u64).collect::<Vec<_>>());
        assert_eq!(h.pop_batch(&mut out, 4), 0);
        let stats = h.stats();
        assert_eq!(stats.pops, 32);
        assert_eq!(stats.empty_pops, 1, "an empty batch counts one empty pop");
    }

    #[test]
    fn batch_pushed_tasks_are_stealable() {
        // A batch published by thread 0 must be claimable by thread 1 via
        // the normal stealing protocol — batching is owner-side only.
        let config = SmqConfig::default_for_threads(2)
            .with_steal_size(8)
            .with_p_steal(Probability::ALWAYS)
            .with_seed(3);
        let smq: HeapSmq<u64> = HeapSmq::new(config);
        {
            let mut h0 = smq.handle(0);
            let mut batch: Vec<u64> = (0..64u64).collect();
            h0.push_batch(&mut batch);
        }
        let mut h1 = smq.handle(1);
        let mut out = Vec::new();
        let mut misses = 0;
        while misses < 32 {
            if h1.pop_batch(&mut out, 8) == 0 {
                misses += 1;
            } else {
                misses = 0;
            }
        }
        // The owner's one batch-publish made its best steal_size tasks
        // claimable; the thief takes that batch wholesale.
        assert_eq!(out, (0..8u64).collect::<Vec<_>>());
        assert!(h1.stats().steal_successes >= 1);
        // The unpublished remainder stays in slot 0's local queue and is
        // recovered by its next owner.
        let mut h0 = smq.handle(0);
        let mut rest = Vec::new();
        while h0.pop_batch(&mut rest, 16) > 0 {}
        assert_eq!(rest.len(), 56);
    }

    #[test]
    fn duplicate_handles_for_same_thread_are_rejected() {
        let smq: HeapSmq<u64> = HeapSmq::new(SmqConfig::default_for_threads(2));
        let _h0 = smq.handle(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| smq.handle(0)));
        assert!(result.is_err(), "second handle for thread 0 must panic");
        // Thread 1 is still available.
        let _h1 = smq.handle(1);
    }

    #[test]
    fn handle_slot_is_released_on_drop() {
        let smq: HeapSmq<u64> = HeapSmq::new(SmqConfig::default_for_threads(1).with_steal_size(1));
        {
            let mut h = smq.handle(0);
            h.push(1);
            assert_eq!(h.pop(), Some(1));
            // 2 is published in the one-task stealing buffer; 3 is still
            // in the handle's local queue when the handle drops.
            h.push(2);
            h.push(3);
        }
        // Dropping the handle releases the slot for reuse and hands its
        // local queue back through the slot.
        let mut h = smq.handle(0);
        assert_eq!(drain(&mut h), vec![2, 3]);
    }

    #[test]
    fn steal_transfers_whole_batches() {
        let config = SmqConfig::default_for_threads(2)
            .with_steal_size(8)
            .with_p_steal(Probability::ALWAYS)
            .with_seed(3);
        let smq: HeapSmq<u64> = HeapSmq::new(config);
        // Thread 0 owns all the work.
        {
            let mut h0 = smq.handle(0);
            for v in 0..64u64 {
                h0.push(v);
            }
        }
        // Thread 1 should obtain tasks purely by stealing.
        let mut h1 = smq.handle(1);
        let got = drain(&mut h1);
        assert!(!got.is_empty(), "thread 1 never managed to steal");
        let stats = h1.stats();
        assert!(stats.steal_successes >= 1);
        assert!(stats.stolen_tasks as usize >= got.len());
        // Stolen batches arrive in priority order within each batch.
        assert!(got.windows(2).all(|w| w[0] <= w[1] || w[1] % 8 == 0));
    }

    #[test]
    fn two_threads_conserve_all_tasks() {
        hang_guard(|| {
            use std::sync::atomic::{AtomicU64, Ordering};
            let threads = 2;
            let per_thread = 20_000u64;
            let config = SmqConfig::default_for_threads(threads)
                .with_steal_size(16)
                .with_p_steal(Probability::new(4))
                .with_seed(9);
            let smq: HeapSmq<u64> = HeapSmq::new(config);
            let popped = AtomicU64::new(0);
            let sum = AtomicU64::new(0);
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let smq = &smq;
                    let popped = &popped;
                    let sum = &sum;
                    s.spawn(move || {
                        let mut h = smq.handle(tid);
                        for i in 0..per_thread {
                            h.push(tid as u64 * per_thread + i);
                        }
                        let mut misses = 0;
                        while misses < 256 {
                            match h.pop() {
                                Some(v) => {
                                    popped.fetch_add(1, Ordering::Relaxed);
                                    sum.fetch_add(v, Ordering::Relaxed);
                                    misses = 0;
                                }
                                None => misses += 1,
                            }
                        }
                    });
                }
            });
            let total = threads as u64 * per_thread;
            assert_eq!(popped.load(Ordering::Relaxed), total);
            assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        });
    }

    #[test]
    fn owner_pop_eagerly_republishes_after_reclaiming_own_buffer() {
        // The first push lands in the (initially stolen) buffer, the rest
        // queue up locally.  The first pop reclaims the buffer wholesale;
        // the eager refill must republish the next batch within the same
        // pop, so the buffer is never left stolen (with a stale top-key)
        // while local work exists.
        let smq: HeapSmq<u64> = HeapSmq::new(SmqConfig::default_for_threads(2).with_steal_size(4));
        let mut h = smq.handle(0);
        for v in 0..20u64 {
            h.push(v);
        }
        assert_eq!(smq.published_top(0), Some(0));
        assert_eq!(h.pop(), Some(0));
        let slot = &smq.slots[0];
        assert!(
            !slot.buffer.is_stolen(),
            "eager refill must republish immediately after the reclaim"
        );
        assert_eq!(slot.buffer.top_key(), 1, "next batch's key must be live");
        assert_eq!(smq.published_top(0), Some(1));
    }

    #[test]
    fn stolen_tasks_survive_a_dropped_handle() {
        let config = SmqConfig::default_for_threads(2)
            .with_steal_size(4)
            .with_p_steal(Probability::ALWAYS)
            .with_seed(3);
        let smq: HeapSmq<u64> = HeapSmq::new(config);
        {
            let mut h0 = smq.handle(0);
            let mut batch: Vec<u64> = (0..4u64).collect();
            h0.push_batch(&mut batch);
        }
        {
            // Thread 1 claims the whole published batch, returns its best
            // task and still holds the other three when it goes away.
            let mut h1 = smq.handle(1);
            assert_eq!(h1.pop(), Some(0));
            assert_eq!(h1.stats().stolen_tasks, 4);
        }
        let mut h1 = smq.handle(1);
        assert_eq!(drain(&mut h1), vec![1, 2, 3]);
        // Nothing was duplicated into the victim's slot on the way.
        drop(h1);
        assert_eq!(drain(&mut smq.handle(0)), Vec::<u64>::new());
    }

    #[test]
    fn stale_snapshot_claims_are_counted() {
        let config = SmqConfig::default_for_threads(2)
            .with_steal_size(4)
            .with_p_steal(Probability::ALWAYS)
            .with_seed(1);
        let smq: HeapSmq<u64> = HeapSmq::new(config);
        {
            let mut h0 = smq.handle(0);
            h0.push(0);
            // h0 drops without popping: its buffer advertises key 0.
        }
        let mut h1 = smq.handle(1);
        // First pop claims the batch; the advisory key stays 0 (stale) and
        // the absent owner never refills.
        assert_eq!(h1.pop(), Some(0));
        assert_eq!(h1.stats().steal_successes, 1);
        // Subsequent pops keep seeing the stale snapshot, commit to a
        // claim, and come back empty — the failure counter must say so.
        assert_eq!(h1.pop(), None);
        let stats = h1.stats();
        assert!(
            stats.steal_failed_claims >= 1,
            "stale-snapshot claims must be counted (got {stats:?})"
        );
        assert!(stats.steal_claim_failure_rate().unwrap() > 0.0);
    }

    #[test]
    fn numa_sampling_is_recorded() {
        let config = SmqConfig::default_for_threads(4)
            .with_p_steal(Probability::ALWAYS)
            .with_numa(Topology::split(4, 2), 16)
            .with_seed(5);
        let smq: HeapSmq<u64> = HeapSmq::new(config);
        let mut h = smq.handle(0);
        for v in 0..50u64 {
            h.push(v);
        }
        let _ = drain(&mut h);
        let stats = h.stats();
        assert!(stats.steal_attempts > 0);
        assert!(stats.local_samples + stats.remote_samples > 0);
    }

    #[test]
    fn successful_steals_are_classified_by_node() {
        // Thread 0 (node 0) publishes a batch, thread 1 (same node) and
        // thread 2 (other node) each steal one: the classification counters
        // must attribute each steal to the victim's node.
        let config = SmqConfig::default_for_threads(4)
            .with_p_steal(Probability::ALWAYS)
            .with_numa(Topology::split(4, 2), 16)
            .with_seed(5);
        let smq: HeapSmq<u64> = HeapSmq::new(config);
        {
            let mut h0 = smq.handle(0);
            h0.push(0);
            // Dropped without popping: the buffer advertises key 0.
        }
        let mut h1 = smq.handle(1);
        let got = (0..64).find_map(|_| h1.pop());
        assert_eq!(got, Some(0));
        let s1 = h1.stats();
        assert_eq!(s1.local_steals, 1, "victim 0 is on thread 1's node");
        assert_eq!(s1.remote_steals, 0);
        assert_eq!(s1.steal_locality_rate(), Some(1.0));
        drop(h1);
        {
            let mut h3 = smq.handle(3);
            h3.push(7);
            // Node-1 buffer now advertises key 7.
        }
        let mut h2 = smq.handle(2);
        let got = (0..64).find_map(|_| h2.pop());
        assert_eq!(got, Some(7));
        let s2 = h2.stats();
        assert_eq!(s2.local_steals, 1, "victim 3 is on thread 2's node");
        assert_eq!(s2.remote_steals, 0);
    }

    #[test]
    fn single_thread_config_never_steals() {
        let smq: HeapSmq<u64> =
            HeapSmq::new(SmqConfig::default_for_threads(1).with_p_steal(Probability::ALWAYS));
        let mut h = smq.handle(0);
        h.push(3);
        assert_eq!(h.pop(), Some(3));
        assert_eq!(h.pop(), None);
        assert_eq!(h.stats().steal_attempts, 0);
    }
}
