//! One pool worker, one function: park until the gang publishes a job, run
//! the job's pop/process/quiesce loop, report, park again.
//!
//! The loop is the Galois-style `for_each` the paper runs every scheduler
//! under.  Termination is `smq_runtime::termination`'s: a task is counted
//! published before it becomes visible and completed after it was
//! processed, so "the pop came back empty and the two-phase scan balances"
//! is a safe exit even for schedulers that buffer tasks thread-locally
//! (flushed on every empty pop).  The O(threads) scan is *epoch-gated*: a
//! worker pays for it only after [`SCAN_GATE`] consecutive empty pops
//! during which the detector's activity epoch did not move.
//!
//! Above batch size 1 ([`PoolConfig::with_batch`]) a worker pops up to a
//! batch per `pop_batch`, hints it to [`PoolJob::prefetch`], processes it
//! under one unwind guard, and flushes buffered follow-ups through
//! `push_batch` at every task boundary.  Batch 1 is the exact per-task
//! path: one `pop()` per task, every follow-up pushed and credited at once,
//! no prefetch hints.
//!
//! [`PoolConfig::with_batch`]: crate::PoolConfig::with_batch

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crossbeam_utils::Backoff;
use smq_core::{SchedulerHandle, Task};
use smq_runtime::{WorkerTally, SCAN_GATE};
use smq_telemetry::{Phase, WorkerTelemetry};

use crate::{lock, Gang, Inner, PoolJob, TaskOutcome, WorkerResult};

/// How many consecutive empty pops a worker tolerates before it starts
/// yielding to the OS scheduler (important on machines with fewer hardware
/// threads than workers).
const SPINS_BEFORE_YIELD: u32 = 64;

/// Decrements `remaining` when the worker leaves the job for any reason; a
/// missing result means the job's `process` panicked, which poisons the
/// gang instead of deadlocking the coordinator.  (The other half of the
/// no-deadlock guarantee is the loop's unwind guard in [`run_worker`]: the
/// in-flight task's completion is recorded even on unwind, so surviving
/// workers can still reach quiescence and publish their results.)
struct CompletionGuard<'a> {
    gang: &'a Gang,
    local: usize,
    result: Option<WorkerResult>,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.gang.state);
        if self.result.is_none() {
            st.poisoned = true;
            // Tell this gang's surviving workers to stop waiting for a
            // quiescence that may now be unreachable (tasks stranded in our
            // local queues).
            self.gang.aborted.store(true, Ordering::Release);
        }
        st.results[self.local] = self.result.take();
        st.remaining -= 1;
        if st.remaining == 0 {
            st.job = None;
            self.gang.job_done.notify_all();
        }
    }
}

/// One worker's park/execute loop, generic over the handle so each
/// `gang_body` monomorphizes the whole job hot path.
///
/// A job runs until this worker observes quiescence — or, once a sibling
/// died mid-job (`gang.aborted`), until it next finds the scheduler empty:
/// a dead worker's thread-local queues can strand published tasks, so
/// survivors leave whatever is still queued, and the gang is retired or
/// respawned, never reused as-is.  Nothing else ends a job early.
pub(crate) fn run_worker<H: SchedulerHandle<Task>>(
    inner: &Arc<Inner>,
    gang_idx: usize,
    local: usize,
    handle: &mut H,
) {
    let gang = &inner.gangs[gang_idx];
    let (batch, detector) = (inner.batch_size, &gang.detector);
    // Kept for the thread's whole life, so every job after the first
    // reuses their capacity.  `pop_buf` holds the batch being processed,
    // `sink_buf` the follow-ups buffered until the next flush.
    let mut pop_buf = Vec::with_capacity(batch);
    let mut sink_buf = Vec::with_capacity(batch);
    let mut last_seq = 0u64;
    // When this worker last went idle: the gap until its next job is
    // accounted as Park time.
    let mut idle_since = Instant::now();

    loop {
        // Park until a new job (or shutdown) arrives on this gang.
        let (job_ref, mut seeds, seq) = {
            let mut st = lock(&gang.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq > last_seq {
                    let job_ref = st.job.expect("job published without a body");
                    let seeds = st.seeds[local].take().expect("seed slice taken twice");
                    break (job_ref, seeds, st.seq);
                }
                st = gang.job_ready.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        last_seq = seq;

        let mut guard = CompletionGuard {
            gang,
            local,
            result: None,
        };
        // SAFETY: valid until this worker's guard decrements `remaining`
        // (see `JobRef`).
        let job: &dyn PoolJob = unsafe { &*job_ref.0 };
        let stats_before = handle.stats();
        let mut tally = detector.tally(local);
        // `None` when telemetry is disabled: the loop then takes no
        // timestamps and makes no extra handle calls, which keeps
        // single-thread `OpStats` bit-identical to an uninstrumented run.
        let mut telemetry = WorkerTelemetry::begin(&inner.telemetry, Some(idle_since));
        // Seeds were pre-credited by the coordinator.  Above batch size 1 a
        // single batch call makes the whole seed slice visible; at batch 1
        // each seed is its own `push`, like every other push of the
        // per-task configuration.
        if batch > 1 {
            handle.push_batch(&mut seeds);
        } else {
            seeds.into_iter().for_each(|task| handle.push(task));
        }
        handle.flush();

        let (mut useful, mut wasted, mut scans) = (0u64, 0u64, 0u64);
        let backoff = Backoff::new();
        // Empty pops observed since the last scan (or since the last
        // activity epoch move); `was_idle` tracks idle→busy transitions for
        // the epoch, and `idle_spins` (reset only by a successful pop)
        // drives OS yielding.
        let mut empty_streak = 0u32;
        let mut idle_spins = 0u32;
        let mut was_idle = false;
        let mut seen_epoch = detector.activity_epoch();
        loop {
            if let Some(t) = telemetry.as_mut() {
                // While parked, pop attempts coalesce into the open Park
                // span (no clock read per idle spin); a successful pop ends
                // it via the Process transition below.
                if !t.parked() {
                    t.phase(Phase::Pop);
                }
            }
            // Batch size 1 calls `pop()` directly: one scheduling decision
            // and one set of `OpStats` increments per task.
            let got = if batch == 1 {
                match handle.pop() {
                    Some(task) => {
                        pop_buf.push(task);
                        1
                    }
                    None => 0,
                }
            } else {
                handle.pop_batch(&mut pop_buf, batch)
            };
            if got > 0 {
                if let Some(t) = telemetry.as_mut() {
                    // If the handle's steal counter moved during this pop,
                    // the span just spent belongs to Steal.
                    if t.timing_enabled() && t.note_steal_ops(handle.stats().steal_attempts) {
                        t.relabel(Phase::Steal);
                    }
                    // Rank-error probe: the best task this pop returned
                    // against the best key still visible anywhere.
                    if t.probe_due() {
                        t.record_rank_error(pop_buf[0].key, handle.min_key_hint());
                    }
                    t.phase(Phase::Process);
                }
                if was_idle {
                    // Only the first pop after a barren stretch tells the
                    // scanners the system moved.
                    detector.note_activity();
                    was_idle = false;
                }
                empty_streak = 0;
                idle_spins = 0;
                backoff.reset();
                // Hint every task's first misses now, so they overlap with
                // the tasks processed before it.  A lone task would gain
                // nothing (it is processed next).
                if pop_buf.len() >= 2 {
                    pop_buf.iter().for_each(|&task| job.prefetch(task));
                }
                // One unwind guard per popped batch.  Each task's completion
                // must be recorded even if `process` unwinds: the popped
                // task was already counted published, and skipping its
                // completion would leave the detector unbalanced — the
                // surviving workers would spin forever in a never-quiescent
                // scan while the coordinator waits for them.
                // `catch_unwind` is free on the non-panic path.
                let panic_payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for task in pop_buf.drain(..) {
                        let mut push = |child| {
                            if batch == 1 {
                                tally.record_push();
                                handle.push(child);
                            } else {
                                sink_buf.push(child);
                                if sink_buf.len() >= batch {
                                    flush(handle, &mut tally, &mut sink_buf);
                                }
                            }
                        };
                        match job.process(task, &mut push) {
                            TaskOutcome::Useful => useful += 1,
                            TaskOutcome::Wasted => wasted += 1,
                        }
                        // Publish-before-flush at the task boundary: the
                        // task's follow-ups are credited and made visible
                        // *before* its completion is recorded, so the sums
                        // can never balance while its children are
                        // outstanding.
                        flush(handle, &mut tally, &mut sink_buf);
                        tally.record_completion();
                    }
                }))
                .err();
                if let Some(payload) = panic_payload {
                    // Exactly one task was in flight: earlier tasks of the
                    // batch recorded their own completions.  Its un-flushed
                    // follow-ups were never credited nor visible, so
                    // dropping them keeps the detector balanced.  The
                    // batch's remaining tasks went with the drain and stay
                    // uncompleted, stranded like the dead worker's
                    // thread-local queues — the gang's poisoning
                    // (`aborted`) handles both.
                    sink_buf.clear();
                    tally.record_completion();
                    std::panic::resume_unwind(payload);
                }
            } else {
                if let Some(t) = telemetry.as_mut() {
                    // Flush is only worth a span on the first empty pop of
                    // a streak; later iterations flush nothing and stay
                    // parked.
                    if !t.parked() {
                        t.phase(Phase::Flush);
                    }
                }
                // Anything buffered locally must become visible before we
                // conclude the system might be done.  (`sink_buf` is
                // always empty here — it flushes at every task boundary.)
                handle.flush();
                if gang.aborted.load(Ordering::Acquire) {
                    break;
                }
                was_idle = true;
                idle_spins = idle_spins.saturating_add(1);
                let epoch = detector.activity_epoch();
                if epoch != seen_epoch {
                    // Work appeared somewhere since we last looked: the
                    // system is churning, a scan now would likely fail.
                    seen_epoch = epoch;
                    empty_streak = 1;
                } else {
                    empty_streak += 1;
                }
                if empty_streak >= SCAN_GATE {
                    if let Some(t) = telemetry.as_mut() {
                        t.phase(Phase::Scan);
                    }
                    // Looked stable for `SCAN_GATE` empty pops: pay for one
                    // O(threads) scan, then require a fresh streak before
                    // the next one.
                    empty_streak = 0;
                    scans += 1;
                    if detector.quiescent() {
                        break;
                    }
                }
                if let Some(t) = telemetry.as_mut() {
                    t.phase(Phase::Park);
                }
                if idle_spins > SPINS_BEFORE_YIELD {
                    std::thread::yield_now();
                } else {
                    backoff.snooze();
                }
            }
        }

        guard.result = Some(WorkerResult {
            useful,
            wasted,
            scans,
            stats: handle.stats().delta_since(&stats_before),
            telemetry: telemetry.map(WorkerTelemetry::finish),
        });
        drop(guard); // publishes the result and wakes the coordinator
        idle_since = Instant::now();
    }
}

/// Publishes the buffered follow-ups: credits them in one counter store,
/// then makes them visible in one `push_batch` call.  The credit must come
/// first — see `WorkerTally::record_pushes`.
#[inline]
fn flush<H: SchedulerHandle<Task>>(
    handle: &mut H,
    tally: &mut WorkerTally<'_>,
    buffer: &mut Vec<Task>,
) {
    if !buffer.is_empty() {
        tally.record_pushes(buffer.len() as u64);
        handle.push_batch(buffer);
    }
}

#[cfg(test)]
mod tests {
    use crate::common::hang_guard;
    use crate::{
        JobError, JobOutput, PoolConfig, PoolJob, TaskOutcome, WorkerPool, DEFAULT_BATCH_SIZE,
    };
    use smq_core::{OpStats, Scheduler, SchedulerHandle, Task};
    use smq_runtime::SCAN_GATE;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::atomic::{AtomicBool, AtomicU64 as Counter, Ordering};
    use std::sync::Mutex;

    /// A minimal strict scheduler (single global locked heap) used to test
    /// the loop independently of the real schedulers.
    struct LockedHeap {
        heap: Mutex<BinaryHeap<Reverse<Task>>>,
        threads: usize,
    }

    impl LockedHeap {
        fn new(threads: usize) -> Self {
            Self {
                heap: Mutex::new(BinaryHeap::new()),
                threads,
            }
        }
    }

    struct LockedHeapHandle<'a> {
        parent: &'a LockedHeap,
        stats: OpStats,
    }

    impl Scheduler<Task> for LockedHeap {
        type Handle<'a> = LockedHeapHandle<'a>;

        fn num_threads(&self) -> usize {
            self.threads
        }

        fn handle(&self, thread_id: usize) -> LockedHeapHandle<'_> {
            assert!(thread_id < self.threads);
            LockedHeapHandle {
                parent: self,
                stats: OpStats::default(),
            }
        }
    }

    impl SchedulerHandle<Task> for LockedHeapHandle<'_> {
        fn push(&mut self, task: Task) {
            self.parent.heap.lock().unwrap().push(Reverse(task));
            self.stats.pushes += 1;
        }

        fn pop(&mut self) -> Option<Task> {
            let got = self.parent.heap.lock().unwrap().pop().map(|r| r.0);
            match got {
                Some(_) => self.stats.pops += 1,
                None => self.stats.empty_pops += 1,
            }
            got
        }

        fn stats(&self) -> OpStats {
            self.stats.clone()
        }
    }

    /// A job over `Task::new(key, key)` seeds whose `process` is a closure
    /// of the key and a key-pushing sink; every task counts as useful.
    struct KeyJob<F> {
        seeds: Vec<u64>,
        process: F,
    }

    impl<F: Fn(u64, &mut dyn FnMut(u64)) + Sync> PoolJob for KeyJob<F> {
        fn seed_tasks(&self) -> Vec<Task> {
            self.seeds.iter().map(|&key| Task::new(key, key)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            (self.process)(task.key, &mut |key| push(Task::new(key, key)));
            TaskOutcome::Useful
        }
    }

    /// What a [`drive`]n gang did, summed over its workers.
    struct Driven {
        executed: u64,
        scans: u64,
        total: OpStats,
    }

    /// One job on a transient gang of `threads` workers at `batch` over a
    /// fresh locked heap: `initial` split round-robin and pre-credited by
    /// the pool, every worker in the loop until quiescence.
    fn drive<F>(threads: usize, batch: usize, initial: Vec<u64>, process: F) -> Driven
    where
        F: Fn(u64, &mut dyn FnMut(u64)) + Sync,
    {
        let sched = LockedHeap::new(threads);
        let config = PoolConfig::new(threads).with_batch(batch);
        let out: JobOutput = WorkerPool::with_borrowed(&sched, config, |pool| {
            let job = KeyJob {
                seeds: initial,
                process,
            };
            pool.run_job(&job).expect("test job lost")
        });
        Driven {
            executed: out.metrics.tasks_executed,
            scans: out.metrics.quiescence_scans,
            total: out.metrics.total,
        }
    }

    #[test]
    fn processes_every_seed_task_once() {
        hang_guard(|| {
            let executed = Counter::new(0);
            let driven = drive(
                2,
                DEFAULT_BATCH_SIZE,
                (0..1_000u64).collect(),
                |_task, _push| {
                    executed.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(executed.load(Ordering::Relaxed), 1_000);
            assert_eq!(driven.executed, 1_000);
            assert_eq!(driven.total.pops, 1_000);
        });
    }

    #[test]
    fn follow_up_tasks_are_processed() {
        hang_guard(|| {
            // Each task < 1000 pushes task+1000 and task+2000; the run must
            // process all 3000 tasks before terminating.
            let executed = Counter::new(0);
            let driven = drive(
                3,
                DEFAULT_BATCH_SIZE,
                (0..1_000u64).collect(),
                |task, push| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if task < 1_000 {
                        push(task + 1_000);
                        push(task + 2_000);
                    }
                },
            );
            assert_eq!(executed.load(Ordering::Relaxed), 3_000);
            assert_eq!(driven.executed, 3_000);
        });
    }

    #[test]
    fn empty_initial_set_terminates_immediately() {
        hang_guard(|| {
            let driven = drive(2, DEFAULT_BATCH_SIZE, Vec::new(), |_t, _p| {});
            assert_eq!(driven.executed, 0);
            assert!(driven.scans >= 2, "each worker scans to exit");
        });
    }

    #[test]
    fn single_thread_run_works() {
        hang_guard(|| {
            let sum = Counter::new(0);
            let driven = drive(1, DEFAULT_BATCH_SIZE, vec![5u64, 10, 15], |task, _push| {
                sum.fetch_add(task, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 30);
            assert_eq!(driven.executed, 3);
        });
    }

    #[test]
    fn deep_task_chain_terminates() {
        hang_guard(|| {
            // A single chain of 10_000 dependent tasks exercises the case
            // where most threads spin on an empty scheduler while one works.
            let executed = Counter::new(0);
            let driven = drive(4, DEFAULT_BATCH_SIZE, vec![0u64], |task, push| {
                executed.fetch_add(1, Ordering::Relaxed);
                if task < 10_000 {
                    push(task + 1);
                }
            });
            assert_eq!(executed.load(Ordering::Relaxed), 10_001);
            assert_eq!(driven.executed, 10_001);
        });
    }

    #[test]
    fn scan_gate_bounds_scan_traffic() {
        hang_guard(|| {
            // Every quiescence scan must be "paid for" with at least
            // `SCAN_GATE` empty pops, so scans * gate never exceeds total
            // empty pops — the loop-level guarantee behind the epoch-gated
            // scan.
            let driven = drive(4, DEFAULT_BATCH_SIZE, vec![0u64], |task, push| {
                if task < 5_000 {
                    push(task + 1);
                }
            });
            assert!(
                driven.scans * u64::from(SCAN_GATE) <= driven.total.empty_pops,
                "scans={} gate={SCAN_GATE} empty_pops={}",
                driven.scans,
                driven.total.empty_pops
            );
            // Liveness: every worker still exits via at least one scan.
            assert!(driven.scans >= 4);
        });
    }

    #[test]
    fn batched_loop_processes_every_task() {
        hang_guard(|| {
            // A scheduler with only the default (per-task) batch impls,
            // driven at batch 8: conservation and termination must be
            // unchanged.
            let executed = Counter::new(0);
            let driven = drive(2, 8, (0..1_000u64).collect(), |task, push| {
                executed.fetch_add(1, Ordering::Relaxed);
                if task < 1_000 {
                    push(task + 1_000);
                    push(task + 2_000);
                }
            });
            assert_eq!(executed.load(Ordering::Relaxed), 3_000);
            assert_eq!(driven.executed, 3_000);
            assert_eq!(driven.total.pushes, driven.total.pops);
        });
    }

    #[test]
    fn batched_deep_chain_terminates() {
        hang_guard(|| {
            // Fan-out 1: every sink flush carries a single task, the worst
            // case for the batching sink's bookkeeping.
            let driven = drive(4, 32, vec![0u64], |task, push| {
                if task < 10_000 {
                    push(task + 1);
                }
            });
            assert_eq!(driven.executed, 10_001);
            assert_eq!(driven.total.pushes, driven.total.pops);
        });
    }

    /// Seeds `0..seeds`; every task below 1000 pushes two children.  Worker
    /// 0 panics inside the `panic_at`-th task it processes (1-based), after
    /// that task has pushed its first child.  Any other worker holds its
    /// first task until the gang is aborted, so worker 0 is sure to find a
    /// full batch, and pushes nothing.
    struct PanicJob<'a> {
        seeds: u64,
        panic_at: u64,
        processed: Counter,
        aborted: &'a AtomicBool,
    }

    impl PoolJob for PanicJob<'_> {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..self.seeds).map(|key| Task::new(key, key)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            // Pool threads are named `smq-pool-<gang>-<worker>`.
            if std::thread::current().name() != Some("smq-pool-0-0") {
                while !self.aborted.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                return TaskOutcome::Useful;
            }
            let processed = self.processed.fetch_add(1, Ordering::Relaxed) + 1;
            if task.key < 1_000 {
                push(Task::new(task.key + 1_000, task.value));
                if processed == self.panic_at {
                    panic!("task {} fails after buffering a child", task.key);
                }
                push(Task::new(task.key + 2_000, task.value));
            }
            TaskOutcome::Useful
        }
    }

    #[test]
    fn panic_in_kth_task_of_a_batch_records_exactly_k_completions() {
        hang_guard(|| {
            const SEEDS: u64 = 100;
            let batch = DEFAULT_BATCH_SIZE as u64;
            for k in 1..=batch {
                let sched = LockedHeap::new(1);
                let pending = WorkerPool::with_borrowed(&sched, PoolConfig::new(1), |pool| {
                    let gang = &pool.inner.gangs[0];
                    let job = PanicJob {
                        seeds: SEEDS,
                        panic_at: k,
                        processed: Counter::new(0),
                        aborted: &gang.aborted,
                    };
                    assert_eq!(pool.run_job(&job).map(|_| ()), Err(JobError::Lost));
                    gang.detector.pending_estimate()
                });
                // The first popped batch held seeds 0..8.  The k-1 tasks
                // before the panicking one flushed two children each; the
                // panicking task's buffered child was dropped unflushed.
                let visible_children = 2 * (k - 1);
                assert_eq!(
                    sched.heap.lock().unwrap().len() as u64,
                    SEEDS - batch + visible_children,
                    "k={k}: only completed tasks' children may be visible"
                );
                // published - completed: no more than k tasks started, so
                // this balance holds only with exactly k completions
                // recorded and no child credited without being visible.
                assert_eq!(
                    pending,
                    SEEDS + visible_children - k,
                    "k={k}: completions or credits are off"
                );
            }
        });
    }

    #[test]
    fn survivor_of_a_panicking_sibling_exits_via_the_abort_flag() {
        hang_guard(|| {
            let sched = LockedHeap::new(2);
            WorkerPool::with_borrowed(&sched, PoolConfig::new(2), |pool| {
                let gang = &pool.inner.gangs[0];
                let job = PanicJob {
                    seeds: 1_000,
                    panic_at: 3,
                    processed: Counter::new(0),
                    aborted: &gang.aborted,
                };
                // Worker 0's completion guard poisons the gang and raises
                // `aborted`; the job is lost, but worker 1 reported.
                assert_eq!(pool.run_job(&job).map(|_| ()), Err(JobError::Lost));
                let survivor = crate::lock(&gang.state).results[1]
                    .take()
                    .expect("the survivor must not panic");
                assert!(survivor.useful + survivor.wasted > 0);
                // The dead worker's batch stranded five popped, uncompleted
                // tasks: quiescence was unreachable, so the survivor left
                // through `aborted`.
                assert_eq!(gang.detector.pending_estimate(), 5);
                assert!(!gang.detector.quiescent());
            });
        });
    }

    /// Seeds `0..8` on one worker; every seed pushes `task + 8` and
    /// `task + 16`, and each hinted and processed key is logged.
    struct HintLogJob {
        expect_hints: bool,
        hinted: Mutex<Vec<u64>>,
        processed: Mutex<Vec<u64>>,
    }

    impl PoolJob for HintLogJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..8u64).map(|key| Task::new(key, key)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            let task = task.key;
            if self.expect_hints {
                assert!(
                    self.hinted.lock().unwrap().contains(&task),
                    "task {task} of a full batch was processed unhinted"
                );
            }
            self.processed.lock().unwrap().push(task);
            if task < 8 {
                push(Task::new(task + 8, task + 8));
                push(Task::new(task + 16, task + 16));
            }
            TaskOutcome::Useful
        }

        fn prefetch(&self, task: Task) {
            self.hinted.lock().unwrap().push(task.key);
        }
    }

    #[test]
    fn prefetch_sees_only_multi_task_batches_and_never_batch_one() {
        hang_guard(|| {
            // 8 seeds, one worker: at the default batch all 8 are popped and
            // hinted together, their 16 children after them; at batch 1 the
            // hook is never called.
            for (batch, expect_hints) in [(DEFAULT_BATCH_SIZE, true), (1, false)] {
                let sched = LockedHeap::new(1);
                let job = HintLogJob {
                    expect_hints,
                    hinted: Mutex::new(Vec::new()),
                    processed: Mutex::new(Vec::new()),
                };
                let config = PoolConfig::new(1).with_batch(batch);
                WorkerPool::with_borrowed(&sched, config, |pool| pool.run_job(&job).map(|_| ()))
                    .expect("a hint assertion failed on the worker");
                let mut processed = job.processed.into_inner().unwrap();
                processed.sort_unstable();
                assert_eq!(processed, (0..24u64).collect::<Vec<_>>());
                let mut hinted = job.hinted.into_inner().unwrap();
                hinted.sort_unstable();
                if expect_hints {
                    assert_eq!(hinted, processed, "each task hinted exactly once");
                } else {
                    assert!(hinted.is_empty(), "batch 1 must never hint");
                }
            }
        });
    }
}
