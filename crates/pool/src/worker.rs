//! One pool worker: park until the gang publishes a job, make a scheduler
//! handle for it, run the job's pop/process/quiesce loop, drop the handle,
//! report, park again.
//!
//! The loop is the Galois-style `for_each` the paper runs every scheduler
//! under.  Each job reaches the gang as one `JobRun` made for it alone (its
//! seeds, a fresh detector, an abort flag).  Termination is
//! `smq_runtime::termination`'s: a task is counted
//! published before it becomes visible and completed after it was
//! processed, so "the pop came back empty and the two-phase scan balances"
//! is a safe exit even for schedulers that buffer tasks thread-locally
//! (flushed on every empty pop).  The O(threads) scan is *epoch-gated*: a
//! worker pays for it only after [`SCAN_GATE`] consecutive empty pops
//! during which the detector's activity epoch did not move.
//!
//! Every batch size B ([`PoolConfig::with_batch`]) runs the same loop, one
//! [`Batches::step`] per popped batch: a worker pops up to B tasks per
//! `pop_batch`, hints a batch of two or more to [`PoolJob::prefetch`],
//! processes it under one unwind guard, and flushes buffered follow-ups
//! through `push_batch` whenever B are buffered and at every task
//! boundary; seeds go in `push_batch` calls of at most B.  No insert step
//! carries more than one batch.  Batch 1 is this loop with B = 1: one-task
//! batch calls, which replay `pop()` and `push()` on every scheduler family
//! (`tests/pop_paths.rs`).
//!
//! [`PoolConfig::with_batch`]: crate::PoolConfig::with_batch

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;

use crossbeam_utils::Backoff;
use smq_core::{SchedulerHandle, Task};
use smq_runtime::{WorkerTally, SCAN_GATE};
use smq_telemetry::{Phase, WorkerTelemetry};

use crate::{lock, Inner, JobRun, PoolJob, TaskOutcome, WorkerResult};

/// One worker's batch buffers, kept across jobs so every job after the
/// first reuses their capacity (a lost job's are discarded), and its
/// current job's task counts.
#[derive(Default)]
pub(crate) struct Batches {
    /// The popped batch being processed.
    popped: Vec<Task>,
    /// Follow-ups buffered until the next flush.
    sink: Vec<Task>,
    useful: u64,
    wasted: u64,
}

impl Batches {
    /// One popped batch of at most `batch` tasks (see the module docs);
    /// `false`, having done nothing else, when the pop came back empty.
    #[inline]
    pub(crate) fn step<H: SchedulerHandle<Task>>(
        &mut self,
        handle: &mut H,
        job: &dyn PoolJob,
        tally: &mut WorkerTally<'_>,
        batch: usize,
        mut telemetry: Option<&mut WorkerTelemetry>,
    ) -> bool {
        if let Some(t) = telemetry.as_mut() {
            // While parked, pop attempts coalesce into the open Park span
            // (no clock read per idle spin); a successful pop ends it via
            // the Process transition below.
            if !t.parked() {
                t.phase(Phase::Pop);
            }
        }
        if handle.pop_batch(&mut self.popped, batch) == 0 {
            return false;
        }
        if let Some(t) = telemetry {
            // If the handle's steal counter moved during this pop, the span
            // just spent belongs to Steal.
            if t.timing_enabled() && t.note_steal_ops(handle.stats().steal_attempts) {
                t.relabel(Phase::Steal);
            }
            // Rank-error probe: the best task this pop returned against the
            // best key still visible anywhere.
            if t.probe_due() {
                t.record_rank_error(self.popped[0].key, handle.min_key_hint());
            }
            t.phase(Phase::Process);
        }
        // Hint every task's first misses now, so they overlap with the tasks
        // processed before it.  A lone task would gain nothing (it is
        // processed next).
        if self.popped.len() >= 2 {
            self.popped.iter().for_each(|&task| job.prefetch(task));
        }
        // One unwind guard per popped batch.  Each task's completion must be
        // recorded even if `process` unwinds: the popped task was already
        // counted published, and skipping its completion would leave the
        // detector unbalanced — the surviving workers would spin forever in
        // a never-quiescent scan while the coordinator waits for them.
        // `catch_unwind` is free on the non-panic path.
        let processed = catch_unwind(AssertUnwindSafe(|| {
            for task in self.popped.drain(..) {
                let mut push = |child| {
                    self.sink.push(child);
                    if self.sink.len() >= batch {
                        flush(handle, tally, &mut self.sink);
                    }
                };
                match job.process(task, &mut push) {
                    TaskOutcome::Useful => self.useful += 1,
                    TaskOutcome::Wasted => self.wasted += 1,
                }
                // Publish-before-flush at the task boundary: the task's
                // follow-ups are credited and made visible *before* its
                // completion is recorded, so the sums can never balance
                // while its children are outstanding.
                flush(handle, tally, &mut self.sink);
                tally.record_completion();
            }
        }));
        if let Err(payload) = processed {
            // Exactly one task was in flight: earlier tasks of the batch
            // recorded their own completions.  Its un-flushed follow-ups
            // were never credited nor visible, so dropping them keeps the
            // detector balanced.  The batch's remaining tasks went with the
            // drain and stay uncompleted, stranded like the panicked
            // worker's thread-local queues — the run's abort flag handles
            // both.
            self.sink.clear();
            tally.record_completion();
            resume_unwind(payload);
        }
        true
    }
}

/// One worker's park/execute loop: park until the gang publishes a job,
/// run this worker's share of it through `share` (which makes the job's
/// handle and calls [`run_share`]) inside one `catch_unwind`, report, park
/// again, until shutdown.
///
/// A share that unwinds reports no result: that poisons the gang and
/// raises the run's abort flag, so the siblings stop waiting for a
/// quiescence the stranded tasks may have made unreachable.  The thread
/// survives and parks again.  (The other half of the no-deadlock guarantee
/// is [`Batches::step`]'s unwind guard: the in-flight task's completion is
/// recorded even on unwind, so the siblings can still reach quiescence or
/// the abort flag and report.)
pub(crate) fn run_worker(
    inner: &Inner,
    gang_idx: usize,
    local: usize,
    share: &dyn Fn(&JobRun, &mut Batches, Instant) -> WorkerResult,
) {
    let gang = &inner.gangs[gang_idx];
    let mut batches = Batches::default();
    let mut last_seq = 0u64;
    // When this worker last went idle: the gap until its next job is
    // accounted as Park time.
    let mut idle_since = Instant::now();

    loop {
        // Park until a new job (or shutdown) arrives on this gang.
        let run = {
            let mut st = lock(&gang.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq > last_seq {
                    last_seq = st.seq;
                    break st.run.clone().expect("job published without a run");
                }
                st = gang.job_ready.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| share(&run, &mut batches, idle_since))).ok();
        let mut st = lock(&gang.state);
        if result.is_none() {
            // Nothing of the lost share (partial counts, a half-popped
            // batch) may reach the next job.
            batches = Batches::default();
            st.poisoned = true;
            run.aborted.store(true, Ordering::Release);
        }
        st.results[local] = result;
        st.remaining -= 1;
        if st.remaining == 0 {
            st.run = None;
            gang.job_done.notify_all();
        }
        drop(st);
        idle_since = Instant::now();
    }
}

/// This worker's share of one job, on `handle`, a handle made for this job
/// alone (so its `stats()` are the job's own): push every `gang_size`-th
/// seed from `local` on, then pop and process until this worker observes
/// quiescence on the run's detector — or, once a sibling's share panicked
/// (the run's `aborted`), until it next finds the scheduler empty, leaving
/// whatever is still queued; the gang is then retired or rebuilt, never
/// reused as-is.  Nothing else ends a job early.
///
/// Generic over the handle, so each gang's slot type monomorphizes the
/// whole job hot path.
pub(crate) fn run_share<H: SchedulerHandle<Task>>(
    inner: &Inner,
    gang_size: usize,
    local: usize,
    run: &JobRun,
    handle: &mut H,
    batches: &mut Batches,
    idle_since: Instant,
) -> WorkerResult {
    let batch = inner.batch_size;
    // SAFETY: valid until this worker reports (see `JobRef`), and
    // `run_worker` reports only after this share returned or unwound.
    let job: &dyn PoolJob = unsafe { &*run.job.0 };
    let detector = &run.detector;
    let mut tally = detector.tally(local);
    // `None` when telemetry is disabled: the loop then takes no timestamps
    // and makes no extra handle calls, which keeps single-thread `OpStats`
    // bit-identical to an uninstrumented run.
    let mut telemetry = WorkerTelemetry::begin(&inner.telemetry, Some(idle_since));
    // The seeds were pre-credited when the run was made.  This worker's
    // share becomes visible one batch per insert step, like every
    // follow-up.
    let mut seeds = run.seeds.iter().skip(local).step_by(gang_size).peekable();
    while seeds.peek().is_some() {
        batches.sink.extend(seeds.by_ref().take(batch));
        handle.push_batch(&mut batches.sink);
    }
    handle.flush();

    let mut scans = 0u64;
    let backoff = Backoff::new();
    // Empty pops observed since the last scan (or since the last activity
    // epoch move); `was_idle` tracks idle→busy transitions for the epoch.
    // `backoff` (reset only by a successful pop) spins, then yields to the
    // OS scheduler.
    let mut empty_streak = 0u32;
    let mut was_idle = false;
    let mut seen_epoch = detector.activity_epoch();
    loop {
        if batches.step(handle, job, &mut tally, batch, telemetry.as_mut()) {
            if was_idle {
                // Only the first batch after a barren stretch tells the
                // scanners the system moved.
                detector.note_activity();
                was_idle = false;
            }
            empty_streak = 0;
            backoff.reset();
            continue;
        }
        if let Some(t) = telemetry.as_mut() {
            // Flush is only worth a span on the first empty pop of a
            // streak; later iterations flush nothing and stay parked.
            if !t.parked() {
                t.phase(Phase::Flush);
            }
        }
        // Anything buffered locally must become visible before we conclude
        // the system might be done.  (The sink is always empty here — it
        // flushes at every task boundary.)
        handle.flush();
        if run.aborted.load(Ordering::Acquire) {
            break;
        }
        was_idle = true;
        let epoch = detector.activity_epoch();
        if epoch != seen_epoch {
            // Work appeared somewhere since we last looked: the system is
            // churning, a scan now would likely fail.
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
            // O(threads) scan, then require a fresh streak before the next
            // one.
            empty_streak = 0;
            scans += 1;
            if detector.quiescent() {
                break;
            }
        }
        if let Some(t) = telemetry.as_mut() {
            t.phase(Phase::Park);
        }
        backoff.snooze();
    }

    WorkerResult {
        useful: std::mem::take(&mut batches.useful),
        wasted: std::mem::take(&mut batches.wasted),
        scans,
        stats: handle.stats(),
        telemetry: telemetry.map(WorkerTelemetry::finish),
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
    use super::Batches;
    use crate::common::hang_guard;
    use crate::{
        JobError, JobOutput, JobRun, PoolConfig, PoolJob, TaskOutcome, WorkerPool,
        DEFAULT_BATCH_SIZE,
    };
    use smq_core::{OpStats, Scheduler, SchedulerHandle, Task};
    use smq_runtime::{TerminationDetector, SCAN_GATE};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64 as Counter, Ordering};
    use std::sync::{Arc, Mutex};

    /// A minimal strict scheduler (single global locked heap) used to test
    /// the loop independently of the real schedulers.  Its handles count a
    /// steal attempt on each pop of a key at or above `steals_from`.
    struct LockedHeap {
        heap: Mutex<BinaryHeap<Reverse<Task>>>,
        threads: usize,
        steals_from: u64,
    }

    impl LockedHeap {
        fn new(threads: usize) -> Self {
            Self {
                heap: Mutex::new(BinaryHeap::new()),
                threads,
                steals_from: u64::MAX,
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
                Some(task) => {
                    self.stats.pops += 1;
                    self.stats.steal_attempts += u64::from(task.key >= self.parent.steals_from);
                }
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

    #[test]
    fn a_job_books_only_its_own_pops_as_steal_time() {
        hang_guard(|| {
            use smq_telemetry::{Phase, TelemetryConfig};
            // Job 1 pops only "stolen" keys, job 2 none: no span of job 2
            // may be booked as Steal, also on a worker that stole in job 1.
            for threads in [1, 2] {
                let sched = LockedHeap {
                    steals_from: 1_000,
                    ..LockedHeap::new(threads)
                };
                let config = PoolConfig::new(threads).with_telemetry(TelemetryConfig::enabled());
                let steal_ns = |seeds: std::ops::Range<u64>, pool: &WorkerPool| {
                    let job = KeyJob {
                        seeds: seeds.collect(),
                        process: |_: u64, _: &mut dyn FnMut(u64)| {},
                    };
                    let out = pool.run_job(&job).expect("test job lost");
                    out.metrics
                        .telemetry
                        .expect("telemetry is on")
                        .phases
                        .get(Phase::Steal)
                };
                let (first, second) = WorkerPool::with_borrowed(&sched, config, |pool| {
                    (steal_ns(1_000..3_000, pool), steal_ns(0..1_000, pool))
                });
                assert!(first > 0, "{threads} workers: job 1 stole on every pop");
                assert_eq!(second, 0, "{threads} workers: job 2 never stole");
            }
        });
    }

    /// Seeds `0..seeds`; every task below 1000 pushes two children.  Pool
    /// worker 1 (`smq-pool-0-1`) holds its first task until another thread
    /// has panicked, so that one is sure to find a full batch, and pushes
    /// nothing.  Any other thread raises `panicked` and panics inside the
    /// `panic_at`-th task it processes (1-based), after that task has pushed
    /// its first child.
    struct PanicJob {
        seeds: u64,
        panic_at: u64,
        processed: Counter,
        panicked: AtomicBool,
    }

    impl PanicJob {
        fn new(seeds: u64, panic_at: u64) -> Self {
            Self {
                seeds,
                panic_at,
                processed: Counter::new(0),
                panicked: AtomicBool::new(false),
            }
        }
    }

    impl PoolJob for PanicJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..self.seeds).map(|key| Task::new(key, key)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            // Pool threads are named `smq-pool-<gang>-<worker>`.
            if std::thread::current().name() == Some("smq-pool-0-1") {
                while !self.panicked.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                return TaskOutcome::Useful;
            }
            let processed = self.processed.fetch_add(1, Ordering::Relaxed) + 1;
            if task.key < 1_000 {
                push(Task::new(task.key + 1_000, task.value));
                if processed == self.panic_at {
                    self.panicked.store(true, Ordering::Release);
                    panic!("task {} fails after buffering a child", task.key);
                }
                push(Task::new(task.key + 2_000, task.value));
            }
            TaskOutcome::Useful
        }
    }

    #[test]
    fn panic_in_kth_task_of_a_batch_records_exactly_k_completions() {
        const SEEDS: u64 = 100;
        let batch = DEFAULT_BATCH_SIZE as u64;
        for k in 1..=batch {
            // One step on a hand-built run: the seeds visible and
            // pre-credited, as a pool worker starts a job.
            let sched = LockedHeap::new(1);
            let mut handle = sched.handle(0);
            let job = PanicJob::new(SEEDS, k);
            handle.push_batch(&mut job.seed_tasks());
            let detector = TerminationDetector::new(1);
            detector.preload(0, SEEDS);
            let mut tally = detector.tally(0);
            let mut batches = Batches::default();
            let step = catch_unwind(AssertUnwindSafe(|| {
                batches.step(&mut handle, &job, &mut tally, DEFAULT_BATCH_SIZE, None)
            }));
            assert!(step.is_err(), "k={k}: the k-th task must unwind the step");
            // The popped batch held seeds 0..8.  The k-1 tasks before the
            // panicking one flushed two children each; the panicking task's
            // buffered child was dropped unflushed.
            let visible_children = 2 * (k - 1);
            assert_eq!(
                sched.heap.lock().unwrap().len() as u64,
                SEEDS - batch + visible_children,
                "k={k}: only completed tasks' children may be visible"
            );
            // published - completed: no more than k tasks started, so this
            // balance holds only with exactly k completions recorded and no
            // child credited without being visible.
            assert_eq!(
                detector.pending_estimate(),
                SEEDS + visible_children - k,
                "k={k}: completions or credits are off"
            );
        }
    }

    #[test]
    fn survivor_of_a_panicking_sibling_exits_via_the_abort_flag() {
        hang_guard(|| {
            let sched = LockedHeap::new(2);
            WorkerPool::with_borrowed(&sched, PoolConfig::new(2), |pool| {
                let job = PanicJob::new(1_000, 3);
                // `run_job`'s two steps, keeping a share of the run to read
                // its detector and abort flag after the job.
                let claim = pool.claim().expect("a fresh pool has a gang");
                let gang = &pool.inner.gangs[claim.gang];
                let run = JobRun::new(&job, gang.size);
                let lost = pool.execute(Arc::clone(&run), gang).map(|_| ());
                assert_eq!(lost, Err(JobError::Lost));
                // Worker 0's lost share poisoned the gang and raised
                // `aborted`; the job is lost, but worker 1 reported.
                let survivor = crate::lock(&gang.state).results[1]
                    .take()
                    .expect("the survivor must not panic");
                assert!(survivor.useful + survivor.wasted > 0);
                // Worker 0's batch stranded five popped, uncompleted tasks:
                // quiescence was unreachable, so the survivor left through
                // `aborted`.
                assert!(run.aborted.load(Ordering::Acquire));
                assert_eq!(run.detector.pending_estimate(), 5);
                assert!(!run.detector.quiescent());
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
