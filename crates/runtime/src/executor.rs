//! The parallel work loop: a Galois-style `for_each` over a relaxed priority
//! scheduler.
//!
//! Worker threads repeatedly pop a task from the scheduler and hand it to
//! the user-supplied processing function, which may push any number of new
//! tasks.  Termination uses *distributed* pending-task accounting (see
//! [`crate::termination`]): every worker owns a cache-padded counter pair,
//! counts a task as published before making it visible, and publishes one
//! completion update after fully processing it.  "`pop() == None` and the
//! two-phase quiescence scan balances" is then a safe exit condition even
//! for schedulers that buffer tasks thread-locally (those are flushed
//! whenever a thread observes an empty pop) — without any shared `SeqCst`
//! counter on the per-task hot path.
//!
//! This module holds the per-worker loop body, [`worker_loop`], and nothing
//! that spawns a thread: the resident `smq-pool` worker pool is the one
//! fleet.  Its workers park between jobs and re-enter the loop for every
//! job — each pool *gang* passes its own scheduler handle, detector, and
//! abort flag, so concurrent gangs share nothing on this path.
//! The quiescence scan is *epoch-gated*: a worker only pays the O(threads)
//! counter scan after [`SCAN_GATE`] consecutive empty pops during which the
//! detector's activity epoch did not move (see [`crate::termination`] for
//! the liveness argument).
//!
//! The loop is *batch-granular* (its `batch` argument, [`DEFAULT_BATCH_SIZE`]
//! on a default pool): it pops up to a batch of tasks per `pop_batch` call,
//! passes every task of the batch to the caller's `prefetch` hint, processes
//! the batch under one unwind guard, and buffers follow-ups in a per-worker
//! sink flushed via `push_batch` at task boundaries — so the scheduler's
//! per-operation synchronization (locks, buffer publishes) is paid once per
//! batch instead of once per task and the batch's first cache misses
//! overlap.  Batch size 1 is the explicit per-task path: one `pop()` per
//! task, every push visible immediately.

use crossbeam_utils::Backoff;
use smq_core::{HasKey, SchedulerHandle};
use smq_telemetry::{Phase, WorkerTelemetry};

use crate::scratch::Scratch;
use crate::termination::{TerminationDetector, WorkerTally};

/// The batch granularity of a default pool's worker loop: the paper's task
/// batching is on unless a caller asks for the per-task path.
///
/// A constant, not an adaptive rule, because the sweep that sized it (2
/// vCPUs, two workers, prefetch hints on) found no single observable to
/// adapt on: road-grid SSSP (tiny frontier) keeps rising to batch 32,
/// power-law SSSP (huge frontier) is level from 4 to 32, and short A*
/// routes on one-worker gangs are flat up to 8 but lose 12 % at 16 and
/// 18 % at 32, because a lone worker that pops 16 tasks runs them out of
/// priority order.  8 is the largest value that costs no workload
/// anything (table in the README's "batch-granular hot path" section).
pub const DEFAULT_BATCH_SIZE: usize = 8;

/// How many consecutive empty pops a worker tolerates before it starts
/// yielding to the OS scheduler (important on machines with fewer hardware
/// threads than workers).
pub const SPINS_BEFORE_YIELD: u32 = 64;

/// How many consecutive empty pops (with a stable activity epoch) a worker
/// accumulates before paying for one O(threads) quiescence scan.
pub const SCAN_GATE: u32 = 8;

/// What one worker did during one trip through [`worker_loop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerLoopOutcome {
    /// Tasks popped and processed by this worker.
    pub executed: u64,
    /// Quiescence scans this worker performed (each is O(threads)).
    pub scans: u64,
}

/// External control signals a [`worker_loop`] run observes.
///
/// Both flags are optional (`LoopControl::default()` observes nothing); the
/// resident worker pool wires them per job:
///
/// * `abort` — the *poison* escape: set when a sibling worker died mid-job.
///   A dead worker's thread-local queues can strand published tasks, so
///   quiescence may be unreachable; survivors bail out on their next empty
///   pop, leaving whatever is still queued stranded (the gang is retired or
///   respawned, never reused as-is).
/// * `cancel` — *cooperative cancellation*: set when the job tripped its
///   deadline or budget.  Unlike `abort`, cancellation must leave the gang
///   **reusable**, so workers keep popping but discard every task (its
///   completion is recorded, `process` is skipped, nothing is pushed).  The
///   frontier therefore collapses, normal quiescence is reached, and the
///   scheduler is provably empty when the loop returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopControl<'a> {
    /// Bail out on the next empty pop (gang poisoned; tasks may strand).
    pub abort: Option<&'a std::sync::atomic::AtomicBool>,
    /// Drain-and-discard to quiescence (job cancelled; gang stays clean).
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

/// A handle through which task processors push newly created tasks.
///
/// Pushing through this wrapper (rather than the raw scheduler handle) keeps
/// the pending-task counter consistent, which is what makes termination
/// detection sound.
///
/// At batch size 1 every push goes straight to the scheduler and is
/// visible immediately.  At larger batch sizes the sink buffers follow-ups
/// in a per-worker vector and flushes them through the scheduler's
/// `push_batch` — when the buffer fills, and always at the task boundary —
/// crediting the whole batch with **one** counter store *before* any task
/// becomes visible (publish-before-flush), so the two-phase quiescence
/// argument of [`crate::termination`] applies unchanged.
pub struct TaskSink<'a, 'd, H, T>
where
    H: SchedulerHandle<T>,
{
    handle: &'a mut H,
    tally: &'a mut WorkerTally<'d>,
    buffer: &'a mut Vec<T>,
    batch: usize,
}

impl<H, T> TaskSink<'_, '_, H, T>
where
    H: SchedulerHandle<T>,
{
    /// Pushes a new task into the scheduler (batch size 1) or into the
    /// worker's follow-up buffer (larger batches; flushed via `push_batch`
    /// when full and at every task boundary).
    ///
    /// Either way the publish is counted in the worker's own cache-padded
    /// counter *before* the task becomes visible — a single uncontended
    /// store per push or per batch, never a shared RMW.
    #[inline]
    pub fn push(&mut self, task: T) {
        if self.batch <= 1 {
            self.tally.record_push();
            self.handle.push(task);
        } else {
            self.buffer.push(task);
            if self.buffer.len() >= self.batch {
                flush_sink(self.handle, self.tally, self.buffer);
            }
        }
    }
}

/// Publishes the sink buffer: credits the batch in one counter store, then
/// makes it visible in one `push_batch` call.  The credit must come first —
/// see `WorkerTally::record_pushes`.
#[inline]
fn flush_sink<T, H: SchedulerHandle<T>>(
    handle: &mut H,
    tally: &mut WorkerTally<'_>,
    buffer: &mut Vec<T>,
) {
    if buffer.is_empty() {
        return;
    }
    tally.record_pushes(buffer.len() as u64);
    handle.push_batch(buffer);
}

/// One worker's pop/process/quiesce loop, run by every worker of the
/// resident worker pool for every job.
///
/// The caller must have pushed (and pre-credited, via
/// [`TerminationDetector::preload`]) its seed tasks before entering the
/// loop.  Returns once this worker has observed global quiescence for the
/// detector's current generation — or, if `control.abort` is `Some` and
/// becomes `true`, as soon as the worker next finds the scheduler empty
/// (the worker pool's poison path; see [`LoopControl`]).  If
/// `control.cancel` becomes `true` instead, the worker drains to
/// quiescence while *discarding* every remaining task, so a cancelled
/// job's gang ends with an empty scheduler and stays reusable.
///
/// When `telemetry` is `Some`, worker-loop time is tagged into coarse
/// [`Phase`]s and every Nth successful pop is sampled for rank error
/// (its [`HasKey::key`] against the scheduler's advisory global-min
/// estimate, [`SchedulerHandle::min_key_hint`]).  With `None` the loop
/// takes no timestamps and makes no extra scheduler calls, which is how
/// the disabled configuration keeps single-thread `OpStats` bit-identical
/// to an uninstrumented run.
///
/// `prefetch` is a pure hint: it is called with every task of a popped
/// batch of two or more, before the first of them is processed (never at
/// batch size 1, never for tasks that are discarded by cancellation).  It
/// must not push, write shared state or panic, and `process` must not
/// depend on it having run; pass `|_| {}` when there is nothing to hint.
///
/// `batch` is the batch granularity of the hot path (clamped to at least
/// 1).  Above 1 the worker pops up to `batch` tasks per `pop_batch` call,
/// hints the whole batch to `prefetch` before processing its first task,
/// runs the batch under one unwind guard, and buffers follow-ups in a
/// per-worker sink that flushes via `push_batch` — at the latest at every
/// task boundary — so locks and indirect calls per task drop by ~the batch
/// factor and the batch's cache misses overlap, while relaxation semantics
/// and termination soundness are unchanged (see the module docs of
/// `smq_core::scheduler` and [`crate::termination`]).  What it costs is
/// priority order inside a batch: a worker runs up to `batch` tasks it
/// popped before it sees anything pushed meanwhile, so wasted work rises a
/// little (SSSP on a power-law graph: work increase 1.59 → 1.70 at 8).
/// `batch == 1` is the explicit exact per-task path: one `pop()` per task,
/// every follow-up pushed (and its publish credited) immediately, no
/// prefetch hints — with one worker and an exact local queue that is strict
/// priority order.
#[allow(clippy::too_many_arguments)]
pub fn worker_loop<T, H, F, P>(
    handle: &mut H,
    detector: &TerminationDetector,
    tally: &mut WorkerTally<'_>,
    scratch: &mut Scratch,
    batch: usize,
    control: LoopControl<'_>,
    mut telemetry: Option<&mut WorkerTelemetry>,
    mut process: F,
    prefetch: P,
) -> WorkerLoopOutcome
where
    T: Send + HasKey + 'static,
    H: SchedulerHandle<T>,
    F: for<'h, 'd> FnMut(T, &mut TaskSink<'h, 'd, H, T>, &mut Scratch),
    P: Fn(&T),
{
    let batch = batch.max(1);
    let mut outcome = WorkerLoopOutcome::default();
    let backoff = Backoff::new();
    // The two batch buffers live in the worker's scratch arena, so their
    // capacity survives across jobs on a resident pool.  `pop_buf` holds
    // the tasks of the current batch; `sink_buf` buffers follow-ups until
    // the next flush.  Both stay empty at batch size 1.
    let mut pop_buf: Vec<T> = scratch.take_vec();
    let mut sink_buf: Vec<T> = scratch.take_vec();
    if sink_buf.capacity() < batch {
        // `reserve` takes an *additional* count; the buffer is empty here,
        // so this guarantees capacity >= batch without mid-task growth.
        sink_buf.reserve(batch);
    }
    // Empty pops observed since the last scan (or since the last activity
    // epoch move); `was_idle` tracks idle→busy transitions for the epoch,
    // and `idle_spins` (reset only by a successful pop) drives OS yielding.
    let mut empty_streak = 0u32;
    let mut idle_spins = 0u32;
    let mut was_idle = false;
    let mut seen_epoch = detector.activity_epoch();
    loop {
        if let Some(t) = telemetry.as_deref_mut() {
            // While parked, pop attempts coalesce into the open Park span
            // (no clock read per idle spin); a successful pop ends it via
            // the Process transition below.
            if !t.parked() {
                t.phase(Phase::Pop);
            }
        }
        // Batch size 1 calls `pop()` directly (one scheduling decision and
        // one set of `OpStats` increments per task); larger batches make one
        // decision per `pop_batch` and amortize it over up to `batch` tasks.
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
            if let Some(t) = telemetry.as_deref_mut() {
                // Steal attribution: if the handle's steal counter moved
                // during this pop, the span just spent belongs to Steal.
                if t.timing_enabled() && t.note_steal_ops(handle.stats().steal_attempts) {
                    t.relabel(Phase::Steal);
                }
                // Rank-error probe: compare the best task this pop returned
                // against the best key still visible anywhere.  A positive
                // difference bounds how far the relaxed pop strayed from
                // the true minimum.
                if t.probe_due() {
                    t.record_rank_error(pop_buf[0].key(), handle.min_key_hint());
                }
                t.phase(Phase::Process);
            }
            if was_idle {
                // Off the common hot path: only the first pop after a
                // barren stretch tells the scanners the system moved.
                detector.note_activity();
                was_idle = false;
            }
            empty_streak = 0;
            idle_spins = 0;
            backoff.reset();
            // Cancellation is checked once per pop (not per task): when the
            // job tripped its deadline/budget, every remaining task is
            // discarded — completion recorded (the pop already counted it
            // published), `process` skipped, nothing pushed — so the
            // frontier monotonically collapses to ordinary quiescence.
            let discarding = control
                .cancel
                .is_some_and(|flag| flag.load(std::sync::atomic::Ordering::Acquire));
            if discarding {
                for _task in pop_buf.drain(..) {
                    tally.record_completion();
                }
                continue;
            }
            // Spend the batch on memory latency: hint every task's first
            // misses now, so they overlap with the tasks processed before
            // it.  A lone task would gain nothing (it is processed next).
            if pop_buf.len() >= 2 {
                pop_buf.iter().for_each(&prefetch);
            }
            // One unwind guard per popped batch.  Each task's completion
            // must be recorded even if `process` unwinds: the popped task
            // was already counted `published`, and skipping its completion
            // would leave the detector permanently unbalanced — surviving
            // pool workers would spin forever in a never-quiescent scan
            // while the coordinator waits for them (deadlock instead of the
            // intended pool poisoning).  `catch_unwind` is free on the
            // non-panic path.
            let panic_payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for task in pop_buf.drain(..) {
                    let mut sink = TaskSink {
                        handle,
                        tally,
                        buffer: &mut sink_buf,
                        batch,
                    };
                    process(task, &mut sink, scratch);
                    outcome.executed += 1;
                    // Flush-at-task-boundary, publish-before-flush: the
                    // task's buffered follow-ups are credited (one store)
                    // and made visible *before* its completion is recorded,
                    // so the sums can never balance while its children are
                    // outstanding.
                    flush_sink(handle, tally, &mut sink_buf);
                    tally.record_completion();
                }
            }))
            .err();
            if let Some(payload) = panic_payload {
                // Exactly one task was in flight: earlier tasks of the
                // batch recorded their own completions above.  Its
                // un-flushed follow-ups were never credited and never
                // visible: dropping them keeps the detector balanced.  The
                // batch's remaining tasks were dropped with the drain and
                // stay uncompleted, stranded exactly like the dead worker's
                // thread-local queues — the pool's gang poisoning (abort
                // flag) handles both.
                sink_buf.clear();
                tally.record_completion();
                std::panic::resume_unwind(payload);
            }
        } else {
            if let Some(t) = telemetry.as_deref_mut() {
                // Flush is only worth a span on the first empty pop of a
                // streak; later iterations flush nothing and stay parked.
                if !t.parked() {
                    t.phase(Phase::Flush);
                }
            }
            // Anything buffered locally must become visible before we
            // conclude the system might be done.  (The sink buffer is
            // always empty here — it flushes at every task boundary.)
            handle.flush();
            if let Some(flag) = control.abort {
                if flag.load(std::sync::atomic::Ordering::Acquire) {
                    break;
                }
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
                if let Some(t) = telemetry.as_deref_mut() {
                    t.phase(Phase::Scan);
                }
                // Looked stable for `SCAN_GATE` empty pops: pay for one
                // O(threads) scan, then require a fresh streak before
                // the next one.
                empty_streak = 0;
                outcome.scans += 1;
                if detector.quiescent() {
                    break;
                }
            }
            if let Some(t) = telemetry.as_deref_mut() {
                t.phase(Phase::Park);
            }
            if idle_spins > SPINS_BEFORE_YIELD {
                std::thread::yield_now();
            } else {
                backoff.snooze();
            }
        }
    }
    scratch.put_vec(pop_buf);
    scratch.put_vec(sink_buf);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use smq_core::{OpStats, Scheduler};
    use std::collections::BinaryHeap;
    use std::sync::atomic::{AtomicU64 as Counter, Ordering};
    use std::sync::Mutex;

    /// A minimal strict scheduler (single global locked heap) used to test
    /// the loop independently of the real schedulers.
    struct LockedHeap {
        heap: Mutex<BinaryHeap<std::cmp::Reverse<u64>>>,
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

    impl Scheduler<u64> for LockedHeap {
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

    impl SchedulerHandle<u64> for LockedHeapHandle<'_> {
        fn push(&mut self, task: u64) {
            self.parent
                .heap
                .lock()
                .unwrap()
                .push(std::cmp::Reverse(task));
            self.stats.pushes += 1;
        }

        fn pop(&mut self) -> Option<u64> {
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

    /// What a [`drive`]n fleet did, summed over its workers.
    struct Driven {
        executed: u64,
        scans: u64,
        total: OpStats,
    }

    /// The test fleet: one scoped thread per worker of `sched`, `initial`
    /// split round-robin and pre-credited before any thread starts, every
    /// worker in [`worker_loop`] at `batch` until quiescence.
    fn drive<F>(sched: &LockedHeap, batch: usize, initial: Vec<u64>, process: F) -> Driven
    where
        F: Fn(u64, &mut TaskSink<'_, '_, LockedHeapHandle<'_>, u64>, &mut Scratch) + Sync,
    {
        let threads = sched.num_threads();
        let detector = TerminationDetector::new(threads);
        let mut seeds: Vec<Vec<u64>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, task) in initial.into_iter().enumerate() {
            seeds[i % threads].push(task);
        }
        for (tid, seed) in seeds.iter().enumerate() {
            detector.preload(tid, seed.len() as u64);
        }
        let (detector, process) = (&detector, &process);
        let results: Vec<(WorkerLoopOutcome, OpStats)> = std::thread::scope(|scope| {
            let workers: Vec<_> = seeds
                .into_iter()
                .enumerate()
                .map(|(tid, seed)| {
                    scope.spawn(move || {
                        let mut handle = sched.handle(tid);
                        seed.into_iter().for_each(|task| handle.push(task));
                        let outcome = worker_loop(
                            &mut handle,
                            detector,
                            &mut detector.tally(tid),
                            &mut Scratch::new(),
                            batch,
                            LoopControl::default(),
                            None,
                            process,
                            |_task| {},
                        );
                        (outcome, handle.stats())
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("test worker panicked"))
                .collect()
        });
        Driven {
            executed: results.iter().map(|(o, _)| o.executed).sum(),
            scans: results.iter().map(|(o, _)| o.scans).sum(),
            total: OpStats::merged(results.iter().map(|(_, stats)| stats)),
        }
    }

    #[test]
    fn processes_every_seed_task_once() {
        let sched = LockedHeap::new(2);
        let executed = Counter::new(0);
        let driven = drive(
            &sched,
            DEFAULT_BATCH_SIZE,
            (0..1_000u64).collect(),
            |_task, _sink, _scratch| {
                executed.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), 1_000);
        assert_eq!(driven.executed, 1_000);
        assert_eq!(driven.total.pops, 1_000);
    }

    #[test]
    fn follow_up_tasks_are_processed() {
        // Each task < 1000 pushes task+1000 and task+2000; the run must
        // process all 3000 tasks before terminating.
        let sched = LockedHeap::new(3);
        let executed = Counter::new(0);
        let driven = drive(
            &sched,
            DEFAULT_BATCH_SIZE,
            (0..1_000u64).collect(),
            |task, sink, _scratch| {
                executed.fetch_add(1, Ordering::Relaxed);
                if task < 1_000 {
                    sink.push(task + 1_000);
                    sink.push(task + 2_000);
                }
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), 3_000);
        assert_eq!(driven.executed, 3_000);
    }

    #[test]
    fn empty_initial_set_terminates_immediately() {
        let sched = LockedHeap::new(2);
        let driven = drive(&sched, DEFAULT_BATCH_SIZE, Vec::new(), |_t, _s, _c| {});
        assert_eq!(driven.executed, 0);
        assert!(driven.scans >= 2, "each worker scans to exit");
    }

    #[test]
    fn single_thread_run_works() {
        let sched = LockedHeap::new(1);
        let sum = Counter::new(0);
        let driven = drive(
            &sched,
            DEFAULT_BATCH_SIZE,
            vec![5u64, 10, 15],
            |task, _sink, _scratch| {
                sum.fetch_add(task, Ordering::Relaxed);
            },
        );
        assert_eq!(sum.load(Ordering::Relaxed), 30);
        assert_eq!(driven.executed, 3);
    }

    #[test]
    fn deep_task_chain_terminates() {
        // A single chain of 10_000 dependent tasks exercises the case where
        // most threads spin on an empty scheduler while one works.
        let sched = LockedHeap::new(4);
        let executed = Counter::new(0);
        let driven = drive(
            &sched,
            DEFAULT_BATCH_SIZE,
            vec![0u64],
            |task, sink, _scratch| {
                executed.fetch_add(1, Ordering::Relaxed);
                if task < 10_000 {
                    sink.push(task + 1);
                }
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), 10_001);
        assert_eq!(driven.executed, 10_001);
    }

    #[test]
    fn scan_gate_bounds_scan_traffic() {
        // Every quiescence scan must be "paid for" with at least `SCAN_GATE`
        // empty pops, so scans * gate never exceeds total empty pops — the
        // loop-level guarantee behind the epoch-gated scan.
        let sched = LockedHeap::new(4);
        let driven = drive(
            &sched,
            DEFAULT_BATCH_SIZE,
            vec![0u64],
            |task, sink, _scratch| {
                if task < 5_000 {
                    sink.push(task + 1);
                }
            },
        );
        assert!(
            driven.scans * u64::from(SCAN_GATE) <= driven.total.empty_pops,
            "scans={} gate={SCAN_GATE} empty_pops={}",
            driven.scans,
            driven.total.empty_pops
        );
        // Liveness: every worker still exits via at least one scan.
        assert!(driven.scans >= 4);
    }

    #[test]
    fn batched_loop_processes_every_task() {
        // A scheduler with only the default (per-task) batch impls, driven
        // at batch 8: conservation and termination must be unchanged.
        let sched = LockedHeap::new(2);
        let executed = Counter::new(0);
        let driven = drive(
            &sched,
            8,
            (0..1_000u64).collect(),
            |task, sink, _scratch| {
                executed.fetch_add(1, Ordering::Relaxed);
                if task < 1_000 {
                    sink.push(task + 1_000);
                    sink.push(task + 2_000);
                }
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), 3_000);
        assert_eq!(driven.executed, 3_000);
        assert_eq!(driven.total.pushes, driven.total.pops);
    }

    #[test]
    fn batched_deep_chain_terminates() {
        // Fan-out 1: every sink flush carries a single task, the worst case
        // for the batching sink's bookkeeping.
        let sched = LockedHeap::new(4);
        let driven = drive(&sched, 32, vec![0u64], |task, sink, _scratch| {
            if task < 10_000 {
                sink.push(task + 1);
            }
        });
        assert_eq!(driven.executed, 10_001);
        assert_eq!(driven.total.pushes, driven.total.pops);
    }

    /// Drives `worker_loop` directly on worker `tid` of `sched`, panicking
    /// inside the `panic_at`-th task this worker processes (1-based) after
    /// that task has pushed a follow-up.  Every task below 1000 pushes two
    /// children.  Returns whether the loop unwound.
    fn run_until_panic(
        sched: &LockedHeap,
        detector: &TerminationDetector,
        tid: usize,
        panic_at: u64,
    ) -> bool {
        let mut handle = sched.handle(tid);
        let mut tally = detector.tally(tid);
        let mut scratch = Scratch::new();
        let mut processed = 0u64;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(
                &mut handle,
                detector,
                &mut tally,
                &mut scratch,
                DEFAULT_BATCH_SIZE,
                LoopControl::default(),
                None,
                |task: u64, sink, _scratch| {
                    processed += 1;
                    if task < 1_000 {
                        sink.push(task + 1_000);
                        if processed == panic_at {
                            panic!("task {task} fails after buffering a child");
                        }
                        sink.push(task + 2_000);
                    }
                },
                |_task| {},
            )
        }))
        .is_err()
    }

    #[test]
    fn panic_in_kth_task_of_a_batch_records_exactly_k_completions() {
        const SEEDS: u64 = 100;
        let batch = DEFAULT_BATCH_SIZE as u64;
        for k in 1..=batch {
            let sched = LockedHeap::new(1);
            let detector = TerminationDetector::new(1);
            detector.preload(0, SEEDS);
            {
                let mut seeder = sched.handle(0);
                (0..SEEDS).for_each(|t| seeder.push(t));
            }
            assert!(run_until_panic(&sched, &detector, 0, k));
            // The first popped batch held seeds 0..8.  The k-1 tasks before
            // the panicking one flushed two children each; the panicking
            // task's buffered child was dropped unflushed.
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
        use std::sync::atomic::AtomicBool;
        let sched = LockedHeap::new(2);
        let detector = TerminationDetector::new(2);
        detector.preload(0, 1_000);
        {
            let mut seeder = sched.handle(0);
            (0..1_000u64).for_each(|t| seeder.push(t));
        }
        let abort = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // What the pool's completion guard does for a dead worker.
                assert!(run_until_panic(&sched, &detector, 0, 3));
                abort.store(true, Ordering::Release);
            });
            let survivor = scope.spawn(|| {
                let mut handle = sched.handle(1);
                let mut tally = detector.tally(1);
                worker_loop(
                    &mut handle,
                    &detector,
                    &mut tally,
                    &mut Scratch::new(),
                    DEFAULT_BATCH_SIZE,
                    LoopControl {
                        abort: Some(&abort),
                        cancel: None,
                    },
                    None,
                    |_task: u64, _sink, _scratch| {
                        // Hold the first task until the sibling has died, so
                        // the sibling is sure to find a full batch.
                        while !abort.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    },
                    |_task| {},
                )
            });
            let outcome = survivor.join().expect("the survivor must not panic");
            assert!(outcome.executed > 0);
        });
        // The dead worker's batch stranded five popped, uncompleted tasks:
        // quiescence was unreachable, so the survivor left through `abort`.
        assert_eq!(detector.pending_estimate(), 5);
        assert!(!detector.quiescent());
    }

    #[test]
    fn prefetch_sees_only_multi_task_batches_and_never_batch_one() {
        // 8 seeds, one worker: at the default batch all 8 are popped and
        // hinted together, their 16 children after them; at batch 1 the
        // hook is never called.
        for (batch, expect_hints) in [(DEFAULT_BATCH_SIZE, true), (1, false)] {
            let sched = LockedHeap::new(1);
            let detector = TerminationDetector::new(1);
            detector.preload(0, 8);
            let mut handle = sched.handle(0);
            (0..8u64).for_each(|t| handle.push(t));
            let hinted = std::cell::RefCell::new(Vec::new());
            let mut processed = Vec::new();
            worker_loop(
                &mut handle,
                &detector,
                &mut detector.tally(0),
                &mut Scratch::new(),
                batch,
                LoopControl::default(),
                None,
                |task: u64, sink, _scratch| {
                    if expect_hints {
                        assert!(
                            hinted.borrow().contains(&task),
                            "task {task} of a full batch was processed unhinted"
                        );
                    }
                    processed.push(task);
                    if task < 8 {
                        sink.push(task + 8);
                        sink.push(task + 16);
                    }
                },
                |task| hinted.borrow_mut().push(*task),
            );
            processed.sort_unstable();
            assert_eq!(processed, (0..24u64).collect::<Vec<_>>());
            let mut hinted = hinted.into_inner();
            hinted.sort_unstable();
            if expect_hints {
                assert_eq!(hinted, processed, "each task hinted exactly once");
            } else {
                assert!(hinted.is_empty(), "batch 1 must never hint");
            }
        }
    }

    #[test]
    fn scratch_is_usable_from_the_processing_closure() {
        let sched = LockedHeap::new(2);
        let checked = Counter::new(0);
        drive(
            &sched,
            DEFAULT_BATCH_SIZE,
            (1..=64u64).collect(),
            |task, _sink, scratch| {
                let buf = scratch.counting_u32(task as usize);
                assert!(buf.iter().all(|&c| c == 0), "scratch must be zeroed");
                buf[(task - 1) as usize] = 1;
                checked.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(checked.load(Ordering::Relaxed), 64);
    }
}
