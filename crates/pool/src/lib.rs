//! A *resident* worker pool for the relaxed priority schedulers, partitioned
//! into **gangs** that execute jobs concurrently.
//!
//! This is the one place scheduler worker threads are spawned.  A
//! [`WorkerPool`] spawns its fleet **once**, parks the workers on a condvar
//! between jobs, and executes a stream of jobs against long-lived
//! schedulers, so thread-spawn latency and cold scheduler state are paid
//! per pool, not per job: each job seeds a scheduler, runs every worker's
//! pop/process/quiesce loop to quiescence under a termination detector
//! made for that job alone, and hands back per-job [`RunMetrics`].  A
//! single run is the same thing on a transient pool
//! ([`WorkerPool::with_borrowed`]).
//!
//! # Gangs: job-level parallelism
//!
//! The fleet is partitioned into `gangs` gangs of `gang_size` workers each
//! (see [`PoolConfig`]).  Every gang owns its **own scheduler instance and
//! job hand-off state**, and every job its own [`TerminationDetector`], so
//! gangs are fully independent: a quiescence scan only ever observes its
//! own job's counters, and a job on gang A shares nothing with a job on
//! gang B except the pool's lifetime counters.
//!
//! **A job occupies exactly one gang.**  [`run_job`](WorkerPool::run_job)
//! claims one idle gang (waiting for one if all are busy), splits the job's
//! seed tasks round-robin across that gang's workers, and releases the gang
//! when the job is quiescent — so a pool with G gangs runs G jobs at once,
//! and the single-gang pool of `PoolConfig::new` runs one job at a time on
//! the whole fleet.
//!
//! # Panic containment and scheduler rebuild
//!
//! Each worker runs its share of a job inside one `catch_unwind`, so a
//! panicking job costs the job, not the thread: the worker reports no
//! result, which **poisons** the gang and raises the job's abort flag (the
//! panic may strand tasks in its thread-local queues, so its siblings leave
//! at their next empty pop instead of waiting for an unreachable
//! quiescence), and parks again.  The `run_job` call that owned the gang
//! returns [`Err(JobError::Lost)`](JobError::Lost); *other* gangs — and
//! their in-flight jobs — are untouched.  On pools built from a scheduler
//! *factory* ([`new_partitioned`](WorkerPool::new_partitioned)) the next
//! claim **rebuilds the poisoned gang's scheduler** in its slot (dropping
//! the old one, possibly left mid-operation by the panic) for the same
//! threads, so `live_gangs` recovers after any panic storm
//! ([`PoolStats::gangs_respawned`] counts the rebuilds) while
//! [`PoolStats::threads_spawned`] stays at the fleet size.
//! [`respawn_dead`](WorkerPool::respawn_dead) forces the same rebuild at a
//! moment of the caller's choosing.  Pools without a factory
//! ([`WorkerPool::new`], [`with_borrowed`](WorkerPool::with_borrowed))
//! cannot rebuild a scheduler and retire poisoned gangs for good; once
//! every gang of such a pool is dead, claims fail with
//! [`JobError::NoCapacity`] instead of panicking the caller.
//!
//! # A job returns or unwinds
//!
//! A job runs until it is quiescent: nothing cancels it midway, and no
//! worker reads a clock or counts against a limit.
//! [`run_job`](WorkerPool::run_job) reports a failure in its return value
//! and nowhere else, so a caller that handles the `Err` has handled it.
//! A caller that cannot return it (`smq_algos::engine::run_on_pool`
//! returns no `Result`) raises the typed [`JobError`] as its own unwind
//! with [`std::panic::panic_any`], and that payload is what the job
//! service classifies.
//!
//! On top of the pool, [`JobService`] adds a bounded multi-producer
//! submission queue with FIFO admission, one dispatcher thread per gang (so
//! up to `gangs` jobs are in flight), completion tickets carrying
//! queue-wait and service-time measurements, and graceful drain-then-join
//! shutdown.
//!
//! # Scheduler ownership
//!
//! There is one rule: **a gang's scheduler lives in its gang's slot, and
//! workers borrow it one job at a time.**  At the start of each job a
//! worker read-locks the slot and makes its scheduler handle from it; it
//! drops the handle and the lock before it reports, so no handle is alive
//! between jobs.  A rebuild write-locks the slot and drops the old
//! scheduler there.  The slot is typed, so every hot-path scheduler call
//! in the worker loop is a direct (typically inlined) call — no `Box`, no
//! vtable per operation.
//!
//! * [`WorkerPool::new`] moves a single-gang scheduler into its slot;
//! * [`WorkerPool::new_partitioned`] fills one slot per gang from a
//!   factory, and keeps the factory for rebuilds;
//! * [`WorkerPool::with_borrowed`] puts a `&S` into the slot and starts its
//!   workers on a [`std::thread::scope`], which joins every one of them
//!   before returning (also on unwind) — the scoped mode backing
//!   `smq_algos::engine::run_parallel`.

#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod service;
mod worker;

pub use service::{JobCompletion, JobService, JobTicket, ServiceConfig, ServiceStats, SubmitError};

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::{Builder, JoinHandle};
use std::time::Instant;

use smq_core::{OpStats, Scheduler, Task};
use smq_runtime::{RunMetrics, TerminationDetector};
use smq_telemetry::{TelemetryConfig, TelemetryReport};

use worker::{run_share, run_worker};

/// Why a pool job produced no output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job (or a pool worker executing it) panicked; the gang it ran on
    /// was poisoned.  The job may have had partial side effects.
    Lost,
    /// Every gang of the pool is dead and cannot be rebuilt (no scheduler
    /// factory), so nothing can serve the job.
    NoCapacity,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Lost => {
                write!(f, "job was lost: it panicked while executing on the pool")
            }
            JobError::NoCapacity => {
                write!(f, "worker pool has no live gangs left to serve the job")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// The batch granularity of a default pool's workers: the paper's task
/// batching, several tasks per insert and delete step, unless a caller
/// asks for batch 1.
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

/// Pool tuning knobs.
///
/// The fleet is `gangs * gang_size` worker threads.  `PoolConfig::new(n)`
/// is the single-gang configuration (one scheduler, every job on the whole
/// fleet, one at a time); [`PoolConfig::partitioned`] enables job-level
/// parallelism.
///
/// **Choosing a gang size:** a gang is the unit a job occupies, so
/// `gang_size` should match the parallelism one job can actually use.
/// Tiny jobs (point-to-point route queries touching a few hundred
/// vertices) saturate one or two workers and spend the rest of the fleet
/// idling through the quiescence phase — many small gangs serve them at
/// far higher jobs/sec.  Big jobs (whole-graph SSSP) want one gang as wide
/// as the machine.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of independent worker gangs (each with its own scheduler
    /// instance).
    pub gangs: usize,
    /// Worker threads per gang.  Must match each gang scheduler's
    /// configured thread count.
    pub gang_size: usize,
    /// Batch granularity of every worker's hot path (see
    /// [`with_batch`](Self::with_batch)); a pool runs 0 as 1.
    pub batch_size: usize,
    /// Opt-in instrumentation for every worker (phase accounting,
    /// rank-error probing).  Disabled by default: the
    /// uninstrumented hot path takes no timestamps and makes no extra
    /// scheduler calls.
    pub telemetry: TelemetryConfig,
}

impl PoolConfig {
    /// The single-gang configuration `partitioned(1, threads)`: every job
    /// occupies the whole fleet, one at a time.
    pub fn new(threads: usize) -> Self {
        Self::partitioned(1, threads)
    }

    /// A configuration with `gangs` gangs of `gang_size` workers each, so
    /// up to `gangs` jobs execute concurrently; default batch size,
    /// telemetry disabled.
    pub fn partitioned(gangs: usize, gang_size: usize) -> Self {
        Self {
            gangs,
            gang_size,
            batch_size: DEFAULT_BATCH_SIZE,
            telemetry: TelemetryConfig::disabled(),
        }
    }

    /// Sets the hot-path batch granularity for every worker, overriding
    /// [`DEFAULT_BATCH_SIZE`] (8).  Larger batches amortize scheduler
    /// synchronization over the batch and give [`PoolJob::prefetch`] more
    /// tasks to overlap.  Every size runs the same worker loop; batch 1 is
    /// that loop with B = 1 (one-task `pop_batch`/`push_batch` calls, every
    /// follow-up pushed immediately, no prefetch hints), which the
    /// paper-figure sweeps use as their baseline row.  0 runs as 1.
    pub fn with_batch(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Enables the given instrumentation for every worker of the pool (see
    /// [`TelemetryConfig`]).  Job outputs then carry a merged
    /// `TelemetryReport` in their metrics.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// What processing one task accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The task advanced the job (settled a vertex, drained a residual,
    /// merged a component, lowered an h-value, ...).
    Useful,
    /// The task was stale on arrival — the wasted work caused by relaxed
    /// priority ordering, the central quantity of the paper's evaluation.
    Wasted,
}

/// One job executable on a [`WorkerPool`]: the per-task operator of the
/// paper's `for_each` loop.  Every workload of `smq_algos` implements it
/// directly.
///
/// `process` must be correct for any order of task execution, and the
/// job's shared state must make stale tasks detectable
/// ([`TaskOutcome::Wasted`]).
pub trait PoolJob: Sync {
    /// The tasks seeding this job.
    fn seed_tasks(&self) -> Vec<Task>;

    /// Executes one task, pushing follow-up tasks through `push`, and
    /// reports whether the task advanced the job.
    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome;

    /// Hints that `task` was popped as part of a batch and will be passed
    /// to [`process`](Self::process) shortly: the worker loop calls this
    /// for every task of a popped batch of two or more before it processes
    /// the first, so a job can prefetch the memory each task starts with
    /// and overlap those misses.  The default does nothing.
    ///
    /// An implementation may only issue hints (`smq_core::prefetch_read`):
    /// it must not write shared state, must not panic, and must not rely
    /// on being called — the loop skips it at batch size 1 and for
    /// single-task pops.
    #[inline]
    fn prefetch(&self, task: Task) {
        let _ = task;
    }
}

/// Accounting from one pool job.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Wall-clock and scheduler-operation metrics, summed over the handles
    /// the workers of the gang this job claimed made for it — the job's
    /// metrics slice.
    pub metrics: RunMetrics,
    /// Tasks whose execution advanced the job.
    pub useful_tasks: u64,
    /// Stale tasks (wasted work caused by priority relaxation).
    pub wasted_tasks: u64,
}

impl JobOutput {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.useful_tasks + self.wasted_tasks
    }

    /// Work increase relative to a baseline task count (usually the
    /// sequential algorithm's task count): `1.0` means no wasted work.
    pub fn work_increase(&self, baseline_tasks: u64) -> f64 {
        if baseline_tasks == 0 {
            1.0
        } else {
            self.total_tasks() as f64 / baseline_tasks as f64
        }
    }
}

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned over the pool's entire lifetime: always the
    /// fleet size, `gangs × gang_size`.  A job panic costs the job, not
    /// the thread, and a rebuilt gang keeps its threads.
    pub threads_spawned: u64,
    /// Scheduler handles created over the pool's entire lifetime.  Each
    /// worker makes one handle per job from its gang's current scheduler
    /// and drops it before it reports, so this grows by `gang_size` per
    /// job run.
    pub handles_created: u64,
    /// Jobs fully executed so far (across all gangs).
    pub jobs_completed: u64,
    /// Gangs poisoned by a panicking job, cumulatively — a respawned gang
    /// still counts here (compare with [`gangs_respawned`](Self::gangs_respawned)).
    pub gangs_poisoned: u64,
    /// Poisoned gangs whose scheduler was rebuilt from the pool's factory
    /// (at the next claim, or by [`WorkerPool::respawn_dead`]); the gang's
    /// threads serve the new scheduler.
    pub gangs_respawned: u64,
}

/// Lifetime-erased pointer to a job currently being executed.
///
/// # Safety invariant
/// Valid only while the claimed gang still runs the publishing job:
/// `execute` blocks until every worker of that gang has finished (or
/// abandoned) the job before its `&dyn PoolJob` borrow ends.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn PoolJob + 'static));
// SAFETY: the pointee is `Sync` (a `PoolJob` supertrait), so handing the
// pointer to a worker thread shares nothing a `&dyn PoolJob` could not; it
// is only dereferenced under the invariant above.
unsafe impl Send for JobRef {}
// SAFETY: as for `Send` — a shared `JobRef` only ever yields `&dyn PoolJob`.
unsafe impl Sync for JobRef {}

/// What one worker reports back after finishing its share of a job.
struct WorkerResult {
    /// Tasks whose `process` returned [`TaskOutcome::Useful`].
    useful: u64,
    /// Tasks whose `process` returned [`TaskOutcome::Wasted`].
    wasted: u64,
    /// Quiescence scans this worker performed (each is O(threads)).
    scans: u64,
    stats: OpStats,
    telemetry: Option<TelemetryReport>,
}

/// Everything one job shares between the workers of its gang, made fresh
/// for that job and dropped with the last worker's share of it.
struct JobRun {
    job: JobRef,
    /// The job's seed tasks; worker `local` pushes every `gang_size`-th one
    /// from index `local` on.
    seeds: Vec<Task>,
    /// Preloaded with each worker's seed count.
    detector: TerminationDetector,
    /// Raised when a worker's share of the job panicked, which may strand
    /// tasks in its thread-local queues: its siblings then leave at their
    /// next empty pop.
    aborted: AtomicBool,
}

impl JobRun {
    /// The run of `job` on a gang of `size` workers.
    fn new(job: &dyn PoolJob, size: usize) -> Arc<JobRun> {
        let seeds = job.seed_tasks();
        let detector = TerminationDetector::new(size);
        for local in 0..size {
            let share = seeds.len().saturating_sub(local).div_ceil(size);
            detector.preload(local, share as u64);
        }
        // SAFETY: only erases the borrow's lifetime; `run_job` holds the
        // borrow until `execute` returns, which `JobRef`'s invariant needs.
        let job = JobRef(unsafe { std::mem::transmute::<&dyn PoolJob, &'static dyn PoolJob>(job) });
        let aborted = AtomicBool::new(false);
        Arc::new(JobRun {
            job,
            seeds,
            detector,
            aborted,
        })
    }
}

/// One gang's job hand-off slot; its workers park on it.
struct JobState {
    /// Job sequence number; workers track the last one they ran.
    seq: u64,
    /// The job being executed, `None` while the gang is idle.
    run: Option<Arc<JobRun>>,
    /// Workers still running the current job.
    remaining: usize,
    /// Per-worker results of the current job.
    results: Vec<Option<WorkerResult>>,
    /// Set when a worker's share of a job panicked; the gang is retired
    /// until a rebuild of its scheduler clears it.
    poisoned: bool,
    /// Set by shutdown; parked workers exit instead of waiting for the next
    /// job.
    shutdown: bool,
}

/// One independent worker gang: its hand-off state.  The gang's scheduler
/// is in its slot (see [`Slot`]).
struct Gang {
    size: usize,
    state: Mutex<JobState>,
    /// Workers wait here for `seq` to advance (or `shutdown`).
    job_ready: Condvar,
    /// The coordinator waits here for `remaining` to hit zero.
    job_done: Condvar,
}

/// The gang allocator's shared state.
struct ClaimState {
    /// Indices of idle, live gangs.
    free: Vec<usize>,
    /// Indices of gangs retired by a job panic, awaiting a rebuild (or
    /// permanently dead on pools that cannot rebuild).
    dead: Vec<usize>,
    /// Gangs poisoned over the pool's lifetime (cumulative — rebuilding a
    /// gang does not un-count its poisoning).
    poisoned_total: u64,
    /// Poisoned gangs rebuilt over the pool's lifetime.
    respawned_total: u64,
}

/// One gang's current scheduler: an owned `S`, or the `&S` of
/// [`WorkerPool::with_borrowed`].  The gang's workers read-lock it for one
/// job at a time (see "Scheduler ownership" in the module docs); a rebuild
/// write-locks it, which waits for no one, because every worker of a dead
/// gang has reported.
type Slot<B> = Arc<RwLock<B>>;

/// Rebuilds gang `g`'s scheduler in its slot from the pool's factory.
type Rebuild = Box<dyn Fn(usize) + Send + Sync>;

/// `scheduler`, once its thread count is checked against the gang's size.
fn checked<S: Scheduler<Task>, B: Borrow<S>>(scheduler: B, gang_idx: usize, gang_size: usize) -> B {
    assert_eq!(
        gang_size,
        scheduler.borrow().num_threads(),
        "gang {gang_idx}: pool gang size must match the scheduler's thread count"
    );
    scheduler
}

struct Inner {
    gangs: Vec<Gang>,
    /// Batch granularity of every worker's loop, at least 1.
    batch_size: usize,
    /// The fleet-wide instrumentation configuration (disabled by default).
    telemetry: TelemetryConfig,
    claims: Mutex<ClaimState>,
    /// Claimers wait here for a free gang.
    claim_ready: Condvar,
    /// Scheduler handles created over the pool's lifetime, one per worker
    /// per job.
    handles_created: AtomicU64,
    /// Worker threads spawned over the pool's lifetime (the fleet size).
    threads_spawned: AtomicU64,
    /// Present on factory-built pools: how to rebuild a gang's scheduler.
    rebuild: Option<Rebuild>,
}

/// Ignore `std` mutex poisoning: the pool has its own `poisoned` flags with
/// precise semantics, and state reads are safe after a panic.
fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The gang held by one job; returns it to the allocator on drop (also on
/// unwind) — or, if the job poisoned it, moves it to the dead list, where
/// the next claim (or [`WorkerPool::respawn_dead`]) rebuilds its scheduler.
struct GangClaim<'p> {
    inner: &'p Arc<Inner>,
    gang: usize,
}

impl Drop for GangClaim<'_> {
    fn drop(&mut self) {
        let inner = self.inner;
        let mut st = lock(&inner.claims);
        if lock(&inner.gangs[self.gang].state).poisoned {
            st.poisoned_total += 1;
            st.dead.push(self.gang);
        } else {
            st.free.push(self.gang);
        }
        // Wake every waiter: one of them takes the gang (or rebuilds it),
        // and if the last gang just died for good, everyone observes that
        // and fails.
        inner.claim_ready.notify_all();
    }
}

/// Rebuilds the scheduler of every dead gang of a factory-built pool and
/// returns how many were rebuilt (always 0 without a factory).  Called
/// with the claims lock held (`st`); wakes the waiting claimers when
/// capacity came back, because the caller takes at most one of the gangs.
fn respawn_dead_gangs(inner: &Inner, st: &mut ClaimState) -> usize {
    let Some(rebuild) = &inner.rebuild else {
        return 0;
    };
    let mut rebuilt = 0;
    while let Some(g) = st.dead.pop() {
        // Every worker of the gang reported and dropped its handle, so no
        // handle onto the old scheduler is alive while it is dropped here.
        rebuild(g);
        lock(&inner.gangs[g].state).poisoned = false;
        st.free.push(g);
        st.respawned_total += 1;
        rebuilt += 1;
    }
    if rebuilt > 0 {
        inner.claim_ready.notify_all();
    }
    rebuilt
}

/// Starts gang `gang_idx`'s workers on the scheduler in `slot`: `spawn`
/// starts one thread from its builder and entry point.  Each job, a worker
/// makes its handle from the slot, runs its share of the job on it, and
/// drops both before it reports.  Panics when a thread fails to start; the
/// owning [`WorkerPool`]'s shutdown then releases the threads that did.
fn start_gang<'s, S, B, H>(
    inner: &Arc<Inner>,
    gang_idx: usize,
    slot: &Slot<B>,
    mut spawn: impl FnMut(Builder, Box<dyn FnOnce() + Send + 's>) -> std::io::Result<H>,
) -> Vec<H>
where
    S: Scheduler<Task> + 's,
    B: Borrow<S> + Send + Sync + 's,
{
    let size = inner.gangs[gang_idx].size;
    (0..size)
        .map(|local| {
            let (pool, slot) = (Arc::clone(inner), Arc::clone(slot));
            let name = format!("smq-pool-{gang_idx}-{local}");
            let run = Box::new(move || {
                run_worker(&pool, gang_idx, local, &|run, batches, idle_since| {
                    let scheduler = slot.read().unwrap_or_else(PoisonError::into_inner);
                    let mut handle = (*scheduler).borrow().handle(local);
                    pool.handles_created.fetch_add(1, Ordering::Relaxed);
                    run_share(&pool, size, local, run, &mut handle, batches, idle_since)
                })
            });
            let handle = spawn(Builder::new().name(name), run)
                .unwrap_or_else(|e| panic!("failed to spawn pool worker {gang_idx}-{local}: {e}"));
            inner.threads_spawned.fetch_add(1, Ordering::Relaxed);
            handle
        })
        .collect()
}

/// A resident fleet of worker threads, partitioned into gangs, executing a
/// stream of [`PoolJob`]s against long-lived schedulers.
///
/// Workers are spawned once at construction and parked between jobs;
/// [`run_job`](Self::run_job) wakes one gang for one job, so up to `gangs`
/// jobs run concurrently.  Queueing and multi-client admission live in
/// [`JobService`].
pub struct WorkerPool {
    inner: Arc<Inner>,
    /// Every worker thread of the fleet; shutdown joins them.
    threads: Vec<JoinHandle<()>>,
    jobs_completed: AtomicU64,
}

impl WorkerPool {
    /// Spawns a single-gang resident pool owning `scheduler`.
    ///
    /// The scheduler lives until the pool's workers are joined.  Requires
    /// `config.gangs == 1` (one scheduler serves exactly one gang) — build
    /// multi-gang pools with [`new_partitioned`](Self::new_partitioned).
    /// No factory means no rebuild: a poisoned gang stays dead.
    pub fn new<S>(scheduler: S, config: PoolConfig) -> WorkerPool
    where
        S: Scheduler<Task> + Send + Sync + 'static,
    {
        assert_eq!(
            config.gangs, 1,
            "WorkerPool::new builds a single-gang pool; use new_partitioned for {} gangs",
            config.gangs
        );
        let slot = Arc::new(RwLock::new(checked::<S, S>(scheduler, 0, config.gang_size)));
        Self::spawn(vec![slot], None, config)
    }

    /// Spawns a pool of `config.gangs` gangs, building each gang's
    /// scheduler with `factory(gang_index)`.
    ///
    /// Every scheduler must be configured for `config.gang_size` threads —
    /// a gang is an independent scheduler universe sized to its workers.
    /// The factory is retained for the pool's lifetime so a poisoned gang's
    /// scheduler can be **rebuilt** (see the module docs), which is why it
    /// must be `Fn + Send + Sync + 'static`.
    pub fn new_partitioned<S, F>(factory: F, config: PoolConfig) -> WorkerPool
    where
        S: Scheduler<Task> + Send + Sync + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        let gang_size = config.gang_size;
        let make = move |g| checked::<S, S>(factory(g), g, gang_size);
        let slots: Vec<Slot<S>> = (0..config.gangs)
            .map(|g| Arc::new(RwLock::new(make(g))))
            .collect();
        let gang_slots = slots.clone();
        let rebuild: Rebuild = Box::new(move |g| {
            let fresh = make(g);
            *gang_slots[g]
                .write()
                .unwrap_or_else(PoisonError::into_inner) = fresh;
        });
        Self::spawn(slots, Some(rebuild), config)
    }

    /// Runs `f` against a transient single-gang pool built on a *borrowed*
    /// scheduler, joining every worker before returning (also on unwind).
    ///
    /// This is the scoped mode behind one-shot `engine::run_parallel` calls:
    /// same worker-loop semantics as the resident pool, without requiring
    /// `'static` ownership of the scheduler.  The workers are scoped
    /// threads: the pool is dropped before the scope ends (also when `f`
    /// unwinds), and its shutdown releases the parked workers the scope
    /// then joins.
    pub fn with_borrowed<S, R>(
        scheduler: &S,
        config: PoolConfig,
        f: impl FnOnce(&WorkerPool) -> R,
    ) -> R
    where
        S: Scheduler<Task>,
    {
        assert_eq!(config.gangs, 1, "with_borrowed builds a single-gang pool");
        let slot = Arc::new(RwLock::new(checked::<S, &S>(
            scheduler,
            0,
            config.gang_size,
        )));
        std::thread::scope(|scope| {
            let mut pool = Self::build(None, config);
            start_gang::<S, _, _>(&pool.inner, 0, &slot, |builder, run| {
                builder.spawn_scoped(scope, run)
            });
            let result = f(&pool);
            pool.shutdown();
            result
        })
    }

    /// Builds the gang slots and starts every gang's workers on its
    /// scheduler (one slot per gang, in gang order).
    fn spawn<S>(slots: Vec<Slot<S>>, rebuild: Option<Rebuild>, config: PoolConfig) -> WorkerPool
    where
        S: Scheduler<Task> + Send + Sync + 'static,
    {
        assert_eq!(slots.len(), config.gangs, "one scheduler per gang");
        // The pool exists before any thread starts, so a failed spawn's
        // unwind shuts down and joins what did start through `Drop`.
        let mut pool = Self::build(rebuild, config);
        for (gang, slot) in slots.iter().enumerate() {
            let started =
                start_gang::<S, _, _>(&pool.inner, gang, slot, |builder, run| builder.spawn(run));
            pool.threads.extend(started);
        }
        pool
    }

    /// Builds the gang hand-off states of `config`, with no thread started
    /// yet.
    fn build(rebuild: Option<Rebuild>, config: PoolConfig) -> WorkerPool {
        assert!(config.gangs >= 1, "need at least one gang");
        assert!(config.gang_size >= 1, "need at least one worker per gang");

        let gangs: Vec<Gang> = (0..config.gangs)
            .map(|_| Gang {
                size: config.gang_size,
                state: Mutex::new(JobState {
                    seq: 0,
                    run: None,
                    remaining: 0,
                    results: Vec::new(),
                    poisoned: false,
                    shutdown: false,
                }),
                job_ready: Condvar::new(),
                job_done: Condvar::new(),
            })
            .collect();

        let inner = Arc::new(Inner {
            claims: Mutex::new(ClaimState {
                free: (0..gangs.len()).collect(),
                dead: Vec::new(),
                poisoned_total: 0,
                respawned_total: 0,
            }),
            claim_ready: Condvar::new(),
            batch_size: config.batch_size.max(1),
            telemetry: config.telemetry.clone(),
            handles_created: AtomicU64::new(0),
            threads_spawned: AtomicU64::new(0),
            rebuild,
            gangs,
        });

        WorkerPool {
            inner,
            threads: Vec::new(),
            jobs_completed: AtomicU64::new(0),
        }
    }

    /// Number of worker gangs (the maximum number of concurrent jobs).
    pub fn gangs(&self) -> usize {
        self.inner.gangs.len()
    }

    /// Gangs not currently retired by a job panic (the next claim, or
    /// [`respawn_dead`](Self::respawn_dead), rebuilds the retired gangs of
    /// a factory-built pool).
    pub fn live_gangs(&self) -> usize {
        let st = lock(&self.inner.claims);
        self.inner.gangs.len() - st.dead.len()
    }

    /// Lifetime counters: threads spawned (the fleet size), handles
    /// created, jobs completed, gangs lost to job panics, and gangs rebuilt
    /// afterwards.
    pub fn stats(&self) -> PoolStats {
        let st = lock(&self.inner.claims);
        PoolStats {
            threads_spawned: self.inner.threads_spawned.load(Ordering::Relaxed),
            handles_created: self.inner.handles_created.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            gangs_poisoned: st.poisoned_total,
            gangs_respawned: st.respawned_total,
        }
    }

    /// Forces an immediate rebuild of every dead gang's scheduler (factory
    /// pools only); returns how many were rebuilt.  The next claim does this
    /// implicitly — this entry point exists so tests and benchmarks can
    /// restore full capacity at a deterministic moment.
    pub fn respawn_dead(&self) -> usize {
        respawn_dead_gangs(&self.inner, &mut lock(&self.inner.claims))
    }

    /// Claims one idle gang, blocking until one is free.  Dead gangs are
    /// rebuilt here first, so on factory pools capacity recovers before
    /// admission is decided.
    ///
    /// Fails with [`JobError::NoCapacity`] when every gang is dead and none
    /// can be rebuilt.  That state is *permanent* (only a panic kills a
    /// gang, only a factory revives one), so failing every waiter is sound:
    /// no later claim could ever be served either.
    fn claim(&self) -> Result<GangClaim<'_>, JobError> {
        let inner = &self.inner;
        let mut st = lock(&inner.claims);
        loop {
            respawn_dead_gangs(inner, &mut st);
            if st.dead.len() == inner.gangs.len() {
                return Err(JobError::NoCapacity);
            }
            if let Some(gang) = st.free.pop() {
                return Ok(GangClaim { inner, gang });
            }
            st = inner
                .claim_ready
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Executes one job on one gang and returns its accounting.
    ///
    /// Blocks until a gang is free and the job is quiescent; concurrent
    /// callers run on different gangs, up to `gangs` at once.  A panicking
    /// job poisons the gang it ran on and resolves to
    /// [`Err(JobError::Lost)`](JobError::Lost) — other gangs and callers
    /// are unaffected (see the module docs).
    pub fn run_job(&self, job: &dyn PoolJob) -> Result<JobOutput, JobError> {
        let claim = self.claim()?;
        let gang = &self.inner.gangs[claim.gang];
        self.execute(JobRun::new(job, gang.size), gang)
    }

    /// Runs `run` on the claimed `gang`: each worker seeds its queues with
    /// its round-robin share of the seeds, the gang runs to quiescence on the
    /// run's detector, and the workers' results are merged into one metrics
    /// slice.
    fn execute(&self, run: Arc<JobRun>, gang: &Gang) -> Result<JobOutput, JobError> {
        let start = Instant::now();
        let mut st = lock(&gang.state);
        debug_assert!(!st.poisoned, "claimed a poisoned gang");
        assert!(!st.shutdown, "worker pool is shut down");
        st.seq += 1;
        st.run = Some(run);
        st.remaining = gang.size;
        st.results = (0..gang.size).map(|_| None).collect();
        gang.job_ready.notify_all();

        while st.remaining > 0 {
            st = gang.job_done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        // The claim guard (dropped by our caller, also on early returns)
        // retires a poisoned gang and frees a live one.
        if st.poisoned {
            return Err(JobError::Lost);
        }
        let results: Vec<WorkerResult> = st
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("worker finished without a result"))
            .collect();
        drop(st);
        let elapsed = start.elapsed();
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);

        // Lock-free merge after join: each worker's report was accumulated
        // in plain per-worker state; merging them here is the only point
        // the pieces meet.
        let telemetry = self.inner.telemetry.is_enabled().then(|| {
            let mut report = TelemetryReport::new();
            for worker in results.iter().filter_map(|r| r.telemetry.as_ref()) {
                report.merge(worker);
            }
            report
        });
        Ok(JobOutput {
            metrics: RunMetrics {
                elapsed,
                threads: gang.size,
                tasks_executed: results.iter().map(|r| r.useful + r.wasted).sum(),
                quiescence_scans: results.iter().map(|r| r.scans).sum(),
                total: OpStats::merged(results.iter().map(|r| &r.stats)),
                telemetry,
            },
            useful_tasks: results.iter().map(|r| r.useful).sum(),
            wasted_tasks: results.iter().map(|r| r.wasted).sum(),
        })
    }

    /// Stops accepting jobs and joins every worker thread.  Called
    /// automatically on drop; idempotent.
    ///
    /// Requires `&mut self`, so no job can be in flight (every `run_job*`
    /// caller borrows the pool shared) — accepted work always drains before
    /// the fleet is torn down.
    pub fn shutdown(&mut self) {
        for gang in &self.inner.gangs {
            lock(&gang.state).shutdown = true;
            gang.job_ready.notify_all();
        }
        for worker in self.threads.drain(..) {
            // Workers catch every job panic, and a join error here must not
            // panic a `Drop`.
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use smq_core::SchedulerHandle;
    use smq_scheduler::{HeapSmq, SmqConfig};
    use std::sync::atomic::AtomicU64;

    /// A toy job: every seed task below `fanout_below` pushes two children;
    /// output = number of processed tasks, tracked in shared state.
    struct FanoutJob {
        seeds: u64,
        fanout_below: u64,
        processed: AtomicU64,
    }

    impl FanoutJob {
        fn new(seeds: u64, fanout_below: u64) -> Self {
            Self {
                seeds,
                fanout_below,
                processed: AtomicU64::new(0),
            }
        }
    }

    impl PoolJob for FanoutJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..self.seeds).map(|i| Task::new(i, i)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            self.processed.fetch_add(1, Ordering::Relaxed);
            if task.key < self.fanout_below {
                push(Task::new(task.key + self.fanout_below, task.value));
                push(Task::new(task.key + 2 * self.fanout_below, task.value));
            }
            TaskOutcome::Useful
        }
    }

    fn smq(threads: usize) -> HeapSmq<Task> {
        HeapSmq::new(SmqConfig::default_for_threads(threads).with_seed(7))
    }

    fn partitioned(gangs: usize, gang_size: usize) -> WorkerPool {
        WorkerPool::new_partitioned(
            move |_| smq(gang_size),
            PoolConfig::partitioned(gangs, gang_size),
        )
    }

    #[test]
    fn default_config_runs_the_documented_batch_and_a_pool_clamps_batch_to_one() {
        hang_guard(|| {
            assert_eq!(DEFAULT_BATCH_SIZE, 8);
            assert_eq!(PoolConfig::new(1).batch_size, DEFAULT_BATCH_SIZE);
            let pool = WorkerPool::new(smq(1), PoolConfig::new(1).with_batch(0));
            assert_eq!(pool.inner.batch_size, 1);
            let out = pool.run_job(&FanoutJob::new(10, 10)).unwrap();
            assert_eq!(out.metrics.tasks_executed, 30);
        });
    }

    /// One FanoutJob replay on a fresh single-worker pool of `scheduler`,
    /// returning its per-job metrics slice.
    fn replay<S: Scheduler<Task> + Send + Sync + 'static>(
        scheduler: S,
        telemetry: TelemetryConfig,
    ) -> JobOutput {
        let pool = WorkerPool::new(scheduler, PoolConfig::new(1).with_telemetry(telemetry));
        pool.run_job(&FanoutJob::new(60, 60)).unwrap()
    }

    #[test]
    fn disabled_telemetry_is_bit_identical_single_thread() {
        hang_guard(|| {
            // The zero-overhead contract, asserted in its strongest form: even
            // *fully enabled* telemetry must leave every single-thread OpStats
            // counter exactly as the disabled (= uninstrumented) path produces
            // it, because instrumentation only ever reads published snapshots.
            // Deterministic seeds make single-thread replays exact.
            let base = replay(smq(1), TelemetryConfig::disabled());
            let instrumented = replay(smq(1), TelemetryConfig::enabled());
            assert_eq!(base.metrics.total, instrumented.metrics.total, "SMQ");
            assert_eq!(
                base.metrics.tasks_executed,
                instrumented.metrics.tasks_executed
            );
            assert!(base.metrics.telemetry.is_none());
            assert!(instrumented.metrics.telemetry.is_some());

            use smq_multiqueue::{MultiQueue, MultiQueueConfig};
            let mq = || MultiQueue::<Task>::new(MultiQueueConfig::classic(1).with_seed(3));
            let base = replay(mq(), TelemetryConfig::disabled());
            let instrumented = replay(mq(), TelemetryConfig::enabled());
            assert_eq!(base.metrics.total, instrumented.metrics.total, "MultiQueue");
            assert_eq!(
                base.metrics.tasks_executed,
                instrumented.metrics.tasks_executed
            );
        });
    }

    #[test]
    fn each_telemetry_preset_reports_what_it_measures() {
        hang_guard(|| {
            use smq_telemetry::Phase;
            // (preset, probes rank error, times phases)
            let presets = [
                (TelemetryConfig::disabled(), false, false),
                (TelemetryConfig::probe_only(), true, false),
                (TelemetryConfig::enabled(), true, true),
            ];
            for (preset, probes, times) in presets {
                let pool =
                    WorkerPool::new(smq(2), PoolConfig::new(2).with_telemetry(preset.clone()));
                let mut merged = TelemetryReport::new();
                for _ in 0..4 {
                    let out = pool.run_job(&FanoutJob::new(400, 400)).unwrap();
                    assert_eq!(out.metrics.tasks_executed, 1200, "{preset:?}");
                    let reports = probes || times;
                    assert_eq!(out.metrics.telemetry.is_some(), reports, "{preset:?}");
                    if let Some(report) = &out.metrics.telemetry {
                        merged.merge(report);
                    }
                }
                // 4 jobs x 1200 tasks probed every 64th pop.
                assert_eq!(merged.rank_errors.count() > 0, probes, "{preset:?}");
                // Pop, process, the quiescence scan every job ends with, and
                // the parked gap between jobs (back-dated via `idle_since`);
                // without phase timing no clock is read at all.
                for phase in [Phase::Pop, Phase::Process, Phase::Scan, Phase::Park] {
                    assert_eq!(merged.phases.get(phase) > 0, times, "{preset:?} {phase:?}");
                }
                assert_eq!(merged.phases.total_ns() > 0, times, "{preset:?}");
            }
        });
    }

    #[test]
    fn resident_pool_runs_many_jobs_without_respawning() {
        hang_guard(|| {
            let mut pool = WorkerPool::new(smq(2), PoolConfig::new(2));
            for round in 0..50 {
                let job = FanoutJob::new(100, 100);
                let out = pool.run_job(&job).unwrap();
                assert_eq!(out.metrics.tasks_executed, 300, "round {round}");
                assert_eq!(job.processed.load(Ordering::Relaxed), 300);
                assert_eq!(out.useful_tasks, 300);
                assert_eq!(out.wasted_tasks, 0);
                assert_eq!(out.total_tasks(), 300);
                assert_eq!(out.work_increase(200), 1.5);
                assert_eq!(out.work_increase(0), 1.0, "no baseline, no increase");
                // Per-job stats deltas: every pushed task popped exactly once.
                assert_eq!(out.metrics.total.pushes, out.metrics.total.pops);
                assert_eq!(out.metrics.total.pops, 300);
            }
            let stats = pool.stats();
            assert_eq!(stats.threads_spawned, 2, "workers must never respawn");
            assert_eq!(stats.jobs_completed, 50);
            assert_eq!(stats.gangs_poisoned, 0);
            pool.shutdown();
        });
    }

    #[test]
    fn empty_job_terminates() {
        hang_guard(|| {
            let pool = WorkerPool::new(smq(2), PoolConfig::new(2));
            let job = FanoutJob::new(0, 0);
            let out = pool.run_job(&job).unwrap();
            assert_eq!(out.metrics.tasks_executed, 0);
        });
    }

    #[test]
    fn borrowed_scheduler_scoped_pool() {
        hang_guard(|| {
            let scheduler = smq(3);
            let executed = WorkerPool::with_borrowed(&scheduler, PoolConfig::new(3), |pool| {
                let job = FanoutJob::new(500, 500);
                let out = pool.run_job(&job).unwrap();
                out.metrics.tasks_executed
            });
            assert_eq!(executed, 1_500);
        });
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn mismatched_thread_count_is_rejected() {
        let _pool = WorkerPool::new(smq(2), PoolConfig::new(3));
    }

    #[test]
    #[should_panic(expected = "single-gang")]
    fn multi_gang_config_needs_partitioned_constructor() {
        let _pool = WorkerPool::new(smq(2), PoolConfig::partitioned(2, 1));
    }

    #[test]
    fn single_worker_pool_works() {
        hang_guard(|| {
            let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
            for _ in 0..10 {
                let job = FanoutJob::new(50, 50);
                assert_eq!(pool.run_job(&job).unwrap().metrics.tasks_executed, 150);
            }
            assert_eq!(pool.stats().threads_spawned, 1);
        });
    }

    #[test]
    fn concurrent_single_gang_jobs_run_in_parallel() {
        hang_guard(|| {
            // Two jobs on a two-gang pool must be able to be in flight
            // simultaneously: job A holds its gang hostage
            // until job B has demonstrably started processing.
            use std::sync::atomic::AtomicBool;

            struct GateJob {
                // Set by the partner job; this job spins until it is true.
                partner_started: Arc<AtomicBool>,
                // This job sets it as soon as it processes its first task.
                started: Arc<AtomicBool>,
            }

            impl PoolJob for GateJob {
                fn seed_tasks(&self) -> Vec<Task> {
                    vec![Task::new(1, 1)]
                }

                fn process(&self, _t: Task, _push: &mut dyn FnMut(Task)) -> TaskOutcome {
                    self.started.store(true, Ordering::Release);
                    while !self.partner_started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    TaskOutcome::Useful
                }
            }

            let pool = partitioned(2, 1);
            let a = Arc::new(AtomicBool::new(false));
            let b = Arc::new(AtomicBool::new(false));
            std::thread::scope(|scope| {
                let pool = &pool;
                let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                scope.spawn(move || {
                    pool.run_job(&GateJob {
                        partner_started: b1,
                        started: a1,
                    })
                    .unwrap();
                });
                scope.spawn(move || {
                    pool.run_job(&GateJob {
                        partner_started: a2,
                        started: b2,
                    })
                    .unwrap();
                });
            });
            // If jobs were serialized, each would spin forever on its partner;
            // reaching this line proves two jobs were in flight concurrently.
            assert_eq!(pool.stats().jobs_completed, 2);
        });
    }

    /// A job that panics on one specific task.
    struct PanickingJob;

    impl PoolJob for PanickingJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..64u64).map(|i| Task::new(i, i)).collect()
        }

        fn process(&self, task: Task, _push: &mut dyn FnMut(Task)) -> TaskOutcome {
            assert!(task.key != 17, "intentional job panic");
            TaskOutcome::Useful
        }
    }

    #[test]
    fn panicking_job_loses_the_job_instead_of_deadlocking() {
        hang_guard(|| {
            // The regression this guards: on a multi-worker pool, a panicking
            // task used to leave the detector permanently unbalanced, so the
            // surviving worker spun forever and `run_job` never returned.
            let pool = WorkerPool::new(smq(2), PoolConfig::new(2));
            assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
            assert_eq!(pool.stats().gangs_poisoned, 1);
        });
    }

    #[test]
    fn factory_less_pool_retires_a_poisoned_gang_for_good() {
        hang_guard(|| {
            // `WorkerPool::new` stores no factory, so nothing can rebuild the
            // gang: neither the explicit entry point nor a later claim.
            let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
            assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
            assert_eq!(pool.live_gangs(), 0);
            assert_eq!(pool.respawn_dead(), 0);
            assert!(pool.run_job(&FanoutJob::new(1, 0)).is_err());
            let stats = pool.stats();
            assert_eq!(stats.gangs_poisoned, 1);
            assert_eq!(stats.gangs_respawned, 0);
            assert_eq!(stats.threads_spawned, 1, "no thread was ever respawned");
        });
    }

    #[test]
    fn fully_poisoned_pool_rejects_jobs_with_no_capacity() {
        hang_guard(|| {
            let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
            assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
            assert_eq!(pool.live_gangs(), 0);
            // Nothing can serve the job, and nothing ever will: a typed error,
            // not a panic, and it stays that way for every later call.
            for _ in 0..3 {
                assert_eq!(
                    pool.run_job(&FanoutJob::new(1, 0)).map(|_| ()),
                    Err(JobError::NoCapacity)
                );
            }
        });
    }

    #[test]
    fn poisoned_gang_respawns_on_next_claim() {
        hang_guard(|| {
            // On a factory pool the panic poisons one gang only, the next
            // job's claim rebuilds its scheduler, and capacity is back to
            // full on the same threads.
            let pool = partitioned(2, 1);
            assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
            assert_eq!(pool.live_gangs(), 1);
            // The next job's claim rebuilds the dead gang before it picks one.
            let out = pool.run_job(&FanoutJob::new(40, 40)).unwrap();
            assert_eq!(out.metrics.tasks_executed, 120);
            assert_eq!(pool.live_gangs(), 2);
            let stats = pool.stats();
            assert_eq!(stats.gangs_poisoned, 1);
            assert_eq!(stats.gangs_respawned, 1);
            assert_eq!(
                stats.threads_spawned, 2,
                "a rebuild keeps the gang's threads"
            );
        });
    }

    #[test]
    fn respawn_dead_forces_recovery_before_the_next_claim() {
        hang_guard(|| {
            let pool = partitioned(2, 1);
            assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
            assert_eq!(pool.live_gangs(), 1);
            assert_eq!(pool.respawn_dead(), 1);
            assert_eq!(pool.live_gangs(), 2);
            assert_eq!(pool.respawn_dead(), 0, "nothing left to rebuild");
            assert_eq!(pool.stats().gangs_respawned, 1);
        });
    }

    #[test]
    fn repeated_panics_keep_respawning_the_same_slot() {
        hang_guard(|| {
            let pool = partitioned(2, 1);
            for round in 1..=4u64 {
                assert_eq!(
                    pool.run_job(&PanickingJob).map(|_| ()),
                    Err(JobError::Lost),
                    "round {round}"
                );
                let out = pool.run_job(&FanoutJob::new(20, 20)).unwrap();
                assert_eq!(out.metrics.tasks_executed, 60, "round {round}");
                assert_eq!(pool.stats().gangs_poisoned, round);
                assert_eq!(pool.stats().gangs_respawned, round);
            }
            assert_eq!(pool.live_gangs(), 2);
        });
    }

    #[test]
    fn a_worker_creates_one_handle_per_job() {
        hang_guard(|| {
            let pool = WorkerPool::new(smq(2), PoolConfig::new(2));
            for _ in 0..100 {
                pool.run_job(&FanoutJob::new(20, 20)).unwrap();
            }
            let stats = pool.stats();
            assert_eq!(stats.jobs_completed, 100);
            assert_eq!(
                stats.handles_created, 200,
                "each of the 2 workers makes one handle per job"
            );
            assert_eq!(stats.threads_spawned, 2);
        });
    }

    /// [`FanoutJob`], also recording which threads processed its tasks.
    struct ThreadIdJob {
        fanout: FanoutJob,
        ids: Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl PoolJob for ThreadIdJob {
        fn seed_tasks(&self) -> Vec<Task> {
            self.fanout.seed_tasks()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            self.ids.lock().unwrap().insert(std::thread::current().id());
            self.fanout.process(task, push)
        }
    }

    #[test]
    fn a_panic_costs_the_job_not_the_thread() {
        hang_guard(|| {
            for (gangs, gang_size) in [(2, 1), (1, 2)] {
                let pool = partitioned(gangs, gang_size);
                // The threads that process jobs before and after the lost
                // one.  The claim order is LIFO, so with two gangs every
                // job here lands on gang 1, the one the panic poisons; with
                // one gang of two, 20 jobs of 600 tasks reach both workers.
                let ids = |rounds| {
                    let job = ThreadIdJob {
                        fanout: FanoutJob::new(200, 200),
                        ids: Mutex::new(Default::default()),
                    };
                    for _ in 0..rounds {
                        let out = pool.run_job(&job).unwrap();
                        assert_eq!(out.metrics.tasks_executed, 600);
                        assert_eq!((out.useful_tasks, out.wasted_tasks), (600, 0));
                    }
                    job.ids.into_inner().unwrap()
                };
                let before = ids(20);
                assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
                let after = ids(20);
                assert_eq!(before.len(), gang_size, "{gangs}x{gang_size}");
                assert_eq!(before, after, "{gangs}x{gang_size}: the same threads serve");
                let stats = pool.stats();
                assert_eq!(stats.threads_spawned, (gangs * gang_size) as u64);
                assert_eq!((stats.gangs_poisoned, stats.gangs_respawned), (1, 1));
            }
        });
    }

    #[test]
    fn batched_pool_runs_jobs_correctly() {
        hang_guard(|| {
            let pool = WorkerPool::new(smq(2), PoolConfig::new(2).with_batch(8));
            for _ in 0..10 {
                let job = FanoutJob::new(100, 100);
                let out = pool.run_job(&job).unwrap();
                assert_eq!(out.metrics.tasks_executed, 300);
                assert_eq!(out.metrics.total.pushes, out.metrics.total.pops);
                // The native SMQ batch paths actually ran.
                assert!(out.metrics.total.batch_flushes > 0);
            }
        });
    }

    /// [`FanoutJob`]'s task tree (every key is unique) with per-key counts
    /// of `prefetch` and `process` calls.
    struct HintCountingJob {
        seeds: u64,
        hinted: Vec<AtomicU64>,
        processed: Vec<AtomicU64>,
    }

    impl HintCountingJob {
        fn new(seeds: u64) -> Self {
            let counters = || (0..3 * seeds).map(|_| AtomicU64::new(0)).collect();
            Self {
                seeds,
                hinted: counters(),
                processed: counters(),
            }
        }

        fn total(counters: &[AtomicU64]) -> u64 {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        }

        /// No task was hinted twice, and none was hinted without then
        /// being processed.
        fn assert_hints_precede_processing(&self) {
            for (key, (hinted, processed)) in self.hinted.iter().zip(&self.processed).enumerate() {
                let (hinted, processed) = (
                    hinted.load(Ordering::Relaxed),
                    processed.load(Ordering::Relaxed),
                );
                assert!(processed <= 1, "task {key} processed {processed} times");
                assert!(
                    hinted <= processed,
                    "task {key}: hinted {hinted}, processed {processed}"
                );
            }
        }
    }

    impl PoolJob for HintCountingJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..self.seeds).map(|i| Task::new(i, i)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            self.processed[task.key as usize].fetch_add(1, Ordering::Relaxed);
            if task.key < self.seeds {
                push(Task::new(task.key + self.seeds, task.value));
                push(Task::new(task.key + 2 * self.seeds, task.value));
            }
            TaskOutcome::Useful
        }

        fn prefetch(&self, task: Task) {
            self.hinted[task.key as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn prefetch_hints_only_tasks_that_are_then_processed() {
        hang_guard(|| {
            // Default batch, two workers: most pops return several tasks, each
            // hinted once before its batch runs.
            let pool = WorkerPool::new(smq(2), PoolConfig::new(2));
            let job = HintCountingJob::new(200);
            let out = pool.run_job(&job).unwrap();
            assert_eq!(out.metrics.tasks_executed, 600);
            assert_eq!(HintCountingJob::total(&job.processed), 600);
            assert!(HintCountingJob::total(&job.hinted) > 0);
            job.assert_hints_precede_processing();
        });
    }

    #[test]
    fn batch_one_never_calls_prefetch() {
        hang_guard(|| {
            let pool = WorkerPool::new(smq(2), PoolConfig::new(2).with_batch(1));
            let job = HintCountingJob::new(200);
            let out = pool.run_job(&job).unwrap();
            assert_eq!(out.metrics.tasks_executed, 600);
            assert_eq!(HintCountingJob::total(&job.hinted), 0);
        });
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        hang_guard(|| {
            let mut pool = WorkerPool::new(smq(2), PoolConfig::new(2));
            pool.run_job(&FanoutJob::new(10, 10)).unwrap();
            pool.shutdown();
            pool.shutdown();
            // Drop after explicit shutdown must not double-join.
        });
    }

    #[test]
    fn shutdown_joins_partitioned_fleet() {
        hang_guard(|| {
            let mut pool = partitioned(3, 2);
            pool.run_job(&FanoutJob::new(10, 10)).unwrap();
            pool.shutdown();
            assert_eq!(pool.stats().jobs_completed, 1);
        });
    }

    /// What the drop-probe schedulers of one test report.
    #[derive(Default)]
    struct ProbeLog {
        built: AtomicU64,
        /// Handles alive onto any of the test's schedulers.
        live_handles: AtomicU64,
        /// One `(instance, handles alive at that moment)` entry per
        /// scheduler drop, in drop order.
        drops: Mutex<Vec<(u64, u64)>>,
    }

    impl ProbeLog {
        fn drops(&self) -> Vec<(u64, u64)> {
            self.drops.lock().unwrap().clone()
        }
    }

    /// A `HeapSmq` that counts the handles alive onto it (in its log) and
    /// logs its own drop — the observable side of the pool's ownership
    /// rule.
    struct Probe {
        instance: u64,
        log: Arc<ProbeLog>,
        inner: HeapSmq<Task>,
    }

    impl Probe {
        fn new(threads: usize, log: &Arc<ProbeLog>) -> Self {
            Self {
                instance: log.built.fetch_add(1, Ordering::Relaxed),
                log: Arc::clone(log),
                inner: smq(threads),
            }
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            let live = self.log.live_handles.load(Ordering::Acquire);
            self.log.drops.lock().unwrap().push((self.instance, live));
        }
    }

    struct ProbeHandle<'a> {
        live_handles: &'a AtomicU64,
        inner: <HeapSmq<Task> as Scheduler<Task>>::Handle<'a>,
    }

    impl Drop for ProbeHandle<'_> {
        fn drop(&mut self) {
            self.live_handles.fetch_sub(1, Ordering::Release);
        }
    }

    impl Scheduler<Task> for Probe {
        type Handle<'a> = ProbeHandle<'a>;

        fn num_threads(&self) -> usize {
            self.inner.num_threads()
        }

        fn handle(&self, thread_id: usize) -> ProbeHandle<'_> {
            self.log.live_handles.fetch_add(1, Ordering::Release);
            ProbeHandle {
                live_handles: &self.log.live_handles,
                inner: self.inner.handle(thread_id),
            }
        }
    }

    impl SchedulerHandle<Task> for ProbeHandle<'_> {
        fn push(&mut self, task: Task) {
            self.inner.push(task);
        }

        fn pop(&mut self) -> Option<Task> {
            self.inner.pop()
        }

        fn flush(&mut self) {
            self.inner.flush();
        }

        fn stats(&self) -> OpStats {
            self.inner.stats()
        }
    }

    #[test]
    fn respawn_drops_the_old_scheduler_once_after_its_last_handle() {
        hang_guard(|| {
            let log = Arc::new(ProbeLog::default());
            let factory_log = Arc::clone(&log);
            let pool = WorkerPool::new_partitioned(
                move |_| Probe::new(2, &factory_log),
                PoolConfig::partitioned(1, 2),
            );
            assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
            // Both workers dropped their handles before reporting, the
            // panicked one on its unwind, yet poison alone must not drop the
            // scheduler: it stays in the gang's slot until a rebuild.
            assert_eq!(log.live_handles.load(Ordering::Acquire), 0);
            assert_eq!(log.drops(), vec![]);
            assert_eq!(pool.respawn_dead(), 1);
            // The rebuild dropped instance 0 exactly once, with no handle
            // onto it.
            assert_eq!(log.drops(), vec![(0, 0)]);
            assert_eq!(log.built.load(Ordering::Relaxed), 2);
            let out = pool.run_job(&FanoutJob::new(40, 40)).unwrap();
            assert_eq!(out.metrics.tasks_executed, 120);
            drop(pool);
            assert_eq!(log.drops(), vec![(0, 0), (1, 0)]);
        });
    }

    #[test]
    fn dropping_the_pool_drops_every_gangs_scheduler() {
        hang_guard(|| {
            let log = Arc::new(ProbeLog::default());
            let factory_log = Arc::clone(&log);
            let pool = WorkerPool::new_partitioned(
                move |_| Probe::new(1, &factory_log),
                PoolConfig::partitioned(3, 1),
            );
            pool.run_job(&FanoutJob::new(30, 30)).unwrap();
            assert_eq!(log.drops(), vec![]);
            drop(pool);
            let mut drops = log.drops();
            drops.sort_unstable();
            assert_eq!(drops, vec![(0, 0), (1, 0), (2, 0)]);

            // The by-value constructor owns its scheduler the same way.
            let log = Arc::new(ProbeLog::default());
            let pool = WorkerPool::new(Probe::new(2, &log), PoolConfig::new(2));
            pool.run_job(&FanoutJob::new(30, 30)).unwrap();
            drop(pool);
            assert_eq!(log.drops(), vec![(0, 0)]);
        });
    }

    #[test]
    fn with_borrowed_joins_its_fleet_when_the_closure_panics() {
        hang_guard(|| {
            let log = Arc::new(ProbeLog::default());
            let probe = Probe::new(2, &log);
            let mut pool_state = None;
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                WorkerPool::with_borrowed(&probe, PoolConfig::new(2), |pool| {
                    pool_state = Some(Arc::clone(&pool.inner));
                    pool.run_job(&FanoutJob::new(20, 20)).unwrap();
                    panic!("intentional panic in the scoped closure");
                })
            }));
            assert!(unwound.is_err());
            // Each worker holds a share of the pool's state until its thread
            // body returns, so the last share here means every worker
            // finished before `with_borrowed` unwound.
            assert_eq!(Arc::strong_count(&pool_state.unwrap()), 1);
            assert_eq!(log.live_handles.load(Ordering::Acquire), 0);
            assert_eq!(
                log.drops(),
                vec![],
                "a borrowed scheduler is not the pool's to drop"
            );
            // The scheduler is intact: a second scoped pool serves a job on it.
            let executed = WorkerPool::with_borrowed(&probe, PoolConfig::new(2), |pool| {
                pool.run_job(&FanoutJob::new(50, 50))
                    .unwrap()
                    .metrics
                    .tasks_executed
            });
            assert_eq!(executed, 150);
        });
    }
}
