//! The job service: a bounded, multi-producer front door for a
//! [`WorkerPool`].
//!
//! Client threads [`submit`](JobService::submit) jobs — closures that run
//! against the pool and return an output — into a bounded FIFO queue; one
//! dispatcher thread per gang drains the queue and executes the jobs on the
//! resident worker fleet.  With a gang-partitioned pool (see
//! [`PoolConfig`](crate::PoolConfig)) up to `gangs` jobs are **in flight at
//! once** — dispatchers pop the queue in FIFO acceptance order, though two
//! just-popped jobs may reach the pool's gang allocator in either order, so
//! exact start order is only guaranteed on a single-gang pool.  Every
//! submission returns a [`JobTicket`] the client can block on; completion
//! carries the job's output plus the measured queue wait and service time,
//! which is what the repo benchmark's route workloads report as
//! `pool.queue_wait_us_*` and `pool.service_time_us_*`.
//!
//! Back-pressure: `submit` blocks while the queue is full;
//! [`try_submit`](JobService::try_submit) fails fast instead (the
//! shed-load policy of an overloaded service).
//! [`shutdown`](JobService::shutdown) stops admission, drains every
//! already-accepted job, then joins the dispatchers and the pool — no
//! accepted job is ever dropped.
//!
//! # Failure taxonomy
//!
//! A job is a closure `FnOnce(&WorkerPool) -> R`.  It either **returns**,
//! and its ticket resolves to `Ok(JobCompletion)`, or it **unwinds**, and
//! its ticket resolves to a typed [`JobError`] — **never a hang, never a
//! client panic**:
//!
//! - an unwind whose payload is a [`JobError`] resolves to that error.  A
//!   pool failure the closure cannot return travels this way:
//!   `smq_algos::engine::run_on_pool` raises the error of its `run_job`
//!   with [`std::panic::panic_any`];
//! - any other unwind resolves to [`JobError::Lost`].
//!
//! [`JobError::Lost`] means the job, or the pool worker running it,
//! panicked; the worker's thread survives, a factory-built pool rebuilds
//! the scheduler of the gang it poisoned at the next claim, and the service
//! keeps serving.  [`JobError::NoCapacity`]
//! means every gang is dead and the pool has no factory to rebuild them.
//! The service reads nothing but the closure's own return or unwind, so a
//! closure that handles a `run_job` error itself has handled it, and a
//! later, unrelated panic in that closure is still just `Lost`.
//!
//! Nothing cancels, times out or retries a job: the closure runs exactly
//! once.
//!
//! The dispatcher counts each outcome in [`ServiceStats`]: after
//! shutdown, `submitted == completed + failed + no_capacity`.
//!
//! # Panic safety
//!
//! A job that panics (or runs on a gang whose worker panics) does **not**
//! tear the service down: the unwind is caught inside the queued closure,
//! the job is counted as [`failed`](ServiceStats::failed) (or
//! [`no_capacity`](ServiceStats::no_capacity)), and the dispatcher keeps
//! serving.  The panicking job's own ticket — and only that ticket —
//! resolves to `Err`.  Dropping a [`JobTicket`] without
//! waiting is also safe: the slot is marked abandoned, the job still runs
//! (and is counted), and its result is discarded instead of stranded.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::{JobError, WorkerPool};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of accepted-but-not-started jobs.  `submit` blocks
    /// and `try_submit` rejects while the queue holds this many.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 128,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (only `try_submit` reports this).
    QueueFull,
    /// The service is shutting down and admits no new jobs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "job service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A completed job's output plus its measured latencies.
#[derive(Debug)]
pub struct JobCompletion<R> {
    /// Whatever the submitted closure returned.
    pub output: R,
    /// Time spent queued before a dispatcher picked the job up.
    pub queue_wait: Duration,
    /// Time spent executing the closure on the worker pool.
    pub service_time: Duration,
}

/// One job's result slot, shared between its [`JobTicket`] and the queued
/// closure that eventually resolves it.
struct TicketState<R> {
    outcome: Option<Result<JobCompletion<R>, JobError>>,
    /// The client dropped its ticket without waiting: the resolver
    /// discards the outcome instead of stranding it in the slot.
    abandoned: bool,
}

struct TicketShared<R> {
    slot: Mutex<TicketState<R>>,
    ready: Condvar,
}

impl<R> TicketShared<R> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(TicketState {
                outcome: None,
                abandoned: false,
            }),
            ready: Condvar::new(),
        }
    }
}

/// Stores `outcome` for the waiting client — or drops it on the floor if
/// the client abandoned its ticket.  Never blocks: the service's shutdown
/// drain cannot be held up by a slow (or absent) client.
fn resolve<R>(shared: &TicketShared<R>, outcome: Result<JobCompletion<R>, JobError>) {
    let mut st = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
    if st.abandoned {
        return;
    }
    st.outcome = Some(outcome);
    shared.ready.notify_all();
}

/// A one-shot handle to a submitted job's outcome.
///
/// Dropping a ticket without calling [`wait`](JobTicket::wait) is safe:
/// the job still runs (an accepted job is never dropped) and is counted
/// in [`ServiceStats`], but its result is discarded instead of stranded,
/// and shutdown is never blocked on the missing client.
pub struct JobTicket<R> {
    shared: Option<Arc<TicketShared<R>>>,
}

impl<R> std::fmt::Debug for JobTicket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket").finish_non_exhaustive()
    }
}

impl<R> JobTicket<R> {
    /// Blocks until the job resolves — to its completion, or to the typed
    /// [`JobError`] that ended it (module docs).  Never hangs: every
    /// accepted job is resolved by a dispatcher, even during shutdown.
    pub fn wait(mut self) -> Result<JobCompletion<R>, JobError> {
        let shared = self
            .shared
            .take()
            .expect("JobTicket::wait consumes the ticket");
        let mut st = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = st.outcome.take() {
                return outcome;
            }
            st = shared.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking poll: `None` while the job is still queued or
    /// running, `Some(outcome)` once it resolved.  A ticket that returned
    /// `Some` is spent — further polls return `None`.
    pub fn try_wait(&mut self) -> Option<Result<JobCompletion<R>, JobError>> {
        let shared = self.shared.as_ref()?;
        let outcome = {
            let mut st = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            st.outcome.take()
        };
        if outcome.is_some() {
            self.shared = None;
        }
        outcome
    }
}

impl<R> Drop for JobTicket<R> {
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else {
            return; // waited (or polled to completion): nothing to release
        };
        let mut st = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        st.abandoned = true;
        // An outcome that raced in before the drop is released here; one
        // that arrives later is dropped by `resolve`.
        st.outcome = None;
    }
}

/// Point-in-time service counters.  Every accepted job lands in exactly
/// one of the three outcome counters, so after shutdown
/// `submitted == completed + failed + no_capacity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs fully executed.
    pub completed: u64,
    /// `try_submit` calls rejected with [`SubmitError::QueueFull`] (these
    /// were never accepted and are not part of `submitted`).
    pub rejected: u64,
    /// Jobs lost to a panic ([`JobError::Lost`]).
    pub failed: u64,
    /// Always 0: nothing cancels a job.  Kept only because the repo
    /// benchmark still reports it as `pool.cancelled`.
    pub cancelled: u64,
    /// Jobs that found every gang dead ([`JobError::NoCapacity`]).
    pub no_capacity: u64,
    /// Always 0: nothing retries a job.  Kept only because the repo
    /// benchmark still reports it as `pool.retried`.
    pub retried: u64,
    /// Live gauge: jobs accepted but not yet picked up by a dispatcher.
    /// Drains to zero by the time [`JobService::shutdown`] returns.
    pub queue_depth: u64,
    /// Live gauge: jobs currently executing on the pool.  Zero after
    /// shutdown.
    pub in_flight: u64,
}

/// A job as its dispatcher runs it: it never unwinds, and it reports the
/// error that ended the job (`None` = completed) for the outcome counters.
type QueuedJob = Box<dyn FnOnce(&WorkerPool) -> Option<JobError> + Send + 'static>;

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
}

struct ServiceInner {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    no_capacity: AtomicU64,
    in_flight: AtomicU64,
}

fn lock(state: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// A resident job service: bounded FIFO admission from many client threads
/// onto one [`WorkerPool`], with up to one job per gang in flight.
pub struct JobService {
    inner: Arc<ServiceInner>,
    pool: Arc<WorkerPool>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl JobService {
    /// Starts the service on `pool` (the pool must own its schedulers, i.e.
    /// come from [`WorkerPool::new`] or [`WorkerPool::new_partitioned`]),
    /// with one dispatcher thread per gang — enough to keep every gang
    /// busy, and more would only wait for a gang.
    pub fn new(pool: WorkerPool, config: ServiceConfig) -> JobService {
        assert!(config.queue_capacity >= 1, "queue capacity must be >= 1");
        let inner = Arc::new(ServiceInner {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            no_capacity: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        });
        let pool = Arc::new(pool);
        let dispatchers = (0..pool.gangs())
            .map(|d| {
                let inner = Arc::clone(&inner);
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("smq-job-dispatcher-{d}"))
                    .spawn(move || dispatcher_main(&inner, &pool))
                    .expect("failed to spawn job dispatcher")
            })
            .collect();
        JobService {
            inner,
            pool,
            dispatchers,
        }
    }

    /// Submits a job, blocking while the queue is full.  FIFO: dispatchers
    /// pick jobs up in acceptance order (on a multi-gang pool executions
    /// overlap and two just-dequeued jobs may begin in either order — see
    /// the module docs).
    pub fn submit<F, R>(&self, job: F) -> Result<JobTicket<R>, SubmitError>
    where
        F: FnOnce(&WorkerPool) -> R + Send + 'static,
        R: Send + 'static,
    {
        let st = self.blocking_slot()?;
        Ok(self.enqueue(st, job))
    }

    /// Submits a job without blocking; fails with
    /// [`SubmitError::QueueFull`] when at capacity.
    pub fn try_submit<F, R>(&self, job: F) -> Result<JobTicket<R>, SubmitError>
    where
        F: FnOnce(&WorkerPool) -> R + Send + 'static,
        R: Send + 'static,
    {
        let st = lock(&self.inner.state);
        if st.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if st.jobs.len() >= self.inner.capacity {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        Ok(self.enqueue(st, job))
    }

    /// Blocks until the queue has a free slot (or the service closes).
    fn blocking_slot(&self) -> Result<MutexGuard<'_, QueueState>, SubmitError> {
        let mut st = lock(&self.inner.state);
        loop {
            if st.closed {
                return Err(SubmitError::ShuttingDown);
            }
            if st.jobs.len() < self.inner.capacity {
                return Ok(st);
            }
            st = self
                .inner
                .not_full
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Queues `job` and hands back its ticket.  The queued closure contains
    /// the job's unwind, classifies it (module docs), resolves the ticket
    /// and reports the error that ended the job to its dispatcher.
    fn enqueue<F, R>(&self, mut st: MutexGuard<'_, QueueState>, job: F) -> JobTicket<R>
    where
        F: FnOnce(&WorkerPool) -> R + Send + 'static,
        R: Send + 'static,
    {
        let shared = Arc::new(TicketShared::new());
        let slot = Arc::clone(&shared);
        let accepted_at = Instant::now();
        st.jobs.push_back(Box::new(move |pool: &WorkerPool| {
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(pool)))
                .map(|output| JobCompletion {
                    output,
                    queue_wait: started.duration_since(accepted_at),
                    service_time: started.elapsed(),
                })
                .map_err(|payload| {
                    payload
                        .downcast::<JobError>()
                        .map_or(JobError::Lost, |error| *error)
                });
            let error = outcome.as_ref().err().copied();
            resolve(&slot, outcome);
            error
        }));
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.not_empty.notify_one();
        JobTicket {
            shared: Some(shared),
        }
    }

    /// Admission / outcome / rejection counters plus the live
    /// `queue_depth` / `in_flight` gauges.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            cancelled: 0,
            no_capacity: self.inner.no_capacity.load(Ordering::Relaxed),
            retried: 0,
            queue_depth: lock(&self.inner.state).jobs.len() as u64,
            in_flight: self.inner.in_flight.load(Ordering::Relaxed),
        }
    }

    /// The underlying pool's lifetime counters (thread spawns, jobs run,
    /// gangs lost to panics and respawned after them).
    pub fn pool_stats(&self) -> crate::PoolStats {
        self.pool.stats()
    }

    /// The worker pool this service dispatches onto (e.g. to force a
    /// [`respawn_dead`](WorkerPool::respawn_dead) between chaos rounds).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Graceful shutdown: stops admission, drains every accepted job
    /// (jobs already in flight on other gangs finish too), joins every
    /// dispatcher and (once the last `Arc` reference dies here) the worker
    /// pool.  Returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.closed = true;
            self.inner.not_empty.notify_all();
            self.inner.not_full.notify_all();
        }
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn dispatcher_main(inner: &ServiceInner, pool: &WorkerPool) {
    loop {
        let job = {
            let mut st = lock(&inner.state);
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    // A queue slot opened up; wake one blocked submitter.
                    inner.not_full.notify_one();
                    break job;
                }
                if st.closed {
                    return; // drained and closed: clean exit
                }
                st = inner.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Queued closures contain their own unwinds (see `enqueue`) and
        // report a typed outcome; nothing can unwind out of `job` here.
        inner.in_flight.fetch_add(1, Ordering::Relaxed);
        let error = job(pool);
        inner.in_flight.fetch_sub(1, Ordering::Relaxed);
        let counter = match error {
            None => &inner.completed,
            Some(JobError::Lost) => &inner.failed,
            Some(JobError::NoCapacity) => &inner.no_capacity,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use crate::{PoolConfig, PoolJob, TaskOutcome};
    use smq_core::Task;
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use std::sync::atomic::AtomicU64;

    struct CountJob {
        seeds: u64,
        counter: Arc<AtomicU64>,
    }

    impl PoolJob for CountJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..self.seeds).map(|i| Task::new(i, i)).collect()
        }

        fn process(&self, _t: Task, _push: &mut dyn FnMut(Task)) -> TaskOutcome {
            self.counter.fetch_add(1, Ordering::Relaxed);
            TaskOutcome::Useful
        }
    }

    struct BadJob;

    impl PoolJob for BadJob {
        fn seed_tasks(&self) -> Vec<Task> {
            vec![Task::new(0, 0)]
        }

        fn process(&self, _t: Task, _p: &mut dyn FnMut(Task)) -> TaskOutcome {
            panic!("intentional service job panic");
        }
    }

    fn service(capacity: usize) -> JobService {
        let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2).with_seed(3));
        JobService::new(
            WorkerPool::new(mq, PoolConfig::new(2)),
            ServiceConfig {
                queue_capacity: capacity,
            },
        )
    }

    fn partitioned_service(gangs: usize, capacity: usize) -> JobService {
        JobService::new(
            WorkerPool::new_partitioned(
                |g| MultiQueue::<Task>::new(MultiQueueConfig::classic(1).with_seed(3 + g as u64)),
                PoolConfig::partitioned(gangs, 1),
            ),
            ServiceConfig {
                queue_capacity: capacity,
            },
        )
    }

    #[test]
    fn jobs_from_many_clients_all_complete() {
        hang_guard(|| {
            let service = Arc::new(service(4));
            let counter = Arc::new(AtomicU64::new(0));
            std::thread::scope(|scope| {
                for client in 0..4 {
                    let service = Arc::clone(&service);
                    let counter = Arc::clone(&counter);
                    scope.spawn(move || {
                        for _ in 0..5 {
                            let counter = Arc::clone(&counter);
                            let ticket = service
                                .submit(move |pool| {
                                    let job = CountJob {
                                        seeds: 10 + client,
                                        counter,
                                    };
                                    pool.run_job(&job).expect("pool job").metrics.tasks_executed
                                })
                                .expect("submit");
                            let done = ticket.wait().expect("job completed");
                            assert_eq!(done.output, 10 + client);
                        }
                    });
                }
            });
            let service = Arc::into_inner(service).expect("sole owner");
            let stats = service.shutdown();
            assert_eq!(stats.submitted, 20);
            assert_eq!(stats.completed, 20);
            assert_eq!(stats.failed, 0);
            // 4 clients × 5 jobs × 10 base seeds, plus `client` extra seeds per
            // job for clients 0..4.
            assert_eq!(counter.load(Ordering::Relaxed), 4 * 5 * 10 + 5 * 6);
        });
    }

    #[test]
    fn gang_service_keeps_multiple_jobs_in_flight() {
        hang_guard(|| {
            // Two single-worker gangs, two dispatchers: two jobs that each wait
            // for the other can only finish if they run concurrently.
            use std::sync::atomic::AtomicBool;
            let service = Arc::new(partitioned_service(2, 4));
            let a = Arc::new(AtomicBool::new(false));
            let b = Arc::new(AtomicBool::new(false));

            struct MeetJob {
                mine: Arc<AtomicBool>,
                partner: Arc<AtomicBool>,
            }
            impl PoolJob for MeetJob {
                fn seed_tasks(&self) -> Vec<Task> {
                    vec![Task::new(0, 0)]
                }
                fn process(&self, _t: Task, _p: &mut dyn FnMut(Task)) -> TaskOutcome {
                    self.mine.store(true, Ordering::Release);
                    while !self.partner.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    TaskOutcome::Useful
                }
            }

            let mut tickets = Vec::new();
            for (mine, partner) in [(&a, &b), (&b, &a)] {
                let (mine, partner) = (Arc::clone(mine), Arc::clone(partner));
                tickets.push(
                    service
                        .submit(move |pool| {
                            pool.run_job(&MeetJob { mine, partner }).expect("meet job");
                        })
                        .expect("submit"),
                );
            }
            for ticket in tickets {
                ticket.wait().expect("both jobs complete");
            }
            let service = Arc::into_inner(service).expect("sole owner");
            let stats = service.shutdown();
            assert_eq!(stats.completed, 2);
        });
    }

    #[test]
    fn panicking_job_yields_job_lost_not_a_client_panic() {
        hang_guard(|| {
            let counter = Arc::new(AtomicU64::new(0));
            let service = partitioned_service(2, 4);
            let bad = service
                .submit(|pool| {
                    pool.run_job(&BadJob).expect("fails by panicking");
                })
                .expect("submit");
            assert_eq!(
                bad.wait().map(|c| c.output),
                Err(JobError::Lost),
                "lost job must resolve to Err"
            );

            // The service survives: a fresh job on the remaining gang succeeds.
            let ok_counter = Arc::clone(&counter);
            let good = service
                .submit(move |pool| {
                    let job = CountJob {
                        seeds: 7,
                        counter: ok_counter,
                    };
                    pool.run_job(&job).expect("pool job").metrics.tasks_executed
                })
                .expect("service still accepts jobs");
            assert_eq!(good.wait().expect("good job completes").output, 7);

            let pool_stats = service.pool_stats();
            let stats = service.shutdown();
            assert_eq!(stats.failed, 1);
            assert_eq!(stats.completed, stats.submitted - stats.failed);
            assert_eq!(pool_stats.gangs_poisoned, 1);
            assert_eq!(counter.load(Ordering::Relaxed), 7);
        });
    }

    #[test]
    fn try_submit_sheds_load_when_full() {
        hang_guard(|| {
            // Block the dispatcher with a slow job, then overfill the queue.
            let service = service(1);
            let gate = Arc::new(AtomicU64::new(0));
            let slow_gate = Arc::clone(&gate);
            let _slow = service
                .submit(move |_pool| {
                    while slow_gate.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                })
                .expect("first job accepted");
            // Queue capacity 1: one more is queued, then rejections start.
            let _queued = service.submit(|_pool| ()).expect("queued job accepted");
            let mut rejected = 0;
            while rejected == 0 {
                match service.try_submit(|_pool| ()) {
                    Err(SubmitError::QueueFull) => rejected += 1,
                    Ok(_) => {} // dispatcher drained a slot between calls
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            gate.store(1, Ordering::Release);
            let stats = service.shutdown();
            assert!(stats.rejected >= 1);
            assert_eq!(stats.completed, stats.submitted);
        });
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        hang_guard(|| {
            let service = service(8);
            let counter = Arc::new(AtomicU64::new(0));
            let mut tickets = Vec::new();
            for _ in 0..6 {
                let counter = Arc::clone(&counter);
                tickets.push(
                    service
                        .submit(move |pool| {
                            let job = CountJob { seeds: 5, counter };
                            pool.run_job(&job).expect("pool job");
                        })
                        .expect("submit"),
                );
            }
            let stats = service.shutdown();
            assert_eq!(stats.completed, 6, "shutdown must drain accepted jobs");
            assert_eq!(counter.load(Ordering::Relaxed), 30);
            for ticket in tickets {
                let done = ticket.wait().expect("drained job completed");
                assert!(done.service_time >= Duration::ZERO);
            }
        });
    }

    #[test]
    fn dropped_tickets_neither_leak_nor_block_shutdown() {
        hang_guard(|| {
            // Regression: a client that submits and walks away must not strand
            // the result slot or hold up the shutdown drain.
            let service = service(8);
            let counter = Arc::new(AtomicU64::new(0));
            for _ in 0..4 {
                let counter = Arc::clone(&counter);
                let ticket = service
                    .submit(move |pool| {
                        let job = CountJob { seeds: 3, counter };
                        pool.run_job(&job).expect("pool job");
                    })
                    .expect("submit");
                drop(ticket); // abandon immediately, before the job resolves
            }
            let stats = service.shutdown();
            assert_eq!(stats.completed, 4, "abandoned jobs still run and count");
            assert_eq!(counter.load(Ordering::Relaxed), 12);
            assert_eq!(stats.queue_depth, 0);
            assert_eq!(stats.in_flight, 0);
        });
    }

    #[test]
    fn gauges_drain_to_zero_after_shutdown() {
        hang_guard(|| {
            let service = service(8);
            let counter = Arc::new(AtomicU64::new(0));
            for _ in 0..5 {
                let counter = Arc::clone(&counter);
                service
                    .submit(move |pool| {
                        let job = CountJob { seeds: 3, counter };
                        pool.run_job(&job).expect("pool job");
                    })
                    .expect("submit");
            }
            // Mid-run the gauges are bounded by what was submitted.
            let live = service.stats();
            assert!(live.queue_depth + live.in_flight <= live.submitted);
            let stats = service.shutdown();
            assert_eq!(stats.queue_depth, 0, "queue must drain before shutdown");
            assert_eq!(stats.in_flight, 0, "no job may outlive shutdown");
            assert_eq!(stats.completed, 5);
        });
    }

    #[test]
    fn dead_pool_resolves_tickets_with_no_capacity() {
        hang_guard(|| {
            // One gang, no factory: after the panic the pool is permanently
            // dead and every later job gets the typed NoCapacity outcome.
            let service = JobService::new(
                WorkerPool::new(
                    MultiQueue::<Task>::new(MultiQueueConfig::classic(1).with_seed(5)),
                    PoolConfig::new(1),
                ),
                ServiceConfig { queue_capacity: 4 },
            );
            let bad = service
                .submit(|pool| {
                    pool.run_job(&BadJob).expect("fails by panicking");
                })
                .expect("submit");
            assert!(bad.wait().is_err());

            let counter = Arc::new(AtomicU64::new(0));
            let c = Arc::clone(&counter);
            let starved = service
                .submit(move |pool| {
                    let job = CountJob {
                        seeds: 3,
                        counter: c,
                    };
                    // Raise the pool's typed error the way `run_on_pool` does.
                    pool.run_job(&job)
                        .unwrap_or_else(|error| std::panic::panic_any(error));
                })
                .expect("submit");
            assert_eq!(starved.wait().map(|c| c.output), Err(JobError::NoCapacity));
            let stats = service.shutdown();
            assert_eq!(stats.failed, 1);
            assert_eq!(stats.no_capacity, 1);
            assert_eq!(counter.load(Ordering::Relaxed), 0, "nothing left to run it");
        });
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        hang_guard(|| {
            let service = service(2);
            // Close via an internal clone of the closed flag: emulate by racing
            // shutdown on another thread is overkill — use drop + rebuild path:
            // here we just verify ShuttingDown surfaces through submit.
            {
                let mut st = lock(&service.inner.state);
                st.closed = true;
            }
            assert_eq!(
                service.submit(|_pool| ()).map(|_| ()),
                Err(SubmitError::ShuttingDown)
            );
            assert_eq!(
                service.try_submit(|_pool| ()).map(|_| ()),
                Err(SubmitError::ShuttingDown)
            );
        });
    }
}
