//! The generic relaxed-priority workload engine.
//!
//! Every workload in this crate — SSSP (from scratch, as BFS, as an
//! incremental repair), A* (one-shot or as a served route query), Borůvka
//! MST, PageRank-delta, k-core, CC — is the same pattern wearing different
//! clothes: seed the scheduler with prioritized tasks, pop tasks, decide
//! whether each popped task still matters (*useful*) or was made stale by
//! concurrent progress (*wasted*), update some shared monotone state, and
//! push follow-up tasks.  [`DecreaseKeyWorkload`] captures exactly that contract
//! and [`run_parallel`] is the one parallel driver, so the useful/wasted
//! accounting and the pool invocation (whose per-job report is the run's
//! [`AlgoResult`]) exist once instead of once per algorithm.  There is one
//! kernel per algorithm and one run type: callers write
//! `run_parallel(&Workload::new(..), &scheduler, threads)` and read
//! [`EngineRun`]'s `output` and `result`; no module wraps either.
//!
//! The shared state of these workloads is monotone (distances only
//! decrease, residuals drain, h-values fall, components merge), which is
//! what makes them safe under *relaxed* schedulers: executing tasks out of
//! strict priority order changes how much work is done, never what is
//! computed.  [`try_decrease`] is the canonical CAS-relax step for the
//! `AtomicU64`-per-vertex workloads, and [`LabelStore`] is the seam the
//! shortest-path kernels (SSSP, BFS, A*) relax through, so the slot format
//! of a distance label is chosen by whoever owns the labels.
//!
//! Execution goes through the resident worker pool (`smq-pool`) in both
//! modes: [`run_on_pool`] executes one workload as a job on one gang of an
//! existing [`WorkerPool`] (thousands of jobs amortize one thread fleet —
//! see `crate::query` for the A* route-query service built on this), and
//! [`run_parallel`] / [`run_parallel_with`] are the one-shot wrappers that
//! build a transient pool around a borrowed scheduler, run the single job,
//! and join.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use smq_core::{Scheduler, Task};
use smq_pool::{PoolConfig, WorkerPool};

use crate::AlgoResult;

pub use smq_pool::{PoolJob, TaskOutcome};

/// The output of a workload's exact sequential reference implementation.
#[derive(Debug, Clone)]
pub struct SequentialReference<O> {
    /// The reference answer the parallel run must be equivalent to.
    pub output: O,
    /// How many tasks the sequential execution processed — the baseline for
    /// the paper's *work increase* metric.
    pub baseline_tasks: u64,
}

/// A workload expressible over a relaxed priority scheduler: a [`PoolJob`]
/// (its seed tasks, its per-task `process` step and its `prefetch` hint)
/// plus what a caller reads and checks once the run has terminated.
///
/// Implementations own the per-run shared state (atomic distance arrays,
/// residual vectors, union-find structures, ...) and borrow the input
/// graph; one value of the implementing type corresponds to one run.
///
/// The contract that makes a workload safe under every scheduler in this
/// workspace: [`PoolJob::process`] must be correct for *any* order of task
/// execution, and tasks may be executed while already stale (the
/// implementation detects this and reports [`TaskOutcome::Wasted`]).
pub trait DecreaseKeyWorkload: PoolJob {
    /// The algorithm-level answer (distances, ranks, core numbers, ...).
    type Output: PartialEq;

    /// Short display name ("SSSP", "PR-delta", ...).
    fn name(&self) -> &'static str;

    /// A snapshot of the algorithm-level answer held in the shared state.
    /// Meaningful once the run has terminated (quiescent state).
    fn output(&self) -> Self::Output;

    /// Runs the exact sequential reference on the same input.
    fn sequential_reference(&self) -> SequentialReference<Self::Output>;

    /// Whether two outputs are equivalent for this workload.  Exact
    /// workloads (SSSP, BFS, A*, MST, k-core, CC) keep the default `==`;
    /// approximate ones (PageRank-delta) compare within the error bound
    /// their termination threshold guarantees.
    fn outputs_equivalent(&self, a: &Self::Output, b: &Self::Output) -> bool {
        a == b
    }
}

/// Output plus accounting from one parallel engine run.
#[derive(Debug, Clone)]
pub struct EngineRun<O> {
    /// The workload's answer, read from the shared state after termination.
    pub output: O,
    /// Work and wall-clock accounting.  `useful_tasks + wasted_tasks`
    /// always equals `metrics.tasks_executed`: the driver classifies every
    /// processed task as exactly one of the two.
    pub result: AlgoResult,
}

/// Runs `workload` to quiescence as one job on one gang of a resident
/// [`WorkerPool`].
///
/// This is the service-mode driver: the pool's fleet was spawned once and
/// is reused across jobs, so per-job cost is task execution plus one
/// wake/park round trip — no thread spawns, no scheduler reconstruction.
/// A pool with G gangs runs G such jobs at once (e.g. route queries on
/// one-worker gangs); on a single-gang pool the job has the whole fleet.
///
/// # Panics
/// When the pool cannot run the job, this unwinds with the pool's
/// `smq_pool::JobError` itself as the payload
/// ([`std::panic::panic_any`]), so a `JobService` ticket resolves to that
/// error.  The default panic hook still prints the location, but its
/// message reads `Box<dyn Any>`.
pub fn run_on_pool<W>(workload: &W, pool: &WorkerPool) -> EngineRun<W::Output>
where
    W: DecreaseKeyWorkload,
{
    let result = pool
        .run_job(workload)
        .unwrap_or_else(|error| std::panic::panic_any(error));
    EngineRun {
        output: workload.output(),
        result,
    }
}

/// Runs `workload` to quiescence on `scheduler` with `threads` workers at
/// the library's default hot-path batch size
/// ([`smq_pool::DEFAULT_BATCH_SIZE`], 8): workers pop up to 8
/// tasks per scheduling decision, hint the batch to
/// [`PoolJob::prefetch`], and flush follow-ups through the
/// scheduler's `push_batch` at task boundaries.
///
/// One-shot mode: [`run_parallel_with`] on `PoolConfig::new(threads)`.  For
/// a stream of jobs, build a resident [`WorkerPool`] (or a
/// `smq_pool::JobService`) and call [`run_on_pool`] directly — that is what
/// amortizes thread spawns across jobs.
pub fn run_parallel<W, S>(workload: &W, scheduler: &S, threads: usize) -> EngineRun<W::Output>
where
    W: DecreaseKeyWorkload,
    S: Scheduler<Task>,
{
    run_parallel_with(workload, scheduler, PoolConfig::new(threads))
}

/// The one-shot mechanism: builds a transient single-gang pool described by
/// `config` around the borrowed scheduler, runs the single job through
/// [`run_on_pool`], and joins the fleet before returning.
///
/// `config` is where a caller leaves the defaults:
/// `PoolConfig::new(threads).with_batch(1)` is the exact per-task path (one
/// `pop()` per task, every follow-up pushed immediately, no prefetch hints
/// — strict priority order on one worker with an exact local queue, and the
/// baseline row of the batch sweeps), and `.with_telemetry(..)` makes the
/// run's metrics carry a merged `TelemetryReport`.  Neither changes
/// relaxation semantics or the computed answer.
pub fn run_parallel_with<W, S>(
    workload: &W,
    scheduler: &S,
    config: PoolConfig,
) -> EngineRun<W::Output>
where
    W: DecreaseKeyWorkload,
    S: Scheduler<Task>,
{
    WorkerPool::with_borrowed(scheduler, config, |pool| run_on_pool(workload, pool))
}

/// Runs the parallel workload and asserts it is equivalent to its
/// sequential reference, returning both runs' data.  The shared
/// correctness check used by the integration and property tests.
pub fn run_and_check<W, S>(
    workload: &W,
    scheduler: &S,
    threads: usize,
) -> (EngineRun<W::Output>, SequentialReference<W::Output>)
where
    W: DecreaseKeyWorkload,
    S: Scheduler<Task>,
{
    let run = run_parallel(workload, scheduler, threads);
    let reference = workload.sequential_reference();
    assert!(
        workload.outputs_equivalent(&run.output, &reference.output),
        "{} diverged from its sequential reference",
        workload.name()
    );
    (run, reference)
}

/// The canonical CAS-relax step: atomically lowers `slot` to `proposed` if
/// `proposed` is strictly smaller than the current value.
///
/// Returns `true` when this call performed the decrease (the caller should
/// then publish a follow-up task), `false` when the slot already held an
/// equal or smaller value — some other task got there first, which is
/// precisely how concurrent relaxations deduplicate work.
#[inline]
pub fn try_decrease(slot: &AtomicU64, proposed: u64) -> bool {
    let mut current = slot.load(Ordering::Relaxed);
    while proposed < current {
        match slot.compare_exchange_weak(current, proposed, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
    false
}

/// The per-vertex distance labels as a shortest-path kernel sees them.
///
/// The trait hides the slot *format*; the kernels (`SsspWorkload`'s relax,
/// `AstarWorkload::process`) are generic over it and never see a raw slot:
///
/// * `Vec<AtomicU64>`: a plain slot per vertex, `u64::MAX` while unreached;
/// * `Vec<AtomicU32>`: half the bytes per vertex, for runs whose graph
///   bounds every proposed label below `u32::MAX` (SSSP and BFS pick it at
///   construction when the bound holds);
/// * the route-query service's lane (`crate::query`): epoch-stamped
///   24+40-bit slots reused across queries without ever being reset.
pub trait LabelStore: Sync {
    /// What [`get`](Self::get) returns for a vertex no path has reached
    /// yet; every real label is strictly smaller.
    const UNREACHED: u64;

    /// The current label of `v`.
    fn get(&self, v: u32) -> u64;

    /// The CAS-relax step: lowers `v`'s label to `proposed` if that is a
    /// strict improvement.  Returns `true` when this call performed the
    /// decrease.
    fn try_decrease(&self, v: u32, proposed: u64) -> bool;
}

/// One plain `AtomicU64` per vertex, `u64::MAX` while unreached.
impl LabelStore for Vec<AtomicU64> {
    const UNREACHED: u64 = u64::MAX;

    #[inline]
    fn get(&self, v: u32) -> u64 {
        self[v as usize].load(Ordering::Relaxed)
    }

    #[inline]
    fn try_decrease(&self, v: u32, proposed: u64) -> bool {
        try_decrease(&self[v as usize], proposed)
    }
}

/// One `AtomicU32` per vertex, `u32::MAX` while unreached: the store for a
/// run whose proposed labels provably stay below `u32::MAX`.
impl LabelStore for Vec<AtomicU32> {
    const UNREACHED: u64 = u32::MAX as u64;

    #[inline]
    fn get(&self, v: u32) -> u64 {
        u64::from(self[v as usize].load(Ordering::Relaxed))
    }

    /// # Panics
    /// Panics if `proposed` is `u32::MAX` or more: the owner's bound was
    /// wrong, and storing the label would wrap or read as unreached.
    #[inline]
    fn try_decrease(&self, v: u32, proposed: u64) -> bool {
        let proposed = match u32::try_from(proposed) {
            Ok(label) if label < u32::MAX => label,
            _ => panic!("label {proposed} does not fit the 32-bit label store"),
        };
        let slot = &self[v as usize];
        let mut current = slot.load(Ordering::Relaxed);
        while proposed < current {
            match slot.compare_exchange_weak(
                current,
                proposed,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use smq_scheduler::{HeapSmq, SmqConfig};

    #[test]
    fn try_decrease_only_lowers() {
        let slot = AtomicU64::new(10);
        assert!(try_decrease(&slot, 7));
        assert_eq!(slot.load(Ordering::Relaxed), 7);
        assert!(!try_decrease(&slot, 7), "equal value is not a decrease");
        assert!(!try_decrease(&slot, 9), "larger value must be rejected");
        assert_eq!(slot.load(Ordering::Relaxed), 7);
        assert!(try_decrease(&slot, 0));
        assert_eq!(slot.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn narrow_store_reads_unreached_and_relaxes_like_the_wide_one() {
        let narrow: Vec<AtomicU32> = (0..2).map(|_| AtomicU32::new(u32::MAX)).collect();
        let wide: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(u64::MAX)).collect();
        assert_eq!(narrow.get(1), <Vec<AtomicU32> as LabelStore>::UNREACHED);
        for proposed in [9, 9, 12, 3, u64::from(u32::MAX - 1)] {
            assert_eq!(
                narrow.try_decrease(1, proposed),
                wide.try_decrease(1, proposed)
            );
            assert_eq!(narrow.get(1), wide.get(1));
        }
        assert!(narrow.try_decrease(0, u64::from(u32::MAX - 1)));
        assert_eq!(narrow.get(0), u64::from(u32::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "does not fit the 32-bit label store")]
    fn narrow_store_rejects_a_label_past_its_bound() {
        let narrow: Vec<AtomicU32> = vec![AtomicU32::new(u32::MAX)];
        narrow.try_decrease(0, u64::from(u32::MAX));
    }

    /// A toy workload: count down from each seed key to zero; the output is
    /// the number of tasks that reached zero.  Exercises the driver's
    /// counters without any graph machinery.
    struct Countdown {
        reached_zero: AtomicU64,
    }

    impl PoolJob for Countdown {
        fn seed_tasks(&self) -> Vec<Task> {
            (1..=8u64).map(|k| Task::new(k, k)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
            if task.key == 0 {
                self.reached_zero.fetch_add(1, Ordering::Relaxed);
                TaskOutcome::Wasted
            } else {
                push(Task::new(task.key - 1, task.value));
                TaskOutcome::Useful
            }
        }
    }

    impl DecreaseKeyWorkload for Countdown {
        type Output = u64;

        fn name(&self) -> &'static str {
            "countdown"
        }

        fn output(&self) -> u64 {
            self.reached_zero.load(Ordering::Relaxed)
        }

        fn sequential_reference(&self) -> SequentialReference<u64> {
            // 8 chains reach zero; each chain of length k+1 executes k
            // useful steps plus the terminal task.
            SequentialReference {
                output: 8,
                baseline_tasks: (1..=8u64).map(|k| k + 1).sum(),
            }
        }
    }

    #[test]
    fn driver_counts_every_task_exactly_once() {
        hang_guard(|| {
            let workload = Countdown {
                reached_zero: AtomicU64::new(0),
            };
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
            let (run, reference) = run_and_check(&workload, &smq, 2);
            assert_eq!(run.output, 8);
            assert_eq!(
                run.result.total_tasks(),
                run.result.metrics.tasks_executed,
                "useful + wasted must equal tasks executed"
            );
            assert_eq!(run.result.total_tasks(), reference.baseline_tasks);
            assert_eq!(run.result.wasted_tasks, 8);
        });
    }

    #[test]
    fn one_pool_serves_many_workload_runs() {
        hang_guard(|| {
            // The service-mode driver: one resident pool, several jobs, results
            // identical to fresh one-shot runs.
            let pool = WorkerPool::new(
                HeapSmq::<Task>::new(SmqConfig::default_for_threads(2)),
                PoolConfig::new(2),
            );
            for _ in 0..5 {
                let workload = Countdown {
                    reached_zero: AtomicU64::new(0),
                };
                let run = run_on_pool(&workload, &pool);
                assert_eq!(run.output, 8);
                assert_eq!(run.result.total_tasks(), run.result.metrics.tasks_executed);
                assert_eq!(
                    run.result.metrics.total.pushes, run.result.metrics.total.pops,
                    "per-job accounting must not leak across jobs"
                );
            }
            assert_eq!(pool.stats().jobs_completed, 5);
            assert_eq!(pool.stats().threads_spawned, 2);
        });
    }
}
