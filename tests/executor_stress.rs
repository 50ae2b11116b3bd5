//! Integration stress tests for the worker loop + scheduler combination:
//! termination detection and task conservation under irregular task graphs.
//! Every run is one job on a transient `WorkerPool` around the scheduler
//! under test, inside a hang guard.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};

use common::hang_guard;
use smq_repro::core::{Probability, Scheduler, Task};
use smq_repro::multiqueue::{MultiQueue, MultiQueueConfig};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::pool::{PoolConfig, PoolJob, TaskOutcome, WorkerPool};
use smq_repro::runtime::RunMetrics;
use smq_repro::runtime::SCAN_GATE;
use smq_repro::smq::{HeapSmq, SmqConfig};

/// A closure as a pool job: `process(task, push)` runs every task, and every
/// task counts as useful.
struct ClosureJob<F> {
    seeds: Vec<Task>,
    process: F,
}

impl<F: Fn(Task, &mut dyn FnMut(Task)) + Sync> PoolJob for ClosureJob<F> {
    fn seed_tasks(&self) -> Vec<Task> {
        self.seeds.clone()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
        (self.process)(task, push);
        TaskOutcome::Useful
    }
}

/// Runs `process` over every task reachable from `seeds` as one job on a
/// transient single-gang pool borrowing `scheduler`, and returns the job's
/// metrics.
fn run<S: Scheduler<Task>>(
    scheduler: &S,
    config: PoolConfig,
    seeds: Vec<Task>,
    process: impl Fn(Task, &mut dyn FnMut(Task)) + Sync,
) -> RunMetrics {
    WorkerPool::with_borrowed(scheduler, config, |pool| {
        pool.run_job(&ClosureJob { seeds, process })
            .expect("stress job ran to quiescence")
            .metrics
    })
}

/// A synthetic irregular workload: every task of "depth" d < MAX_DEPTH
/// spawns a pseudo-random number of children (0..=2), so the task graph's
/// shape is unpredictable and the pending-task counter is genuinely
/// exercised.  Returns the number of tasks the workload should execute,
/// computed independently by a sequential simulation.
fn expected_task_count(seed_tasks: u64, max_depth: u64) -> u64 {
    let mut count = 0u64;
    let mut stack: Vec<(u64, u64)> = (0..seed_tasks).map(|i| (i, 0u64)).collect();
    while let Some((id, depth)) = stack.pop() {
        count += 1;
        if depth < max_depth {
            for c in 0..children_of(id, depth) {
                stack.push((id.wrapping_mul(31).wrapping_add(c), depth + 1));
            }
        }
    }
    count
}

fn children_of(id: u64, depth: u64) -> u64 {
    // Deterministic pseudo-random fan-out in 0..=2.
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(depth as u32)
        >> 61)
        % 3
}

fn run_irregular<S: Scheduler<Task>>(scheduler: &S, threads: usize) -> u64 {
    const SEEDS: u64 = 500;
    const MAX_DEPTH: u64 = 12;
    let executed = AtomicU64::new(0);
    let metrics = run(
        scheduler,
        PoolConfig::new(threads),
        (0..SEEDS).map(|i| Task::new(0, i)).collect(),
        |task, push| {
            executed.fetch_add(1, Ordering::Relaxed);
            let depth = task.key;
            let id = task.value;
            if depth < MAX_DEPTH {
                for c in 0..children_of(id, depth) {
                    let child_id = id.wrapping_mul(31).wrapping_add(c);
                    push(Task::new(depth + 1, child_id));
                }
            }
        },
    );
    assert_eq!(metrics.tasks_executed, executed.load(Ordering::Relaxed));
    // The epoch-gated quiescence scan: every scan costs at least `SCAN_GATE`
    // empty pops, so the scan count is bounded by empty_pops / gate — before
    // the gate, every empty pop ran a scan (scans == empty_pops).
    let gate = u64::from(SCAN_GATE);
    assert!(
        metrics.quiescence_scans * gate <= metrics.total.empty_pops,
        "scan traffic not gated: {} scans, {} empty pops, gate {}",
        metrics.quiescence_scans,
        metrics.total.empty_pops,
        gate
    );
    assert!(
        metrics.quiescence_scans >= threads as u64,
        "every worker exits through at least one successful scan"
    );
    metrics.tasks_executed
}

#[test]
fn irregular_workload_on_smq_executes_every_task() {
    hang_guard(|| {
        let expected = expected_task_count(500, 12);
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(4).with_seed(1));
        assert_eq!(run_irregular(&smq, 4), expected);
    });
}

#[test]
fn irregular_workload_on_multiqueue_executes_every_task() {
    hang_guard(|| {
        let expected = expected_task_count(500, 12);
        let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(3).with_seed(2));
        assert_eq!(run_irregular(&mq, 3), expected);
    });
}

#[test]
fn irregular_workload_on_obim_executes_every_task() {
    hang_guard(|| {
        let expected = expected_task_count(500, 12);
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 3, 8));
        assert_eq!(run_irregular(&obim, 2), expected);
    });
}

#[test]
fn smq_with_always_steal_terminates_under_contention() {
    // p_steal = 1 maximizes cross-thread interaction on the stealing
    // buffers; the run must still terminate and conserve tasks.
    hang_guard(|| {
        let expected = expected_task_count(500, 12);
        let smq: HeapSmq<Task> = HeapSmq::new(
            SmqConfig::default_for_threads(4)
                .with_p_steal(Probability::ALWAYS)
                .with_steal_size(1)
                .with_seed(3),
        );
        assert_eq!(run_irregular(&smq, 4), expected);
    });
}

#[test]
fn single_worker_runs_are_supported_by_every_scheduler() {
    hang_guard(|| {
        let expected = expected_task_count(500, 12);
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(1));
        assert_eq!(run_irregular(&smq, 1), expected);
        let obim: Obim<Task> = Obim::new(ObimConfig::pmod(1, 4, 16));
        assert_eq!(run_irregular(&obim, 1), expected);
    });
}

/// Fan-out of the uniquely-identified stress workload below: depends only
/// on depth so the total task count is computable without running.
fn stress_fanout(depth: u64) -> u64 {
    if depth.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// Tasks per seed in a tree of the given depth under [`stress_fanout`].
fn stress_tasks_per_seed(max_depth: u64) -> u64 {
    let mut total = 0u64;
    let mut level = 1u64;
    for depth in 0..=max_depth {
        total += level;
        if depth < max_depth {
            level *= stress_fanout(depth);
        }
    }
    total
}

/// Every task gets a *unique* dense id from a shared allocator and bumps its
/// own execution slot exactly once, so the test can prove the distributed
/// termination counters neither lose tasks (a slot left at 0 — the run
/// exited while work was outstanding) nor double-count them (a slot above 1
/// — a task was processed twice).
fn run_unique_id_stress<S: Scheduler<Task>>(scheduler: &S, threads: usize) {
    const SEEDS: u64 = 64;
    const MAX_DEPTH: u64 = 12;
    let total = SEEDS * stress_tasks_per_seed(MAX_DEPTH);
    let next_id = AtomicU64::new(SEEDS);
    let executions: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();

    let metrics = run(
        scheduler,
        PoolConfig::new(threads),
        (0..SEEDS).map(|i| Task::new(0, i)).collect(),
        |task, push| {
            let depth = task.key;
            let id = task.value;
            executions[id as usize].fetch_add(1, Ordering::Relaxed);
            if depth < MAX_DEPTH {
                for _ in 0..stress_fanout(depth) {
                    let child = next_id.fetch_add(1, Ordering::Relaxed);
                    push(Task::new(depth + 1, child));
                }
            }
        },
    );

    assert_eq!(metrics.tasks_executed, total, "task count mismatch");
    assert_eq!(
        next_id.load(Ordering::Relaxed),
        total,
        "id allocator mismatch"
    );
    for (id, count) in executions.iter().enumerate() {
        let count = count.load(Ordering::Relaxed);
        assert_eq!(
            count, 1,
            "task {id} executed {count} times (0 = lost by termination detection, >1 = double-counted)"
        );
    }
}

#[test]
fn distributed_termination_loses_nothing_on_multiqueue() {
    hang_guard(|| {
        let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(8).with_seed(21));
        run_unique_id_stress(&mq, 8);
    });
}

#[test]
fn distributed_termination_loses_nothing_on_smq() {
    hang_guard(|| {
        let smq: HeapSmq<Task> = HeapSmq::new(
            SmqConfig::default_for_threads(8)
                .with_p_steal(Probability::new(2))
                .with_seed(22),
        );
        run_unique_id_stress(&smq, 8);
    });
}

#[test]
fn distributed_termination_loses_nothing_under_always_steal() {
    // p_steal = 1 with a tiny steal batch maximizes cross-thread counter
    // traffic: every pop tries to move work between workers, so published
    // and completed counts land on different counters as often as possible.
    hang_guard(|| {
        let smq: HeapSmq<Task> = HeapSmq::new(
            SmqConfig::default_for_threads(4)
                .with_p_steal(Probability::ALWAYS)
                .with_steal_size(1)
                .with_seed(23),
        );
        run_unique_id_stress(&smq, 4);
    });
}

#[test]
fn epoch_gated_scan_cuts_scan_traffic_on_idle_heavy_runs() {
    // A single deep chain on 8 workers: seven threads idle-spin for the
    // whole run, the worst case for scan traffic.  Pre-gate, every empty
    // pop ran one O(threads) scan (scans == empty_pops); the gate must cut
    // that by at least the gate factor.
    hang_guard(|| {
        let threads = 8;
        let smq: HeapSmq<Task> =
            HeapSmq::new(SmqConfig::default_for_threads(threads).with_seed(41));
        let metrics = run(
            &smq,
            PoolConfig::new(threads),
            vec![Task::new(0, 0)],
            |task, push| {
                if task.key < 20_000 {
                    push(Task::new(task.key + 1, task.value));
                }
            },
        );
        assert_eq!(metrics.tasks_executed, 20_001);
        assert!(
            metrics.quiescence_scans * u64::from(SCAN_GATE) <= metrics.total.empty_pops,
            "idle-heavy run not gated: {} scans for {} empty pops",
            metrics.quiescence_scans,
            metrics.total.empty_pops
        );
        assert!(metrics.quiescence_scans >= threads as u64);
    });
}

/// Runs a wide fan-out workload (8 children per non-leaf task, so every
/// task-boundary sink flush carries a full batch) and returns the run's
/// total [`smq_repro::core::OpStats`].
fn run_wide_fanout<S: Scheduler<Task>>(
    scheduler: &S,
    threads: usize,
    batch: usize,
) -> smq_repro::core::OpStats {
    const SEEDS: u64 = 32;
    const MAX_DEPTH: u64 = 3;
    const FANOUT: u64 = 8;
    // 32 seeds * (1 + 8 + 64 + 512) tasks.
    let expected: u64 = SEEDS * (1 + FANOUT + FANOUT * FANOUT + FANOUT * FANOUT * FANOUT);
    let metrics = run(
        scheduler,
        PoolConfig::new(threads).with_batch(batch),
        (0..SEEDS).map(|i| Task::new(0, i)).collect(),
        |task, push| {
            if task.key < MAX_DEPTH {
                for c in 0..FANOUT {
                    push(Task::new(task.key + 1, task.value * FANOUT + c));
                }
            }
        },
    );
    assert_eq!(metrics.tasks_executed, expected);
    assert_eq!(metrics.total.pops, expected);
    metrics.total
}

/// The batch-granularity acceptance criterion: with batch >= 8, the
/// insert-path synchronization per push (lock acquisitions for the
/// Multi-Queue, stealing-buffer maintenance passes for the SMQ) must be at
/// most 1/4 of batch 1's (one task per insert step) on the same workload.
#[test]
fn batched_inserts_amortize_push_locks_on_smq() {
    hang_guard(|| {
        let make = || HeapSmq::<Task>::new(SmqConfig::default_for_threads(4).with_seed(51));
        let per_task = run_wide_fanout(&make(), 4, 1)
            .locks_per_push()
            .expect("SMQ counts insert-path maintenance passes");
        let batched = run_wide_fanout(&make(), 4, 8)
            .locks_per_push()
            .expect("batched SMQ still counts them");
        assert!(
            (per_task - 1.0).abs() < 1e-9,
            "per-task SMQ pays one buffer pass per push (got {per_task:.3})"
        );
        assert!(
            batched <= per_task / 4.0,
            "batch 8 must amortize SMQ insert sync to <= 1/4 of the per-task \
         path: {batched:.3} vs {per_task:.3}"
        );
    });
}

#[test]
fn batched_inserts_amortize_push_locks_on_classic_mq() {
    hang_guard(|| {
        let make = || MultiQueue::<Task>::new(MultiQueueConfig::classic(4).with_seed(52));
        let per_task = run_wide_fanout(&make(), 4, 1)
            .locks_per_push()
            .expect("the classic MQ locks a sub-queue per insert");
        let batched = run_wide_fanout(&make(), 4, 8)
            .locks_per_push()
            .expect("batched MQ still counts insert locks");
        assert!(
            (per_task - 1.0).abs() < 1e-9,
            "per-task MQ pays one sub-queue lock per push (got {per_task:.3})"
        );
        assert!(
            batched <= per_task / 4.0,
            "batch 8 must amortize MQ insert locks to <= 1/4 of the per-task \
         path: {batched:.3} vs {per_task:.3}"
        );
    });
}

#[test]
fn batched_runs_report_their_amortization_factor() {
    hang_guard(|| {
        // `tasks_per_batch` is the observable the bench tables print; a full
        // 8-fan-out batch run must average close to the configured batch.
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2).with_seed(53));
        let total = run_wide_fanout(&smq, 2, 8);
        let mean = total
            .tasks_per_batch()
            .expect("native batch flushes must be counted");
        assert!(
            mean >= 4.0,
            "8-child tasks at batch 8 should flush near-full batches (got {mean:.2})"
        );
        assert!(total.batch_flushes > 0);
    });
}

#[test]
fn snapshot_delete_locks_at_most_once_per_pop_in_the_common_case() {
    hang_guard(|| {
        // End-to-end acceptance check for the single-lock two-choice delete:
        // across a full irregular run the Multi-Queue must average at most ~1
        // delete-path lock per successful pop (the classic implementation paid
        // exactly 2).  A small margin absorbs the rare stale-snapshot fallback.
        let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(4).with_seed(31));
        let expected = expected_task_count(500, 12);
        let executed = AtomicU64::new(0);
        let metrics = run(
            &mq,
            PoolConfig::new(4),
            (0..500).map(|i| Task::new(0, i)).collect(),
            |task, push| {
                executed.fetch_add(1, Ordering::Relaxed);
                let (depth, id) = (task.key, task.value);
                if depth < 12 {
                    for c in 0..children_of(id, depth) {
                        push(Task::new(depth + 1, id.wrapping_mul(31).wrapping_add(c)));
                    }
                }
            },
        );
        assert_eq!(metrics.tasks_executed, expected);
        let locks_per_pop = metrics
            .total
            .locks_per_pop()
            .expect("lock-based scheduler must count delete-path locks");
        assert!(
            locks_per_pop <= 1.25,
            "snapshot delete averaged {locks_per_pop:.3} locks per pop (want ~1, classic was 2)"
        );
    });
}
