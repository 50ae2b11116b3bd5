//! Engine-level property tests: for randomly generated graphs, thread
//! counts, and scheduler families, every workload driven by the generic
//! engine must satisfy the accounting invariants
//!
//! * `useful_tasks + wasted_tasks == tasks_executed` (every processed task
//!   is classified exactly once),
//! * `pushes == pops` across all handles (no task is lost or
//!   double-delivered: everything pushed — seeds included — is popped
//!   exactly once before termination),
//!
//! and its output must be equivalent to the workload's own sequential
//! reference.
//!
//! The sweep covers the library default (no batch override) and the
//! explicit hot-path batch sizes {1, 2, 8, 32} across every scheduler
//! family: batch granularity amortizes synchronization but must never
//! change what is computed or break the accounting.  Every batch size runs
//! the pool's one worker loop; batch 1 (that loop with B = 1) is
//! additionally replayed against the per-task `pop()`/`push()` loop on
//! every scheduler family, and the default path's prefetch hints are
//! pinned invisible (identical replay with and without them).
//! Every test runs under `common::hang_guard`.

mod common;
#[path = "common/families.rs"]
mod families;

use common::hang_guard;
use families::{each_family, FamilyVisitor};
use proptest::prelude::*;

use smq_repro::algos::astar::AstarWorkload;
use smq_repro::algos::cc::CcWorkload;
use smq_repro::algos::engine::{self, DecreaseKeyWorkload, EngineRun, PoolJob};
use smq_repro::algos::kcore::KCoreWorkload;
use smq_repro::algos::mst::BoruvkaWorkload;
use smq_repro::algos::pagerank::{PagerankConfig, PagerankWorkload};
use smq_repro::algos::sssp::SsspWorkload;
use smq_repro::core::{Probability, Scheduler, SchedulerHandle, Task};
use smq_repro::graph::generators::uniform_random;
use smq_repro::graph::{CsrGraph, GraphUpdate, LiveGraph};
use smq_repro::multiqueue::{DeletePolicy, InsertPolicy, MultiQueue, MultiQueueConfig, Reld};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::pool::{PoolConfig, WorkerPool};
use smq_repro::smq::{HeapSmq, SkipListSmq, SmqConfig};
use smq_repro::spraylist::{SprayList, SprayListConfig};
use std::sync::{Arc, Mutex};

/// Asserts the engine invariants on a finished run.
fn assert_invariants<O>(run: &EngineRun<O>, label: &str) {
    assert_eq!(
        run.result.useful_tasks + run.result.wasted_tasks,
        run.result.metrics.tasks_executed,
        "{label}: every executed task must be exactly one of useful/wasted"
    );
    assert_eq!(
        run.result.metrics.total.pushes, run.result.metrics.total.pops,
        "{label}: tasks were lost or double-delivered"
    );
    assert_eq!(
        run.result.metrics.total.pops, run.result.metrics.tasks_executed,
        "{label}: every pop must correspond to one processed task"
    );
}

/// Runs one workload on one scheduler at the given hot-path batch size
/// (`None`: the library default, through `run_parallel`) and checks both
/// the accounting invariants and equivalence with the sequential
/// reference.
fn check<W, S>(workload: &W, scheduler: &S, threads: usize, batch: Option<usize>)
where
    W: DecreaseKeyWorkload,
    S: Scheduler<Task>,
{
    let run = match batch {
        None => engine::run_parallel(workload, scheduler, threads),
        Some(batch) => engine::run_parallel_with(
            workload,
            scheduler,
            PoolConfig::new(threads).with_batch(batch),
        ),
    };
    let reference = workload.sequential_reference();
    assert!(
        workload.outputs_equivalent(&run.output, &reference.output),
        "{} diverged from its sequential reference at batch {batch:?}",
        workload.name()
    );
    assert_invariants(&run, workload.name());
}

/// Undirected view of a directed graph — Borůvka's cut-property argument
/// needs symmetric adjacency.
fn symmetrized(directed: &CsrGraph) -> CsrGraph {
    use smq_repro::graph::GraphBuilder;
    let mut b = GraphBuilder::new(directed.num_nodes() as u32);
    for e in directed.edges() {
        b.add_undirected_edge(e.from, e.to, e.weight);
    }
    b.build()
}

/// Runs all eight workloads over the graph on fresh schedulers from `make`
/// (`seed` derives the incremental workload's update batch).
fn check_all_workloads<S, F>(
    graph: &CsrGraph,
    make: F,
    threads: usize,
    batch: Option<usize>,
    seed: u64,
) where
    S: Scheduler<Task>,
    F: Fn() -> S,
{
    let target = (graph.num_nodes() - 1) as u32;
    check(&SsspWorkload::new(graph, 0), &make(), threads, batch);
    check(&SsspWorkload::bfs(graph, 0), &make(), threads, batch);
    check(
        &AstarWorkload::new(graph, 0, target),
        &make(),
        threads,
        batch,
    );
    check(
        &BoruvkaWorkload::new(&symmetrized(graph)),
        &make(),
        threads,
        batch,
    );
    let pr_config = PagerankConfig {
        damping: 0.85,
        epsilon: 1e-5,
    };
    check(
        &PagerankWorkload::new(graph, pr_config),
        &make(),
        threads,
        batch,
    );
    check(&KCoreWorkload::new(graph), &make(), threads, batch);
    check(&CcWorkload::new(graph), &make(), threads, batch);
    // Incremental SSSP over a live-graph snapshot: publish a decrease
    // batch onto a live copy and repair the pre-update distances.
    let updates = GraphUpdate::random_decreases(graph, graph.num_edges() / 4 + 1, seed);
    let live = LiveGraph::new(Arc::new(graph.clone()));
    live.publish(&updates);
    let snapshot = live.pin();
    check(
        &SsspWorkload::repair_after_updates(graph, &snapshot, 0, &updates),
        &make(),
        threads,
        batch,
    );
}

/// The hot-path batch sizes the properties sweep; `None` is the library
/// default (no `with_batch`).
const BATCHES: [Option<usize>; 5] = [None, Some(1), Some(2), Some(8), Some(32)];

/// Dispatches over every scheduler family by index.
fn check_with_scheduler_family(
    graph: &CsrGraph,
    family: usize,
    threads: usize,
    seed: u64,
    batch: Option<usize>,
) {
    match family % 8 {
        0 => check_all_workloads(
            graph,
            || HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed)),
            threads,
            batch,
            seed,
        ),
        1 => check_all_workloads(
            graph,
            || SkipListSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed)),
            threads,
            batch,
            seed,
        ),
        2 => check_all_workloads(
            graph,
            || MultiQueue::<Task>::new(MultiQueueConfig::classic(threads).with_seed(seed)),
            threads,
            batch,
            seed,
        ),
        3 => check_all_workloads(
            graph,
            || {
                MultiQueue::<Task>::new(
                    MultiQueueConfig::classic(threads)
                        .with_insert(InsertPolicy::Batching(8))
                        .with_delete(DeletePolicy::Batching(8))
                        .with_seed(seed),
                )
            },
            threads,
            batch,
            seed,
        ),
        4 => check_all_workloads(
            graph,
            || {
                MultiQueue::<Task>::new(
                    MultiQueueConfig::classic(threads)
                        .with_insert(InsertPolicy::TemporalLocality(Probability::new(16)))
                        .with_delete(DeletePolicy::TemporalLocality(Probability::new(16)))
                        .with_seed(seed),
                )
            },
            threads,
            batch,
            seed,
        ),
        5 => check_all_workloads(
            graph,
            || Obim::<Task>::new(ObimConfig::obim(threads, 4, 8)),
            threads,
            batch,
            seed,
        ),
        6 => check_all_workloads(
            graph,
            || Obim::<Task>::new(ObimConfig::pmod(threads, 4, 8)),
            threads,
            batch,
            seed,
        ),
        _ => check_all_workloads(
            graph,
            || Reld::<Task>::new(threads, 2, seed),
            threads,
            batch,
            seed,
        ),
    }
}

proptest! {
    #[test]
    fn every_workload_conserves_tasks_on_every_scheduler(
        nodes in 16u32..96,
        edge_factor in 2u64..5,
        family in 0usize..8,
        threads in 1usize..4,
        batch_idx in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        hang_guard(move || {
            let graph = uniform_random(nodes, u64::from(nodes) * edge_factor, 200, seed);
            check_with_scheduler_family(&graph, family, threads, seed, BATCHES[batch_idx]);
        });
    }

    #[test]
    fn spraylist_conserves_tasks(
        nodes in 16u32..64,
        batch_idx in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        hang_guard(move || {
            // SprayList is slower per op; give it its own smaller sweep so the
            // combined property run stays fast.
            let graph = uniform_random(nodes, u64::from(nodes) * 3, 200, seed);
            check_all_workloads(
                &graph,
                || SprayList::<Task>::new(SprayListConfig {
                    seed,
                    ..SprayListConfig::default_for_threads(2)
                }),
                2,
                BATCHES[batch_idx],
                seed,
            );
        });
    }
}

proptest! {
    /// The same workload on the same deterministically seeded scheduler,
    /// run once over the plain `&CsrGraph` and once over a zero-delta
    /// `LiveGraph` snapshot of the same graph, must replay
    /// **bit-identically** — same outputs, same task classification, same
    /// scheduler `OpStats`.  Single thread at batch 1 makes the replay
    /// deterministic, so any divergence shows as an exact-equality failure.
    ///
    /// For SSSP this pins the two label stores against each other as well
    /// as the two read paths: the CSR's weight bound (≤ 200 × 95) admits
    /// the 32-bit store, while a snapshot reports no bound and keeps the
    /// 64-bit one.  A* runs over 64-bit labels on both sides.
    #[test]
    fn static_path_replays_identically_through_a_zero_delta_snapshot(
        nodes in 16u32..96,
        edge_factor in 2u64..5,
        seed in 0u64..1_000_000,
    ) {
        hang_guard(move || {
            let graph = uniform_random(nodes, u64::from(nodes) * edge_factor, 200, seed);
            let live = LiveGraph::new(Arc::new(graph.clone()));
            let snapshot = live.pin();
            let make = || HeapSmq::<Task>::new(SmqConfig::default_for_threads(1).with_seed(seed ^ 5));

            let per_task = || PoolConfig::new(1).with_batch(1);

            let direct = engine::run_parallel_with(&SsspWorkload::new(&graph, 0), &make(), per_task());
            let via = engine::run_parallel_with(&SsspWorkload::new(&snapshot, 0), &make(), per_task());
            prop_assert_eq!(&direct.output, &via.output);
            prop_assert_eq!(direct.result.useful_tasks, via.result.useful_tasks);
            prop_assert_eq!(direct.result.wasted_tasks, via.result.wasted_tasks);
            prop_assert_eq!(direct.result.metrics.total, via.result.metrics.total);

            let target = (graph.num_nodes() - 1) as u32;
            let direct =
                engine::run_parallel_with(&AstarWorkload::new(&graph, 0, target), &make(), per_task());
            let via =
                engine::run_parallel_with(&AstarWorkload::new(&snapshot, 0, target), &make(), per_task());
            prop_assert_eq!(&direct.output, &via.output);
            prop_assert_eq!(direct.result.useful_tasks, via.result.useful_tasks);
            prop_assert_eq!(direct.result.wasted_tasks, via.result.wasted_tasks);
            prop_assert_eq!(direct.result.metrics.total, via.result.metrics.total);
        });
    }
}

/// One single-worker run: the `(key, value)` sequence it processed and its
/// counts.
#[derive(Debug, PartialEq, Eq)]
struct Replay {
    processed: Vec<Task>,
    useful: u64,
    wasted: u64,
    pops: u64,
    pushes: u64,
}

/// `job` with every processed task logged, in processing order.
struct Logged<'a> {
    job: &'a dyn PoolJob,
    processed: Mutex<Vec<Task>>,
}

impl PoolJob for Logged<'_> {
    fn seed_tasks(&self) -> Vec<Task> {
        self.job.seed_tasks()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> engine::TaskOutcome {
        self.processed.lock().unwrap().push(task);
        self.job.process(task, push)
    }

    fn prefetch(&self, task: Task) {
        self.job.prefetch(task);
    }
}

/// `job` on a one-worker pool at batch 1.
fn pool_at_batch_one<S: Scheduler<Task>>(scheduler: &S, job: &dyn PoolJob) -> Replay {
    let logged = Logged {
        job,
        processed: Mutex::new(Vec::new()),
    };
    let config = PoolConfig::new(1).with_batch(1);
    let out = WorkerPool::with_borrowed(scheduler, config, |pool| pool.run_job(&logged))
        .expect("a one-worker job cannot be lost");
    Replay {
        processed: logged.processed.into_inner().unwrap(),
        useful: out.useful_tasks,
        wasted: out.wasted_tasks,
        pops: out.metrics.total.pops,
        pushes: out.metrics.total.pushes,
    }
}

/// The per-task loop, written out: every seed `push`ed and one `flush`,
/// then `pop()` → `process` → `push()` per child, with a `flush()` on an
/// empty pop.  A relaxed `pop()` may come back empty while tasks remain
/// (the Multi-Queue samples two of its queues), so, like the pool's
/// quiescence scan, the loop ends only once every pushed task ran.
fn per_task_loop<S: Scheduler<Task>>(scheduler: &S, job: &dyn PoolJob) -> Replay {
    let mut handle = scheduler.handle(0);
    job.seed_tasks()
        .into_iter()
        .for_each(|seed| handle.push(seed));
    handle.flush();
    let (mut processed, mut useful, mut wasted) = (Vec::new(), 0, 0);
    loop {
        let Some(task) = handle.pop() else {
            if handle.stats().pushes == processed.len() as u64 {
                break;
            }
            handle.flush();
            continue;
        };
        processed.push(task);
        match job.process(task, &mut |child| handle.push(child)) {
            engine::TaskOutcome::Useful => useful += 1,
            engine::TaskOutcome::Wasted => wasted += 1,
        }
    }
    let stats = handle.stats();
    Replay {
        processed,
        useful,
        wasted,
        pops: stats.pops,
        pushes: stats.pushes,
    }
}

/// Replays SSSP and k-core on `graph` both ways on each visited family.
struct BatchOneReplays<'a> {
    graph: &'a CsrGraph,
}

impl FamilyVisitor for BatchOneReplays<'_> {
    fn visit<S: Scheduler<Task>>(&mut self, family: &str, make: impl Fn() -> S) {
        // A workload's labels are its state: each run gets a fresh one.
        let jobs = || -> [(&str, Box<dyn PoolJob + '_>); 2] {
            [
                ("SSSP", Box::new(SsspWorkload::new(self.graph, 0))),
                ("k-core", Box::new(KCoreWorkload::new(self.graph))),
            ]
        };
        for ((workload, pooled), (_, looped)) in jobs().into_iter().zip(jobs()) {
            let pooled = pool_at_batch_one(&make(), pooled.as_ref());
            let looped = per_task_loop(&make(), looped.as_ref());
            assert!(pooled.useful > 0, "{family} / {workload}: nothing ran");
            assert_eq!(
                pooled, looped,
                "{family} / {workload}: batch 1 strayed from the per-task loop"
            );
        }
    }
}

/// Batch 1 is the batched loop with B = 1, and it replays the per-task
/// loop: on every family at one worker, the pool at batch 1 processes the
/// same `(key, value)` sequence, with the same useful, wasted, pop and push
/// counts, as `pop()` → `process` → `push()` written out in the test.
#[test]
fn batch_one_is_the_per_task_path() {
    hang_guard(|| {
        let graph = uniform_random(64, 192, 200, 77);
        each_family(1, &mut BatchOneReplays { graph: &graph });
    });
}

/// A workload identical to `W` except that it keeps the trait's default
/// no-op `prefetch`.
struct Unhinted<W>(W);

impl<W: DecreaseKeyWorkload> PoolJob for Unhinted<W> {
    fn seed_tasks(&self) -> Vec<Task> {
        self.0.seed_tasks()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> engine::TaskOutcome {
        self.0.process(task, push)
    }
}

impl<W: DecreaseKeyWorkload> DecreaseKeyWorkload for Unhinted<W> {
    type Output = W::Output;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn output(&self) -> W::Output {
        self.0.output()
    }

    fn sequential_reference(&self) -> engine::SequentialReference<W::Output> {
        self.0.sequential_reference()
    }

    fn outputs_equivalent(&self, a: &W::Output, b: &W::Output) -> bool {
        self.0.outputs_equivalent(a, b)
    }
}

/// The prefetch hint is invisible: on the default (batched) path a
/// single-thread replay of SSSP and BFS — the workloads that implement
/// `prefetch` — on an identically seeded scheduler yields the same output,
/// the same task classification and bit-identical `OpStats` with the hook
/// and with the default no-op hook.
#[test]
fn prefetch_hints_do_not_change_a_single_thread_replay() {
    hang_guard(|| {
        let graph = uniform_random(96, 384, 200, 31);
        let make = || HeapSmq::<Task>::new(SmqConfig::default_for_threads(1).with_seed(9));
        let hinted = [
            engine::run_parallel(&SsspWorkload::new(&graph, 0), &make(), 1),
            engine::run_parallel(&SsspWorkload::bfs(&graph, 0), &make(), 1),
        ];
        let unhinted = [
            engine::run_parallel(&Unhinted(SsspWorkload::new(&graph, 0)), &make(), 1),
            engine::run_parallel(&Unhinted(SsspWorkload::bfs(&graph, 0)), &make(), 1),
        ];
        for (with, without) in hinted.iter().zip(&unhinted) {
            assert!(
                with.result.metrics.total.batch_flushes > 0,
                "the default path must be the batched one"
            );
            assert_eq!(with.output, without.output);
            assert_eq!(with.result.useful_tasks, without.result.useful_tasks);
            assert_eq!(with.result.wasted_tasks, without.result.wasted_tasks);
            assert_eq!(with.result.metrics.total, without.result.metrics.total);
        }
    });
}
