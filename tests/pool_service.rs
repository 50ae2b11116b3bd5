//! Integration tests for the resident worker pool and job service.
//!
//! The central claims under test:
//!
//! * **Reuse is invisible** — N sequential jobs on one `WorkerPool` produce
//!   results identical to N fresh one-shot `run_parallel` runs, with
//!   per-job `pushes == pops` (each job's own termination detector keeps
//!   its accounting from leaking across jobs);
//! * **Workers are resident** — a pool serving ≥ 1000 route queries spawns
//!   its threads exactly once (the acceptance criterion's "zero thread
//!   respawns", asserted via `PoolStats::threads_spawned`);
//! * **The service front door behaves** — FIFO admission from many client
//!   threads, correct results under concurrency on every scheduler family,
//!   graceful drain on shutdown;
//! * **Queries are snapshot-isolated** — over a `LiveGraph` with a
//!   concurrent updater, every answer is exact on the version it pinned;
//! * **Gangs are invisible except for speed** — N jobs submitted across C
//!   client threads onto G gangs produce exactly the answers of N
//!   sequential runs, with `submitted == completed` and per-job (hence
//!   per-gang) `pushes == pops`: no task ever leaks across gangs;
//! * **Panics are contained** — a deliberately panicking job resolves its
//!   own ticket to `Err(JobError::Lost)` and leaves other clients' jobs (and the
//!   service) intact, and a job is classified by its own return or unwind
//!   alone — a typed `JobError` payload, or `Lost`;
//! * **A job is one gang** — a job runs on exactly one gang's workers and
//!   leaves every other gang free for the next caller.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use common::hang_guard;
use proptest::prelude::*;

use smq_repro::algos::astar::AstarWorkload;
use smq_repro::algos::cc::CcWorkload;
use smq_repro::algos::kcore::KCoreWorkload;
use smq_repro::algos::sssp::SsspWorkload;
use smq_repro::algos::{astar, engine, RouteQueryEngine};
use smq_repro::core::{Scheduler, Task};
use smq_repro::graph::generators::{road_network, uniform_random, RoadNetworkParams};
use smq_repro::graph::{GraphUpdate, LiveGraph};
use smq_repro::multiqueue::{MultiQueue, MultiQueueConfig};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::pool::{
    JobError, JobService, PoolConfig, PoolJob, ServiceConfig, TaskOutcome, WorkerPool,
};
use smq_repro::smq::{HeapSmq, SkipListSmq, SmqConfig};

fn smq_pool(threads: usize, seed: u64) -> WorkerPool {
    WorkerPool::new(
        HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed)),
        PoolConfig::new(threads),
    )
}

fn smq_gang_pool(gangs: usize, gang_size: usize, seed: u64) -> WorkerPool {
    WorkerPool::new_partitioned(
        move |g| {
            HeapSmq::<Task>::new(
                SmqConfig::default_for_threads(gang_size).with_seed(seed + g as u64),
            )
        },
        PoolConfig::partitioned(gangs, gang_size),
    )
}

proptest! {
    /// N sequential jobs on one pool == N fresh one-shot runs, across
    /// random graphs and mixed workloads, with conserved per-job tasks.
    #[test]
    fn pool_reuse_matches_fresh_runs(
        nodes in 16u32..80,
        edge_factor in 2u64..5,
        threads in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        hang_guard(move || {
            let graph = uniform_random(nodes, u64::from(nodes) * edge_factor, 200, seed);
            let pool = smq_pool(threads, seed);

            // Alternate workload types across the job stream so consecutive
            // jobs differ — the harder case for per-job isolation.
            for job in 0..6 {
                let (pooled, fresh) = match job % 3 {
                    0 => {
                        let workload = SsspWorkload::new(&graph, 0);
                        let pooled = engine::run_on_pool(&workload, &pool);
                        let fresh_workload = SsspWorkload::new(&graph, 0);
                        let scheduler =
                            HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed));
                        let fresh = engine::run_parallel(&fresh_workload, &scheduler, threads);
                        prop_assert_eq!(&pooled.output, &fresh.output, "SSSP diverged on job {}", job);
                        (pooled.result, fresh.result)
                    }
                    1 => {
                        let workload = CcWorkload::new(&graph);
                        let pooled = engine::run_on_pool(&workload, &pool);
                        let fresh_workload = CcWorkload::new(&graph);
                        let scheduler =
                            HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed));
                        let fresh = engine::run_parallel(&fresh_workload, &scheduler, threads);
                        prop_assert_eq!(&pooled.output, &fresh.output, "CC diverged on job {}", job);
                        (pooled.result, fresh.result)
                    }
                    _ => {
                        let workload = KCoreWorkload::new(&graph);
                        let pooled = engine::run_on_pool(&workload, &pool);
                        let fresh_workload = KCoreWorkload::new(&graph);
                        let scheduler =
                            HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed));
                        let fresh = engine::run_parallel(&fresh_workload, &scheduler, threads);
                        prop_assert_eq!(&pooled.output, &fresh.output, "k-core diverged on job {}", job);
                        (pooled.result, fresh.result)
                    }
                };
                // Per-job conservation: everything pushed in THIS job was popped
                // in THIS job — no cross-job task leakage through the resident
                // scheduler or the reused termination detector.
                prop_assert_eq!(
                    pooled.metrics.total.pushes,
                    pooled.metrics.total.pops,
                    "job {} leaked tasks across the job boundary",
                    job
                );
                prop_assert_eq!(
                    pooled.metrics.total.pops,
                    pooled.metrics.tasks_executed,
                    "job {} pop/execution mismatch",
                    job
                );
                prop_assert_eq!(
                    pooled.useful_tasks + pooled.wasted_tasks,
                    pooled.metrics.tasks_executed
                );
                // The pooled job settles the same useful work as the fresh run
                // (useful counts are deterministic for these exact workloads'
                // final states only; totals may differ by relaxation — compare
                // only what is schedule-independent).
                prop_assert!(pooled.useful_tasks > 0 || fresh.useful_tasks == pooled.useful_tasks);
            }

            let stats = pool.stats();
            prop_assert_eq!(stats.jobs_completed, 6);
            prop_assert_eq!(stats.threads_spawned, threads as u64, "workers respawned");
        });
    }
}

/// The acceptance criterion: one `WorkerPool` serves ≥ 1000 consecutive
/// point-to-point A* query jobs, every answer matching a one-shot run,
/// with zero thread respawns.
#[test]
fn one_pool_serves_a_thousand_route_queries() {
    hang_guard(|| {
        let graph = Arc::new(road_network(RoadNetworkParams {
            width: 16,
            height: 16,
            removal_percent: 12,
            seed: 77,
        }));
        let n = graph.num_nodes() as u32;
        let engine = RouteQueryEngine::new(Arc::clone(&graph));
        let pool = smq_pool(2, 5);

        for i in 0..1_000u64 {
            let source = ((i * 37) % u64::from(n)) as u32;
            let target = ((i * 101 + 13) % u64::from(n)) as u32;
            let answer = engine.query(source, target, &pool);
            // One-shot reference: the workload the engine replaces.
            let (expected, _) = astar::sequential(&graph, source, target);
            assert_eq!(
                answer.distance, expected,
                "query {i} ({source}->{target}) diverged from the one-shot run"
            );
            // Per-query conservation through the resident scheduler.
            assert_eq!(
                answer.result.metrics.total.pushes, answer.result.metrics.total.pops,
                "query {i} leaked tasks"
            );
        }

        let stats = pool.stats();
        assert_eq!(stats.jobs_completed, 1_000);
        assert_eq!(
            stats.threads_spawned, 2,
            "the pool must never spawn threads after construction"
        );
        assert_eq!(
            stats.handles_created, 2_000,
            "each of the 2 workers makes one scheduler handle per job"
        );
        assert_eq!(engine.queries_served(), 1_000);
    });
}

/// The 1000-query acceptance run again, at batch granularity 8: identical
/// answers, identical residency guarantees, and the native batch paths
/// demonstrably in use.
#[test]
fn batched_pool_serves_route_queries_exactly() {
    hang_guard(|| {
        let graph = Arc::new(road_network(RoadNetworkParams {
            width: 14,
            height: 14,
            removal_percent: 12,
            seed: 78,
        }));
        let n = graph.num_nodes() as u32;
        let engine = RouteQueryEngine::new(Arc::clone(&graph));
        let pool = WorkerPool::new(
            HeapSmq::<Task>::new(SmqConfig::default_for_threads(2).with_seed(6)),
            PoolConfig::new(2).with_batch(8),
        );

        let mut batched_flushes = 0u64;
        for i in 0..300u64 {
            let source = ((i * 41) % u64::from(n)) as u32;
            let target = ((i * 89 + 7) % u64::from(n)) as u32;
            let answer = engine.query(source, target, &pool);
            let (expected, _) = astar::sequential(&graph, source, target);
            assert_eq!(answer.distance, expected, "batched query {i} diverged");
            assert_eq!(
                answer.result.metrics.total.pushes, answer.result.metrics.total.pops,
                "batched query {i} leaked tasks"
            );
            batched_flushes += answer.result.metrics.total.batch_flushes;
        }
        assert!(
            batched_flushes > 0,
            "batch 8 queries must exercise the native push_batch path"
        );
        let stats = pool.stats();
        assert_eq!(stats.threads_spawned, 2);
        assert_eq!(stats.handles_created, 600, "one handle per worker per job");
    });
}

proptest! {
    /// One A* kernel, three ways in: on random road grids a pooled query
    /// (epoch-stamped lane labels, OBIM pool), the one-shot workload (dense
    /// labels, Multi-Queue) and `astar::sequential` agree — unreachable
    /// targets included, which the two label formats encode differently.
    #[test]
    fn pooled_queries_match_one_shot_parallel_astar(
        width in 5u32..15,
        height in 5u32..15,
        removal_percent in 0u32..30,
        seed in 0u64..1_000_000,
    ) {
        hang_guard(move || {
            let graph = Arc::new(road_network(RoadNetworkParams {
                width,
                height,
                removal_percent,
                seed,
            }));
            let n = graph.num_nodes() as u32;
            let engine = RouteQueryEngine::new(Arc::clone(&graph));
            let pool = WorkerPool::new(
                Obim::<Task>::new(ObimConfig::obim(2, 8, 16)),
                PoolConfig::new(2),
            );
            for i in 0..6u32 {
                let source = (i * 19 + seed as u32) % n;
                let target = (i * 53 + 5) % n;
                let pooled = engine.query(source, target, &pool);
                let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2).with_seed(9));
                let one_shot =
                    engine::run_parallel(&AstarWorkload::new(&*graph, source, target), &mq, 2);
                let (sequential, _) = astar::sequential(&*graph, source, target);
                prop_assert_eq!(pooled.distance, sequential);
                prop_assert_eq!(one_shot.output, sequential);
            }
        });
    }
}

/// One case of `job_service_serves_concurrent_clients_correctly`: three
/// clients push 120 route queries through a `JobService` over `gangs`
/// gangs of `gang_size` workers, each gang on its own `make(gang_size,
/// gang)` scheduler.
fn serve_concurrent_clients<S>(
    family: &str,
    gangs: usize,
    gang_size: usize,
    make: impl Fn(usize, u64) -> S + Send + Sync + 'static,
) where
    S: Scheduler<Task> + Send + Sync + 'static,
{
    let case = format!("{family} on {gangs} x {gang_size}");
    let graph = Arc::new(road_network(RoadNetworkParams {
        width: 12,
        height: 12,
        removal_percent: 10,
        seed: 21,
    }));
    let n = graph.num_nodes() as u32;
    let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), gangs));
    let service = Arc::new(JobService::new(
        WorkerPool::new_partitioned(
            move |g| make(gang_size, g as u64),
            PoolConfig::partitioned(gangs, gang_size),
        ),
        ServiceConfig { queue_capacity: 8 },
    ));

    std::thread::scope(|scope| {
        for client in 0..3u32 {
            let service = Arc::clone(&service);
            let engine = Arc::clone(&engine);
            let graph = Arc::clone(&graph);
            let case = &case;
            scope.spawn(move || {
                for i in 0..40u32 {
                    let source = (client * 47 + i * 7) % n;
                    let target = (client * 31 + i * 11 + 1) % n;
                    let engine = Arc::clone(&engine);
                    let ticket = service
                        .submit(move |pool| engine.query(source, target, pool))
                        .expect("open service accepts jobs");
                    let done = ticket.wait().expect("query job completed");
                    let (expected, _) = astar::sequential(&graph, source, target);
                    assert_eq!(
                        done.output.distance, expected,
                        "{case}: query {source}->{target}"
                    );
                }
            });
        }
    });

    let service = Arc::into_inner(service).expect("clients joined");
    let pool_stats = service.pool().stats();
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 120, "{case}");
    assert_eq!(stats.completed, 120, "{case}");
    assert_eq!(stats.failed, 0, "{case}");
    assert_eq!(pool_stats.jobs_completed, 120, "{case}");
    assert_eq!(
        pool_stats.threads_spawned,
        (gangs * gang_size) as u64,
        "{case}: workers are parked between jobs, never respawned"
    );
}

/// Service-level FIFO + concurrency: many clients, every job completes
/// with a correct result, stats reconcile, graceful shutdown drains — for
/// every scheduler family, as one two-worker gang and as two one-worker
/// gangs.
#[test]
fn job_service_serves_concurrent_clients_correctly() {
    hang_guard(|| {
        for (gangs, gang_size) in [(1, 2), (2, 1)] {
            serve_concurrent_clients("HeapSmq", gangs, gang_size, |size, g| {
                HeapSmq::<Task>::new(SmqConfig::default_for_threads(size).with_seed(8 + g))
            });
            serve_concurrent_clients("SkipListSmq", gangs, gang_size, |size, g| {
                SkipListSmq::<Task>::new(SmqConfig::default_for_threads(size).with_seed(8 + g))
            });
            serve_concurrent_clients("MultiQueue", gangs, gang_size, |size, g| {
                MultiQueue::<Task>::new(MultiQueueConfig::classic(size).with_seed(8 + g))
            });
            serve_concurrent_clients("OBIM", gangs, gang_size, |size, _| {
                Obim::<Task>::new(ObimConfig::obim(size, 10, 32))
            });
            serve_concurrent_clients("PMOD", gangs, gang_size, |size, _| {
                Obim::<Task>::new(ObimConfig::pmod(size, 10, 32))
            });
        }
    });
}

/// One mode of `pinned_queries_stay_exact_beside_a_live_updater`: two
/// clients push 80 `query_pinned` jobs through a `JobService` over a
/// `LiveGraph`, beside an updater thread when `updating`.  Returns the
/// newest version any answer was served from and the head version at the
/// end.
fn serve_pinned_queries(updating: bool) -> (u64, u64) {
    let base = Arc::new(road_network(RoadNetworkParams {
        width: 12,
        height: 12,
        removal_percent: 10,
        seed: 33,
    }));
    let n = base.num_nodes() as u32;
    let live = Arc::new(LiveGraph::new(Arc::clone(&base)));
    let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&live), 2));
    let service = Arc::new(JobService::new(
        smq_gang_pool(2, 1, 33),
        ServiceConfig { queue_capacity: 8 },
    ));
    let clients = 2u32;
    // The updater publishes once before it lets the clients start, so a
    // version past the first is pinned on any interleaving.
    let first_publish = Barrier::new(clients as usize + usize::from(updating));
    let stop = AtomicBool::new(false);

    let newest_served = std::thread::scope(|scope| {
        if updating {
            scope.spawn(|| {
                for round in 0u64.. {
                    // Always scaled up from the *base* weights, so the A*
                    // heuristic stays admissible on every published version.
                    live.publish(&GraphUpdate::random_slowdowns(&*base, 16, round, 8));
                    if round == 0 {
                        first_publish.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (service, engine) = (Arc::clone(&service), Arc::clone(&engine));
                let first_publish = &first_publish;
                scope.spawn(move || {
                    first_publish.wait();
                    let mut newest = 0u64;
                    for i in 0..40u32 {
                        let source = (client * 53 + i * 13) % n;
                        let target = (client * 29 + i * 17 + 1) % n;
                        let engine = Arc::clone(&engine);
                        let ticket = service
                            .submit(move |pool| engine.query_pinned(source, target, pool))
                            .expect("open service accepts jobs");
                        let done = ticket.wait().expect("query job completed");
                        let (answer, view) = &done.output;
                        let (expected, _) = astar::sequential(view, source, target);
                        assert_eq!(
                            answer.distance,
                            expected,
                            "query {source}->{target} diverged from sequential A* on its \
                             pinned snapshot (version {})",
                            view.version()
                        );
                        assert_eq!(answer.version, view.version());
                        newest = newest.max(answer.version);
                    }
                    newest
                })
            })
            .collect();
        // Stop the updater before a failed client's panic is re-raised, or
        // the scope would wait on it forever.
        let served: Vec<_> = handles.into_iter().map(|client| client.join()).collect();
        stop.store(true, Ordering::Relaxed);
        served
            .into_iter()
            .map(|newest| newest.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .max()
            .expect("at least one client")
    });

    let stats = Arc::into_inner(service).expect("clients joined").shutdown();
    assert_eq!(stats.completed, 80);
    assert_eq!(stats.failed, 0, "no query job may be lost");
    (newest_served, live.current_version())
}

/// Snapshot isolation through the service: clients submit `query_pinned`
/// over a `LiveGraph` while an updater publishes road slowdowns.  Every
/// answer must equal sequential A* on the snapshot the query pinned — not
/// on the moving head — and carry that snapshot's version; with the
/// updater running some answer comes from a version past the first, and
/// without it every answer comes from version 1.
#[test]
fn pinned_queries_stay_exact_beside_a_live_updater() {
    hang_guard(|| {
        let (newest_served, head) = serve_pinned_queries(true);
        assert!(newest_served > 1, "no query saw a published update");
        assert!(head >= newest_served);
        assert_eq!(serve_pinned_queries(false), (1, 1), "nothing was published");
    });
}

proptest! {
    /// The concurrent-gang property: N route queries submitted across C
    /// client threads onto a G-gang pool produce exactly the answers N
    /// sequential runs would, with `submitted == completed` and per-job
    /// `pushes == pops` — since each job's metrics slice covers exactly the
    /// gang it ran on, the balance also proves no task leaked across gangs.
    #[test]
    fn concurrent_gang_jobs_match_sequential_runs(
        width in 6u32..12,
        gangs in 1usize..4,
        gang_size in 1usize..3,
        clients in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        hang_guard(move || {
            let graph = Arc::new(road_network(RoadNetworkParams {
                width,
                height: width,
                removal_percent: 10,
                seed,
            }));
            let n = graph.num_nodes() as u32;
            let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), gangs));
            let service = Arc::new(JobService::new(
                smq_gang_pool(gangs, gang_size, seed),
                ServiceConfig {
                    queue_capacity: 8,
                },
            ));

            let per_client = 8u32;
            std::thread::scope(|scope| {
                for client in 0..clients as u32 {
                    let service = Arc::clone(&service);
                    let engine = Arc::clone(&engine);
                    let graph = Arc::clone(&graph);
                    scope.spawn(move || {
                        for i in 0..per_client {
                            let source = (client * 131 + i * 17 + (seed as u32 % 7)) % n;
                            let target = (client * 37 + i * 43 + 1) % n;
                            let engine = Arc::clone(&engine);
                            let ticket = service
                                .submit(move |pool| engine.query(source, target, pool))
                                .expect("open service accepts jobs");
                            let done = ticket.wait().expect("no job may be lost");
                            // Same output as a sequential run of the same query.
                            let (expected, _) = astar::sequential(&graph, source, target);
                            assert_eq!(
                                done.output.distance, expected,
                                "query {source}->{target} diverged under {gangs} gangs"
                            );
                            // Per-gang task conservation: everything this job
                            // pushed into its gang's scheduler was popped by it.
                            assert_eq!(
                                done.output.result.metrics.total.pushes,
                                done.output.result.metrics.total.pops,
                                "job leaked tasks across gangs"
                            );
                            assert_eq!(
                                done.output.result.metrics.threads,
                                gang_size,
                                "a query job must occupy exactly one gang"
                            );
                        }
                    });
                }
            });

            let service = Arc::into_inner(service).expect("clients joined");
            let pool_stats = service.pool().stats();
            let stats = service.shutdown();
            let total = (clients as u32 * per_client) as u64;
            prop_assert_eq!(stats.submitted, total);
            prop_assert_eq!(stats.completed, total, "submitted == completed");
            prop_assert_eq!(stats.failed, 0);
            prop_assert_eq!(pool_stats.jobs_completed, total);
            prop_assert_eq!(pool_stats.threads_spawned, (gangs * gang_size) as u64);
            prop_assert_eq!(pool_stats.gangs_poisoned, 0);
        });
    }
}

/// A job whose `process` panics on its only task.
struct PanickingJob;

impl PoolJob for PanickingJob {
    fn seed_tasks(&self) -> Vec<Task> {
        vec![Task::new(0, 0)]
    }

    fn process(&self, _t: Task, _push: &mut dyn FnMut(Task)) -> TaskOutcome {
        panic!("intentional integration-test job panic");
    }
}

/// The `JobTicket::wait` regression: a deliberately panicking job must
/// resolve to `Err(JobError::Lost)` for its own client — and a second client of
/// the long-lived service must also get a `Result` (never a panic), `Ok`
/// while live gangs remain, `Err` once the pool has none left.
#[test]
fn panicking_job_resolves_tickets_instead_of_panicking_clients() {
    hang_guard(|| {
        // Two gangs: the panic burns one (the factory-built pool lazily
        // respawns it), the second client's job still runs.
        let graph = Arc::new(road_network(RoadNetworkParams {
            width: 8,
            height: 8,
            removal_percent: 10,
            seed: 11,
        }));
        let n = graph.num_nodes() as u32;
        let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), 2));
        let service = JobService::new(smq_gang_pool(2, 1, 41), ServiceConfig { queue_capacity: 4 });

        let bad = service
            .submit(|pool| {
                pool.run_job(&PanickingJob).expect("fails by panicking");
            })
            .expect("submit panicking job");
        assert!(
            bad.wait().is_err(),
            "the panicking job's own ticket must be Err(JobError::Lost), not a client panic"
        );

        // Second client on the surviving gang: plain Ok.
        let second_engine = Arc::clone(&engine);
        let good = service
            .submit(move |pool| second_engine.query(0, n - 1, pool))
            .expect("service still accepts jobs");
        let done = good
            .wait()
            .expect("surviving gang serves the second client");
        let (expected, _) = astar::sequential(&graph, 0, n - 1);
        assert_eq!(done.output.distance, expected);

        let pool_stats = service.pool().stats();
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed + stats.failed, stats.submitted);
        assert_eq!(pool_stats.gangs_poisoned, 1);
        assert_eq!(
            pool_stats.gangs_respawned, 1,
            "the factory-built pool must lazily rebuild the poisoned gang"
        );
    });
}

/// Same regression on a single-gang pool **without** a respawn factory:
/// with no live gang left, later clients get the typed
/// `Err(JobError::NoCapacity)` — still never a panic out of `wait`.
#[test]
fn fully_poisoned_service_fails_jobs_gracefully() {
    hang_guard(|| {
        let service = JobService::new(smq_pool(1, 13), ServiceConfig { queue_capacity: 4 });
        let bad = service
            .submit(|pool| {
                pool.run_job(&PanickingJob).expect("fails by panicking");
            })
            .expect("submit panicking job");
        assert_eq!(bad.wait().map(|c| c.output), Err(JobError::Lost));

        // The only gang is gone: the second client's job cannot run, but its
        // ticket still resolves to Err instead of panicking the client thread.
        let second = service
            .submit(|pool| {
                // Raise the pool's typed error the way `run_on_pool` does.
                pool.run_job(&PanickingJob)
                    .unwrap_or_else(|error| std::panic::panic_any(error));
            })
            .expect("admission is still open");
        assert_eq!(
            second.wait().map(|c| c.output),
            Err(JobError::NoCapacity),
            "second client must see the typed NoCapacity error, not a panic"
        );

        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.no_capacity, 1);
        assert_eq!(stats.completed, 0);
    });
}

/// Regression: the service classifies a job by its own return or unwind,
/// never by a pool error the job already handled.  On a dead single-gang
/// pool the second job sees `run_job` fail with `NoCapacity`, handles it,
/// then panics for a reason of its own: that is a lost job, not a capacity
/// failure.
#[test]
fn a_handled_pool_error_does_not_classify_a_later_panic() {
    hang_guard(|| {
        let service = JobService::new(smq_pool(1, 13), ServiceConfig { queue_capacity: 4 });
        let poison = service
            .submit(|pool| {
                pool.run_job(&PanickingJob).expect("fails by panicking");
            })
            .expect("submit panicking job");
        assert_eq!(poison.wait().map(|c| c.output), Err(JobError::Lost));

        let handled = service
            .submit(|pool| {
                assert_eq!(
                    pool.run_job(&PanickingJob).map(|_| ()),
                    Err(JobError::NoCapacity)
                );
                panic!("the job's own failure, after it handled the pool's");
            })
            .expect("admission is still open");
        assert_eq!(handled.wait().map(|c| c.output), Err(JobError::Lost));

        let stats = service.shutdown();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.no_capacity, 0);
    });
}

/// Holds its gang until `gate` opens, then finishes — or panics, if
/// `panics`; flags `started` so the test knows the gang is claimed.
struct GateJob {
    started: Arc<AtomicBool>,
    gate: Arc<AtomicBool>,
    panics: bool,
}

impl PoolJob for GateJob {
    fn seed_tasks(&self) -> Vec<Task> {
        vec![Task::new(0, 0)]
    }

    fn process(&self, _t: Task, _p: &mut dyn FnMut(Task)) -> TaskOutcome {
        self.started.store(true, Ordering::Release);
        while !self.gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        assert!(!self.panics, "intentional gated job panic");
        TaskOutcome::Useful
    }
}

struct OneTask;

impl PoolJob for OneTask {
    fn seed_tasks(&self) -> Vec<Task> {
        vec![Task::new(0, 0)]
    }

    fn process(&self, _t: Task, _p: &mut dyn FnMut(Task)) -> TaskOutcome {
        TaskOutcome::Useful
    }
}

/// The job-is-one-gang contract: on a 2 × 2 pool a job's metrics cover
/// exactly one gang's two workers, and while one job is held inside
/// `process` a second `run_job` completes on the other gang.
#[test]
fn a_job_occupies_exactly_one_gang() {
    hang_guard(|| {
        let pool = smq_gang_pool(2, 2, 71);
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let held = GateJob {
            started: Arc::clone(&started),
            gate: Arc::clone(&gate),
            panics: false,
        };
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| pool.run_job(&held));
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // Would wait for the held gang forever if a job took the fleet.
            let free = pool.run_job(&OneTask).expect("the other gang is free");
            assert_eq!(
                free.metrics.threads, 2,
                "one gang's workers, not the fleet's"
            );
            assert_eq!(free.metrics.tasks_executed, 1);

            gate.store(true, Ordering::Release);
            let held = holder.join().expect("holder thread").expect("gate job");
            assert_eq!(held.metrics.threads, 2);
        });
        assert_eq!(pool.stats().jobs_completed, 2);
        assert_eq!(pool.stats().threads_spawned, 4);
    });
}

/// The gang allocator's poisoned-gang edge (regression): a claim queued while
/// every gang is busy must be woken when one of them is poisoned, respawn
/// it, and run there — it completes while the other job still holds its
/// gang, instead of starving behind the dead slot.
#[test]
fn waiting_claim_reroutes_around_a_poisoned_gang() {
    hang_guard(|| {
        let pool = smq_gang_pool(2, 1, 61);
        let hold_gate = Arc::new(AtomicBool::new(false));
        let panic_gate = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            // Jobs 1 and 2 occupy both gangs; job 2 will panic once told to.
            let [holder, poisoner] =
                [(&hold_gate, false), (&panic_gate, true)].map(|(gate, panics)| {
                    let started = Arc::new(AtomicBool::new(false));
                    let job = GateJob {
                        started: Arc::clone(&started),
                        gate: Arc::clone(gate),
                        panics,
                    };
                    let pool = &pool;
                    let thread = scope.spawn(move || pool.run_job(&job));
                    while !started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    thread
                });

            // Job 3 arrives with nothing free and nothing dead: it queues.  (The
            // pause only makes that the usual interleaving; if job 3 claims
            // after the poison instead, it still must land on the rebuilt gang.)
            let third = scope.spawn(|| pool.run_job(&OneTask));
            std::thread::sleep(std::time::Duration::from_millis(10));

            panic_gate.store(true, Ordering::Release);
            let out = third.join().expect("third-job thread");
            assert!(
                out.is_ok(),
                "the waiting claim must respawn the dead gang and run there"
            );
            assert!(
                !hold_gate.load(Ordering::Acquire),
                "job 1 still holds the other gang"
            );
            assert!(poisoner.join().expect("job 2 thread").is_err());
            assert_eq!(pool.stats().gangs_respawned, 1);

            hold_gate.store(true, Ordering::Release);
            holder.join().expect("job 1 thread").expect("gate job");
        });
    });
}
