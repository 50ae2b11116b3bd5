//! Chaos suite: the fault-tolerance contract of the job service under
//! randomized, seeded fault storms.  The faults come from a test scheduler,
//! [`Faulty`] (`common/fault.rs`), which wraps each gang's `HeapSmq`: the
//! pool itself has no fault hooks.
//!
//! Clients submit plain route queries (`|pool| engine.query(..)`, no
//! retry) into a service whose gangs have one worker each, so one injected
//! panic poisons exactly one gang and loses exactly the one job running on
//! it; the worker thread survives it.  Properties, over random fault plans × gang counts × client counts:
//!
//! * **No hangs** — every storm runs under [`common::hang_guard`], and
//!   every submitted ticket resolves;
//! * **Typed failures only** — every ticket is `Ok` with an exact answer
//!   (equal to sequential A*) or `Err(JobError::Lost)`; any other outcome
//!   panics the client;
//! * **Capacity recovers** — the pool serves after the storm, and after
//!   `respawn_dead` it is back at its full gang count, on the threads it
//!   started with;
//! * **Every loss is accounted for** — `completed + failed == submitted`,
//!   and `failed == gangs_poisoned == gangs_respawned == panics injected`:
//!   stalls only delay work, and each panic loses one job, no more.
//!
//! One more test covers what one-worker gangs never reach: a panic on a
//! two-worker gang, whose survivor must leave the lost job through the
//! pool's abort flag.

mod common;
#[path = "common/fault.rs"]
mod fault;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::hang_guard;
use fault::{FaultPlan, Faulty};
use proptest::prelude::*;

use smq_repro::algos::{astar, RouteQueryEngine};
use smq_repro::core::Task;
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::graph::CsrGraph;
use smq_repro::pool::{
    JobError, JobService, PoolConfig, PoolJob, ServiceConfig, TaskOutcome, WorkerPool,
};
use smq_repro::smq::{HeapSmq, SmqConfig};

/// A small road graph plus deterministic query pairs and their sequential
/// ground truth.
fn fixture(seed: u64, query_count: usize) -> (Arc<CsrGraph>, Vec<(u32, u32, u64)>) {
    let graph = Arc::new(road_network(RoadNetworkParams {
        width: 8,
        height: 8,
        removal_percent: 10,
        seed: 77,
    }));
    let nodes = graph.num_nodes() as u32;
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let queries = (0..query_count)
        .map(|_| {
            let source = next() % nodes;
            let mut target = next() % nodes;
            if target == source {
                target = (target + 1) % nodes;
            }
            let expected = astar::sequential(&*graph, source, target).0;
            (source, target, expected)
        })
        .collect();
    (graph, queries)
}

/// A pool of `gangs` gangs of `gang_size` workers, each gang's scheduler
/// (rebuilt ones too) a [`Faulty`] `HeapSmq` drawing from `plan`.
fn faulty_pool(gangs: usize, gang_size: usize, seed: u64, plan: &Arc<FaultPlan>) -> WorkerPool {
    let plan = Arc::clone(plan);
    WorkerPool::new_partitioned(
        move |g| {
            let config = SmqConfig::default_for_threads(gang_size).with_seed(seed + g as u64);
            Faulty::new(HeapSmq::<Task>::new(config), Arc::clone(&plan))
        },
        PoolConfig::partitioned(gangs, gang_size),
    )
}

/// Submits one query and waits for it: `true` when it landed exact,
/// `false` when it was lost.  Any other outcome panics the caller.
fn query_once(
    service: &JobService,
    engine: &Arc<RouteQueryEngine>,
    (source, target, expected): (u32, u32, u64),
) -> bool {
    let engine = Arc::clone(engine);
    let ticket = service
        .submit(move |pool| engine.query(source, target, pool))
        .expect("service open while clients run");
    match ticket.wait() {
        Ok(done) => {
            assert_eq!(
                done.output.distance, expected,
                "query {source}->{target} diverged under faults"
            );
            true
        }
        Err(JobError::Lost) => false,
        Err(other) => panic!("query {source}->{target} resolved to {other:?}, not Ok or Lost"),
    }
}

/// One random panic/stall storm over `gangs` one-worker gangs and
/// `clients` client threads; asserts every property of the module docs.
fn storm(
    gangs: usize,
    clients: usize,
    panic_budget: u64,
    push_panic_budget: u64,
    stall_budget: u64,
    seed: u64,
) {
    let (graph, queries) = fixture(seed, 18);
    let engine = Arc::new(RouteQueryEngine::with_lanes(graph, gangs));
    // High per-call rates with small absolute budgets: the storm is violent
    // but bounded, so the run always reaches the recovered steady state.
    // One worker per gang, so one panic poisons exactly one gang.
    let plan = Arc::new(FaultPlan::new(
        seed ^ 0xc4a0,
        (60_000, panic_budget),
        (60_000, push_panic_budget),
        (60_000, stall_budget),
    ));
    let service = JobService::new(
        faulty_pool(gangs, 1, seed, &plan),
        ServiceConfig { queue_capacity: 8 },
    );

    let landed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (service, engine, queries) = (&service, &engine, &queries);
                scope.spawn(move || {
                    (client..queries.len())
                        .step_by(clients)
                        .filter(|&i| query_once(service, engine, queries[i]))
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("no client thread may panic"))
            .sum()
    });

    // The pool still serves: what is left of the panic budgets can lose a
    // few more queries, but one more attempt than it holds must land.
    let spare = panic_budget + push_panic_budget - plan.panics_injected();
    let after = (0..=spare as usize)
        .position(|i| query_once(&service, &engine, queries[i % queries.len()]))
        .expect("the pool must serve once the panic budgets are spent");

    // Lazy respawn only fires on claim, so a gang poisoned by the final job
    // may still be down: rebuild it, then the fleet must be whole.
    service.pool().respawn_dead();
    assert_eq!(
        service.pool().live_gangs(),
        gangs,
        "capacity must recover to the full gang count"
    );
    let pool_stats = service.pool().stats();
    let stats = service.shutdown();

    assert_eq!(
        stats.completed + stats.failed,
        stats.submitted,
        "every accepted job is exact or lost"
    );
    assert_eq!(stats.submitted, (queries.len() + after + 1) as u64);
    assert_eq!(stats.completed, landed + 1, "storm survivors plus one");
    // One worker per gang, no retry: each injected panic poisons exactly
    // one gang and loses exactly the one job on it, and each poisoned gang
    // is rebuilt on the threads it had.
    let panics = plan.panics_injected();
    assert_eq!(stats.failed, panics, "each injected panic loses one job");
    assert_eq!(
        pool_stats.gangs_poisoned, panics,
        "one gang poisoned per panic"
    );
    assert_eq!(
        pool_stats.gangs_respawned, panics,
        "one respawn per poisoned gang"
    );
    assert_eq!(
        pool_stats.threads_spawned, gangs as u64,
        "no thread is respawned"
    );
}

proptest! {
    /// Random panic/stall storms: no hangs, typed failures only, exact
    /// survivors, recovered capacity, one lost job per injected panic.
    #[test]
    fn random_fault_storms_never_hang_and_capacity_recovers(
        gangs in 1usize..4,
        clients in 1usize..4,
        panic_budget in 0u64..4,
        push_panic_budget in 0u64..3,
        stall_budget in 0u64..5,
        seed in 0u64..1_000_000,
    ) {
        hang_guard(move || {
            storm(gangs, clients, panic_budget, push_panic_budget, stall_budget, seed)
        });
    }
}

/// A job of `seeds` tasks that push nothing; it counts what it processed.
struct SeedsJob {
    seeds: u64,
    processed: AtomicU64,
}

impl SeedsJob {
    fn new(seeds: u64) -> Self {
        Self {
            seeds,
            processed: AtomicU64::new(0),
        }
    }
}

impl PoolJob for SeedsJob {
    fn seed_tasks(&self) -> Vec<Task> {
        (0..self.seeds).map(|i| Task::new(i, i)).collect()
    }

    fn process(&self, _task: Task, _push: &mut dyn FnMut(Task)) -> TaskOutcome {
        self.processed.fetch_add(1, Ordering::Relaxed);
        TaskOutcome::Useful
    }
}

/// A push panic on a two-worker gang.  Both workers push their 32 seeds in
/// one batch each, under one plan with a 100 % rate and a budget of one:
/// exactly one of them panics right after its batch, with 4 of its seeds
/// in its stealing buffer and 28 in a queue only it could pop.  Those are
/// stranded, so its sibling can only leave the lost job through the pool's
/// abort flag.  The next claim rebuilds the gang's scheduler, and the same
/// two threads serve an exact job.
#[test]
fn a_push_panic_on_a_two_worker_gang_loses_one_job_and_the_gang_respawns() {
    hang_guard(|| {
        let plan = Arc::new(FaultPlan::new(3, (0, 0), (1_000_000, 1), (0, 0)));
        let pool = faulty_pool(1, 2, 3, &plan);

        let lost = SeedsJob::new(64);
        assert_eq!(pool.run_job(&lost).map(|_| ()), Err(JobError::Lost));
        assert_eq!(plan.panics_injected(), 1);
        assert!(
            lost.processed.load(Ordering::Relaxed) <= 36,
            "28 seeds are stranded"
        );
        assert_eq!(pool.stats().gangs_poisoned, 1);
        assert_eq!(pool.stats().gangs_respawned, 0);

        let exact = SeedsJob::new(64);
        let out = pool.run_job(&exact).expect("the respawned gang serves");
        assert_eq!(out.metrics.tasks_executed, 64);
        assert_eq!(exact.processed.load(Ordering::Relaxed), 64);
        let stats = pool.stats();
        assert_eq!(stats.gangs_poisoned, 1);
        assert_eq!(stats.gangs_respawned, 1);
        assert_eq!(
            stats.threads_spawned, 2,
            "a rebuild keeps the gang's threads"
        );
    });
}
