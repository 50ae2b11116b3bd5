//! Chaos suite: the fault-tolerance contract of the job service under
//! randomized, seeded fault storms (requires `--features fault-inject`).
//!
//! Properties, over random fault plans × gang counts × client counts:
//!
//! * **No hangs** — every submitted ticket resolves: either `Ok` with an
//!   exact answer or a typed [`JobError`], never a blocked client;
//! * **Non-faulted work is exact** — every answer that survives the storm
//!   (including via retry) still equals sequential A*;
//! * **Capacity recovers** — after the storm, the pool is back at its
//!   full gang count, and with gangs of one worker the respawn counter
//!   equals *exactly* the number of injected panics (each panic kills one
//!   worker, which is one whole gang);
//! * **Outcome accounting is total** — `completed + failed + cancelled +
//!   no_capacity == submitted`, and nothing is `failed` unless a panic
//!   was actually injected (stalls only delay, never lose work);
//! * **Deadlines are cooperative, not destructive** — under stall storms
//!   with tight per-job deadlines, tickets resolve `Ok` or
//!   `Err(DeadlineExceeded)`, the gang is never poisoned, and the pool
//!   serves a plain job immediately afterwards.

#![cfg(feature = "fault-inject")]

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use smq_repro::algos::{astar, RouteQueryEngine};
use smq_repro::core::Task;
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::graph::CsrGraph;
use smq_repro::pool::{
    FaultPlan, JobError, JobPolicy, JobService, PoolConfig, ServiceConfig, WorkerPool,
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

/// A gang-partitioned service with **one worker per gang** (so one panic
/// kills exactly one gang) wired with the given fault plan.
fn chaos_service(gangs: usize, seed: u64, plan: FaultPlan) -> JobService {
    let pool = WorkerPool::new_partitioned(
        move |g| HeapSmq::<Task>::new(SmqConfig::default_for_threads(1).with_seed(seed + g as u64)),
        PoolConfig::partitioned(gangs, 1).with_faults(plan),
    );
    JobService::new(pool, ServiceConfig { queue_capacity: 8 })
}

proptest! {
    /// Random panic/stall storms: every ticket resolves, survivors are
    /// exact, capacity recovers to the full gang count, and the respawn
    /// counter matches the injected panics one-for-one.
    #[test]
    fn random_fault_storms_never_hang_and_capacity_recovers(
        gangs in 1usize..4,
        clients in 1usize..4,
        panic_budget in 0u64..4,
        push_panic_budget in 0u64..3,
        stall_budget in 0u64..5,
        seed in 0u64..1_000_000,
    ) {
        let (_graph, queries) = fixture(seed, 18);
        let queries = Arc::new(queries);
        let engine = Arc::new(RouteQueryEngine::with_lanes(
            Arc::clone(&_graph),
            gangs,
        ));
        // High per-task rates with small absolute budgets: the storm is
        // violent but bounded, so the run always reaches the recovered
        // steady state.
        let plan = FaultPlan::new(seed ^ 0xc4a0)
            .with_panic_rate(60_000, panic_budget)
            .with_push_panic_rate(60_000, push_panic_budget)
            .with_stall_rate(60_000, Duration::from_micros(200), stall_budget);
        let service = Arc::new(chaos_service(gangs, seed, plan.clone()));
        // Bounded retry: a lost attempt re-runs the query on a fresh (or
        // respawned) gang.  Queries are idempotent — each runs on its own
        // lane — so retry-on-loss is sound.
        let policy = JobPolicy::default().with_retries(2, Duration::from_micros(100));

        let mut verified_ok = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for client in 0..clients {
                let service = Arc::clone(&service);
                let engine = Arc::clone(&engine);
                let queries = Arc::clone(&queries);
                let policy = policy.clone();
                handles.push(scope.spawn(move || {
                    let mut ok = 0u64;
                    for i in (client..queries.len()).step_by(clients) {
                        let (source, target, expected) = queries[i];
                        let engine = Arc::clone(&engine);
                        let ticket = service
                            .submit_with(policy.clone(), move |pool| {
                                Ok(engine.query(source, target, pool))
                            })
                            .expect("service open while clients run");
                        // The no-hang property: wait() must always return.
                        match ticket.wait() {
                            Ok(done) => {
                                assert_eq!(
                                    done.output.distance, expected,
                                    "query {source}->{target} diverged under faults"
                                );
                                ok += 1;
                            }
                            // Typed failure on this ticket only.  The
                            // exhaustive match is the point: every failure
                            // mode is a named variant, not a panic.
                            Err(
                                JobError::Lost
                                | JobError::NoCapacity
                                | JobError::DeadlineExceeded
                                | JobError::BudgetExceeded,
                            ) => {}
                        }
                    }
                    ok
                }));
            }
            for handle in handles {
                verified_ok += handle.join().expect("no client thread may panic");
            }
        });

        let service = Arc::into_inner(service).expect("clients joined");
        // Recovery: lazy respawn only fires on claim, so a gang poisoned
        // by the final job may still be down — rebuild it, then the fleet
        // must be whole.
        service.pool().respawn_dead();
        prop_assert_eq!(
            service.pool().live_gangs(),
            gangs,
            "capacity must recover to the full gang count"
        );
        let pool_stats = service.pool_stats();
        let stats = service.shutdown();

        prop_assert_eq!(
            stats.completed + stats.failed + stats.cancelled + stats.no_capacity,
            stats.submitted,
            "every accepted job must land in exactly one outcome counter"
        );
        prop_assert_eq!(stats.completed, verified_ok);
        // One worker per gang: every injected panic kills exactly one
        // gang, and every kill must have been matched by one respawn.
        prop_assert_eq!(
            pool_stats.gangs_poisoned,
            plan.panics_injected(),
            "each injected panic must poison exactly one single-worker gang"
        );
        prop_assert_eq!(
            pool_stats.gangs_respawned,
            plan.panics_injected(),
            "each injected panic must be matched by one gang respawn"
        );
        if plan.panics_injected() == 0 {
            // Stalls delay work but may never lose it.
            prop_assert_eq!(stats.failed, 0, "no job may fail without an injected panic");
        }
    }

    /// Stall storms under tight deadlines: tickets resolve `Ok` or
    /// `Err(DeadlineExceeded)` — cancellation is cooperative, so the gang
    /// is never poisoned and the pool serves a plain job right after.
    #[test]
    fn deadlines_under_stall_storms_cancel_cleanly(
        gangs in 1usize..3,
        stall_budget in 4u64..24,
        deadline_us in 30u64..1_500,
        seed in 0u64..1_000_000,
    ) {
        let (_graph, queries) = fixture(seed, 10);
        let engine = Arc::new(RouteQueryEngine::with_lanes(
            Arc::clone(&_graph),
            gangs,
        ));
        // Stalls only: no panics, so `Lost`/`NoCapacity` are impossible
        // and every non-Ok outcome must be the deadline.
        let plan = FaultPlan::new(seed ^ 0x57a1)
            .with_stall_rate(200_000, Duration::from_micros(300), stall_budget);
        let service = chaos_service(gangs, seed, plan);
        let policy = JobPolicy::default().with_timeout(Duration::from_micros(deadline_us));

        let mut cancelled = 0u64;
        for &(source, target, expected) in &queries {
            let engine = Arc::clone(&engine);
            let ticket = service
                .submit_with(policy.clone(), move |pool| {
                    Ok(engine.query(source, target, pool))
                })
                .expect("service open");
            match ticket.wait() {
                Ok(done) => prop_assert_eq!(done.output.distance, expected),
                Err(JobError::DeadlineExceeded) => cancelled += 1,
                Err(other) => prop_assert!(
                    false,
                    "stall-only storm produced {:?}, expected only DeadlineExceeded",
                    other
                ),
            }
        }

        // Cooperative cancellation must not poison: the pool is reusable
        // immediately, with zero respawns.
        prop_assert_eq!(service.pool().live_gangs(), gangs);
        let (source, target, expected) = queries[0];
        let engine = Arc::clone(&engine);
        let after = service
            .submit(move |pool| engine.query(source, target, pool))
            .expect("service open")
            .wait()
            .expect("plain job after the storm");
        prop_assert_eq!(after.output.distance, expected);

        let pool_stats = service.pool_stats();
        let stats = service.shutdown();
        prop_assert_eq!(pool_stats.gangs_poisoned, 0);
        prop_assert_eq!(pool_stats.gangs_respawned, 0);
        prop_assert_eq!(stats.cancelled, cancelled);
        prop_assert_eq!(stats.failed, 0);
    }
}
