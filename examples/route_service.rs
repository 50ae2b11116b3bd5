//! A route-planning service in one screen: a resident gang pool behind a
//! `JobService`, serving A* route queries over a live road graph while
//! traffic slowdowns are published between rounds.  Every answer is
//! checked against sequential A* on the snapshot its query pinned.
//!
//! Run with: `cargo run --release --example route_service`
//!
//! The repo benchmark's `route_closed` and `route_open_live` workloads are
//! the load generators for this service; this example only shows the API.

use std::sync::Arc;

use smq_repro::algos::{astar, RouteQueryEngine};
use smq_repro::core::Task;
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::graph::{GraphUpdate, LiveGraph};
use smq_repro::pool::{JobService, PoolConfig, ServiceConfig, WorkerPool};
use smq_repro::smq::{HeapSmq, SmqConfig};

fn main() {
    let gangs = 2;
    let params = RoadNetworkParams {
        width: 64,
        height: 64,
        removal_percent: 10,
        seed: 2026,
    };
    let base = Arc::new(road_network(params));
    let n = base.num_nodes() as u64;
    let live = Arc::new(LiveGraph::new(Arc::clone(&base)));
    let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&live), gangs));
    // One-worker gangs: a short route saturates one worker.
    let smq =
        |g: usize| HeapSmq::<Task>::new(SmqConfig::default_for_threads(1).with_seed(g as u64));
    let pool = WorkerPool::new_partitioned(smq, PoolConfig::partitioned(gangs, 1));
    let service = JobService::new(pool, ServiceConfig { queue_capacity: 16 });

    for round in 0..20u64 {
        // Slowdowns only, so the A* heuristic stays admissible.
        live.publish(&GraphUpdate::random_slowdowns(&*base, 32, round, 6));
        let tickets: Vec<_> = (0..16u64)
            .map(|i| {
                let source = ((round * 7_919 + i * 131) % n) as u32;
                let target = ((round * 104_729 + i * 337 + 1) % n) as u32;
                let engine = Arc::clone(&engine);
                let job = move |pool: &WorkerPool| engine.query_pinned(source, target, pool);
                (source, target, service.submit(job).expect("service open"))
            })
            .collect();
        for (source, target, ticket) in tickets {
            let (answer, view) = ticket.wait().expect("query completed").output;
            assert_eq!(answer.distance, astar::sequential(&view, source, target).0);
        }
    }
    let (pool_stats, stats) = (service.pool().stats(), service.shutdown());
    println!(
        "served {} exact routes over {} graph versions on {} gangs ({} threads spawned)",
        stats.completed,
        live.current_version(),
        gangs,
        pool_stats.threads_spawned,
    );
}
