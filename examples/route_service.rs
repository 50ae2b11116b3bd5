//! A miniature route-planning service over a **live** road graph: one
//! resident scheduler fleet, partitioned into gangs, serving a stream of
//! point-to-point queries from several clients concurrently — while an
//! updater thread publishes traffic slowdowns onto the shared graph.
//!
//! Run with: `cargo run --release --example route_service`
//!
//! The pieces, bottom to top:
//! * a shared **versioned** road graph (`LiveGraph` over an `Arc<CsrGraph>`
//!   base): writers batch-publish weight updates, readers pin immutable
//!   snapshots, compaction folds accumulated deltas back into CSR,
//! * a [`RouteQueryEngine`] generic over the graph source, with
//!   epoch-stamped g-score slots and one *lane* per concurrent query
//!   (per-query cost is O(touched vertices), no per-query allocation or
//!   reset pass); every query pins one version for its whole lifetime,
//! * a [`WorkerPool`] that spawned its SMQ worker fleet exactly once,
//!   partitioned into gangs so each small query occupies one gang while
//!   the others serve different queries,
//! * a [`JobService`] bounded FIFO queue that many client threads submit
//!   into, each getting a ticket with per-job latency measurements (a
//!   `Result`: a panicking job loses only its own ticket, not the
//!   service).
//!
//! Every 16th answer is re-derived with sequential A* **on the snapshot
//! the query pinned** — exactness under snapshot isolation, not against
//! the moving head.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use smq_repro::algos::{astar, RouteQueryEngine};
use smq_repro::core::Task;
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::graph::{GraphUpdate, GraphView, LiveGraph};
use smq_repro::pool::{JobService, PoolConfig, ServiceConfig, WorkerPool};
use smq_repro::smq::{HeapSmq, SmqConfig};

fn main() {
    let gangs = 2;
    let gang_size = 2;
    let threads = gangs * gang_size;
    let clients = 3;
    let queries_per_client = 200;

    let base = Arc::new(road_network(RoadNetworkParams {
        width: 64,
        height: 64,
        removal_percent: 10,
        seed: 2026,
    }));
    let n = base.num_nodes() as u32;
    println!(
        "road graph: {} vertices, {} edges (live, versioned)",
        base.num_nodes(),
        base.num_edges()
    );

    let live = Arc::new(LiveGraph::new(Arc::clone(&base)));
    let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&live), gangs));
    let pool = WorkerPool::new_partitioned(
        move |g| {
            HeapSmq::<Task>::new(SmqConfig::default_for_threads(gang_size).with_seed(g as u64 + 1))
        },
        PoolConfig::partitioned(gangs, gang_size),
    );
    let service = Arc::new(JobService::new(pool, ServiceConfig { queue_capacity: 16 }));

    let stop = AtomicBool::new(false);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        // Traffic: batches of weight slowdowns (always scaled up from the
        // base weights, so the A* heuristic stays admissible on every
        // version) published while the queries run.
        let updater = {
            let live = Arc::clone(&live);
            let base = Arc::clone(&base);
            let stop = &stop;
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let updates = GraphUpdate::random_slowdowns(&*base, 32, 2026 + round, 6);
                    live.publish(&updates);
                    round += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                round
            })
        };
        let mut handles = Vec::new();
        for client in 0..clients {
            let service = Arc::clone(&service);
            let engine = Arc::clone(&engine);
            handles.push(scope.spawn(move || {
                let mut worst = std::time::Duration::ZERO;
                let mut max_version = 0u64;
                for i in 0..queries_per_client {
                    let source = (client * 7919 + i * 131) as u32 % n;
                    let target = (client * 104729 + i * 337 + 1) as u32 % n;
                    let engine = Arc::clone(&engine);
                    let ticket = service
                        .submit(move |pool| engine.query_pinned(source, target, pool))
                        .expect("service open");
                    let done = ticket.wait().expect("query job completed");
                    let (answer, view) = &done.output;
                    max_version = max_version.max(answer.version);
                    if i % 16 == 0 {
                        // Spot-check on the pinned snapshot: the version the
                        // query actually ran against, not the moving head.
                        let (expected, _) = astar::sequential(view, source, target);
                        assert_eq!(answer.distance, expected);
                    }
                    worst = worst.max(done.total_latency());
                }
                println!(
                    "client {client}: {queries_per_client} routes, worst latency {worst:?}, \
                     newest version served {max_version}"
                );
            }));
        }
        for handle in handles {
            handle.join().expect("client thread");
        }
        stop.store(true, Ordering::Relaxed);
        let rounds = updater.join().expect("updater thread");
        println!(
            "updater: {rounds} batches published, head at version {}, {} compactions",
            live.current_version(),
            live.compactions()
        );
    });
    let elapsed = started.elapsed();

    let service = Arc::into_inner(service).expect("clients joined");
    let pool_stats = service.pool_stats();
    let stats = service.shutdown();
    let total = clients * queries_per_client;
    println!(
        "served {} queries in {:.2?} ({:.0} queries/sec) on {} resident workers \
         in {} gangs (threads spawned: {} — parked between jobs, never respawned)",
        stats.completed,
        elapsed,
        total as f64 / elapsed.as_secs_f64(),
        threads,
        gangs,
        pool_stats.threads_spawned,
    );
    assert_eq!(stats.completed, total as u64);
    assert_eq!(pool_stats.threads_spawned, threads as u64);
    assert_eq!(pool_stats.gangs_poisoned, 0);
}
