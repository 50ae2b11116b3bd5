//! Serving throughput of the resident job service: one scheduler fleet,
//! thousands of point-to-point A* route queries, **queries/sec and job
//! latency** as the reported metrics.
//!
//! This is the service-mode companion to the paper's figures: instead of
//! one algorithm run per fleet, a `JobService` (bounded FIFO queue + one
//! resident `WorkerPool`) executes a stream of independent route queries
//! over one shared road graph, submitted by several closed-loop client
//! threads.  With `--concurrency G` the same total worker count is also
//! run **gang-partitioned**: G gangs of `threads/G` workers each, G
//! dispatcher threads, so G queries execute at once — the jobs/sec column
//! then reports how job-level parallelism scales for small queries (whose
//! quiescence phase idles most of an unpartitioned fleet).  For every
//! scheduler family and gang count the binary reports jobs/sec, p50/p99
//! job latency (queue wait + service time), mean tasks per query, and the
//! pool's thread-spawn counter (which must equal the worker count:
//! workers are parked between jobs, never respawned).  Every answer is
//! checked against sequential A*, so the numbers are for *correct*
//! serving.
//!
//! Every configuration also sweeps the hot-path **batch size** (`--batch
//! N` pins `[1, N]`; the default sweeps `[1, 8, 32]`): the `Batch` and
//! `Locks/op` columns report how batching amortizes scheduler
//! synchronization, and at ci scale the aggregate batched jobs/sec is
//! asserted against the batch-1 baseline (noise-tolerant floor).
//!
//! Observability: `--metrics-json <path>` enables telemetry for the sweep
//! (phase timing + rank probes) and writes one self-describing JSONL line
//! per row; `--trace <path>` runs a fully instrumented SMQ pass and writes
//! a chrome://tracing JSON file with one lane per worker.  Both exports
//! are validated by re-parsing before the binary exits.  Without either
//! flag the sweep runs with telemetry disabled (the zero-overhead path),
//! and at ci scale an interleaved disabled/enabled comparison asserts the
//! instrumented service stays within 5% of the uninstrumented one.
//!
//! **Dynamic graphs** (`--update-rate` sweep): the same query service is
//! also run over a `LiveGraph` receiving concurrent weight updates — an
//! updater thread publishes batches of road slowdowns at a target
//! updates/sec rate while the closed-loop clients keep querying.  Each
//! query pins one published version for its whole lifetime
//! (`RouteQueryEngine::query_pinned`) and is verified against sequential
//! A* **on that pinned snapshot** — not the moving head — so the reported
//! queries/sec vs updates/sec trade-off is for exact answers under
//! snapshot isolation.  At ci scale the sweep asserts that updates really
//! happened (achieved updates/sec > 0, versions advanced) while every
//! answer stayed exact.
//!
//! **Fault tolerance** (`--fault-rate P` / `--deadline-ms D`): the same
//! query stream is run once more through a pool with a seeded
//! deterministic fault plan (worker panics, mid-push panics, stalls at
//! probability `P` per task — needs a build with `--features
//! fault-inject`) and a per-job deadline of `D` ms with retry-on-loss
//! (≤ 3 attempts).  The chaos row reports completed / failed / cancelled
//! / retried counts and the pool's poison/respawn counters next to
//! jobs/sec and p99; every query that survives (including via retry) is
//! still verified against sequential A*, and the run asserts that the
//! fleet recovers to its full gang count once the storm's budgets are
//! exhausted.  `--deadline-ms` alone works on any build.
//!
//! ```sh
//! cargo run --release -p smq-bench --bin service_throughput -- --threads 4 --concurrency 4
//! cargo run --release -p smq-bench --bin service_throughput -- --scale ci --concurrency 2 --batch 8 \
//!     --update-rate 0,2000 --metrics-json /tmp/m.jsonl --trace /tmp/t.json  # CI smoke
//! cargo run --release -p smq-bench --features fault-inject --bin service_throughput -- \
//!     --scale ci --fault-rate 0.05 --deadline-ms 50  # CI chaos smoke
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smq_algos::{astar, RouteQueryEngine};
use smq_bench::report::f2;
use smq_bench::{BenchArgs, Scale, Table};
use smq_core::{OpStats, Scheduler, Task};
use smq_graph::generators::{road_network, RoadNetworkParams};
use smq_graph::{CsrGraph, GraphUpdate, GraphView, LiveGraph};
use smq_multiqueue::{MultiQueue, MultiQueueConfig};
use smq_obim::{Obim, ObimConfig};
#[cfg(feature = "fault-inject")]
use smq_pool::FaultPlan;
use smq_pool::{JobPolicy, JobService, PoolConfig, ServiceConfig, WorkerPool};
use smq_scheduler::{HeapSmq, SkipListSmq, SmqConfig};
use smq_telemetry::{
    snapshot::write_jsonl, trace::write_chrome_trace, LogHistogram, MetricsSnapshot, Phase,
    PhaseTimes, TelemetryConfig, TelemetryReport,
};

/// Per-scale sizing: (road grid side, total queries, client threads).
fn sizing(scale: Scale) -> (u32, usize, usize) {
    match scale {
        Scale::Ci => (20, 300, 2),
        Scale::Small => (48, 2_000, 4),
        Scale::Full => (120, 10_000, 8),
    }
}

/// Deterministic (source, target) pairs from the base seed.
fn query_pairs(count: usize, nodes: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..count)
        .map(|_| {
            let source = next() % nodes;
            let mut target = next() % nodes;
            if target == source {
                target = (target + 1) % nodes;
            }
            (source, target)
        })
        .collect()
}

/// Gang counts to sweep: powers of two from 1 up to `concurrency`, plus
/// `concurrency` itself, keeping only counts that divide the fleet evenly
/// (each gang must get the same worker count for a fair comparison).
fn gang_counts(concurrency: usize, threads: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut g = 1;
    while g <= concurrency {
        counts.push(g);
        g *= 2;
    }
    if !counts.contains(&concurrency) {
        counts.push(concurrency);
    }
    counts.retain(|&g| g <= threads && threads.is_multiple_of(g));
    counts
}

struct ServiceRow {
    label: String,
    gangs: usize,
    batch: usize,
    jobs: usize,
    jobs_per_sec: f64,
    /// End-to-end job latency (queue wait + service time), nanoseconds.
    latency: LogHistogram,
    /// Time jobs waited in the admission queue.
    queue_wait: LogHistogram,
    /// Time jobs spent executing on the pool.
    service_time: LogHistogram,
    /// Per-phase worker-loop time, summed over workers (telemetry runs).
    phases: PhaseTimes,
    /// Sampled rank-error distribution (telemetry runs on schedulers that
    /// expose a min-key hint).
    rank_errors: LogHistogram,
    mean_tasks: f64,
    locks_per_op: Option<f64>,
    threads_spawned: u64,
}

/// One client thread's locally-recorded distributions, merged into the
/// row's histograms after the thread joins.
#[derive(Default)]
struct ClientTally {
    latency: LogHistogram,
    queue_wait: LogHistogram,
    service_time: LogHistogram,
    phases: PhaseTimes,
    rank_errors: LogHistogram,
}

/// Runs `queries` through a fresh gang-partitioned `JobService` (schedulers
/// built per gang by `make(gang_size, gang_index)`), with closed-loop
/// submitter threads, verifying every answer against sequential A*.
#[allow(clippy::too_many_arguments)]
fn run_service<S, F>(
    label: &str,
    gangs: usize,
    gang_size: usize,
    batch: usize,
    make: F,
    engine: &Arc<RouteQueryEngine>,
    queries: &Arc<Vec<(u32, u32)>>,
    expected: &Arc<Vec<u64>>,
    clients: usize,
    telemetry: TelemetryConfig,
) -> ServiceRow
where
    S: Scheduler<Task> + Send + Sync + 'static,
    F: Fn(usize, usize) -> S + Send + Sync + 'static,
{
    let threads = gangs * gang_size;
    let pool = WorkerPool::new_partitioned(
        move |g| make(gang_size, g),
        PoolConfig::partitioned(gangs, gang_size)
            .with_batch(batch)
            .with_telemetry(telemetry),
    );
    let service = Arc::new(JobService::new(pool, ServiceConfig { queue_capacity: 32 }));
    // Closed-loop clients: at least one per gang, or partitioning could
    // never be exercised.
    let clients = clients.max(gangs);

    let wall = Instant::now();
    let mut latency = LogHistogram::new();
    let mut queue_wait = LogHistogram::new();
    let mut service_time = LogHistogram::new();
    let mut phases = PhaseTimes::default();
    let mut rank_errors = LogHistogram::new();
    let mut total_tasks = 0u64;
    let mut total_stats = OpStats::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..clients {
            let service = Arc::clone(&service);
            let engine = Arc::clone(engine);
            let queries = Arc::clone(queries);
            let expected = Arc::clone(expected);
            handles.push(scope.spawn(move || {
                // Per-client histograms, merged once after join: the hot
                // path records into thread-local fixed arrays, no shared
                // state, no sorting.
                let mut local = ClientTally::default();
                let mut tasks = 0u64;
                let mut stats = OpStats::default();
                // Client `c` owns every `clients`-th query (FIFO per client,
                // interleaved across clients — a multi-tenant query stream).
                for i in (client..queries.len()).step_by(clients) {
                    let (source, target) = queries[i];
                    let engine = Arc::clone(&engine);
                    let ticket = service
                        .submit(move |pool| engine.query(source, target, pool))
                        .expect("service accepts while clients run");
                    let done = ticket.wait().expect("query job completed");
                    assert_eq!(
                        done.output.distance, expected[i],
                        "query {source}->{target} diverged from sequential A*"
                    );
                    tasks += done.output.result.metrics.tasks_executed;
                    stats.merge(&done.output.result.metrics.total);
                    local.latency.record_duration(done.total_latency());
                    local.queue_wait.record_duration(done.queue_wait);
                    local.service_time.record_duration(done.service_time);
                    if let Some(report) = done.output.result.metrics.telemetry.as_ref() {
                        local.phases.merge(&report.phases);
                        local.rank_errors.merge(&report.rank_errors);
                    }
                }
                (local, tasks, stats)
            }));
        }
        for handle in handles {
            let (local, tasks, stats) = handle.join().expect("client thread");
            latency.merge(&local.latency);
            queue_wait.merge(&local.queue_wait);
            service_time.merge(&local.service_time);
            phases.merge(&local.phases);
            rank_errors.merge(&local.rank_errors);
            total_tasks += tasks;
            total_stats.merge(&stats);
        }
    });
    let elapsed = wall.elapsed();

    let service = Arc::into_inner(service).expect("clients joined");
    let pool_stats = service.pool_stats();
    let stats = service.shutdown();
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.failed, 0, "no query job may be lost");
    assert_eq!(
        pool_stats.threads_spawned, threads as u64,
        "resident pool must never respawn workers"
    );

    ServiceRow {
        label: label.to_string(),
        gangs,
        batch,
        jobs: queries.len(),
        jobs_per_sec: queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        latency,
        queue_wait,
        service_time,
        phases,
        rank_errors,
        mean_tasks: total_tasks as f64 / queries.len() as f64,
        locks_per_op: total_stats.locks_per_op(),
        threads_spawned: pool_stats.threads_spawned,
    }
}

/// One row of the dynamic-graph (mixed read/write) sweep.
struct LiveRow {
    label: String,
    /// Target updates/sec (0 = no updater thread, the isolation baseline).
    target_rate: u64,
    jobs_per_sec: f64,
    /// Updates actually published per second of wall-clock.
    updates_per_sec: f64,
    /// Versions published during the run (updater batches + compactions).
    versions_published: u64,
    compactions: u64,
    /// Highest graph version any served query pinned.
    max_version_served: u64,
    latency: LogHistogram,
}

/// Runs `queries` through a fresh `JobService` over a **live** graph while
/// an updater thread publishes weight-slowdown batches at `target_rate`
/// updates/sec.  Every answer is verified against sequential A* on the
/// snapshot the query actually pinned (exactness under snapshot
/// isolation), not on the moving head.
#[allow(clippy::too_many_arguments)]
fn run_live_service<S, F>(
    label: &str,
    gangs: usize,
    gang_size: usize,
    batch: usize,
    make: F,
    base: &Arc<CsrGraph>,
    queries: &Arc<Vec<(u32, u32)>>,
    clients: usize,
    target_rate: u64,
    seed: u64,
) -> LiveRow
where
    S: Scheduler<Task> + Send + Sync + 'static,
    F: Fn(usize, usize) -> S + Send + Sync + 'static,
{
    // Fresh live graph per row: every rate starts from the pristine base.
    let live = Arc::new(LiveGraph::new(Arc::clone(base)));
    let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&live), gangs));
    let pool = WorkerPool::new_partitioned(
        move |g| make(gang_size, g),
        PoolConfig::partitioned(gangs, gang_size).with_batch(batch),
    );
    let service = Arc::new(JobService::new(pool, ServiceConfig { queue_capacity: 32 }));
    let clients = clients.max(gangs);
    let stop = AtomicBool::new(false);
    /// Updates per published batch; the pacing interval follows from the
    /// target rate.
    const UPDATE_BATCH: u64 = 16;

    let wall = Instant::now();
    let mut latency = LogHistogram::new();
    let mut max_version_served = 0u64;
    let mut published_updates = 0u64;
    std::thread::scope(|scope| {
        let updater = (target_rate > 0).then(|| {
            let live = Arc::clone(&live);
            let base = Arc::clone(base);
            let stop = &stop;
            scope.spawn(move || {
                let interval = Duration::from_secs_f64(UPDATE_BATCH as f64 / target_rate as f64);
                let mut published = 0u64;
                let mut round = 0u64;
                let started = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    // Slowdowns only, derived from the *base* weights: the
                    // road generator guarantees weight >= 100 x Euclidean
                    // length, so scaled-up weights keep the A* heuristic
                    // admissible on every published version.
                    let updates = GraphUpdate::random_slowdowns(
                        &*base,
                        UPDATE_BATCH as usize,
                        seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        8,
                    );
                    live.publish(&updates);
                    published += updates.len() as u64;
                    round += 1;
                    // Absolute pacing: sleep toward the next batch's
                    // deadline (in short slices so the stop flag stays
                    // responsive) so missed deadlines don't compound.
                    let deadline = interval * (round as u32);
                    while !stop.load(Ordering::Relaxed) {
                        match deadline.checked_sub(started.elapsed()) {
                            Some(wait) => std::thread::sleep(wait.min(Duration::from_millis(2))),
                            None => break,
                        }
                    }
                }
                published
            })
        });

        let mut handles = Vec::new();
        for client in 0..clients {
            let service = Arc::clone(&service);
            let engine = Arc::clone(&engine);
            let queries = Arc::clone(queries);
            handles.push(scope.spawn(move || {
                let mut local = LogHistogram::new();
                let mut max_version = 0u64;
                for i in (client..queries.len()).step_by(clients) {
                    let (source, target) = queries[i];
                    let engine = Arc::clone(&engine);
                    let ticket = service
                        .submit(move |pool| engine.query_pinned(source, target, pool))
                        .expect("service accepts while clients run");
                    let done = ticket.wait().expect("query job completed");
                    let (answer, view) = &done.output;
                    // The exactness check of the whole dynamic section:
                    // sequential A* on the snapshot this query pinned.
                    let (expected, _) = astar::sequential(view, source, target);
                    assert_eq!(
                        answer.distance,
                        expected,
                        "query {source}->{target} diverged from sequential A* \
                         on its pinned snapshot (version {})",
                        view.version()
                    );
                    assert_eq!(answer.version, view.version());
                    max_version = max_version.max(answer.version);
                    local.record_duration(done.total_latency());
                }
                (local, max_version)
            }));
        }
        for handle in handles {
            let (local, max_version) = handle.join().expect("client thread");
            latency.merge(&local);
            max_version_served = max_version_served.max(max_version);
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(updater) = updater {
            published_updates = updater.join().expect("updater thread");
        }
    });
    let elapsed = wall.elapsed();

    let service = Arc::into_inner(service).expect("clients joined");
    let stats = service.shutdown();
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.failed, 0, "no query job may be lost");

    LiveRow {
        label: label.to_string(),
        target_rate,
        jobs_per_sec: queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        updates_per_sec: published_updates as f64 / elapsed.as_secs_f64().max(1e-9),
        versions_published: live.versions_published(),
        compactions: live.compactions(),
        max_version_served,
        latency,
    }
}

/// One row of the fault/deadline (chaos) sweep.
struct ChaosRow {
    label: String,
    jobs: usize,
    completed: u64,
    failed: u64,
    cancelled: u64,
    no_capacity: u64,
    retried: u64,
    jobs_per_sec: f64,
    p99: Duration,
    gangs_poisoned: u64,
    gangs_respawned: u64,
    panics_injected: u64,
    stalls_injected: u64,
}

/// The overload/chaos run: the same closed-loop clients and query stream
/// as [`run_service`], but jobs carry a [`JobPolicy`] (deadline + bounded
/// retry-with-backoff) and the pool may be wired with a seeded
/// `FaultPlan`.  Every surviving answer is still verified against
/// sequential A*; faulted or cancelled tickets must resolve with a typed
/// error — never hang a client.  After the clients drain, any gang still
/// dead is respawned and the fleet must be back at full strength.
#[allow(clippy::too_many_arguments)]
fn run_chaos_service<S, F>(
    label: &str,
    gangs: usize,
    gang_size: usize,
    batch: usize,
    make: F,
    engine: &Arc<RouteQueryEngine>,
    queries: &Arc<Vec<(u32, u32)>>,
    expected: &Arc<Vec<u64>>,
    clients: usize,
    fault_rate: f64,
    deadline: Option<Duration>,
    seed: u64,
) -> ChaosRow
where
    S: Scheduler<Task> + Send + Sync + 'static,
    F: Fn(usize, usize) -> S + Send + Sync + 'static,
{
    #[cfg(not(feature = "fault-inject"))]
    let _ = (fault_rate, seed);
    let config = PoolConfig::partitioned(gangs, gang_size).with_batch(batch);
    #[cfg(feature = "fault-inject")]
    let plan = (fault_rate > 0.0).then(|| {
        // Rates are per *scheduler operation*; a query touches thousands,
        // so budgets (not rates) bound how much of the run burns.  Half
        // the panics strike mid-push — the scheduler-corruption case.
        let rate_ppm = (fault_rate * 1e6) as u64;
        FaultPlan::new(seed ^ 0xfa17)
            .with_panic_rate(rate_ppm, 12)
            .with_push_panic_rate(rate_ppm / 2, 6)
            .with_stall_rate(rate_ppm, Duration::from_millis(2), 32)
    });
    #[cfg(feature = "fault-inject")]
    let config = if let Some(plan) = &plan {
        config.with_faults(plan.clone())
    } else {
        config
    };
    let pool = WorkerPool::new_partitioned(move |g| make(gang_size, g), config);
    let service = Arc::new(JobService::new(pool, ServiceConfig { queue_capacity: 32 }));
    let clients = clients.max(gangs);
    // Retry is sound here: a re-run query only re-relaxes edges on its own
    // private lane, so a half-executed lost attempt leaves nothing behind.
    let mut policy = JobPolicy::default().with_retries(3, Duration::from_millis(1));
    if let Some(deadline) = deadline {
        policy = policy.with_timeout(deadline);
    }

    let wall = Instant::now();
    let mut latency = LogHistogram::new();
    let mut exact = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..clients {
            let service = Arc::clone(&service);
            let engine = Arc::clone(engine);
            let queries = Arc::clone(queries);
            let expected = Arc::clone(expected);
            let policy = policy.clone();
            handles.push(scope.spawn(move || {
                let mut local = LogHistogram::new();
                let mut ok = 0u64;
                for i in (client..queries.len()).step_by(clients) {
                    let (source, target) = queries[i];
                    let engine = Arc::clone(&engine);
                    let ticket = service
                        .submit_with(policy.clone(), move |pool| {
                            Ok(engine.query(source, target, pool))
                        })
                        .expect("service accepts while clients run");
                    // A faulted, shed, or cancelled ticket resolves with
                    // a typed error — never a hang, never a client panic
                    // — and is simply not counted as ok.
                    if let Ok(done) = ticket.wait() {
                        // A query that survived the storm — possibly via
                        // retry — must still be exact.
                        assert_eq!(
                            done.output.distance, expected[i],
                            "query {source}->{target} diverged under faults"
                        );
                        local.record_duration(done.total_latency());
                        ok += 1;
                    }
                }
                (local, ok)
            }));
        }
        for handle in handles {
            let (local, ok) = handle.join().expect("client thread");
            latency.merge(&local);
            exact += ok;
        }
    });
    let elapsed = wall.elapsed();

    let service = Arc::into_inner(service).expect("clients joined");
    // Recovery: rebuild anything still dead (lazy respawn only fires on
    // claim, so a gang poisoned by the final job may still be down), then
    // the fleet must be whole again.
    service.pool().respawn_dead();
    assert_eq!(
        service.pool().live_gangs(),
        gangs,
        "capacity must recover to the full gang count after the storm"
    );
    let pool_stats = service.pool_stats();
    let stats = service.shutdown();
    assert_eq!(
        stats.completed + stats.failed + stats.cancelled + stats.no_capacity,
        stats.submitted,
        "every accepted job must land in exactly one outcome counter"
    );
    assert_eq!(
        stats.completed, exact,
        "completed count must match verified answers"
    );

    #[cfg(feature = "fault-inject")]
    let (panics_injected, stalls_injected) = plan
        .as_ref()
        .map(|p| (p.panics_injected(), p.stalls_injected()))
        .unwrap_or((0, 0));
    #[cfg(not(feature = "fault-inject"))]
    let (panics_injected, stalls_injected) = (0u64, 0u64);

    ChaosRow {
        label: label.to_string(),
        jobs: queries.len(),
        completed: stats.completed,
        failed: stats.failed,
        cancelled: stats.cancelled,
        no_capacity: stats.no_capacity,
        retried: stats.retried,
        jobs_per_sec: stats.completed as f64 / elapsed.as_secs_f64().max(1e-9),
        p99: latency.quantile_duration(0.99),
        gangs_poisoned: pool_stats.gangs_poisoned,
        gangs_respawned: pool_stats.gangs_respawned,
        panics_injected,
        stalls_injected,
    }
}

fn main() {
    let (args, rest) = BenchArgs::from_env();
    let mut concurrency = 1usize;
    let mut update_rates: Option<Vec<u64>> = None;
    let mut fault_rate = 0.0f64;
    let mut deadline_ms: Option<u64> = None;
    let mut iter = rest.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--concurrency" => {
                concurrency = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--concurrency needs a positive integer");
                assert!(concurrency >= 1, "--concurrency needs a positive integer");
            }
            "--update-rate" => {
                let list = iter.next().expect("--update-rate needs a value");
                update_rates = Some(
                    list.split(',')
                        .map(|v| {
                            v.trim()
                                .parse()
                                .expect("--update-rate takes updates/sec (comma-separated)")
                        })
                        .collect(),
                );
            }
            "--fault-rate" => {
                fault_rate = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fault-rate needs a probability");
                assert!(
                    (0.0..1.0).contains(&fault_rate),
                    "--fault-rate takes a per-task probability in [0, 1)"
                );
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--deadline-ms needs a duration in milliseconds"),
                );
            }
            other => panic!(
                "unknown flag '{other}' (service_throughput adds --concurrency N, \
                 --update-rate R[,R...], --fault-rate P and --deadline-ms D)"
            ),
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    assert!(
        fault_rate == 0.0,
        "--fault-rate needs a build with --features fault-inject"
    );
    let (grid, query_count, base_clients) = sizing(args.scale);
    let threads = args.threads;
    // One consistent rule: the requested gang count must be realizable on
    // the fleet (a gang needs >= 1 worker and every gang the same size).
    assert!(
        concurrency <= threads && threads % concurrency == 0,
        "--concurrency {concurrency} must divide --threads {threads} (gangs of equal size)"
    );
    let sweep = gang_counts(concurrency, threads);
    assert!(sweep.contains(&concurrency), "sweep must reach the target");

    let graph = Arc::new(road_network(RoadNetworkParams {
        width: grid,
        height: grid,
        removal_percent: 10,
        seed: args.seed,
    }));
    let nodes = graph.num_nodes() as u32;
    let queries = Arc::new(query_pairs(query_count, nodes, args.seed ^ 0x51));
    // Ground truth once per query set: the service must serve *correct*
    // routes at whatever throughput it reports.
    let expected: Arc<Vec<u64>> = Arc::new(
        queries
            .iter()
            .map(|&(s, t)| astar::sequential(&graph, s, t).0)
            .collect(),
    );
    // One lane per potential concurrent query, shared by the whole sweep.
    let engine = Arc::new(RouteQueryEngine::with_lanes(
        Arc::clone(&graph),
        sweep.iter().copied().max().unwrap_or(1),
    ));

    let batches = args.batch_sweep();
    // Telemetry is strictly opt-in: the sweep pays for phase timing and
    // rank probes only when an export was requested, so plain runs keep
    // the zero-overhead (bit-identical) worker loop.
    let sweep_telemetry = if args.metrics_json.is_some() {
        TelemetryConfig::enabled()
    } else {
        TelemetryConfig::disabled()
    };
    let mut rows: Vec<ServiceRow> = Vec::new();
    let seed = args.seed;
    for &gangs in &sweep {
        let gang_size = threads / gangs;
        for &batch in &batches {
            rows.push(run_service(
                "SMQ (Default)",
                gangs,
                gang_size,
                batch,
                move |size, g| {
                    HeapSmq::<Task>::new(
                        SmqConfig::default_for_threads(size).with_seed(seed + g as u64),
                    )
                },
                &engine,
                &queries,
                &expected,
                base_clients,
                sweep_telemetry.clone(),
            ));
            rows.push(run_service(
                "MQ classic (C=4)",
                gangs,
                gang_size,
                batch,
                move |size, g| {
                    MultiQueue::<Task>::new(
                        MultiQueueConfig::classic(size)
                            .with_c_factor(4)
                            .with_seed(seed + g as u64),
                    )
                },
                &engine,
                &queries,
                &expected,
                base_clients,
                sweep_telemetry.clone(),
            ));
            rows.push(run_service(
                "OBIM",
                gangs,
                gang_size,
                batch,
                |size, _g| Obim::<Task>::new(ObimConfig::obim(size, 10, 32)),
                &engine,
                &queries,
                &expected,
                base_clients,
                sweep_telemetry.clone(),
            ));
            if args.scale != Scale::Ci {
                rows.push(run_service(
                    "PMOD",
                    gangs,
                    gang_size,
                    batch,
                    |size, _g| Obim::<Task>::new(ObimConfig::pmod(size, 10, 32)),
                    &engine,
                    &queries,
                    &expected,
                    base_clients,
                    sweep_telemetry.clone(),
                ));
                rows.push(run_service(
                    "SMQ skip-list",
                    gangs,
                    gang_size,
                    batch,
                    move |size, g| {
                        SkipListSmq::<Task>::new(
                            SmqConfig::default_for_threads(size).with_seed(seed + g as u64),
                        )
                    },
                    &engine,
                    &queries,
                    &expected,
                    base_clients,
                    sweep_telemetry.clone(),
                ));
            }
        }
    }

    let mut table = Table::new(
        format!(
            "Service throughput — {query_count} A* route queries over a {grid}x{grid} road grid \
             ({threads} workers, gang sweep {sweep:?}, batch sweep {batches:?}, queue 32)"
        ),
        &[
            "Scheduler",
            "Gangs",
            "Batch",
            "Jobs",
            "Jobs/sec",
            "p50 (ms)",
            "p99 (ms)",
            "Tasks/job",
            "Locks/op",
            "Rank err p50/p99",
            "Threads spawned",
        ],
    );
    let mut json = Vec::new();
    for row in &rows {
        let p50 = row.latency.quantile_duration(0.50);
        let p99 = row.latency.quantile_duration(0.99);
        table.add_row(vec![
            row.label.clone(),
            row.gangs.to_string(),
            row.batch.to_string(),
            row.jobs.to_string(),
            f2(row.jobs_per_sec),
            f2(p50.as_secs_f64() * 1e3),
            f2(p99.as_secs_f64() * 1e3),
            f2(row.mean_tasks),
            row.locks_per_op.map(f2).unwrap_or_else(|| "-".to_string()),
            if row.rank_errors.is_empty() {
                "-".to_string()
            } else {
                format!(
                    "{}/{}",
                    row.rank_errors.quantile(0.5),
                    row.rank_errors.quantile(0.99)
                )
            },
            row.threads_spawned.to_string(),
        ]);
        json.push((
            row.label.clone(),
            row.gangs,
            row.batch,
            row.jobs_per_sec,
            p50.as_secs_f64(),
            p99.as_secs_f64(),
            row.mean_tasks,
        ));
    }
    table.print();

    // Jobs/sec scaling from 1 gang to N gangs, per scheduler family, at the
    // per-task batch baseline (the PR 4 acceptance gate, unchanged).
    if sweep.len() > 1 {
        let max_g = *sweep.iter().max().unwrap();
        println!("Gang scaling (jobs/sec, same {threads}-worker fleet, batch 1):");
        for base in rows.iter().filter(|r| r.gangs == 1 && r.batch == 1) {
            if let Some(top) = rows
                .iter()
                .find(|r| r.gangs == max_g && r.batch == 1 && r.label == base.label)
            {
                let ratio = top.jobs_per_sec / base.jobs_per_sec.max(1e-9);
                println!(
                    "  {:<18} G=1 {:>10.2}  ->  G={} {:>10.2}   ({:.2}x)",
                    base.label, base.jobs_per_sec, max_g, top.jobs_per_sec, ratio
                );
                if ratio < 1.0 {
                    eprintln!(
                        "  warning: {} did not scale (G={} slower than G=1)",
                        base.label, max_g
                    );
                }
            }
        }
        // At ci scale this run IS the acceptance gate: gang partitioning
        // must not lose to the single-gang baseline on the small-query
        // mix (the observed margin is 1.2-1.5x).  Asserted on the
        // aggregate over schedulers rather than per row: one 300-query
        // row is a ~20 ms sample whose throughput is bimodal under OS
        // scheduling jitter, while the sum is stable.  The 0.85 floor
        // still catches any real regression that makes partitioning
        // slower; larger scales stay informational.
        let base_total: f64 = rows
            .iter()
            .filter(|r| r.gangs == 1 && r.batch == 1)
            .map(|r| r.jobs_per_sec)
            .sum();
        let top_total: f64 = rows
            .iter()
            .filter(|r| r.gangs == max_g && r.batch == 1)
            .map(|r| r.jobs_per_sec)
            .sum();
        let ratio = top_total / base_total.max(1e-9);
        println!(
            "  aggregate (all schedulers, batch 1): G=1 {base_total:.2} -> G={max_g} {top_total:.2}   ({ratio:.2}x)"
        );
        if ratio < 1.0 {
            assert!(
                args.scale != Scale::Ci || ratio >= 0.85,
                "gang partitioning regressed: aggregate G={max_g} {top_total:.2} jobs/sec \
                 vs G=1 {base_total:.2}"
            );
            eprintln!("  warning: aggregate did not scale (G={max_g} slower than G=1)");
        }
        println!();
    }

    // Jobs/sec scaling from batch 1 to the largest batch, per scheduler ×
    // gang count — the batch-granularity acceptance gate.
    if batches.len() > 1 {
        let max_b = *batches.iter().max().unwrap();
        println!("Batch scaling (jobs/sec, same fleet, per gang count):");
        for base in rows.iter().filter(|r| r.batch == 1) {
            if let Some(top) = rows
                .iter()
                .find(|r| r.batch == max_b && r.gangs == base.gangs && r.label == base.label)
            {
                let ratio = top.jobs_per_sec / base.jobs_per_sec.max(1e-9);
                println!(
                    "  {:<18} G={} B=1 {:>10.2}  ->  B={} {:>10.2}   ({:.2}x)",
                    base.label, base.gangs, base.jobs_per_sec, max_b, top.jobs_per_sec, ratio
                );
                if ratio < 1.0 {
                    eprintln!(
                        "  warning: {} slower at B={} than B=1 (G={})",
                        base.label, max_b, base.gangs
                    );
                }
            }
        }
        // The acceptance gate is the fleet-wide aggregate, not the
        // individual rows: one ci-scale row is a ~20 ms / 300-query sample
        // whose throughput is bimodal under OS scheduling jitter (a
        // handful of ~1 ms partner-worker wake-up stalls halves it), while
        // the sum over every scheduler × gang combination is stable.  Same
        // noise-tolerant-floor style as the PR 4 gang gate: the batched
        // hot path must not lose to the per-task path; only a clear
        // aggregate regression (> 15%) fails, larger scales stay
        // informational.
        let base_total: f64 = rows
            .iter()
            .filter(|r| r.batch == 1)
            .map(|r| r.jobs_per_sec)
            .sum();
        let top_total: f64 = rows
            .iter()
            .filter(|r| r.batch == max_b)
            .map(|r| r.jobs_per_sec)
            .sum();
        let ratio = top_total / base_total.max(1e-9);
        println!("  aggregate (all schedulers x gangs): B=1 {base_total:.2} -> B={max_b} {top_total:.2}   ({ratio:.2}x)");
        if ratio < 1.0 {
            assert!(
                args.scale != Scale::Ci || ratio >= 0.85,
                "batched hot path regressed: aggregate B={max_b} {top_total:.2} jobs/sec \
                 vs B=1 {base_total:.2}"
            );
            eprintln!("  warning: aggregate slower at B={max_b} than B=1");
        }
        println!();
    }
    // --metrics-json: one self-describing JSONL line per measured row,
    // self-validated by re-parsing every written line.
    if let Some(path) = &args.metrics_json {
        let snapshots: Vec<MetricsSnapshot> = rows
            .iter()
            .map(|row| MetricsSnapshot {
                bench: "service_throughput".to_string(),
                scheduler: row.label.clone(),
                threads,
                gangs: row.gangs,
                batch: row.batch,
                jobs_per_sec: row.jobs_per_sec,
                jobs: row.jobs as u64,
                latency: row.latency.clone(),
                queue_wait: row.queue_wait.clone(),
                service_time: row.service_time.clone(),
                phases: row.phases.clone(),
                rank_errors: row.rank_errors.clone(),
            })
            .collect();
        write_jsonl(path, &snapshots).expect("write --metrics-json");
        let text = std::fs::read_to_string(path).expect("re-read --metrics-json");
        let mut lines = 0usize;
        for line in text.lines() {
            let value = serde_json::from_str(line).expect("metrics line must parse as JSON");
            assert_eq!(
                value.get("bench").and_then(|v| v.as_str()),
                Some("service_throughput")
            );
            assert!(value.get("latency").is_some(), "line carries a histogram");
            lines += 1;
        }
        assert_eq!(lines, rows.len(), "one JSONL line per measured row");
        println!(
            "wrote {lines} metrics lines to {} (validated by re-parse)",
            path.display()
        );
    }

    // --trace: a dedicated fully-instrumented run (phase timing + event
    // rings) on an unpartitioned SMQ pool, exported as chrome://tracing
    // JSON with one lane per worker, then self-validated by re-parsing.
    if let Some(path) = &args.trace {
        let pool = WorkerPool::new(
            HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed)),
            PoolConfig::new(threads)
                .with_batch(args.batch.unwrap_or(8))
                .with_telemetry(TelemetryConfig::enabled().with_ring(8192)),
        );
        let mut report = TelemetryReport::new();
        for &(source, target) in queries.iter().take(64) {
            let answer = engine.query(source, target, &pool);
            if let Some(job) = answer.result.metrics.telemetry.as_ref() {
                report.merge(job);
            }
        }
        write_chrome_trace(path, &report.lanes).expect("write --trace");
        let text = std::fs::read_to_string(path).expect("re-read --trace");
        let value = serde_json::from_str(&text).expect("trace must parse as JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("trace has a traceEvents array")
            .len();
        assert_eq!(
            report.lanes.len(),
            threads,
            "one trace lane per spawned worker"
        );
        if args.scale == Scale::Ci {
            for phase in Phase::ALL {
                assert!(
                    report
                        .lanes
                        .iter()
                        .any(|lane| lane.events.iter().any(|e| e.phase == phase)),
                    "phase '{}' missing from the ci-scale trace",
                    phase.name()
                );
            }
        }
        println!(
            "wrote {events} trace events across {} lanes to {} (validated by re-parse)",
            report.lanes.len(),
            path.display()
        );
    }

    // The telemetry-overhead acceptance gate: at ci scale, a fully
    // instrumented SMQ service run must stay within 5% of the
    // uninstrumented one.  Pairs are interleaved (off, on, off, on, ...)
    // so OS scheduling jitter hits both sides alike, and the gate takes
    // the *best* pair ratio — the min-time estimator: noise on a shared
    // CI box only ever subtracts throughput, so the cleanest pair is the
    // tightest available bound on the true overhead.  (Single 300-query
    // rows swing by ±10% under jitter; gating on one would be a coin
    // flip.)
    if args.scale == Scale::Ci {
        let gangs = concurrency;
        let gang_size = threads / gangs;
        let batch = args.batch.unwrap_or(8);
        let make = move |size: usize, g: usize| {
            HeapSmq::<Task>::new(SmqConfig::default_for_threads(size).with_seed(seed + g as u64))
        };
        let mut best_ratio = 0.0f64;
        for pair in 0..5 {
            let off = run_service(
                "SMQ telemetry-off",
                gangs,
                gang_size,
                batch,
                make,
                &engine,
                &queries,
                &expected,
                base_clients,
                TelemetryConfig::disabled(),
            )
            .jobs_per_sec;
            let on = run_service(
                "SMQ telemetry-on",
                gangs,
                gang_size,
                batch,
                make,
                &engine,
                &queries,
                &expected,
                base_clients,
                TelemetryConfig::enabled(),
            )
            .jobs_per_sec;
            let ratio = on / off.max(1e-9);
            println!(
                "Telemetry overhead pair {pair}: off {off:.2} -> on {on:.2} jobs/sec ({ratio:.2}x)"
            );
            best_ratio = best_ratio.max(ratio);
        }
        println!(
            "Telemetry overhead (SMQ, G={gangs}, B={batch}, best of 5 interleaved pairs): \
             {best_ratio:.2}x"
        );
        assert!(
            best_ratio >= 0.95,
            "telemetry overhead exceeds 5%: best enabled/disabled ratio {best_ratio:.2}"
        );
    }

    // The dynamic-graph sweep: same query stream, live graph, an updater
    // thread publishing weight slowdowns at each target rate.  Rate 0 is
    // the isolation baseline (a LiveGraph that never changes must serve
    // like the static engine, modulo the pin).
    let rates = update_rates.unwrap_or_else(|| match args.scale {
        Scale::Ci => vec![0, 2_000],
        Scale::Small => vec![0, 500, 5_000],
        Scale::Full => vec![0, 1_000, 10_000, 50_000],
    });
    let gangs = concurrency;
    let gang_size = threads / gangs;
    let live_batch = args.batch.unwrap_or(8);
    let mut live_rows: Vec<LiveRow> = Vec::new();
    for &rate in &rates {
        live_rows.push(run_live_service(
            "SMQ (Default)",
            gangs,
            gang_size,
            live_batch,
            move |size, g| {
                HeapSmq::<Task>::new(
                    SmqConfig::default_for_threads(size).with_seed(seed + g as u64),
                )
            },
            &graph,
            &queries,
            base_clients,
            rate,
            seed,
        ));
        live_rows.push(run_live_service(
            "MQ classic (C=4)",
            gangs,
            gang_size,
            live_batch,
            move |size, g| {
                MultiQueue::<Task>::new(
                    MultiQueueConfig::classic(size)
                        .with_c_factor(4)
                        .with_seed(seed + g as u64),
                )
            },
            &graph,
            &queries,
            base_clients,
            rate,
            seed,
        ));
    }
    let mut live_table = Table::new(
        format!(
            "Dynamic graph service — {query_count} pinned-snapshot A* queries under live weight \
             updates ({threads} workers, G={gangs}, B={live_batch}, update-rate sweep {rates:?} \
             updates/sec)"
        ),
        &[
            "Scheduler",
            "Target upd/s",
            "Jobs/sec",
            "Upd/sec",
            "Versions",
            "Compactions",
            "Max ver served",
            "p50 (ms)",
            "p99 (ms)",
        ],
    );
    for row in &live_rows {
        live_table.add_row(vec![
            row.label.clone(),
            row.target_rate.to_string(),
            f2(row.jobs_per_sec),
            f2(row.updates_per_sec),
            row.versions_published.to_string(),
            row.compactions.to_string(),
            row.max_version_served.to_string(),
            f2(row.latency.quantile_duration(0.50).as_secs_f64() * 1e3),
            f2(row.latency.quantile_duration(0.99).as_secs_f64() * 1e3),
        ]);
    }
    live_table.print();
    // Acceptance gates for the mixed read/write path, at every scale: the
    // updater must actually publish (updates/sec > 0), queries must pin
    // post-update versions, and the zero-rate baseline must stay pinned to
    // version 1.  Exactness is asserted per query inside run_live_service.
    for row in &live_rows {
        if row.target_rate > 0 {
            assert!(
                row.updates_per_sec > 0.0,
                "{} at {} updates/sec published nothing",
                row.label,
                row.target_rate
            );
            assert!(
                row.max_version_served > 1,
                "{} at {} updates/sec never served a post-update version",
                row.label,
                row.target_rate
            );
        } else {
            assert_eq!(
                row.max_version_served, 1,
                "zero-rate baseline must serve the initial version only"
            );
        }
    }

    // The fault/deadline sweep: the same query stream through a pool with
    // a seeded fault plan and/or per-job deadlines, with bounded
    // retry-with-backoff.  Off by default so plain runs keep the
    // production path; CI drives it with
    // `--features fault-inject -- --fault-rate 0.05 --deadline-ms 50`.
    if fault_rate > 0.0 || deadline_ms.is_some() {
        let gangs = concurrency;
        let gang_size = threads / gangs;
        let batch = args.batch.unwrap_or(8);
        let deadline = deadline_ms.map(Duration::from_millis);
        let row = run_chaos_service(
            "SMQ (Default)",
            gangs,
            gang_size,
            batch,
            move |size, g| {
                HeapSmq::<Task>::new(
                    SmqConfig::default_for_threads(size).with_seed(seed + g as u64),
                )
            },
            &engine,
            &queries,
            &expected,
            base_clients,
            fault_rate,
            deadline,
            seed,
        );
        let mut chaos_table = Table::new(
            format!(
                "Fault tolerance — {query_count} queries at fault rate {fault_rate}, deadline \
                 {deadline_ms:?} ms ({threads} workers, G={gangs}, B={batch}, retries<=3 with \
                 backoff)"
            ),
            &[
                "Scheduler",
                "Jobs",
                "Ok",
                "Failed",
                "Cancelled",
                "NoCap",
                "Retried",
                "Respawn/Poison",
                "Panics inj",
                "Stalls inj",
                "Jobs/sec",
                "p99 (ms)",
            ],
        );
        chaos_table.add_row(vec![
            row.label.clone(),
            row.jobs.to_string(),
            row.completed.to_string(),
            row.failed.to_string(),
            row.cancelled.to_string(),
            row.no_capacity.to_string(),
            row.retried.to_string(),
            format!("{}/{}", row.gangs_respawned, row.gangs_poisoned),
            row.panics_injected.to_string(),
            row.stalls_injected.to_string(),
            f2(row.jobs_per_sec),
            f2(row.p99.as_secs_f64() * 1e3),
        ]);
        chaos_table.print();
        // The service must make progress through the storm, and every
        // injected panic must have been absorbed by poison + respawn
        // (capacity recovery itself is asserted inside the run).
        assert!(
            row.completed > 0 && row.jobs_per_sec > 0.0,
            "the storm must not starve the service"
        );
        if fault_rate > 0.0 {
            assert!(
                row.gangs_respawned > 0,
                "an injected panic storm must exercise gang respawn"
            );
            assert_eq!(
                row.gangs_respawned, row.gangs_poisoned,
                "every poisoned gang must eventually be respawned"
            );
        }
    }

    println!(
        "(static sweep: every answer verified against sequential A*; engine served {} queries \
         across {} lanes.  Dynamic sweep: every answer verified on its pinned snapshot.)",
        engine.queries_served(),
        engine.lanes()
    );
    smq_bench::report::print_json("service_throughput", &json);
}
