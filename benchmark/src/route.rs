//! A* route queries through the job service: `JobService` over a
//! gang-partitioned `WorkerPool` (T gangs of one worker) and a
//! `RouteQueryEngine` with T lanes, all built from library defaults.
//!
//! * `route_closed` — static road grid, short routes, T closed-loop clients
//!   (submit, wait, repeat).  Jobs take about 100 us, so claiming a gang,
//!   waking and parking its worker, tickets and quiescence detection
//!   dominate; the result is the service's capacity.
//! * `route_open_live` — the same service over a `LiveGraph`, long routes,
//!   open loop: Poisson arrivals at a fixed rate whatever the service does,
//!   while an updater publishes road slowdowns.  Queueing delay, which a
//!   closed loop hides, reaches the latency; reads run beside writes.
//!
//! The query stream is 70 % Zipf(1) over a hot set of 1 024 pairs and
//! 30 % fresh pairs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smq_algos::{astar, RouteAnswer, RouteQueryEngine};
use smq_core::Task;
use smq_graph::generators::{road_network, RoadNetworkParams};
use smq_graph::{CsrGraph, GraphSnapshot, GraphUpdate, LiveGraph};
use smq_pool::{JobCompletion, JobService, PoolConfig, ServiceConfig, SubmitError, WorkerPool};
use smq_scheduler::{HeapSmq, SmqConfig};

use crate::gen::{poisson_due_times, LocalPairs, OpenLoop, Query, QueryStream, Rng, Zipf};
use crate::layers::{graph_layer, pool_layer, EngineTally};
use crate::report::{Layer, Window};
use crate::spans::{Lane, ROOT};
use crate::stats::Samples;
use crate::{drive_phases, Ctx, Workload, STOP, TIMED, WARM, WARMUP_S};

const GRID_SIDE: u32 = 128;
const GRID_REMOVAL_PERCENT: u32 = 10;
const HOT_PAIRS: usize = 1024;
/// How many grid cells a query's target lies from its source (see
/// `LocalPairs`).  `route_closed` asks for short routes, about 90 tasks, so
/// that a job is near 100 us and the pool's per-job costs are a large part
/// of it.  `route_open_live` asks for long ones, about 2 000 tasks: three
/// thread wake-ups per job cost 50 us more or less from one run to the
/// next on a small virtual machine, which would drown a short job's
/// latency and is a tenth of a long one's.
const CLOSED_RADIUS: u32 = 12;
const OPEN_RADIUS: u32 = 48;
/// Fresh answers are checked against sequential A* one in this many.
const VERIFY_EVERY: u64 = 16;
/// Per-query spans are recorded one in this many.
const SPAN_EVERY: u64 = 64;

/// `route_open_live` arrival rate: about half of what the same service
/// sustains closed-loop on the same query mix on the reference box
/// (README.md), so that requests queue without the queue growing.
/// Changing it changes the workload.
const OPEN_RATE_PER_S: f64 = 2_000.0;
/// The updater publishes `UPDATE_BATCH` slowdowns every `UPDATE_PERIOD`.
const UPDATE_BATCH: usize = 50;
const UPDATE_PERIOD: Duration = Duration::from_millis(25);
/// Slowdowns multiply a base weight by at most this.
const SLOWDOWN_MAX_FACTOR: u32 = 8;
/// Live answers are checked on the versions divisible by this, every
/// second answer of those (one in `VERIFY_EVERY` overall), so the views
/// kept for checking pin few versions and do not set the peak memory.
const VERIFY_VERSION_STRIDE: u64 = 8;

pub struct RouteInputs {
    graph: Arc<CsrGraph>,
    hot: Vec<(u32, u32)>,
    /// Sequential A* distance of every hot pair on the static graph.
    expected: Vec<u64>,
    zipf: Zipf,
    pairs: LocalPairs,
}

fn prepare(seed: u64, radius: u32, lane: &mut Lane<'_>, layer: &mut Layer) -> RouteInputs {
    let start = Instant::now();
    let graph = lane.scope("graph.generate", ROOT, || {
        road_network(RoadNetworkParams {
            width: GRID_SIDE,
            height: GRID_SIDE,
            removal_percent: GRID_REMOVAL_PERCENT,
            seed,
        })
    });
    graph_layer(layer, &graph, start.elapsed().as_secs_f64());
    let pairs = LocalPairs::new(
        graph
            .all_coordinates()
            .expect("road networks carry coordinates"),
        radius,
    );
    let mut rng = Rng::new(seed, 0x407);
    let hot: Vec<(u32, u32)> = (0..HOT_PAIRS).map(|_| pairs.sample(&mut rng)).collect();
    let start = Instant::now();
    let expected = lane.scope("algos.reference", ROOT, || {
        hot.iter()
            .map(|&(s, t)| astar::sequential(&graph, s, t).0)
            .collect()
    });
    layer.set(
        "algos.seq_reference_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    RouteInputs {
        graph: Arc::new(graph),
        zipf: Zipf::new(hot.len()),
        hot,
        expected,
        pairs,
    }
}

/// The service every route workload runs on.
fn spawn_service(ctx: &Ctx<'_>) -> JobService {
    let pool = WorkerPool::new_partitioned(
        |_gang| HeapSmq::<Task>::new(SmqConfig::default_for_threads(1)),
        PoolConfig::partitioned(ctx.threads, 1).with_telemetry(ctx.telemetry()),
    );
    JobService::new(pool, ServiceConfig::default())
}

/// Per-query layer detail, collected only in the traced half.
#[derive(Default)]
struct Detail {
    submit_ns: Vec<u64>,
    queue_wait_ns: Vec<u64>,
    service_ns: Vec<u64>,
    /// Client-seen latency minus the work loop's own elapsed time.
    overhead_ns: Vec<u64>,
    engine: EngineTally,
}

impl Detail {
    fn record<R>(
        &mut self,
        done: &JobCompletion<R>,
        answer: &RouteAnswer,
        submit: Duration,
        latency: Duration,
    ) {
        let loop_time = answer.result.metrics.elapsed;
        self.submit_ns.push(submit.as_nanos() as u64);
        self.queue_wait_ns.push(done.queue_wait.as_nanos() as u64);
        self.service_ns.push(done.service_time.as_nanos() as u64);
        self.overhead_ns
            .push(latency.saturating_sub(loop_time).as_nanos() as u64);
        self.engine.record(&answer.result);
    }

    fn merge(&mut self, other: Detail) {
        self.submit_ns.extend(other.submit_ns);
        self.queue_wait_ns.extend(other.queue_wait_ns);
        self.service_ns.extend(other.service_ns);
        self.overhead_ns.extend(other.overhead_ns);
        self.engine.merge(&other.engine);
    }

    fn into_layer(self, layer: &mut Layer) {
        if self.engine.runs == 0 {
            return;
        }
        let service = Samples::new(self.service_ns);
        let queue_wait = Samples::new(self.queue_wait_ns);
        layer.set(
            "pool.submit_us_p50",
            Samples::new(self.submit_ns).p_us(50.0),
        );
        layer.set(
            "pool.job_overhead_us_p50",
            Samples::new(self.overhead_ns).p_us(50.0),
        );
        layer.set("pool.service_time_us_p50", service.p_us(50.0));
        layer.set("pool.service_time_us_p99", service.p_us(99.0));
        layer.set("pool.queue_wait_us_p50", queue_wait.p_us(50.0));
        layer.set("pool.queue_wait_us_p99", queue_wait.p_us(99.0));
        self.engine.into_layer(layer);
        layer.set("algos.tasks_per_query", layer.get("runtime.tasks_executed"));
    }
}

/// Shuts the service down and reports what it and its pool counted.
fn service_layer(layer: &mut Layer, service: JobService, spawn_s: f64, offered: u64) {
    pool_layer(layer, service.pool(), spawn_s);
    let stats = service.shutdown();
    layer.set(
        "pool.rejected_share",
        stats.rejected as f64 / offered.max(1) as f64,
    );
    layer.set("pool.failed", stats.failed as f64);
    layer.set("pool.cancelled", stats.cancelled as f64);
    layer.set("pool.retried", stats.retried as f64);
}

/// What a query job hands back besides its answer: when it ran, for the
/// trace (only taken in the traced half).
type JobSpan = Option<(Instant, Instant)>;

/// Records the spans of one sampled request: the request itself, the
/// submit and wait calls under it, and the query job under the wait.
fn request_spans(
    lane: &mut Lane<'_>,
    window_span: u64,
    request: u64,
    sent: Instant,
    submitted: Instant,
    resolved: Instant,
    job: JobSpan,
) {
    let id = lane.new_id();
    let wait = lane.new_id();
    lane.record(id, "bench.request", window_span, request, sent, resolved);
    let submit = lane.new_id();
    lane.record(submit, "service.submit", id, request, sent, submitted);
    lane.record(wait, "service.wait", id, request, submitted, resolved);
    if let Some((start, end)) = job {
        let query = lane.new_id();
        lane.record(query, "algos.query", wait, request, start, end);
    }
}

#[derive(Default)]
struct ClientTally {
    latency_ns: Vec<u64>,
    queries: u64,
    wrong: u64,
    errors: u64,
    /// Sampled fresh answers `(source, target, distance)`, checked against
    /// sequential A* once the window is over.
    to_verify: Vec<(u32, u32, u64)>,
    detail: Detail,
}

pub struct Closed;

impl Workload for Closed {
    const NAME: &'static str = "route_closed";
    const TAIL: f64 = 99.0;
    type Inputs = RouteInputs;

    fn prepare(seed: u64, _threads: usize, lane: &mut Lane<'_>, layer: &mut Layer) -> RouteInputs {
        prepare(seed, CLOSED_RADIUS, lane, layer)
    }

    fn measure(inputs: &RouteInputs, ctx: &Ctx<'_>) -> Window {
        let mut lane = ctx.tracer.lane(0);
        let start = Instant::now();
        let (service, engine) = lane.scope("pool.spawn", ROOT, || {
            let engine = Arc::new(RouteQueryEngine::with_lanes(
                Arc::clone(&inputs.graph),
                ctx.threads,
            ));
            (spawn_service(ctx), engine)
        });
        let spawn_s = start.elapsed().as_secs_f64();
        let phase = AtomicU8::new(WARM);
        let window_span = lane.new_id();
        let traced = ctx.traced();

        let window_start = Instant::now();
        let (warmup_s, tallies) = std::thread::scope(|scope| {
            // One closed-loop client per gang.
            let clients: Vec<_> = (0..ctx.threads)
                .map(|c| {
                    let (service, engine, phase) = (&service, &engine, &phase);
                    scope.spawn(move || {
                        let mut lane = ctx.tracer.lane(1 + c as u32);
                        let mut tally = ClientTally::default();
                        tally
                            .latency_ns
                            .reserve((ctx.seconds * 4e4) as usize + 1024);
                        let stream = QueryStream::new(
                            ctx.seed,
                            c as u64,
                            &inputs.pairs,
                            &inputs.hot,
                            &inputs.zipf,
                        );
                        for query in stream {
                            let now = phase.load(Ordering::Relaxed);
                            if now == STOP {
                                break;
                            }
                            let sent = Instant::now();
                            let job_engine = Arc::clone(engine);
                            let ticket = service
                                .submit(move |pool| {
                                    let start = traced.then(Instant::now);
                                    let answer = job_engine.query(query.source, query.target, pool);
                                    (answer, start.map(|s| (s, Instant::now())))
                                })
                                .expect("service admits while clients run");
                            let submitted = Instant::now();
                            let outcome = ticket.wait();
                            let resolved = Instant::now();
                            if now != TIMED {
                                continue;
                            }
                            tally.queries += 1;
                            let done = match outcome {
                                Ok(done) => done,
                                Err(_) => {
                                    tally.errors += 1;
                                    continue;
                                }
                            };
                            let latency = resolved - sent;
                            tally.latency_ns.push(latency.as_nanos() as u64);
                            let (answer, job_span) = &done.output;
                            match query.hot {
                                Some(i) => {
                                    tally.wrong +=
                                        u64::from(answer.distance != inputs.expected[i as usize]);
                                }
                                None if tally.queries.is_multiple_of(VERIFY_EVERY) => {
                                    tally.to_verify.push((
                                        query.source,
                                        query.target,
                                        answer.distance,
                                    ));
                                }
                                None => {}
                            }
                            if traced {
                                tally
                                    .detail
                                    .record(&done, answer, submitted - sent, latency);
                                if tally.queries.is_multiple_of(SPAN_EVERY) {
                                    request_spans(
                                        &mut lane,
                                        window_span,
                                        tally.queries << 8 | c as u64,
                                        sent,
                                        submitted,
                                        resolved,
                                        *job_span,
                                    );
                                }
                            }
                        }
                        tally
                    })
                })
                .collect();
            let warmup_s = drive_phases(&phase, ctx.seconds);
            let tallies: Vec<ClientTally> = clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect();
            (warmup_s, tallies)
        });
        lane.record(
            window_span,
            "bench.window",
            ROOT,
            0,
            window_start,
            Instant::now(),
        );

        let mut layer = Layer::default();
        layer.set("algos.epoch_wraps", engine.epoch_wraps() as f64);
        let mut latency_ns = Vec::new();
        let mut detail = Detail::default();
        let (mut queries, mut failed) = (0u64, 0u64);
        for tally in tallies {
            queries += tally.queries;
            failed += tally.wrong + tally.errors;
            failed += tally
                .to_verify
                .iter()
                .filter(|&&(s, t, d)| astar::sequential(&*inputs.graph, s, t).0 != d)
                .count() as u64;
            latency_ns.extend(tally.latency_ns);
            detail.merge(tally.detail);
        }
        detail.into_layer(&mut layer);
        service_layer(&mut layer, service, spawn_s, queries);
        Window {
            spawn_s,
            warmup_s,
            measured_s: ctx.seconds,
            throughput_per_s: latency_ns.len() as f64 / ctx.seconds,
            latency_ns,
            units_per_sample: 1.0,
            attempted: queries.max(1),
            failed,
            layer,
        }
    }
}

/// A query job over the live graph hands back the view it pinned, when it
/// finished and which version was the head then.
struct LiveOutput {
    answer: RouteAnswer,
    view: GraphSnapshot,
    done_at: Instant,
    head_version: u64,
    job_span: JobSpan,
}

struct Pending {
    ticket: smq_pool::JobTicket<LiveOutput>,
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    query: Query,
    timed: bool,
}

/// What the updater thread measured inside the timed window.
#[derive(Default)]
struct UpdaterTally {
    publish_ns: Vec<u64>,
    pin_ns: Vec<u64>,
    overlay_edges: Vec<u64>,
    updates: u64,
    compactions: u64,
}

pub struct OpenLive;

impl Workload for OpenLive {
    const NAME: &'static str = "route_open_live";
    /// One 100 ms stall of the machine delays 0.8 % of a 12 s window's
    /// requests: p99 would report the stall, p95 reports the service.
    const TAIL: f64 = 95.0;
    type Inputs = RouteInputs;

    fn prepare(seed: u64, _threads: usize, lane: &mut Lane<'_>, layer: &mut Layer) -> RouteInputs {
        prepare(seed, OPEN_RADIUS, lane, layer)
    }

    fn measure(inputs: &RouteInputs, ctx: &Ctx<'_>) -> Window {
        let mut lane = ctx.tracer.lane(0);
        let traced = ctx.traced();
        let horizon_s = WARMUP_S + ctx.seconds;

        // The schedule and the update batches are inputs too: made from
        // the seed before anything runs, and charged to set-up.
        let start = Instant::now();
        let due = poisson_due_times(&mut Rng::new(ctx.seed, 0x0931), OPEN_RATE_PER_S, horizon_s);
        let offered_timed = due.iter().filter(|&&d| d as f64 >= WARMUP_S * 1e9).count() as u64;
        let mut update_seeds = Rng::new(ctx.seed, 0x0bd8);
        let batch_count = (horizon_s / UPDATE_PERIOD.as_secs_f64()).ceil() as usize;
        // Slowdowns only, and always of the base weights: the generator
        // keeps every weight at least 100 x the Euclidean length, so the
        // A* heuristic stays admissible on every published version.
        let batches: Vec<Vec<GraphUpdate>> = (0..batch_count)
            .map(|_| {
                GraphUpdate::random_slowdowns(
                    &*inputs.graph,
                    UPDATE_BATCH,
                    update_seeds.next_u64(),
                    SLOWDOWN_MAX_FACTOR,
                )
            })
            .collect();
        let spawn_start = Instant::now();
        let (service, engine, live) = lane.scope("pool.spawn", ROOT, || {
            let live = Arc::new(LiveGraph::new(Arc::clone(&inputs.graph)));
            let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&live), ctx.threads));
            (spawn_service(ctx), engine, live)
        });
        let pool_spawn_s = spawn_start.elapsed().as_secs_f64();
        let spawn_s = start.elapsed().as_secs_f64();

        let window_span = lane.new_id();
        let stop = AtomicBool::new(false);
        let clock = Instant::now();
        let warm_until = clock + Duration::from_secs_f64(WARMUP_S);
        let at = |ns: u64| clock + Duration::from_nanos(ns);

        let mut latency_ns: Vec<u64> = Vec::with_capacity(offered_timed as usize + 16);
        let mut late_ns: Vec<u64> = Vec::new();
        let mut lag: Vec<u64> = Vec::new();
        let mut detail = Detail::default();
        let mut to_verify: Vec<(Query, u64, GraphSnapshot)> = Vec::new();
        let (mut errors, mut wrong) = (0u64, 0u64);
        let mut depth_max = 0u64;

        let updater = std::thread::scope(|scope| {
            let updater = {
                let (live, stop, batches) = (&live, &stop, &batches);
                scope.spawn(move || {
                    let mut lane = ctx.tracer.lane(1);
                    let mut tally = UpdaterTally::default();
                    let mut compactions_before = None;
                    for (i, batch) in batches.iter().enumerate() {
                        let due = clock + UPDATE_PERIOD * i as u32;
                        while !stop.load(Ordering::Relaxed) {
                            match due.checked_duration_since(Instant::now()) {
                                Some(wait) => std::thread::sleep(wait.min(UPDATE_PERIOD)),
                                None => break,
                            }
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let timed = Instant::now() >= warm_until;
                        if timed && compactions_before.is_none() {
                            compactions_before = Some(live.compactions());
                        }
                        let start = Instant::now();
                        live.publish(batch);
                        let end = Instant::now();
                        if !timed {
                            continue;
                        }
                        tally.publish_ns.push((end - start).as_nanos() as u64);
                        tally.updates += batch.len() as u64;
                        let id = lane.new_id();
                        lane.record(id, "graph.publish", window_span, 0, start, end);
                        if traced {
                            // What a query pays to pin, timed from outside.
                            let start = Instant::now();
                            let view = live.pin();
                            let end = Instant::now();
                            tally.pin_ns.push((end - start).as_nanos() as u64);
                            tally.overlay_edges.push(view.overlay_edges() as u64);
                            let id = lane.new_id();
                            lane.record(id, "graph.pin", window_span, 0, start, end);
                        }
                    }
                    tally.compactions = live.compactions() - compactions_before.unwrap_or(0);
                    tally
                })
            };

            // The generator: this thread.  It sends what is due, reaps what
            // has resolved, and sleeps only when the next send is far off.
            let mut schedule = OpenLoop::new(due);
            let mut stream =
                QueryStream::new(ctx.seed, 0, &inputs.pairs, &inputs.hot, &inputs.zipf);
            let mut pending: VecDeque<Pending> = VecDeque::new();
            loop {
                let now = Instant::now();
                let now_ns = (now - clock).as_nanos() as u64;
                while let Some((index, due_ns)) = schedule.pop_due(now_ns) {
                    let query = stream.next().expect("the stream is endless");
                    let due = at(due_ns);
                    let timed = due >= warm_until;
                    let sent = Instant::now();
                    let job = || {
                        let engine = Arc::clone(&engine);
                        move |pool: &WorkerPool| {
                            let start = traced.then(Instant::now);
                            let (answer, view) =
                                engine.query_pinned(query.source, query.target, pool);
                            let done_at = Instant::now();
                            LiveOutput {
                                answer,
                                view,
                                done_at,
                                head_version: engine.graph().current_version(),
                                job_span: start.map(|s| (s, done_at)),
                            }
                        }
                    };
                    // A refused request is not dropped: it is sent again,
                    // blocking, and keeps its due time, so overload shows
                    // as latency (and in `pool.rejected_share`) and no
                    // operation of the workload fails.
                    let ticket = match service.try_submit(job()) {
                        Ok(ticket) => ticket,
                        Err(SubmitError::QueueFull) => service
                            .submit(job())
                            .expect("the service is not shutting down"),
                        Err(SubmitError::ShuttingDown) => unreachable!("nobody shut it down"),
                    };
                    pending.push_back(Pending {
                        ticket,
                        index,
                        due,
                        sent,
                        submitted: Instant::now(),
                        query,
                        timed,
                    });
                    if timed {
                        late_ns.push((sent - due).as_nanos() as u64);
                        if traced {
                            depth_max = depth_max.max(service.stats().queue_depth);
                        }
                    }
                }

                // Jobs resolve nearly in order: look at the head of the
                // line and a little past it.
                let mut i = 0;
                while i < pending.len().min(2 * ctx.threads + 2) {
                    let Some(outcome) = pending[i].ticket.try_wait() else {
                        i += 1;
                        continue;
                    };
                    let p = pending.remove(i).expect("index in range");
                    if !p.timed {
                        continue;
                    }
                    let done = match outcome {
                        Ok(done) => done,
                        Err(_) => {
                            errors += 1;
                            continue;
                        }
                    };
                    let out = &done.output;
                    // From when the request was due, not from when it was
                    // sent: a stall is charged to everything it delayed.
                    let latency = out.done_at.saturating_duration_since(p.due);
                    latency_ns.push(latency.as_nanos() as u64);
                    wrong += u64::from(out.answer.version != out.view.version());
                    if out.answer.version.is_multiple_of(VERIFY_VERSION_STRIDE)
                        && (p.index as u64).is_multiple_of(VERIFY_EVERY / VERIFY_VERSION_STRIDE)
                    {
                        to_verify.push((p.query, out.answer.distance, out.view.clone()));
                    }
                    if traced {
                        lag.push(out.head_version - out.answer.version);
                        detail.record(&done, &out.answer, p.submitted - p.sent, latency);
                        if (p.index as u64).is_multiple_of(SPAN_EVERY) {
                            request_spans(
                                &mut lane,
                                window_span,
                                p.index as u64,
                                p.due,
                                p.submitted,
                                out.done_at,
                                out.job_span,
                            );
                        }
                    }
                }

                match schedule.next_due() {
                    Some(next_ns) => {
                        let gap = at(next_ns).saturating_duration_since(Instant::now());
                        if gap > Duration::from_micros(200) {
                            std::thread::sleep(gap - Duration::from_micros(100));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    None if pending.is_empty() => break,
                    None => std::thread::sleep(Duration::from_micros(50)),
                }
            }
            stop.store(true, Ordering::Relaxed);
            updater.join().expect("updater thread panicked")
        });
        lane.record(window_span, "bench.window", ROOT, 0, clock, Instant::now());

        // Exactness under snapshot isolation: sequential A* on the very
        // view each sampled query was served from.
        wrong += to_verify
            .iter()
            .filter(|(q, distance, view)| {
                astar::sequential(view, q.source, q.target).0 != *distance
            })
            .count() as u64;
        drop(to_verify);

        let mut layer = Layer::default();
        layer.set("algos.epoch_wraps", engine.epoch_wraps() as f64);
        layer.set("loadgen.offered_per_s", offered_timed as f64 / ctx.seconds);
        layer.set("loadgen.late_us_p99", Samples::new(late_ns).p_us(99.0));
        layer.set("pool.queue_depth_max", depth_max as f64);
        layer.set("graph.version_lag_p99", Samples::new(lag).p(99.0) as f64);
        let publish = Samples::new(updater.publish_ns);
        layer.set("graph.publish_us_p50", publish.p_us(50.0));
        layer.set("graph.publish_us_p99", publish.p_us(99.0));
        layer.set("graph.versions_published", publish.len() as f64);
        layer.set("graph.updates_per_s", updater.updates as f64 / ctx.seconds);
        layer.set("graph.compactions", updater.compactions as f64);
        layer.set(
            "graph.pin_ns_p50",
            Samples::new(updater.pin_ns).p(50.0) as f64,
        );
        layer.set(
            "graph.overlay_edges_mean",
            Samples::new(updater.overlay_edges).mean(),
        );
        detail.into_layer(&mut layer);
        service_layer(&mut layer, service, pool_spawn_s, offered_timed);
        Window {
            spawn_s,
            warmup_s: WARMUP_S,
            measured_s: ctx.seconds,
            throughput_per_s: latency_ns.len() as f64 / ctx.seconds,
            latency_ns,
            units_per_sample: 1.0,
            attempted: offered_timed.max(1),
            failed: errors + wrong,
            layer,
        }
    }
}
