//! Whole-graph SSSP from vertex 0, every run checked against sequential
//! Dijkstra.
//!
//! * `sssp_road` — a high-diameter road grid through one-shot
//!   `engine::run_parallel` with a fresh `HeapSmq` per run: tiny frontier,
//!   so scheduler operations, stealing and termination detection dominate
//!   and every run pays thread spawn and join.
//! * `sssp_social` — a low-diameter power-law graph far larger than the
//!   last-level cache, as whole-fleet jobs on one resident `WorkerPool`:
//!   relaxations and edge scans dominate, nothing is spawned per job.
//!
//! The clock runs only while a run is in flight; each output is compared
//! with the reference between runs, outside the timed time.

use std::time::{Duration, Instant};

use smq_algos::engine::{self, EngineRun};
use smq_algos::sssp::{self, SsspWorkload};
use smq_core::Task;
use smq_graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
use smq_graph::CsrGraph;
use smq_pool::{PoolConfig, WorkerPool};
use smq_scheduler::{HeapSmq, SmqConfig};

use crate::layers::{graph_layer, pool_layer, EngineTally};
use crate::report::{Layer, Window};
use crate::spans::{Lane, ROOT};
use crate::stats::Samples;
use crate::{Ctx, Workload, WARMUP_S};

const SOURCE: u32 = 0;
/// `sssp_road`: grid side and share of grid edges removed.
const ROAD_SIDE: u32 = 768;
const ROAD_REMOVAL_PERCENT: u32 = 10;
/// `sssp_social`: vertices, average out-degree, degree exponent.
const SOCIAL_NODES: u32 = 400_000;
const SOCIAL_AVG_DEGREE: u32 = 16;
const SOCIAL_EXPONENT: f64 = 2.1;

pub struct SsspInputs {
    graph: CsrGraph,
    reference: Vec<u64>,
    /// Vertices sequential Dijkstra settled: the least tasks any run needs.
    baseline_tasks: u64,
    reference_s: f64,
}

fn prepare(
    lane: &mut Lane<'_>,
    layer: &mut Layer,
    generate: impl FnOnce() -> CsrGraph,
) -> SsspInputs {
    let start = Instant::now();
    let graph = lane.scope("graph.generate", ROOT, generate);
    graph_layer(layer, &graph, start.elapsed().as_secs_f64());
    let start = Instant::now();
    let (reference, baseline_tasks) =
        lane.scope("algos.reference", ROOT, || sssp::sequential(&graph, SOURCE));
    let reference_s = start.elapsed().as_secs_f64();
    layer.set("algos.seq_reference_ms", reference_s * 1e3);
    SsspInputs {
        graph,
        reference,
        baseline_tasks,
        reference_s,
    }
}

/// Sums over the timed runs of one window.
#[derive(Default)]
struct Tally {
    latency_ns: Vec<u64>,
    /// Wall of the engine call minus the work loop's own elapsed time.
    call_overhead_ns: Vec<u64>,
    busy: Duration,
    wrong: u64,
    engine: EngineTally,
}

/// Warm-up, then back-to-back runs until the clock has run `ctx.seconds`.
/// `run_one` makes one engine call; `call_span` names it in the trace and
/// `overhead_metric` is where the call's non-loop time is reported.
fn window(
    inputs: &SsspInputs,
    ctx: &Ctx<'_>,
    spawn_s: f64,
    call_span: &'static str,
    overhead_metric: &'static str,
    mut run_one: impl FnMut(&SsspWorkload<'_>) -> EngineRun<Vec<u64>>,
) -> Window {
    let mut lane = ctx.tracer.lane(0);
    let window_span = lane.new_id();
    let warm_start = Instant::now();
    while warm_start.elapsed().as_secs_f64() < WARMUP_S {
        std::hint::black_box(run_one(&SsspWorkload::new(&inputs.graph, SOURCE)));
    }
    let warmup_s = warm_start.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let window_start = Instant::now();
    while tally.busy.as_secs_f64() < ctx.seconds {
        // The per-run state (one atomic distance per vertex) is part of
        // what a caller pays per run, so it is inside the clock.
        let start = Instant::now();
        let workload = SsspWorkload::new(&inputs.graph, SOURCE);
        let call = Instant::now();
        let run = run_one(&workload);
        let end = Instant::now();
        tally.busy += end - start;
        tally.latency_ns.push((end - start).as_nanos() as u64);
        let id = lane.new_id();
        let request = tally.latency_ns.len() as u64;
        lane.record(id, call_span, window_span, request, call, end);

        let loop_time = run.result.metrics.elapsed;
        tally
            .call_overhead_ns
            .push((end - call).saturating_sub(loop_time).as_nanos() as u64);
        tally.wrong += u64::from(run.output != inputs.reference);
        tally.engine.record(&run.result);
    }
    lane.record(
        window_span,
        "bench.window",
        ROOT,
        0,
        window_start,
        Instant::now(),
    );

    let runs = tally.engine.runs;
    let useful = tally.engine.useful;
    let measured_s = tally.busy.as_secs_f64();
    let mut layer = Layer::default();
    layer.set(
        "algos.work_increase",
        (useful + tally.engine.wasted) as f64 / (runs * inputs.baseline_tasks).max(1) as f64,
    );
    layer.set(
        "algos.speedup_vs_seq",
        inputs.reference_s * runs as f64 / measured_s,
    );
    layer.set(
        overhead_metric,
        Samples::new(tally.call_overhead_ns).p_us(50.0),
    );
    tally.engine.into_layer(&mut layer);

    Window {
        spawn_s,
        warmup_s,
        measured_s,
        throughput_per_s: useful as f64 / measured_s,
        latency_ns: tally.latency_ns,
        units_per_sample: 1.0,
        attempted: runs,
        failed: tally.wrong,
        layer,
    }
}

fn default_smq(threads: usize) -> HeapSmq<Task> {
    HeapSmq::new(SmqConfig::default_for_threads(threads))
}

pub struct Road;

impl Workload for Road {
    const NAME: &'static str = "sssp_road";
    const TAIL: f64 = 90.0;
    type Inputs = SsspInputs;

    fn prepare(seed: u64, _threads: usize, lane: &mut Lane<'_>, layer: &mut Layer) -> SsspInputs {
        prepare(lane, layer, || {
            road_network(RoadNetworkParams {
                width: ROAD_SIDE,
                height: ROAD_SIDE,
                removal_percent: ROAD_REMOVAL_PERCENT,
                seed,
            })
        })
    }

    fn measure(inputs: &SsspInputs, ctx: &Ctx<'_>) -> Window {
        let threads = ctx.threads;
        window(
            inputs,
            ctx,
            0.0,
            "runtime.run_parallel",
            "runtime.spawn_join_us",
            |workload| {
                let smq = default_smq(threads);
                if ctx.traced() {
                    // What `run_parallel` does, plus telemetry.
                    WorkerPool::with_borrowed(
                        &smq,
                        PoolConfig::new(threads).with_telemetry(ctx.telemetry()),
                        |pool| engine::run_on_pool(workload, pool),
                    )
                } else {
                    engine::run_parallel(workload, &smq, threads)
                }
            },
        )
    }
}

pub struct Social;

impl Workload for Social {
    const NAME: &'static str = "sssp_social";
    const TAIL: f64 = 75.0;
    type Inputs = SsspInputs;

    fn prepare(seed: u64, _threads: usize, lane: &mut Lane<'_>, layer: &mut Layer) -> SsspInputs {
        prepare(lane, layer, || {
            power_law(PowerLawParams {
                nodes: SOCIAL_NODES,
                avg_degree: SOCIAL_AVG_DEGREE,
                exponent: SOCIAL_EXPONENT,
                seed,
                ..PowerLawParams::default()
            })
        })
    }

    fn measure(inputs: &SsspInputs, ctx: &Ctx<'_>) -> Window {
        let mut lane = ctx.tracer.lane(0);
        let start = Instant::now();
        let pool = lane.scope("pool.spawn", ROOT, || {
            WorkerPool::new(
                default_smq(ctx.threads),
                PoolConfig::new(ctx.threads).with_telemetry(ctx.telemetry()),
            )
        });
        let spawn_s = start.elapsed().as_secs_f64();
        drop(lane);
        let mut window = window(
            inputs,
            ctx,
            spawn_s,
            "pool.run_on_pool",
            "pool.job_overhead_us_p50",
            |workload| engine::run_on_pool(workload, &pool),
        );
        pool_layer(&mut window.layer, &pool, spawn_s);
        window
    }
}
