//! The repo benchmark.  One command runs a workload, checks every output
//! against a sequential reference, prints every metric by name with its
//! unit, and ends standard output with one JSON result line.  See
//! `README.md` for what each workload and metric is for.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload route_closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all tracing off.
//! `--trace 1` spends the first half of `--seconds` untraced and the second
//! half with the benchmark's spans and the product's telemetry on, reports
//! the per-layer metrics, and writes `benchmark/out/trace-<workload>.json`.
//! Without `--workload`, every workload runs in turn.

mod gen;
mod hold;
mod layers;
mod report;
mod route;
mod spans;
mod sssp;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use smq_telemetry::TelemetryConfig;

use report::{Layer, Window, END_TO_END, PER_LAYER};
use spans::{Lane, Tracer};
use stats::Samples;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 7] = [
    "hold_smq",
    "hold_mq",
    "skew_smq",
    "sssp_road",
    "sssp_social",
    "route_closed",
    "route_open_live",
];

/// Worker threads never exceed this; load generators never exceed nproc.
const MAX_WORKERS: usize = 4;
/// Warm-up before each timed window, counted into `setup_s`.
pub const WARMUP_S: f64 = 1.0;
/// Untraced runs prepare their inputs this many times and report the
/// median, so one slow page-fault storm does not set `setup_s`.
const PREPARE_REPEATS: usize = 3;

/// What a timed window needs to know.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Worker threads `T`.
    pub threads: usize,
    /// Length of the timed window.
    pub seconds: f64,
    /// On in the traced half: the benchmark then records spans and turns
    /// the product's telemetry on.
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// The product telemetry this window runs with.
    pub fn telemetry(&self) -> TelemetryConfig {
        if self.traced() {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::disabled()
        }
    }
}

const WARM: u8 = 0;
const TIMED: u8 = 1;
const STOP: u8 = 2;

/// Sleeps through warm-up and the timed window, flipping `phase` for the
/// threads doing the work; returns the measured warm-up time.
pub fn drive_phases(phase: &AtomicU8, seconds: f64) -> f64 {
    let start = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(WARMUP_S));
    phase.store(TIMED, Ordering::SeqCst);
    let warmup = start.elapsed().as_secs_f64();
    std::thread::sleep(Duration::from_secs_f64(seconds));
    phase.store(STOP, Ordering::SeqCst);
    warmup
}

/// One workload: inputs made from the seed, then a timed window on them.
pub trait Workload {
    const NAME: &'static str;
    /// The tail percentile this workload yields enough samples for.
    const TAIL: f64;
    type Inputs;

    /// Generates the inputs and their sequential reference answers.  Layer
    /// metrics measured here (generation time, graph size) go to `layer`.
    fn prepare(seed: u64, threads: usize, lane: &mut Lane<'_>, layer: &mut Layer) -> Self::Inputs;

    /// Builds what the window runs on, warms it up, runs the timed window,
    /// tears down, and verifies the outputs.
    fn measure(inputs: &Self::Inputs, ctx: &Ctx<'_>) -> Window;
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}', known: {WORKLOADS:?}"));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The latency numbers of one window, in microseconds per work unit.
struct Latency {
    samples: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    tail: f64,
    tail_percentile: f64,
}

fn latency_of(window: &mut Window, wanted_tail: f64) -> Latency {
    let samples = Samples::new(std::mem::take(&mut window.latency_ns));
    let per_unit = |p| samples.p_us(p) / window.units_per_sample;
    let tail_percentile = stats::tail_percentile(samples.len(), wanted_tail);
    Latency {
        samples: samples.len(),
        p50: per_unit(50.0),
        p90: per_unit(90.0),
        p99: per_unit(99.0),
        tail: per_unit(tail_percentile),
        tail_percentile,
    }
}

/// One run of one workload; returns whether every output was correct.
fn run<W: Workload>(args: &Args) -> bool {
    let threads = nproc().min(MAX_WORKERS);
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let mut layer = Layer::default();
    let mut main_lane = tracer.lane(0);

    // Inputs.  The untraced run repeats the preparation for a steadier
    // `setup_s`; each repeat drops the previous inputs first so the peak
    // memory is that of one copy.
    let repeats = if args.trace { 1 } else { PREPARE_REPEATS };
    let mut prepare_s = Vec::with_capacity(repeats);
    let mut inputs = None;
    for _ in 0..repeats {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(W::prepare(args.seed, threads, &mut main_lane, &mut layer));
        prepare_s.push(start.elapsed().as_secs_f64());
    }
    drop(main_lane);
    let inputs = inputs.expect("prepared at least once");
    let ctx = |tracer, seconds| Ctx {
        seed: args.seed,
        threads,
        seconds,
        tracer,
    };

    println!(
        "# {} seed={} seconds={} trace={} nproc={} T={}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        threads
    );
    let (attempted, failed, metrics) = if !args.trace {
        let mut window = W::measure(&inputs, &ctx(&untraced, args.seconds));
        let latency = latency_of(&mut window, W::TAIL);
        let setup_s = stats::median(&prepare_s) + window.spawn_s + window.warmup_s;
        let values = [setup_s, window.throughput_per_s, latency.p50, peak_rss_mb()];
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| (*name, *unit, value))
            .collect();
        println!(
            "# latency: {} samples, p{} = {:.4} us",
            latency.samples, latency.tail_percentile, latency.tail
        );
        (window.attempted, window.failed, metrics)
    } else {
        // Half the time untraced, half traced: the throughput ratio of the
        // two halves is what the tracing costs.
        let base = W::measure(&inputs, &ctx(&untraced, args.seconds / 2.0));
        let mut window = W::measure(&inputs, &ctx(&tracer, args.seconds / 2.0));
        let latency = latency_of(&mut window, W::TAIL);
        layer.absorb(std::mem::take(&mut window.layer));
        layer.set("bench.nproc", nproc() as f64);
        layer.set("bench.threads", threads as f64);
        layer.set("bench.window_s", window.measured_s);
        let attempted = base.attempted + window.attempted;
        let failed = base.failed + window.failed;
        layer.set("bench.failed_share", failed as f64 / attempted as f64);
        layer.set("bench.traced_throughput_per_s", window.throughput_per_s);
        layer.set(
            "telemetry.overhead_share",
            1.0 - window.throughput_per_s / base.throughput_per_s,
        );
        layer.set("latency.samples", latency.samples as f64);
        layer.set("latency.us_p50", latency.p50);
        layer.set("latency.us_p90", latency.p90);
        layer.set("latency.us_p99", latency.p99);
        layer.set("latency.us_tail", latency.tail);
        layer.set("latency.tail_percentile", latency.tail_percentile);
        layer.set(
            "latency.samples_beyond_tail",
            stats::samples_beyond(latency.samples, latency.tail_percentile) as f64,
        );

        let spans = tracer.take();
        layer.set("trace.spans", spans.len() as f64);
        let path = PathBuf::from(format!("benchmark/out/trace-{}.json", W::NAME));
        let self_times = spans::self_times(&spans);
        match spans::write_chrome_trace(&path, W::NAME, &spans, &self_times) {
            Ok(()) => println!("# wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        println!("# self time per span name (ms): count total self");
        for row in &self_times {
            println!(
                "#   {:<24} {:>8} {:>12.3} {:>12.3}",
                row.name, row.count, row.total_ms, row.self_ms
            );
        }
        let metrics: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, *unit, layer.get(name)))
            .collect();
        (attempted, failed, metrics)
    };

    for (name, unit, value) in &metrics {
        println!("{name:<40} {value:>18.4} {unit}");
    }
    println!("{}", report::result_line(attempted, failed, &metrics));
    failed == 0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: smq-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for name in selected {
        all_correct &= match name {
            "hold_smq" => run::<hold::Hold<hold::SmqKind>>(&args),
            "hold_mq" => run::<hold::Hold<hold::MqKind>>(&args),
            "skew_smq" => run::<hold::Skew>(&args),
            "sssp_road" => run::<sssp::Road>(&args),
            "sssp_social" => run::<sssp::Social>(&args),
            "route_closed" => run::<route::Closed>(&args),
            "route_open_live" => run::<route::OpenLive>(&args),
            _ => unreachable!("parse_args only lets known workloads through"),
        };
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
