//! Raw scheduler workloads: the benchmark's threads drive scheduler
//! handles themselves, so only the scheduler (and the heap under it) does
//! any work; runtime, pool, algos and graph are bypassed.
//!
//! * `hold_smq` / `hold_mq` — the hold model: every thread loops
//!   `pop` then `push(priority + 1 + rng % 1024)` over a prefilled queue.
//! * `skew_smq` — thread 0 only produces, the others only consume, so
//!   every delivered task crosses a stealing buffer.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use smq_core::{OpStats, Scheduler, SchedulerHandle, Task};
use smq_dheap::DAryHeap;
use smq_multiqueue::{MultiQueue, MultiQueueConfig};
use smq_scheduler::{HeapSmq, SmqConfig};

use crate::gen::Rng;
use crate::layers::{multiqueue_layer, smq_layer};
use crate::report::{Layer, Window};
use crate::spans::{Lane, ROOT};
use crate::{drive_phases, Ctx, Workload, STOP, TIMED, WARM};

/// Tasks each thread inserts before the clock starts.
const PREFILL_PER_THREAD: usize = 16_384;
/// Prefill priorities are uniform below this; the hold increments keep the
/// resident keys in a band of about this width.
const PREFILL_KEY_SPAN: u64 = 1 << 20;
/// Hold increment is `1 + rng % HOLD_SPREAD`.
const HOLD_SPREAD: u64 = 1024;
/// Operations between two clock reads: one latency sample per chunk.
const CHUNK: u64 = 1024;
/// Empty pops after which a chunk gives up short of `CHUNK` units (it then
/// yields no latency sample), so a thread can never spin past the window.
const MAX_MISSES: u64 = 1 << 16;
/// Every this-many-th chunk is offered to the tracer as a span.
const SPAN_EVERY: u64 = 64;
/// `skew_smq`: tasks per producer batch and the cap on resident tasks.
const SKEW_BATCH: usize = 64;
const SKEW_RESIDENT_CAP: usize = 65_536;
/// Raw-heap hold pairs timed in set-up for `dheap.hold_ns_per_op`.
const DHEAP_PAIRS: u64 = 1 << 20;

/// Which scheduler a hold workload drives, built from library defaults.
pub trait Kind {
    const NAME: &'static str;
    type Sched: Scheduler<Task>;
    fn build(threads: usize) -> Self::Sched;
    fn layer(layer: &mut Layer, stats: &OpStats, busy_ns: u64);
}

pub struct SmqKind;

impl Kind for SmqKind {
    const NAME: &'static str = "hold_smq";
    type Sched = HeapSmq<Task>;

    fn build(threads: usize) -> HeapSmq<Task> {
        HeapSmq::new(SmqConfig::default_for_threads(threads))
    }

    fn layer(layer: &mut Layer, stats: &OpStats, busy_ns: u64) {
        smq_layer(layer, stats, busy_ns);
    }
}

pub struct MqKind;

impl Kind for MqKind {
    const NAME: &'static str = "hold_mq";
    type Sched = MultiQueue<Task>;

    fn build(threads: usize) -> MultiQueue<Task> {
        MultiQueue::new(MultiQueueConfig::classic(threads))
    }

    fn layer(layer: &mut Layer, stats: &OpStats, busy_ns: u64) {
        multiqueue_layer(layer, stats, busy_ns);
    }
}

pub struct HoldInputs {
    /// One prefill per thread; task values are unique ids.
    prefill: Vec<Vec<Task>>,
}

/// Unique task ids: thread in the high bits, a counter below.
fn task_id(thread: usize, n: u64) -> u64 {
    (thread as u64 + 1) << 40 | n
}

fn prefill(seed: u64, threads: usize) -> Vec<Vec<Task>> {
    (0..threads)
        .map(|t| {
            let mut rng = Rng::new(seed, t as u64);
            (0..PREFILL_PER_THREAD as u64)
                .map(|i| Task::new(rng.below(PREFILL_KEY_SPAN), task_id(t, i)))
                .collect()
        })
        .collect()
}

/// Single-thread hold on a bare heap of the scheduler's default arity at
/// the same resident size: what the heap alone costs per operation, so
/// `smq.ns_per_op - dheap.hold_ns_per_op` is the scheduler's overhead.
fn dheap_hold_ns_per_op(seed: u64, tasks: &[Task]) -> f64 {
    let arity = SmqConfig::default_for_threads(1).heap_arity;
    let mut heap: DAryHeap<Task> = DAryHeap::with_capacity(arity, tasks.len() + 1);
    heap.extend(tasks.iter().copied());
    let mut rng = Rng::new(seed, 0xD4EA);
    let start = Instant::now();
    for i in 0..DHEAP_PAIRS {
        let task = heap.pop().expect("hold never drains the heap");
        heap.push(Task::new(task.key + 1 + rng.below(HOLD_SPREAD), i));
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&heap);
    ns / (2 * DHEAP_PAIRS) as f64
}

fn prepare_hold(seed: u64, threads: usize, lane: &mut Lane<'_>, layer: &mut Layer) -> HoldInputs {
    let prefill = lane.scope("bench.generate", ROOT, || prefill(seed, threads));
    let ns = lane.scope("dheap.hold", ROOT, || {
        dheap_hold_ns_per_op(seed, &prefill[0])
    });
    layer.set("dheap.hold_ns_per_op", ns);
    HoldInputs { prefill }
}

/// What one driver thread brings back.
#[derive(Default)]
struct ThreadTally {
    chunk_ns: Vec<u64>,
    /// Units completed in timed chunks, and the thread time they took.
    timed_units: u64,
    timed_ns: u64,
    stats: OpStats,
    pushed: u64,
    popped: u64,
    pushed_xor: u64,
    popped_xor: u64,
    /// Tasks still resident when the window closed, as `(count, xor)`.
    left: (u64, u64),
}

impl ThreadTally {
    fn push(&mut self, id: u64) {
        self.pushed += 1;
        self.pushed_xor ^= id;
    }

    fn pop(&mut self, task: &Task) {
        self.popped += 1;
        self.popped_xor ^= task.value;
    }
}

/// Bookkeeping shared by the hold and skew loops: times chunks, keeps the
/// ones that started inside the timed window, and cuts `OpStats` down to
/// that window.
struct ChunkClock<'a, 'l, 't> {
    phase: &'a AtomicU8,
    lane: &'l mut Lane<'t>,
    span_name: &'static str,
    window_span: u64,
    first: Option<(Instant, OpStats)>,
    last: Instant,
    chunks: u64,
}

impl ChunkClock<'_, '_, '_> {
    /// Runs one chunk through `body` (which returns the units it
    /// completed); `false` once the window is over.
    fn chunk<H: SchedulerHandle<Task>>(
        &mut self,
        handle: &mut H,
        tally: &mut ThreadTally,
        body: impl FnOnce(&mut H, &mut ThreadTally) -> u64,
    ) -> bool {
        let phase = self.phase.load(Ordering::Relaxed);
        if phase == STOP {
            return false;
        }
        if phase == TIMED && self.first.is_none() {
            self.first = Some((Instant::now(), handle.stats()));
        }
        let start = Instant::now();
        let units = body(handle, tally);
        let end = Instant::now();
        if phase == TIMED {
            self.last = end;
            tally.timed_units += units;
            if units == CHUNK {
                tally.chunk_ns.push((end - start).as_nanos() as u64);
            }
            self.chunks += 1;
            if self.chunks.is_multiple_of(SPAN_EVERY) {
                let id = self.lane.new_id();
                self.lane
                    .record(id, self.span_name, self.window_span, 0, start, end);
            }
        }
        true
    }

    /// Closes the window's accounting, then drains through the thread's
    /// own handle: tasks it has stolen but not yet returned live in the
    /// handle and would be dropped with it.
    fn finish<H: SchedulerHandle<Task>>(self, handle: &mut H, tally: &mut ThreadTally) {
        if let Some((first, baseline)) = self.first {
            tally.timed_ns = (self.last - first).as_nanos() as u64;
            tally.stats = handle.stats().delta_since(&baseline);
        }
        tally.left = drain_handle(handle);
    }
}

/// Pops until the handle keeps coming back empty.  A relaxed pop may miss,
/// so a task counts as gone only after many misses in a row.
fn drain_handle<H: SchedulerHandle<Task>>(handle: &mut H) -> (u64, u64) {
    let (mut count, mut xor, mut misses) = (0u64, 0u64, 0);
    handle.flush();
    while misses < 64 {
        match handle.pop() {
            Some(task) => {
                count += 1;
                xor ^= task.value;
                misses = 0;
            }
            None => misses += 1,
        }
    }
    (count, xor)
}

/// What is left once every driver thread has drained through its own
/// handle, popped through fresh ones.
fn drain<S: Scheduler<Task>>(sched: &S, threads: usize) -> (u64, u64) {
    (0..threads)
        .map(|t| drain_handle(&mut sched.handle(t)))
        .fold((0, 0), |(n, x), (dn, dx)| (n + dn, x ^ dx))
}

/// No task lost, none duplicated: what went in is what came out plus what
/// is still inside, by count and by the xor of the unique ids.
fn lost_tasks(tallies: &[ThreadTally], prefilled: (u64, u64), resident: (u64, u64)) -> u64 {
    let pushed: u64 = prefilled.0 + tallies.iter().map(|t| t.pushed).sum::<u64>();
    let popped: u64 = tallies.iter().map(|t| t.popped + t.left.0).sum();
    let pushed_xor = tallies.iter().fold(prefilled.1, |x, t| x ^ t.pushed_xor);
    let popped_xor = tallies
        .iter()
        .fold(resident.1, |x, t| x ^ t.popped_xor ^ t.left.1);
    let miscounted = pushed.abs_diff(popped + resident.0);
    if miscounted == 0 && pushed_xor != popped_xor {
        1
    } else {
        miscounted
    }
}

/// Folds the per-thread tallies into a [`Window`].
fn window_of<K: Kind>(tallies: Vec<ThreadTally>, spawn_s: f64, warmup_s: f64, lost: u64) -> Window {
    let throughput_per_s = tallies
        .iter()
        .filter(|t| t.timed_ns > 0)
        .map(|t| t.timed_units as f64 * 1e9 / t.timed_ns as f64)
        .sum();
    let busy_ns: u64 = tallies.iter().map(|t| t.timed_ns).sum();
    let measured_s = busy_ns as f64 / 1e9 / tallies.len() as f64;
    let stats = OpStats::merged(tallies.iter().map(|t| &t.stats));
    let mut layer = Layer::default();
    K::layer(&mut layer, &stats, busy_ns);
    let attempted = tallies.iter().map(|t| t.timed_units).sum::<u64>().max(1);
    Window {
        spawn_s,
        warmup_s,
        measured_s,
        throughput_per_s,
        latency_ns: tallies.into_iter().flat_map(|t| t.chunk_ns).collect(),
        units_per_sample: CHUNK as f64,
        attempted,
        failed: lost,
        layer,
    }
}

/// What one driver thread does between the start barrier and the end of
/// the window.  Generic over the handle so that the scheduler calls stay
/// statically dispatched, as they are in the executor.
trait Driver: Sync {
    fn span_name(&self, thread: usize) -> &'static str;

    fn drive<H: SchedulerHandle<Task>>(
        &self,
        thread: usize,
        handle: &mut H,
        clock: &mut ChunkClock<'_, '_, '_>,
        tally: &mut ThreadTally,
    );
}

/// Builds a `K` scheduler for `threads` threads, prefills it, runs
/// `driver` on every thread through warm-up and the timed window, then
/// checks that no task was lost.
fn run_threads<K: Kind>(
    ctx: &Ctx<'_>,
    threads: usize,
    prefill: &[Vec<Task>],
    driver: &impl Driver,
) -> Window {
    let build_start = Instant::now();
    let sched = K::build(threads);
    let phase = AtomicU8::new(WARM);
    let ready = Barrier::new(threads + 1);
    let mut main_lane = ctx.tracer.lane(0);
    let window_span = main_lane.new_id();
    let (tallies, spawn_s, warmup_s, window) = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let (sched, phase, ready) = (&sched, &phase, &ready);
                let fill = prefill.get(t).map_or(&[][..], Vec::as_slice);
                scope.spawn(move || {
                    let mut handle = sched.handle(t);
                    for &task in fill {
                        handle.push(task);
                    }
                    ready.wait();
                    let mut tally = ThreadTally::default();
                    tally.chunk_ns.reserve((ctx.seconds * 2e4) as usize + 1024);
                    let mut lane = ctx.tracer.lane(1 + t as u32);
                    let mut clock = ChunkClock {
                        phase,
                        lane: &mut lane,
                        span_name: driver.span_name(t),
                        window_span,
                        first: None,
                        last: Instant::now(),
                        chunks: 0,
                    };
                    driver.drive(t, &mut handle, &mut clock, &mut tally);
                    clock.finish(&mut handle, &mut tally);
                    tally
                })
            })
            .collect();
        ready.wait();
        let spawn_s = build_start.elapsed().as_secs_f64();
        let window_start = Instant::now();
        let warmup_s = drive_phases(&phase, ctx.seconds);
        let tallies: Vec<ThreadTally> = joins
            .into_iter()
            .map(|j| j.join().expect("driver thread panicked"))
            .collect();
        (tallies, spawn_s, warmup_s, (window_start, Instant::now()))
    });
    main_lane.record(window_span, "bench.window", ROOT, 0, window.0, window.1);

    let prefilled = prefill
        .iter()
        .flatten()
        .fold((0u64, 0u64), |(n, x), task| (n + 1, x ^ task.value));
    let lost = lost_tasks(&tallies, prefilled, drain(&sched, threads));
    window_of::<K>(tallies, spawn_s, warmup_s, lost)
}

/// The hold model: `pop`, then `push(priority + 1 + rng % HOLD_SPREAD)`.
struct HoldDriver {
    seed: u64,
}

impl Driver for HoldDriver {
    fn span_name(&self, _thread: usize) -> &'static str {
        "sched.hold_chunk"
    }

    fn drive<H: SchedulerHandle<Task>>(
        &self,
        t: usize,
        handle: &mut H,
        clock: &mut ChunkClock<'_, '_, '_>,
        tally: &mut ThreadTally,
    ) {
        let mut rng = Rng::new(self.seed, 0x401D + t as u64);
        let mut next_id = PREFILL_PER_THREAD as u64;
        while clock.chunk(handle, tally, |handle, tally| {
            // A relaxed pop may come back empty (a lost try-lock); it is
            // retried, not counted.
            let (mut pairs, mut misses) = (0, 0);
            while pairs < CHUNK && misses < MAX_MISSES {
                let Some(task) = handle.pop() else {
                    misses += 1;
                    continue;
                };
                tally.pop(&task);
                let id = task_id(t, next_id);
                next_id += 1;
                let key = task.key + 1 + rng.below(HOLD_SPREAD);
                handle.push(Task::new(key, id));
                tally.push(id);
                pairs += 1;
            }
            pairs
        }) {}
    }
}

pub struct Hold<K>(PhantomData<K>);

impl<K: Kind> Workload for Hold<K> {
    const NAME: &'static str = K::NAME;
    const TAIL: f64 = 99.0;
    type Inputs = HoldInputs;

    fn prepare(seed: u64, threads: usize, lane: &mut Lane<'_>, layer: &mut Layer) -> HoldInputs {
        prepare_hold(seed, threads, lane, layer)
    }

    fn measure(inputs: &HoldInputs, ctx: &Ctx<'_>) -> Window {
        let driver = HoldDriver { seed: ctx.seed };
        run_threads::<K>(ctx, ctx.threads, &inputs.prefill, &driver)
    }
}

/// Thread 0 produces, the others consume; `resident` is the benchmark's
/// own count of tasks inside the scheduler, which caps the producer.
struct SkewDriver {
    resident: AtomicUsize,
}

impl Driver for SkewDriver {
    fn span_name(&self, thread: usize) -> &'static str {
        if thread == 0 {
            "smq.produce_chunk"
        } else {
            "smq.consume_chunk"
        }
    }

    fn drive<H: SchedulerHandle<Task>>(
        &self,
        t: usize,
        handle: &mut H,
        clock: &mut ChunkClock<'_, '_, '_>,
        tally: &mut ThreadTally,
    ) {
        let resident = &self.resident;
        if t == 0 {
            // The producer reports no units, so throughput and latency are
            // the consumers'; its counters still reach the layer metrics.
            let mut next_key = 0u64;
            let mut batch = Vec::with_capacity(SKEW_BATCH);
            while clock.chunk(handle, tally, |handle, tally| {
                for _ in 0..CHUNK {
                    if resident.load(Ordering::Relaxed) + SKEW_BATCH <= SKEW_RESIDENT_CAP {
                        for _ in 0..SKEW_BATCH {
                            let id = task_id(0, next_key);
                            batch.push(Task::new(next_key, id));
                            tally.push(id);
                            next_key += 1;
                        }
                        handle.push_batch(&mut batch);
                        resident.fetch_add(SKEW_BATCH, Ordering::Relaxed);
                    } else {
                        // At the cap: keep republishing the stealing
                        // buffer the consumers drain.
                        handle.flush();
                        std::hint::spin_loop();
                    }
                }
                0
            }) {}
        } else {
            while clock.chunk(handle, tally, |handle, tally| {
                let (mut got, mut misses) = (0, 0);
                while got < CHUNK && misses < MAX_MISSES {
                    match handle.pop() {
                        Some(task) => {
                            tally.pop(&task);
                            got += 1;
                        }
                        None => {
                            misses += 1;
                            std::hint::spin_loop();
                        }
                    }
                }
                resident.fetch_sub(got as usize, Ordering::Relaxed);
                got
            }) {}
        }
    }
}

pub struct Skew;

impl Workload for Skew {
    const NAME: &'static str = "skew_smq";
    const TAIL: f64 = 99.0;
    type Inputs = ();

    fn prepare(_seed: u64, _threads: usize, _lane: &mut Lane<'_>, _layer: &mut Layer) {}

    fn measure(_inputs: &(), ctx: &Ctx<'_>) -> Window {
        let driver = SkewDriver {
            resident: AtomicUsize::new(0),
        };
        // One producer needs at least one consumer.
        run_threads::<SmqKind>(ctx, ctx.threads.max(2), &[], &driver)
    }
}
