//! Criterion micro-benchmarks: per-operation cost of each scheduler and of
//! the SMQ's core substrates (d-ary heap, stealing buffer).
//!
//! These are not figures from the paper; they support its ablation
//! discussion (Section 4) by quantifying the per-operation cost differences
//! that motivate the stealing-buffer design.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use smq_core::rng::Pcg32;
use smq_core::{Probability, Scheduler, SchedulerHandle, Task};
use smq_dheap::{DAryHeap, PackedHeap, ARITY};
use smq_multiqueue::{MultiQueue, MultiQueueConfig};
use smq_obim::{Obim, ObimConfig};
use smq_scheduler::{HeapSmq, LocalQueue, SmqConfig, StealingBuffer};
use smq_spraylist::{SprayList, SprayListConfig};

const OPS: u64 = 10_000;

/// Pushes `OPS` tasks and pops them all back through a single handle.
fn push_pop_cycle<S: Scheduler<Task>>(scheduler: &S) {
    let mut handle = scheduler.handle(0);
    for i in 0..OPS {
        handle.push(Task::new((i * 2_654_435_761) % OPS, i));
    }
    let mut popped = 0;
    let mut misses = 0;
    while popped < OPS && misses < 1_000 {
        match handle.pop() {
            Some(_) => {
                popped += 1;
                misses = 0;
            }
            None => misses += 1,
        }
    }
    assert_eq!(popped, OPS, "scheduler lost tasks during the benchmark");
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("push_pop_10k");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("smq_heap", "default"), |b| {
        b.iter(|| {
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
            push_pop_cycle(&smq);
        })
    });
    group.bench_function(BenchmarkId::new("classic_mq", "C=4"), |b| {
        b.iter(|| {
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2));
            push_pop_cycle(&mq);
        })
    });
    group.bench_function(BenchmarkId::new("obim", "delta=6"), |b| {
        b.iter(|| {
            let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 6, 32));
            push_pop_cycle(&obim);
        })
    });
    group.bench_function(BenchmarkId::new("spraylist", "default"), |b| {
        b.iter(|| {
            let sl: SprayList<Task> = SprayList::new(SprayListConfig::default_for_threads(2));
            push_pop_cycle(&sl);
        })
    });
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);

    group.bench_function("stealing_buffer_fill_steal", |b| {
        let buffer: StealingBuffer<Task> = StealingBuffer::new(16);
        let batch: Vec<Task> = (0..16).map(|i| Task::new(i, i)).collect();
        let mut out = Vec::with_capacity(16);
        b.iter(|| {
            buffer.fill(&batch);
            out.clear();
            assert_eq!(buffer.steal_into(&mut out), 16);
        })
    });
    group.bench_function("smq_steal_probability_sampling", |b| {
        let mut rng = Pcg32::new(1);
        let p = Probability::new(8);
        b.iter(|| {
            let mut hits = 0u32;
            for _ in 0..1_000 {
                if p.sample(&mut rng) {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();
}

/// Times `OPS` hold pairs per iteration on `heap`, which holds `resident`
/// tasks drawn from `rng` and keeps drawing increments from it.
fn bench_hold_on<Q: LocalQueue<Task>>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    resident: usize,
    mut heap: Q,
    mut rng: Pcg32,
) {
    group.bench_function(BenchmarkId::new(name, resident), |b| {
        b.iter(|| {
            for i in 0..OPS {
                let task = heap.pop().expect("the hold model never drains the heap");
                heap.push(Task::new(task.key + 1 + rng.next_u64() % 1024, i));
            }
        })
    });
    assert_eq!(heap.len(), resident);
}

/// The d-ary heap in the regime the schedulers keep it in: a resident set
/// of fixed size, every pop followed by a push a little further on (the hold
/// model, increment `1 + rng % 1024`).  One iteration is `OPS` such pairs on
/// a heap that lives across iterations.  1 Ki tasks (16 KiB) sit in L1,
/// 16 Ki (one thread of the repo benchmark's `hold_smq`) in L2, 256 Ki in
/// neither; `std`'s binary max-heap under `Reverse` is the yardstick for the
/// 4-ary kernel.  `packed` is the schedulers' `PackedHeap` on the same
/// tasks, whose keys and values fit in 32 bits, so it holds one word per
/// task.  The README's heap-kernel table is this group's output.
fn bench_heap_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("dary_heap_hold_10k");
    group.sample_size(10);
    for resident in [1usize << 10, 1 << 14, 1 << 18] {
        let prefill = |rng: &mut Pcg32| -> Vec<Task> {
            (0..resident as u64)
                .map(|i| Task::new(rng.next_u64() >> 44, i))
                .collect()
        };
        let mut rng = Pcg32::new(resident as u64);
        let heap: DAryHeap<Task> = prefill(&mut rng).into_iter().collect();
        bench_hold_on(&mut group, &format!("arity_{ARITY}"), resident, heap, rng);
        let mut rng = Pcg32::new(resident as u64);
        let mut heap = PackedHeap::new();
        heap.extend(prefill(&mut rng));
        bench_hold_on(&mut group, "packed", resident, heap, rng);
        let mut rng = Pcg32::new(resident as u64);
        let mut heap = BinaryHeap::with_capacity(resident + 1);
        heap.extend(prefill(&mut rng).into_iter().map(Reverse));
        group.bench_function(BenchmarkId::new("std_binary", resident), |b| {
            b.iter(|| {
                for i in 0..OPS {
                    let Reverse(task) = heap.pop().expect("the hold model never drains the heap");
                    heap.push(Reverse(Task::new(task.key + 1 + rng.next_u64() % 1024, i)));
                }
            })
        });
        assert_eq!(heap.len(), resident);
    }
    group.finish();
}

/// Not a timing benchmark: quantifies the snapshot optimisation by
/// reporting delete-path lock acquisitions per successful pop on the
/// Multi-Queue.  The classic two-choice delete locks both sampled queues
/// (2 per pop); the snapshot-guided delete should stay at ~1.
fn report_locks_per_pop(_c: &mut Criterion) {
    let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2));
    let mut handle = mq.handle(0);
    for i in 0..OPS {
        handle.push(Task::new((i * 2_654_435_761) % OPS, i));
    }
    let mut popped = 0;
    let mut misses = 0;
    while popped < OPS && misses < 1_000 {
        match handle.pop() {
            Some(_) => {
                popped += 1;
                misses = 0;
            }
            None => misses += 1,
        }
    }
    assert_eq!(popped, OPS, "scheduler lost tasks during the measurement");
    let stats = handle.stats();
    let ratio = stats
        .locks_per_pop()
        .expect("multi-queue pops must acquire locks");
    println!(
        "classic_mq/locks_per_pop  {:.4} ({} locks / {} pops; classic two-choice = 2.0)",
        ratio, stats.locks_acquired, stats.pops
    );
    assert!(
        ratio <= 1.25,
        "snapshot delete regressed to {ratio:.3} locks per pop"
    );
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_substrates,
    bench_heap_hold,
    report_locks_per_pop
);
criterion_main!(benches);
