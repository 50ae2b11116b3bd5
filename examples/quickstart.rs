//! Quickstart: use the Stealing Multi-Queue as a concurrent priority
//! scheduler directly, then under a worker pool.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::atomic::{AtomicU64, Ordering};

use smq_repro::core::{Scheduler, SchedulerHandle, Task};
use smq_repro::pool::{PoolConfig, PoolJob, WorkerPool};
use smq_repro::runtime::Scratch;
use smq_repro::smq::{HeapSmq, SmqConfig};

/// A diamond of follow-up tasks: every task below 1000 spawns two children.
struct Diamond {
    processed: AtomicU64,
}

impl PoolJob for Diamond {
    fn seed_tasks(&self) -> Vec<Task> {
        (0..1_000u64).map(|i| Task::new(i, i)).collect()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task), _scratch: &mut Scratch) -> bool {
        self.processed.fetch_add(1, Ordering::Relaxed);
        if task.key < 1_000 {
            push(Task::new(task.key + 1_000, task.value));
            push(Task::new(task.key + 2_000, task.value));
        }
        true
    }
}

fn main() {
    // --- 1. Direct use: one thread, exact priority order. ------------------
    let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(1));
    let mut handle = smq.handle(0);
    for (key, payload) in [(30u64, 0u64), (10, 1), (20, 2)] {
        handle.push(Task::new(key, payload));
    }
    print!("single-threaded pops:");
    while let Some(task) = handle.pop() {
        print!(" {}", task.key);
    }
    println!();
    drop(handle);

    // --- 2. Under a worker pool: 4 workers, one job. ------------------------
    // The pool's workers pop, process and push until the scheduler is
    // globally empty; `with_borrowed` joins them before it returns.
    let threads = 4;
    let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(threads));
    let job = Diamond {
        processed: AtomicU64::new(0),
    };
    let metrics = WorkerPool::with_borrowed(&smq, PoolConfig::new(threads), |pool| {
        pool.run_job(&job).expect("the job does not panic").metrics
    });
    println!(
        "pool processed {} tasks on {} threads in {:.2?} ({} steals across threads)",
        metrics.tasks_executed, metrics.threads, metrics.elapsed, metrics.total.steal_successes,
    );
    assert_eq!(metrics.tasks_executed, 3_000);
    assert_eq!(job.processed.load(Ordering::Relaxed), 3_000);
}
