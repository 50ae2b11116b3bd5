//! A test scheduler that injects seeded faults into a real one.
//! [`Faulty<S>`] hands out handles that delegate every call to `S`'s
//! handles and consult a shared [`FaultPlan`] around the calls that move
//! tasks.  Only the chaos suite includes this file.
//!
//! The plan knows three kinds of fault, each with a rate in parts per
//! million per draw and a budget of fires over the plan's life:
//!
//! * a **panic** before the inner `pop`/`pop_batch`: the worker's share of
//!   the job unwinds between tasks, with no task in flight;
//! * a **stall** before the inner `pop`/`pop_batch`: a slow worker, which
//!   only delays its job;
//! * a **push panic** after the inner `push`/`push_batch` returned: the
//!   tasks are published and credited, and the worker unwinds in the middle
//!   of a scheduler operation.  An empty `push_batch` publishes nothing and
//!   draws nothing.
//!
//! Pops and pushes draw from separate seeded sequences, so a push panic is
//! never spent on a pop.  The budgets make a storm recoverable: once they
//! are spent, nothing more can fail.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smq_repro::core::{OpStats, Scheduler, SchedulerHandle};

/// How long one injected stall sleeps.
const STALL: Duration = Duration::from_micros(200);

/// One kind of fault: its rate and what is left of its budget.
struct Budget {
    rate_ppm: u64,
    remaining: AtomicU64,
    fired: AtomicU64,
}

impl Budget {
    fn new((rate_ppm, budget): (u64, u64)) -> Self {
        Self {
            rate_ppm,
            remaining: AtomicU64::new(budget),
            fired: AtomicU64::new(0),
        }
    }

    /// Fires if `draw` hits the rate and budget remains.  The budget is
    /// claimed atomically, so concurrent workers never over-fire it.
    fn fire(&self, draw: u64) -> bool {
        let hit = draw % 1_000_000 < self.rate_ppm
            && self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    left.checked_sub(1)
                })
                .is_ok();
        if hit {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

/// SplitMix64, the standard seeding mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded fault schedule shared by every scheduler of a pool, rebuilt
/// ones included (see the module docs).
pub struct FaultPlan {
    seed: u64,
    pops: AtomicU64,
    pushes: AtomicU64,
    panic: Budget,
    push_panic: Budget,
    stall: Budget,
}

impl FaultPlan {
    /// A plan with `(rate_ppm, budget)` for each kind of fault.
    pub fn new(seed: u64, panic: (u64, u64), push_panic: (u64, u64), stall: (u64, u64)) -> Self {
        Self {
            seed,
            pops: AtomicU64::new(0),
            pushes: AtomicU64::new(0),
            panic: Budget::new(panic),
            push_panic: Budget::new(push_panic),
            stall: Budget::new(stall),
        }
    }

    /// The next point of one of the two sequences: pops draw the even
    /// inputs of the mixer, pushes the odd ones.
    fn draw(&self, counter: &AtomicU64, sequence: u64) -> u64 {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed.wrapping_add(2 * n + sequence))
    }

    fn before_pop(&self) {
        let draw = self.draw(&self.pops, 0);
        if self.panic.fire(draw) {
            panic!("injected fault: worker panic before a pop");
        }
        if self.stall.fire(draw >> 20) {
            std::thread::sleep(STALL);
        }
    }

    fn after_push(&self) {
        if self.push_panic.fire(self.draw(&self.pushes, 1)) {
            panic!("injected fault: worker panic after a push");
        }
    }

    /// Worker panics injected so far, both kinds; each one poisons the gang
    /// it fired on.
    pub fn panics_injected(&self) -> u64 {
        self.panic.fired.load(Ordering::Relaxed) + self.push_panic.fired.load(Ordering::Relaxed)
    }
}

/// The scheduler `S` with the faults of a shared [`FaultPlan`] injected
/// into its handles.
pub struct Faulty<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S> Faulty<S> {
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }
}

impl<T, S: Scheduler<T>> Scheduler<T> for Faulty<S> {
    type Handle<'a>
        = FaultyHandle<'a, S::Handle<'a>>
    where
        Self: 'a;

    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }

    fn handle(&self, thread_id: usize) -> Self::Handle<'_> {
        FaultyHandle {
            inner: self.inner.handle(thread_id),
            plan: &self.plan,
        }
    }
}

/// A handle of [`Faulty`].
pub struct FaultyHandle<'a, H> {
    inner: H,
    plan: &'a FaultPlan,
}

impl<T, H: SchedulerHandle<T>> SchedulerHandle<T> for FaultyHandle<'_, H> {
    fn push(&mut self, task: T) {
        self.inner.push(task);
        self.plan.after_push();
    }

    fn pop(&mut self) -> Option<T> {
        self.plan.before_pop();
        self.inner.pop()
    }

    fn push_batch(&mut self, tasks: &mut Vec<T>) {
        let publishes = !tasks.is_empty();
        self.inner.push_batch(tasks);
        if publishes {
            self.plan.after_push();
        }
    }

    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.plan.before_pop();
        self.inner.pop_batch(out, max)
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn stats(&self) -> OpStats {
        self.inner.stats()
    }

    fn min_key_hint(&self) -> Option<u64> {
        self.inner.min_key_hint()
    }
}

/// Which of `calls` consecutive pops panic under `plan`.
fn pop_panics(plan: &FaultPlan, calls: usize) -> Vec<bool> {
    (0..calls)
        .map(|_| std::panic::catch_unwind(|| plan.before_pop()).is_err())
        .collect()
}

#[test]
fn a_budget_caps_fires_and_a_zero_rate_never_fires() {
    let capped = FaultPlan::new(42, (1_000_000, 3), (0, 0), (0, 0));
    assert_eq!(pop_panics(&capped, 100).iter().filter(|&&p| p).count(), 3);
    assert_eq!(capped.panics_injected(), 3);
    let silent = FaultPlan::new(7, (0, 100), (0, 100), (0, 100));
    assert!(!pop_panics(&silent, 1_000).contains(&true));
    assert_eq!(silent.panics_injected(), 0);
}

#[test]
fn the_schedule_is_a_function_of_the_seed() {
    let schedule = |seed| pop_panics(&FaultPlan::new(seed, (100_000, 5), (0, 0), (0, 0)), 500);
    assert_eq!(schedule(99), schedule(99), "same seed, same schedule");
    assert_ne!(schedule(99), schedule(100), "different seeds diverge");
}
