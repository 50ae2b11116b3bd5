//! Deterministic, seeded fault injection for pool workers (chaos testing).
//!
//! A [`FaultPlan`] describes *when* workers misbehave: panic while
//! processing a task, stall for a fixed duration, or panic in the middle of
//! a scheduler push (the "poisoned scheduler op" — the panic fires after
//! some of the task's follow-ups are already published, the nastiest spot
//! for termination accounting).  Decisions are a pure function of the
//! plan's seed and a global injection counter, so a plan replays the same
//! fault schedule for the same interleaving of fault checks; destructive
//! faults are capped by per-kind budgets (a plan fires at most `max`
//! panics / stalls over its lifetime), which is what makes chaos tests
//! *recoverable*: once the budgets are exhausted, the pool must return to
//! full capacity and stay there.
//!
//! This whole module — and every hook that consults it — only exists under
//! the `fault-inject` cargo feature.  The production build compiles none of
//! it: no flag checks, no counters, no branch on the task hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the plan tells a worker to do before processing the current task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic before running the task's `process` (kills the worker, poisons
    /// the gang).
    Panic,
    /// Panic *during* the task's first follow-up push — after the push is
    /// published — exercising the mid-scheduler-op unwind path.
    PanicInPush,
    /// Sleep for the configured stall duration before processing (a wedged
    /// job; harmless to the gang, it only delays the job).
    Stall(Duration),
}

#[derive(Debug, Default)]
struct Budget {
    /// Probability per fault check, in parts per million.
    rate_ppm: u64,
    /// Remaining fires (decremented on claim; 0 = exhausted).
    remaining: AtomicU64,
    /// Fires actually injected.
    injected: AtomicU64,
}

impl Budget {
    fn new(rate_ppm: u64, max: u64) -> Self {
        Self {
            rate_ppm,
            remaining: AtomicU64::new(max),
            injected: AtomicU64::new(0),
        }
    }

    /// Claims one fire if `roll` (uniform in 0..1_000_000) hits the rate
    /// and budget remains.  The budget claim is atomic, so concurrent
    /// workers can never over-fire a capped plan.
    fn try_fire(&self, roll: u64) -> bool {
        if roll >= self.rate_ppm {
            return false;
        }
        if self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(1)
            })
            .is_err()
        {
            return false;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[derive(Debug)]
struct FaultPlanInner {
    seed: u64,
    /// Global check counter: each fault check draws the next point of the
    /// seeded sequence, so the schedule is a deterministic function of
    /// (seed, check index) regardless of which worker asks.
    checks: AtomicU64,
    panic: Budget,
    push_panic: Budget,
    stall: Budget,
    stall_for: Duration,
}

/// A shareable, seeded fault schedule (see the module docs).  Cloning is
/// cheap and shares counters, so a test can keep a handle to the plan it
/// injected and read [`panics_injected`](FaultPlan::panics_injected) after
/// the storm.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<FaultPlanInner>,
}

/// SplitMix64: a tiny, high-quality mixer — the standard seeding PRNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: Arc::new(FaultPlanInner {
                seed,
                checks: AtomicU64::new(0),
                panic: Budget::default(),
                push_panic: Budget::default(),
                stall: Budget::default(),
                stall_for: Duration::from_millis(1),
            }),
        }
    }

    fn update(self, f: impl FnOnce(&mut FaultPlanInner)) -> Self {
        let mut inner = Arc::try_unwrap(self.inner).expect("configure FaultPlan before sharing");
        f(&mut inner);
        Self {
            inner: Arc::new(inner),
        }
    }

    /// Panic while processing a task with probability `rate_ppm` per task,
    /// at most `max` times over the plan's lifetime.
    pub fn with_panic_rate(self, rate_ppm: u64, max: u64) -> Self {
        self.update(|p| p.panic = Budget::new(rate_ppm, max))
    }

    /// Panic mid-push (after the task's first follow-up is published) with
    /// probability `rate_ppm` per task, at most `max` times.
    pub fn with_push_panic_rate(self, rate_ppm: u64, max: u64) -> Self {
        self.update(|p| p.push_panic = Budget::new(rate_ppm, max))
    }

    /// Stall for `stall_for` before processing a task with probability
    /// `rate_ppm` per task, at most `max` times.
    pub fn with_stall_rate(self, rate_ppm: u64, stall_for: Duration, max: u64) -> Self {
        self.update(|p| {
            p.stall = Budget::new(rate_ppm, max);
            p.stall_for = stall_for;
        })
    }

    /// The fault decision for the next task (one seeded draw).  `None` on
    /// the overwhelming majority of calls.
    pub(crate) fn next_action(&self) -> Option<FaultAction> {
        let p = &*self.inner;
        let n = p.checks.fetch_add(1, Ordering::Relaxed);
        let draw = splitmix64(p.seed ^ n);
        // Three independent sub-draws from one mix, checked destructive
        // kinds first so a plan with every rate at 100% still panics.
        if p.panic.try_fire(draw % 1_000_000) {
            return Some(FaultAction::Panic);
        }
        if p.push_panic.try_fire((draw >> 20) % 1_000_000) {
            return Some(FaultAction::PanicInPush);
        }
        if p.stall.try_fire((draw >> 40) % 1_000_000) {
            return Some(FaultAction::Stall(p.stall_for));
        }
        None
    }

    /// Worker panics actually injected (both the plain and the mid-push
    /// kind — each one poisons the gang it fired on).
    pub fn panics_injected(&self) -> u64 {
        self.inner.panic.injected.load(Ordering::Relaxed)
            + self.inner.push_panic.injected.load(Ordering::Relaxed)
    }

    /// Stalls actually injected.
    pub fn stalls_injected(&self) -> u64 {
        self.inner.stall.injected.load(Ordering::Relaxed)
    }

    /// True once every destructive budget is exhausted: no further checks
    /// can panic a worker, so capacity must recover and stay recovered.
    pub fn exhausted(&self) -> bool {
        self.inner.panic.remaining.load(Ordering::Relaxed) == 0
            && self.inner.push_panic.remaining.load(Ordering::Relaxed) == 0
            && self.inner.stall.remaining.load(Ordering::Relaxed) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_cap_fires() {
        let plan = FaultPlan::new(42).with_panic_rate(1_000_000, 3);
        let mut fired = 0;
        for _ in 0..100 {
            if plan.next_action() == Some(FaultAction::Panic) {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
        assert_eq!(plan.panics_injected(), 3);
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::new(7).with_stall_rate(0, Duration::from_millis(1), 100);
        for _ in 0..1_000 {
            assert_eq!(plan.next_action(), None);
        }
        assert_eq!(plan.stalls_injected(), 0);
    }

    #[test]
    fn schedule_is_deterministic_in_the_check_sequence() {
        let run = |seed| {
            let plan = FaultPlan::new(seed)
                .with_panic_rate(100_000, 5)
                .with_stall_rate(100_000, Duration::from_millis(1), 5);
            (0..500).map(|_| plan.next_action()).collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99), "same seed, same schedule");
        assert_ne!(run(99), run(100), "different seeds diverge");
    }

    #[test]
    fn clones_share_budgets() {
        let plan = FaultPlan::new(1).with_panic_rate(1_000_000, 1);
        let other = plan.clone();
        assert_eq!(other.next_action(), Some(FaultAction::Panic));
        assert_eq!(plan.next_action(), None, "budget is shared, already spent");
        assert!(plan.exhausted(), "every destructive budget is spent");
        assert_eq!(plan.panics_injected(), 1);
    }
}
