//! Distributed termination detection for the work loop.
//!
//! The worker loop originally kept one global `AtomicU64` pending-task counter
//! that every worker hit with a `SeqCst` fetch-add before each push and a
//! `SeqCst` fetch-sub after each pop — a guaranteed cache-line ping-pong on
//! the hottest path of every scheduler.  This module replaces it with one
//! cache-padded counter pair **per worker**, written only by its owner:
//!
//! * `published` — tasks this worker has made visible to the scheduler
//!   (seeds are pre-credited before the threads start),
//! * `completed` — tasks this worker has finished processing.
//!
//! Because each atomic has a single writer, publishing is a plain
//! load-free `store` of a locally tracked value (no `lock`-prefixed RMW,
//! no shared-line contention); the global invariant
//! `Σ completed ≤ Σ published` replaces the global counter.
//!
//! # The two-phase quiescence scan
//!
//! A worker that finds the scheduler empty decides whether to exit by
//! scanning the counters in two phases: first it sums every worker's
//! `completed`, then it sums every worker's `published`, and it terminates
//! only when the two sums are equal.  The phase order is what makes the
//! non-atomic snapshot sound.  Let `t` be the instant between the phases;
//! counters are monotone, so the completed sum `C` satisfies
//! `C <= completed(t)` (all reads happened before `t`) and the published
//! sum `P` satisfies `P >= published(t)` (all reads happened after `t`).
//! `C == P` therefore forces `completed(t) >= published(t)`, and since a
//! task is always counted in `published` **before** it becomes visible (and
//! in `completed` only after it was processed), `completed(t) <=
//! published(t)` always holds — so equality pins `completed(t) ==
//! published(t)`: at instant `t` no task was visible or in flight anywhere.
//! Reading the sums in the opposite order would allow the classic false
//! positive where a push on an already-scanned counter and a completion on
//! a not-yet-scanned one cancel out.
//!
//! The publish-before-visible rule is also why the push side cannot batch
//! its counter updates the way the completion side batches into "one store
//! per processed task": a scheduler-visible task whose `published`
//! increment is still sitting in a local accumulator can be popped,
//! processed, and counted `completed` by *another* worker, making the sums
//! transiently equal while that task's children are live — the scan would
//! then terminate the run with work outstanding.
//!
//! # One detector per run
//!
//! A detector covers exactly one run: the pool makes a fresh one for every
//! job, sized to the gang that runs it.  A scan therefore reads only its own
//! run's counters, and a [`WorkerTally`] borrows its detector, so it cannot
//! outlive the run it counts for.
//!
//! # The activity epoch
//!
//! The quiescence scan is O(threads); running it on *every* empty pop makes
//! idle workers hammer every worker's counter line exactly when the system
//! is busiest elsewhere.  The detector therefore also keeps an *activity
//! epoch*: a counter bumped (off the hot path) whenever a previously idle
//! worker finds a task again.  The worker loop only scans after it has seen
//! [`SCAN_GATE`] consecutive empty pops during
//! which the epoch did not move — i.e. when the system has looked stable for
//! a while.  Gating only delays scans; it cannot make a scan lie, so
//! termination soundness is untouched, and liveness holds because after
//! true quiescence nothing can bump the epoch, so every worker's streak
//! reaches the gate and its scan succeeds.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// How many consecutive empty pops (with a stable activity epoch) a worker
/// accumulates before paying for one O(threads) quiescence scan.
pub const SCAN_GATE: u32 = 8;

/// One worker's counter pair.  Both atomics are written exclusively by the
/// owning worker; everyone may read them.
#[derive(Debug, Default)]
struct WorkerCounter {
    published: AtomicU64,
    completed: AtomicU64,
}

/// Per-worker termination counters for one run.
#[derive(Debug)]
pub struct TerminationDetector {
    workers: Vec<CachePadded<WorkerCounter>>,
    /// Bumped when a previously idle worker finds work again; the worker
    /// loop uses it to gate the O(threads) quiescence scan (see module docs).
    activity: AtomicU64,
}

impl TerminationDetector {
    /// Creates counters for `threads` workers, all zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        Self {
            workers: (0..threads).map(|_| CachePadded::default()).collect(),
            activity: AtomicU64::new(0),
        }
    }

    /// The current activity epoch (see the module docs).
    #[inline]
    pub fn activity_epoch(&self) -> u64 {
        self.activity.load(Ordering::Relaxed)
    }

    /// Notes that a previously idle worker found work again.  Called on
    /// idle→busy transitions only, never on the per-task hot path.
    #[inline]
    pub fn note_activity(&self) {
        self.activity.fetch_add(1, Ordering::Relaxed);
    }

    /// Pre-credits `count` published tasks to worker `tid`.
    ///
    /// Must be called before the workers start on the run (the pool credits
    /// each worker's share of the seeds here) so that no scan can observe an
    /// all-zero state while seed tasks are still being distributed.
    pub fn preload(&self, tid: usize, count: u64) {
        self.workers[tid].published.store(count, Ordering::Relaxed);
    }

    /// Creates the owner-side handle for worker `tid`.
    ///
    /// The handle mirrors the worker's counters in plain integers so every
    /// publication is a single `store` — the owner never needs an atomic
    /// read-modify-write on its own counters.
    pub fn tally(&self, tid: usize) -> WorkerTally<'_> {
        let counter = &*self.workers[tid];
        WorkerTally {
            published: counter.published.load(Ordering::Relaxed),
            completed: counter.completed.load(Ordering::Relaxed),
            counter,
        }
    }

    /// The two-phase quiescence scan: `true` iff every published task has
    /// been processed (see the module docs for why the phase order matters).
    pub fn quiescent(&self) -> bool {
        let (completed, published) = self.sums();
        completed == published
    }

    /// Best-effort count of tasks pushed but not yet processed
    /// (diagnostics only; racy under concurrency, read as the scan reads).
    pub fn pending_estimate(&self) -> u64 {
        let (completed, published) = self.sums();
        published.saturating_sub(completed)
    }

    /// The scan's two phases, in order: every worker's `completed`, then
    /// every worker's `published`.
    fn sums(&self) -> (u64, u64) {
        let load = |cell: &AtomicU64| cell.load(Ordering::Acquire);
        let completed = self.workers.iter().map(|w| load(&w.completed)).sum();
        let published = self.workers.iter().map(|w| load(&w.published)).sum();
        (completed, published)
    }
}

/// The owner-side handle through which worker `tid` publishes its counter
/// updates.  Exactly one may exist per worker per run.
#[derive(Debug)]
pub struct WorkerTally<'a> {
    counter: &'a WorkerCounter,
    published: u64,
    completed: u64,
}

impl WorkerTally<'_> {
    /// Counts `n` tasks as published in **one** counter store.  **Must be
    /// called before any of the `n` tasks becomes visible to the
    /// scheduler** — the soundness of the quiescence scan depends on it
    /// (see the module docs).  This is the "publish-before-flush" half of
    /// the batching sink: the worker credits a whole follow-up batch with a
    /// single store, then makes the batch visible via `push_batch`.
    /// Counting ahead of visibility is always conservative (the scan can
    /// only over-estimate outstanding work).
    #[inline]
    pub fn record_pushes(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.published += n;
        // Release pairs with the Acquire scan loads: a scanner that sees
        // this value also sees every earlier scheduler write by this worker.
        self.counter
            .published
            .store(self.published, Ordering::Release);
    }

    /// Counts one task as fully processed.  Called once per task, after the
    /// processing function returned — this is the "one update per processed
    /// task" half of the delta-batching scheme.
    #[inline]
    pub fn record_completion(&mut self) {
        self.completed += 1;
        self.counter
            .completed
            .store(self.completed, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn starts_quiescent_and_tracks_preload() {
        let det = TerminationDetector::new(3);
        assert!(det.quiescent());
        det.preload(1, 5);
        assert!(!det.quiescent());
        assert_eq!(det.pending_estimate(), 5);
        let mut tally = det.tally(1);
        for _ in 0..5 {
            tally.record_completion();
        }
        assert!(det.quiescent());
        assert_eq!(det.pending_estimate(), 0);
    }

    #[test]
    fn cross_worker_completion_balances() {
        // Worker 0 publishes, worker 1 completes: the per-worker counters
        // diverge individually but the global sums must balance.
        let det = TerminationDetector::new(2);
        let mut t0 = det.tally(0);
        let mut t1 = det.tally(1);
        t0.record_pushes(1);
        t0.record_pushes(1);
        assert!(!det.quiescent());
        t1.record_completion();
        assert!(!det.quiescent());
        t1.record_completion();
        assert!(det.quiescent());
    }

    #[test]
    fn tally_resumes_from_preloaded_value() {
        let det = TerminationDetector::new(1);
        det.preload(0, 2);
        let mut tally = det.tally(0);
        tally.record_pushes(1); // 3 published total
        tally.record_completion();
        tally.record_completion();
        assert!(!det.quiescent());
        tally.record_completion();
        assert!(det.quiescent());
    }

    #[test]
    fn batched_push_credit_is_one_store() {
        let det = TerminationDetector::new(1);
        let mut tally = det.tally(0);
        tally.record_pushes(5);
        tally.record_pushes(0); // no-op
        assert_eq!(det.pending_estimate(), 5);
        assert!(!det.quiescent());
        for _ in 0..5 {
            tally.record_completion();
        }
        assert!(det.quiescent());
        // Successive credits keep the running total.
        tally.record_pushes(1);
        tally.record_pushes(2);
        assert_eq!(det.pending_estimate(), 3);
    }

    #[test]
    fn activity_epoch_counts_notes() {
        let det = TerminationDetector::new(1);
        let before = det.activity_epoch();
        det.note_activity();
        det.note_activity();
        assert_eq!(det.activity_epoch(), before + 2);
    }

    #[test]
    fn scan_never_terminates_while_tasks_are_live() {
        hang_guard(|| {
            // A worker hammers publish/complete pairs (always completing what it
            // published only after a delay) while another thread scans; the scan
            // must never report quiescence during the live phase.
            let det = TerminationDetector::new(2);
            // The sentinel task, outstanding throughout, is credited before
            // either thread starts (as the pool pre-credits seeds): a scanner
            // that ran ahead of the producer would otherwise see all zeros.
            det.preload(0, 1);
            let live = AtomicBool::new(true);
            std::thread::scope(|s| {
                let det_ref = &det;
                let live_ref = &live;
                s.spawn(move || {
                    let mut tally = det_ref.tally(0);
                    for _ in 0..50_000 {
                        tally.record_pushes(1);
                        std::hint::spin_loop();
                        tally.record_completion();
                    }
                    live_ref.store(false, Ordering::Release);
                    tally.record_completion(); // retire the sentinel
                });
                s.spawn(move || {
                    while live_ref.load(Ordering::Acquire) {
                        if det_ref.quiescent() {
                            // The producer keeps at least one task outstanding
                            // for its whole loop, so quiescence here would be a
                            // false positive — unless the producer finished
                            // between our load of `live` and the scan.
                            assert!(
                                !live_ref.load(Ordering::Acquire),
                                "scan reported quiescence with a task outstanding"
                            );
                        }
                    }
                });
            });
            assert!(det.quiescent());
        });
    }
}
