//! The per-worker instrumentation object threaded through the worker loop,
//! and the per-run report it folds into after join.

use std::time::Instant;

use crate::config::{TelemetryConfig, RANK_PROBE_INTERVAL};
use crate::hist::LogHistogram;
use crate::phase::{Phase, PhaseTimes};

/// Per-worker instrumentation state: owned exclusively by one worker while
/// it runs (plain counters, no atomics), folded into a
/// [`TelemetryReport`] after join.
#[derive(Debug)]
pub struct WorkerTelemetry {
    last: Instant,
    current: Phase,
    timing: bool,
    phases: PhaseTimes,
    probing: bool,
    probe_countdown: u64,
    rank_errors: LogHistogram,
    last_steal_ops: u64,
}

impl WorkerTelemetry {
    /// Instrumentation for one worker, or `None` when `config` is fully
    /// disabled (the zero-overhead path: no allocation, no clock reads).
    ///
    /// `idle_since`, when given, back-dates the first span: the worker was
    /// parked from that instant until now (pool workers park between
    /// jobs), recorded as [`Phase::Park`].
    pub fn begin(config: &TelemetryConfig, idle_since: Option<Instant>) -> Option<WorkerTelemetry> {
        if !config.is_enabled() {
            return None;
        }
        let now = Instant::now();
        let mut this = WorkerTelemetry {
            last: now,
            current: Phase::Pop,
            timing: config.phase_timing,
            phases: PhaseTimes::default(),
            probing: config.rank_probe,
            probe_countdown: RANK_PROBE_INTERVAL,
            rank_errors: LogHistogram::new(),
            last_steal_ops: 0,
        };
        if this.timing {
            if let Some(idle) = idle_since {
                let parked = now.saturating_duration_since(idle);
                this.phases.add(Phase::Park, parked.as_nanos() as u64);
            }
        }
        Some(this)
    }

    /// Closes the in-progress span (attributing its time to the current
    /// phase) and opens a new one labelled `next`.  No-op without phase
    /// timing, or when the phase does not change (adjacent same-phase
    /// spans coalesce).
    #[inline]
    pub fn phase(&mut self, next: Phase) {
        if !self.timing || next == self.current {
            return;
        }
        let now = Instant::now();
        self.close_span(now);
        self.current = next;
    }

    /// Relabels the in-progress span (its start stays): used to
    /// reattribute a pop that turned out to perform steal work.  Only a
    /// [`Phase::Pop`] span may be relabelled — a pop attempt made from the
    /// parked idle loop is coalesced into its `Park` span (see
    /// [`parked`](Self::parked)) and must not turn the whole wait into
    /// steal time.
    #[inline]
    pub fn relabel(&mut self, phase: Phase) {
        if self.current == Phase::Pop {
            self.current = phase;
        }
    }

    /// `true` when the open span is [`Phase::Park`] (or phase timing is
    /// off entirely): the worker loop's idle-coalescing fast path.  While
    /// parked, repeated empty pop attempts and no-op flushes stay inside
    /// the one `Park` span instead of paying several clock reads per spin
    /// — only a quiescence scan or a successful pop ends it.
    #[inline]
    pub fn parked(&self) -> bool {
        !self.timing || self.current == Phase::Park
    }

    /// `true` when phase timing is on (callers skip clock bookkeeping
    /// entirely otherwise).
    #[inline]
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Feeds the handle's cumulative `OpStats::steal_attempts`; returns
    /// `true` when it moved since the last call — i.e. the just-finished
    /// pop attempted a steal.  Schedulers that never count a steal (the
    /// Multi-Queue) never attribute a span to `Phase::Steal`.
    #[inline]
    pub fn note_steal_ops(&mut self, ops: u64) -> bool {
        let moved = ops != self.last_steal_ops;
        self.last_steal_ops = ops;
        moved
    }

    /// Counts one successful pop against [`RANK_PROBE_INTERVAL`]; `true`
    /// when this pop should be sampled.
    #[inline]
    pub fn probe_due(&mut self) -> bool {
        if !self.probing {
            return false;
        }
        self.probe_countdown -= 1;
        if self.probe_countdown == 0 {
            self.probe_countdown = RANK_PROBE_INTERVAL;
            true
        } else {
            false
        }
    }

    /// Records one rank-error sample: how far (in key units) the popped
    /// key was above the scheduler's advisory global-min estimate.  A
    /// `None` estimate (scheduler exposes no snapshots, or everything
    /// looked empty) records nothing.
    #[inline]
    pub fn record_rank_error(&mut self, popped_key: u64, estimate: Option<u64>) {
        if let Some(best) = estimate {
            self.rank_errors.record(popped_key.saturating_sub(best));
        }
    }

    /// Closes the final span and returns this worker's report.
    pub fn finish(mut self) -> TelemetryReport {
        if self.timing {
            let now = Instant::now();
            self.close_span(now);
        }
        TelemetryReport {
            phases: self.phases,
            rank_errors: self.rank_errors,
        }
    }

    #[inline]
    fn close_span(&mut self, now: Instant) {
        let elapsed = (now - self.last).as_nanos() as u64;
        self.phases.add(self.current, elapsed);
        self.last = now;
    }
}

/// What one worker measured during one job, and — merged — what a whole
/// job or sweep row measured: the instrumentation result carried inside
/// `RunMetrics`.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Phase nanoseconds, summed over every worker merged in.
    pub phases: PhaseTimes,
    /// Rank-error samples from the pop probe, merged over the same workers.
    pub rank_errors: LogHistogram,
}

impl TelemetryReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another report in: a worker's into its job's after join, a
    /// job's into a sweep row's.
    pub fn merge(&mut self, other: &TelemetryReport) {
        self.phases.merge(&other.phases);
        self.rank_errors.merge(&other.rank_errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_yields_no_instrumentation() {
        assert!(WorkerTelemetry::begin(&TelemetryConfig::disabled(), None).is_none());
    }

    #[test]
    fn phases_accumulate_across_transitions() {
        let mut t = WorkerTelemetry::begin(&TelemetryConfig::enabled(), None).expect("enabled");
        assert!(t.timing_enabled());
        t.phase(Phase::Process);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.phase(Phase::Pop);
        let report = t.finish();
        assert!(report.phases.process_ns >= 1_000_000, "slept ~2ms");
    }

    #[test]
    fn park_is_backdated_from_idle_since() {
        let idle = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = WorkerTelemetry::begin(&TelemetryConfig::enabled(), Some(idle)).expect("enabled");
        let report = t.finish();
        assert!(report.phases.park_ns >= 1_000_000);
    }

    #[test]
    fn probe_samples_every_nth_pop() {
        let mut t = WorkerTelemetry::begin(&TelemetryConfig::probe_only(), None).expect("probe on");
        assert!(!t.timing_enabled());
        let mut sampled = 0;
        for _ in 0..3 * RANK_PROBE_INTERVAL {
            if t.probe_due() {
                sampled += 1;
                t.record_rank_error(10, Some(4));
            }
        }
        assert_eq!(sampled, 3);
        let report = t.finish();
        assert_eq!(report.rank_errors.count(), 3);
        assert_eq!(report.rank_errors.max(), 6);
        assert_eq!(report.phases.total_ns(), 0, "probe_only reads no clock");
    }

    #[test]
    fn rank_error_saturates_and_skips_unknown() {
        let mut t = WorkerTelemetry::begin(&TelemetryConfig::probe_only(), None).expect("probe on");
        t.record_rank_error(5, Some(9)); // estimate above the pop: clamps to 0
        t.record_rank_error(5, None); // unknown estimate: not recorded
        let report = t.finish();
        assert_eq!(report.rank_errors.count(), 1);
        assert_eq!(report.rank_errors.max(), 0);
    }

    #[test]
    fn steal_ops_detection() {
        let mut t = WorkerTelemetry::begin(&TelemetryConfig::enabled(), None).expect("enabled");
        assert!(!t.note_steal_ops(0));
        assert!(t.note_steal_ops(2));
        assert!(!t.note_steal_ops(2));
    }

    #[test]
    fn reports_merge_element_wise() {
        let mut worker = TelemetryReport::new();
        worker.phases.add(Phase::Pop, 10);
        worker.rank_errors.record(3);
        let mut job = TelemetryReport::new();
        job.merge(&worker);
        job.merge(&worker);
        assert_eq!(job.phases.pop_ns, 20);
        assert_eq!(job.rank_errors.count(), 2);
    }
}
