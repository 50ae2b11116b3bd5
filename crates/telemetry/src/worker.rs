//! The per-worker instrumentation object threaded through the worker loop,
//! and the merged per-run report it folds into after join.

use std::sync::Arc;
use std::time::Instant;

use crate::config::{TelemetryConfig, RANK_PROBE_INTERVAL};
use crate::hist::LogHistogram;
use crate::phase::{EventRing, Phase, PhaseEvent, PhaseTimes};

/// Per-worker instrumentation state: owned exclusively by one worker while
/// it runs (plain counters, no atomics), folded into a
/// [`TelemetryReport`] after join.
///
/// All timestamps are nanoseconds since a caller-supplied `origin`
/// instant shared by every worker of a run (or a pool's whole lifetime),
/// so trace lanes line up.
#[derive(Debug)]
pub struct WorkerTelemetry {
    name: Arc<str>,
    origin: Instant,
    last: Instant,
    current: Phase,
    timing: bool,
    phases: PhaseTimes,
    ring: EventRing,
    probing: bool,
    probe_countdown: u64,
    rank_errors: LogHistogram,
    last_steal_ops: u64,
}

impl WorkerTelemetry {
    /// Instrumentation for one worker, or `None` when `config` is fully
    /// disabled (the zero-overhead path: no allocation, no clock reads).
    ///
    /// `name` labels this worker's trace lane (its OS thread name) — an
    /// `Arc<str>` so a pool worker instruments thousands of jobs with one
    /// name allocation for its whole lifetime.  `idle_since`, when given,
    /// back-dates the first span: the worker was parked from that instant
    /// until now (pool workers park between jobs), recorded as
    /// [`Phase::Park`].
    pub fn begin(
        config: &TelemetryConfig,
        name: Arc<str>,
        origin: Instant,
        idle_since: Option<Instant>,
    ) -> Option<WorkerTelemetry> {
        if !config.is_enabled() {
            return None;
        }
        let now = Instant::now();
        let mut this = WorkerTelemetry {
            name,
            origin,
            last: now,
            current: Phase::Pop,
            timing: config.phase_timing,
            phases: PhaseTimes::default(),
            ring: EventRing::new(config.event_ring_capacity),
            probing: config.rank_probe,
            probe_countdown: RANK_PROBE_INTERVAL,
            rank_errors: LogHistogram::new(),
            last_steal_ops: 0,
        };
        if this.timing {
            if let Some(idle) = idle_since {
                if idle < now {
                    this.phases.add(Phase::Park, (now - idle).as_nanos() as u64);
                    this.ring.push(PhaseEvent {
                        phase: Phase::Park,
                        start_ns: ns_since(origin, idle),
                        end_ns: ns_since(origin, now),
                    });
                }
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

    /// Feeds the handle's cumulative steal-operation count (attempts +
    /// claimed tasks); returns `true` when it moved since the last call —
    /// i.e. the just-finished pop performed steal work.
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
    pub fn finish(mut self) -> WorkerReport {
        if self.timing {
            let now = Instant::now();
            self.close_span(now);
        }
        let (events, dropped) = self.ring.into_parts();
        // A lane with nothing retained is discarded by `absorb`; skip the
        // name allocation for it (the common no-event-ring configuration).
        let name = if events.is_empty() && dropped == 0 {
            String::new()
        } else {
            String::from(&*self.name)
        };
        WorkerReport {
            lane: TraceLane {
                name,
                dropped,
                events,
            },
            phases: self.phases,
            rank_errors: self.rank_errors,
        }
    }

    #[inline]
    fn close_span(&mut self, now: Instant) {
        let elapsed = (now - self.last).as_nanos() as u64;
        self.phases.add(self.current, elapsed);
        self.ring.push(PhaseEvent {
            phase: self.current,
            start_ns: ns_since(self.origin, self.last),
            end_ns: ns_since(self.origin, now),
        });
        self.last = now;
    }
}

#[inline]
fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// One worker's timeline for the chrome-trace export.
#[derive(Debug, Clone)]
pub struct TraceLane {
    /// Lane label — the worker's OS thread name (`smq-pool-<gang>-<local>`).
    pub name: String,
    /// Events overwritten because the worker's ring was full.
    pub dropped: u64,
    /// Retained phase spans, chronological.
    pub events: Vec<PhaseEvent>,
}

/// What one worker measured during one job/run.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// This worker's trace lane (empty without an event ring).
    pub lane: TraceLane,
    /// Nanoseconds per phase.
    pub phases: PhaseTimes,
    /// Rank-error samples from the pop probe.
    pub rank_errors: LogHistogram,
}

/// The merged per-run (or per-job) instrumentation result carried inside
/// `RunMetrics`: phase times summed across workers, rank-error histograms
/// merged, one trace lane per worker that retained events.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Phase nanoseconds summed over all workers.
    pub phases: PhaseTimes,
    /// Rank-error distribution merged over all workers.
    pub rank_errors: LogHistogram,
    /// One timeline lane per worker that retained any events.
    pub lanes: Vec<TraceLane>,
}

impl TelemetryReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one worker's measurements in.  Lanes with the same name
    /// (the same worker across successive jobs) are concatenated, so a
    /// multi-job trace shows each worker as one continuous lane.
    pub fn absorb(&mut self, worker: WorkerReport) {
        self.phases.merge(&worker.phases);
        self.rank_errors.merge(&worker.rank_errors);
        if !worker.lane.events.is_empty() || worker.lane.dropped > 0 {
            match self
                .lanes
                .iter_mut()
                .find(|lane| lane.name == worker.lane.name)
            {
                Some(lane) => {
                    lane.dropped += worker.lane.dropped;
                    lane.events.extend(worker.lane.events);
                }
                None => self.lanes.push(worker.lane),
            }
        }
    }

    /// Merges another report (e.g. accumulating a whole sweep row from
    /// per-job reports).
    pub fn merge(&mut self, other: &TelemetryReport) {
        self.phases.merge(&other.phases);
        self.rank_errors.merge(&other.rank_errors);
        for lane in &other.lanes {
            match self.lanes.iter_mut().find(|mine| mine.name == lane.name) {
                Some(mine) => {
                    mine.dropped += lane.dropped;
                    mine.events.extend(lane.events.iter().copied());
                }
                None => self.lanes.push(lane.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_yields_no_instrumentation() {
        assert!(WorkerTelemetry::begin(
            &TelemetryConfig::disabled(),
            "w0".into(),
            Instant::now(),
            None
        )
        .is_none());
    }

    #[test]
    fn phases_accumulate_across_transitions() {
        let origin = Instant::now();
        let mut t = WorkerTelemetry::begin(
            &TelemetryConfig::enabled().with_ring(64),
            "w0".into(),
            origin,
            None,
        )
        .expect("enabled");
        assert!(t.timing_enabled());
        t.phase(Phase::Process);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.phase(Phase::Pop);
        let report = t.finish();
        assert!(report.phases.process_ns >= 1_000_000, "slept ~2ms");
        assert!(!report.lane.events.is_empty());
        assert!(report
            .lane
            .events
            .iter()
            .any(|e| e.phase == Phase::Process && e.end_ns >= e.start_ns));
    }

    #[test]
    fn same_phase_transitions_coalesce() {
        let mut t = WorkerTelemetry::begin(
            &TelemetryConfig::enabled().with_ring(64),
            "w0".into(),
            Instant::now(),
            None,
        )
        .expect("enabled");
        t.phase(Phase::Pop);
        t.phase(Phase::Pop);
        t.phase(Phase::Pop);
        let report = t.finish();
        // Only the final close produced an event.
        assert_eq!(report.lane.events.len(), 1);
    }

    #[test]
    fn park_is_backdated_from_idle_since() {
        let origin = Instant::now();
        let idle = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = WorkerTelemetry::begin(
            &TelemetryConfig::enabled().with_ring(8),
            "w1".into(),
            origin,
            Some(idle),
        )
        .expect("enabled");
        let report = t.finish();
        assert!(report.phases.park_ns >= 1_000_000);
        assert_eq!(report.lane.events[0].phase, Phase::Park);
    }

    #[test]
    fn probe_samples_every_nth_pop() {
        let mut t = WorkerTelemetry::begin(
            &TelemetryConfig::probe_only(),
            "w0".into(),
            Instant::now(),
            None,
        )
        .expect("probe on");
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
    }

    #[test]
    fn rank_error_saturates_and_skips_unknown() {
        let mut t = WorkerTelemetry::begin(
            &TelemetryConfig::probe_only(),
            "w0".into(),
            Instant::now(),
            None,
        )
        .expect("probe on");
        t.record_rank_error(5, Some(9)); // estimate above the pop: clamps to 0
        t.record_rank_error(5, None); // unknown estimate: not recorded
        let report = t.finish();
        assert_eq!(report.rank_errors.count(), 1);
        assert_eq!(report.rank_errors.max(), 0);
    }

    #[test]
    fn steal_ops_detection() {
        let mut t = WorkerTelemetry::begin(
            &TelemetryConfig::enabled(),
            "w0".into(),
            Instant::now(),
            None,
        )
        .expect("enabled");
        assert!(!t.note_steal_ops(0));
        assert!(t.note_steal_ops(2));
        assert!(!t.note_steal_ops(2));
    }

    #[test]
    fn report_absorb_merges_lanes_by_name() {
        let mut report = TelemetryReport::new();
        for job in 0..2u64 {
            let mut phases = PhaseTimes::default();
            phases.add(Phase::Pop, 10);
            report.absorb(WorkerReport {
                lane: TraceLane {
                    name: "w0".into(),
                    dropped: job,
                    events: vec![PhaseEvent {
                        phase: Phase::Pop,
                        start_ns: job * 100,
                        end_ns: job * 100 + 10,
                    }],
                },
                phases,
                rank_errors: LogHistogram::new(),
            });
        }
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].events.len(), 2);
        assert_eq!(report.lanes[0].dropped, 1);
        assert_eq!(report.phases.pop_ns, 20);

        let mut combined = TelemetryReport::new();
        combined.merge(&report);
        combined.merge(&report);
        assert_eq!(combined.phases.pop_ns, 40);
        assert_eq!(combined.lanes.len(), 1);
        assert_eq!(combined.lanes[0].events.len(), 4);
    }
}
