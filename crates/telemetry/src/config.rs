//! The opt-in switchboard.

/// The rank probe samples every this-many successful pops of a worker: one
/// lock-free snapshot scan per 64 pops is cheap enough to leave on in a
/// sweep and still yields thousands of samples per run.
pub const RANK_PROBE_INTERVAL: u64 = 64;

/// What instrumentation a run carries.  The default
/// ([`TelemetryConfig::disabled`]) is *nothing*: the worker loop takes no
/// timestamps, makes no extra scheduler calls, and allocates nothing — the
/// disabled path is bit-identical in `OpStats` to the uninstrumented loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Tag worker-loop time into the six coarse phases (pop, steal,
    /// process, flush, park, quiescence-scan).  Costs a monotonic clock
    /// read per phase transition — roughly two per pop *batch*, so prefer
    /// batch sizes above 1 when enabling on fine-grained workloads.
    pub phase_timing: bool,
    /// Sample every [`RANK_PROBE_INTERVAL`]th successful pop for rank
    /// error: compare the popped key against the scheduler's advisory
    /// global-min estimate (`SchedulerHandle::min_key_hint`) and accumulate
    /// the difference into a histogram.  The estimate reads only published
    /// top-key snapshots, so the probe never takes a lock and never
    /// perturbs `OpStats`.
    pub rank_probe: bool,
    /// Retain up to this many timestamped phase spans per worker (the
    /// most recent ones) for the chrome-trace export.  0 disables the
    /// ring.  A non-zero capacity implies `phase_timing`.
    pub event_ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl TelemetryConfig {
    /// No instrumentation at all (the default; zero-overhead contract).
    pub fn disabled() -> Self {
        Self {
            phase_timing: false,
            rank_probe: false,
            event_ring_capacity: 0,
        }
    }

    /// Phase timing plus the rank probe; no event rings.
    pub fn enabled() -> Self {
        Self {
            phase_timing: true,
            rank_probe: true,
            event_ring_capacity: 0,
        }
    }

    /// Only the rank-error probe — the cheapest useful configuration (one
    /// snapshot scan per [`RANK_PROBE_INTERVAL`] pops, no clock reads),
    /// suitable for always-on relaxation-quality reporting in sweeps.
    pub fn probe_only() -> Self {
        Self {
            phase_timing: false,
            rank_probe: true,
            event_ring_capacity: 0,
        }
    }

    /// Adds per-worker event rings of the given capacity (implies phase
    /// timing).
    pub fn with_ring(mut self, capacity: usize) -> Self {
        self.event_ring_capacity = capacity;
        if capacity > 0 {
            self.phase_timing = true;
        }
        self
    }

    /// `true` when any instrumentation is on.
    pub fn is_enabled(&self) -> bool {
        self.phase_timing || self.rank_probe || self.event_ring_capacity > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default_and_off() {
        assert_eq!(TelemetryConfig::default(), TelemetryConfig::disabled());
        assert!(!TelemetryConfig::disabled().is_enabled());
        assert!(TelemetryConfig::enabled().is_enabled());
        assert!(TelemetryConfig::probe_only().is_enabled());
    }

    #[test]
    fn ring_implies_timing() {
        let c = TelemetryConfig::probe_only().with_ring(128);
        assert!(c.phase_timing);
        assert_eq!(c.event_ring_capacity, 128);
        let c = TelemetryConfig::disabled().with_ring(0);
        assert!(!c.phase_timing);
    }
}
