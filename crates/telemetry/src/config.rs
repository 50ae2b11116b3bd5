//! The opt-in switchboard.

/// The rank probe samples every this-many successful pops of a worker: one
/// lock-free snapshot scan per 64 pops is cheap enough to leave on in a
/// sweep and still yields thousands of samples per run.
pub const RANK_PROBE_INTERVAL: u64 = 64;

/// What instrumentation a run carries: one of the three presets
/// [`disabled`](Self::disabled), [`probe_only`](Self::probe_only) and
/// [`enabled`](Self::enabled).  The default (`disabled`) is *nothing*: the
/// worker loop takes no timestamps, makes no extra scheduler calls, and
/// allocates nothing — the disabled path is bit-identical in `OpStats` to
/// the uninstrumented loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Tag worker-loop time into the six coarse phases (pop, steal,
    /// process, flush, park, quiescence-scan).  Costs a monotonic clock
    /// read per phase transition — roughly two per pop *batch*.
    pub(crate) phase_timing: bool,
    /// Sample every [`RANK_PROBE_INTERVAL`]th successful pop for rank
    /// error: compare the popped key against the scheduler's advisory
    /// global-min estimate (`SchedulerHandle::min_key_hint`) and accumulate
    /// the difference into a histogram.  The estimate reads only published
    /// top-key snapshots, so the probe never takes a lock and never
    /// perturbs `OpStats`.
    pub(crate) rank_probe: bool,
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
        }
    }

    /// Phase timing plus the rank probe.  Prefer batch sizes above 1 on
    /// fine-grained workloads: the clock is read per popped batch.
    pub fn enabled() -> Self {
        Self {
            phase_timing: true,
            rank_probe: true,
        }
    }

    /// Only the rank-error probe — the cheapest useful configuration (one
    /// snapshot scan per [`RANK_PROBE_INTERVAL`] pops, no clock reads),
    /// suitable for always-on relaxation-quality reporting in sweeps.
    pub fn probe_only() -> Self {
        Self {
            phase_timing: false,
            rank_probe: true,
        }
    }

    /// `true` when any instrumentation is on.
    pub fn is_enabled(&self) -> bool {
        self.phase_timing || self.rank_probe
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
}
