//! Opt-in, low-overhead instrumentation for the relaxed-scheduler runtime.
//!
//! Three pieces, all designed around the same discipline the schedulers
//! themselves use — plain per-worker state on the hot path, merged after
//! join:
//!
//! * [`LogHistogram`] — fixed-size, HDR-style log-bucketed histograms for
//!   latencies and rank errors: recording is a branch and an increment,
//!   merging is element-wise addition, and `quantile` is the nearest-rank
//!   percentile of the samples within one sub-bucket (≈3.1%) of relative
//!   error.
//! * Rank-error probing — every [`RANK_PROBE_INTERVAL`]th successful pop
//!   of a worker is compared against the scheduler's advisory global-min
//!   estimate (published top-key snapshots), turning the paper's offline
//!   rank-error metric into an online per-run distribution.
//! * Phase accounting — [`WorkerTelemetry`] tags worker-loop time into six
//!   coarse phases ([`Phase`]) using per-worker plain-`u64` accumulators
//!   ([`PhaseTimes`]).
//!
//! A run carries one of three presets — [`TelemetryConfig::disabled`],
//! [`TelemetryConfig::probe_only`], [`TelemetryConfig::enabled`] — and
//! reports two numbers, [`TelemetryReport`]'s `phases` and `rank_errors`.
//! Span traces (one request from submit to quiescence) are the repo
//! benchmark's job: `benchmark --trace 1`.
//!
//! Everything is off by default: with [`TelemetryConfig::disabled`] the
//! worker loop takes no timestamps and makes no extra scheduler calls, so
//! single-threaded replays stay bit-identical in `OpStats` to the
//! uninstrumented path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod hist;
pub mod phase;
mod worker;

pub use config::{TelemetryConfig, RANK_PROBE_INTERVAL};
pub use hist::LogHistogram;
pub use phase::{Phase, PhaseTimes};
pub use worker::{TelemetryReport, WorkerTelemetry};
