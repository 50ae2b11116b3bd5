//! The reproduction of the paper's evaluation: every table and figure is a
//! function in [`figures`], and the binaries in `src/bin/` call it by name.
//!
//! The layers under the figures: the synthetic stand-ins for the paper's
//! input graphs ([`graphs`]), a dispatch that builds any evaluated
//! scheduler, runs any workload on it through the one engine and checks
//! the answer ([`schedulers`]), the one measured cell — repetition loop,
//! baselines and averaging ([`sweep`]) — and the command-line and table
//! layers ([`args`], [`report`]).
//!
//! All sweeps are scaled down by default so the full suite finishes on a
//! laptop-class machine; pass `--scale full` (and a larger `--threads`) to
//! approach the paper's configuration, `--scale ci` for seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod graphs;
pub mod report;
pub mod schedulers;
pub mod sweep;
