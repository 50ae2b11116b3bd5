//! The one measured cell: the repetition loop, the baseline every speedup
//! is taken over, and the averaging rules, shared by every figure.

use smq_pool::JobOutput;
use smq_telemetry::LogHistogram;

use crate::args::BenchArgs;
use crate::graphs::GraphSpec;
use crate::schedulers::{
    run_once, sequential_reference, Point, Reference, SchedulerSpec, Workload,
};

/// What the cells of one workload × graph pairing are measured against.
pub struct Baseline {
    /// Wall-clock seconds of the 1-thread classic Multi-Queue (`C = 4`,
    /// batch 1), what the paper reports speedups over.
    pub seconds: f64,
    /// The workload's sequential reference: the answer every cell must
    /// reproduce and the task count work increase is taken over.
    pub reference: Reference,
}

impl Baseline {
    /// Runs the sequential reference and the 1-thread Multi-Queue once
    /// each.
    pub fn measure(workload: Workload, graph: &GraphSpec, seed: u64) -> Self {
        let reference = sequential_reference(workload, graph);
        let point = Point {
            scheduler: SchedulerSpec::classic_mq(4),
            workload,
            graph,
            threads: 1,
            seed,
            batch: 1,
            numa_nodes: 1,
        };
        Self {
            seconds: run_once(&point, &reference).metrics.elapsed.as_secs_f64(),
            reference,
        }
    }
}

/// One point's repetitions, averaged: what a figure puts in its columns.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Baseline seconds over mean seconds.
    pub speedup: f64,
    /// Mean total tasks over the task count of the workload's sequential
    /// reference (`JobOutput::work_increase`).
    pub work_increase: f64,
    /// Wasted tasks over total tasks, across all repetitions.
    pub wasted_share: f64,
    /// Lock acquisitions per scheduler operation: the mean over the
    /// repetitions that reported it, `None` when none did (lock-free).
    pub locks_per_op: Option<f64>,
    /// The paper's `E_int` in-node ratio, averaged like `locks_per_op`.
    pub locality: Option<f64>,
    /// Sampled rank errors of every repetition, merged.  Empty for
    /// schedulers without a min-key hint (OBIM/PMOD, SprayList).
    pub rank_errors: LogHistogram,
}

impl Cell {
    /// Averages `runs`, the repetitions of one point, against the
    /// baseline's seconds and the sequential reference's task count.
    pub fn average(runs: &[JobOutput], baseline_seconds: f64, reference_tasks: u64) -> Self {
        let n = runs.len() as f64;
        let mean = |of: &dyn Fn(&JobOutput) -> Option<f64>| {
            let reported: Vec<f64> = runs.iter().filter_map(of).collect();
            (!reported.is_empty()).then(|| reported.iter().sum::<f64>() / reported.len() as f64)
        };
        let seconds: f64 = runs.iter().map(|r| r.metrics.elapsed.as_secs_f64()).sum();
        let total: u64 = runs.iter().map(JobOutput::total_tasks).sum();
        let wasted: u64 = runs.iter().map(|r| r.wasted_tasks).sum();
        let mut rank_errors = LogHistogram::new();
        for telemetry in runs.iter().filter_map(|r| r.metrics.telemetry.as_ref()) {
            rank_errors.merge(&telemetry.rank_errors);
        }
        Self {
            speedup: baseline_seconds / (seconds / n).max(1e-9),
            work_increase: runs
                .iter()
                .map(|r| r.work_increase(reference_tasks))
                .sum::<f64>()
                / n,
            wasted_share: wasted as f64 / total.max(1) as f64,
            locks_per_op: mean(&|r| r.metrics.total.locks_per_op()),
            locality: mean(&|r| r.metrics.node_locality()),
            rank_errors,
        }
    }

    /// The rank-error quantiles as `p50/p99`, absent without samples.
    pub fn rank_error_quantiles(&self) -> Option<String> {
        (!self.rank_errors.is_empty()).then(|| {
            format!(
                "{}/{}",
                self.rank_errors.quantile(0.5),
                self.rank_errors.quantile(0.99)
            )
        })
    }
}

/// Measures one point: `args.repetitions` runs, repetition `r` seeding the
/// scheduler with `point.seed + r`, each checked against the baseline's
/// sequential reference.
pub fn measure(point: &Point, args: &BenchArgs, baseline: &Baseline) -> Cell {
    let mut runs = Vec::with_capacity(args.repetitions);
    for rep in 0..args.repetitions {
        let point = Point {
            seed: point.seed + rep as u64,
            ..*point
        };
        runs.push(run_once(&point, &baseline.reference));
    }
    Cell::average(&runs, baseline.seconds, baseline.reference.tasks)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use smq_core::OpStats;
    use smq_runtime::RunMetrics;

    /// A repetition that took `millis`, ran `useful + wasted` tasks and
    /// took `locks` locks over 100 scheduler operations.
    fn rep(millis: u64, useful: u64, wasted: u64, locks: u64) -> JobOutput {
        JobOutput {
            metrics: RunMetrics {
                elapsed: Duration::from_millis(millis),
                threads: 2,
                tasks_executed: useful + wasted,
                quiescence_scans: 0,
                total: OpStats {
                    pushes: 50,
                    pops: 50,
                    locks_acquired: locks,
                    ..OpStats::default()
                },
                telemetry: None,
            },
            useful_tasks: useful,
            wasted_tasks: wasted,
        }
    }

    #[test]
    fn cell_averages_over_the_repetitions_that_reported() {
        // The middle repetition took no locks, so it reports `None`.
        let runs = [
            rep(100, 90, 10, 50),
            rep(300, 100, 20, 0),
            rep(200, 110, 30, 100),
        ];
        let cell = Cell::average(&runs, 0.4, 100);
        assert!(
            (cell.speedup - 2.0).abs() < 1e-12,
            "0.4 s over a 0.2 s mean"
        );
        assert!(
            (cell.work_increase - 1.2).abs() < 1e-12,
            "mean 120 tasks over 100"
        );
        assert!((cell.wasted_share - 60.0 / 360.0).abs() < 1e-12);
        assert_eq!(
            cell.locks_per_op,
            Some(0.75),
            "mean of 0.5 and 1.0, not of three"
        );
        assert_eq!(cell.locality, None, "no repetition classified an access");
        assert_eq!(cell.rank_error_quantiles(), None);
        // One repetition is its own average.
        let one = Cell::average(&runs[..1], 0.4, 100);
        assert!((one.speedup - 4.0).abs() < 1e-12);
        assert_eq!(one.locks_per_op, Some(0.5));
    }
}
