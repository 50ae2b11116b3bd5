//! Shared accounting for algorithm runs: the paper's "work increase" metric.

use smq_runtime::RunMetrics;

/// Scheduler-independent accounting attached to every parallel algorithm run.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Wall-clock and scheduler-operation metrics from the executor.
    pub metrics: RunMetrics,
    /// Tasks whose execution advanced the algorithm (settled a vertex,
    /// merged a component, ...).
    pub useful_tasks: u64,
    /// Tasks that were stale on arrival — the *wasted work* caused by
    /// relaxed priority ordering.
    pub wasted_tasks: u64,
}

impl AlgoResult {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.useful_tasks + self.wasted_tasks
    }

    /// Work increase relative to a baseline task count (usually the
    /// sequential algorithm's task count): `1.0` means no wasted work.
    pub fn work_increase(&self, baseline_tasks: u64) -> f64 {
        if baseline_tasks == 0 {
            1.0
        } else {
            self.total_tasks() as f64 / baseline_tasks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smq_core::OpStats;
    use std::time::Duration;

    fn result(useful: u64, wasted: u64) -> AlgoResult {
        AlgoResult {
            metrics: RunMetrics {
                elapsed: Duration::from_millis(10),
                threads: 1,
                tasks_executed: useful + wasted,
                quiescence_scans: 0,
                per_thread: vec![OpStats::default()],
                total: OpStats::default(),
                telemetry: None,
            },
            useful_tasks: useful,
            wasted_tasks: wasted,
        }
    }

    #[test]
    fn work_increase_counts_wasted_tasks() {
        let r = result(100, 25);
        assert_eq!(r.total_tasks(), 125);
        assert!((r.work_increase(100) - 1.25).abs() < 1e-12);
        assert_eq!(r.work_increase(0), 1.0);
    }
}
