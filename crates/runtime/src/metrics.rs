//! Per-run measurements reported by the worker pool.

use std::time::Duration;

use smq_core::OpStats;
use smq_telemetry::TelemetryReport;

/// Everything measured during one parallel run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Wall-clock time of the work loop (initial task distribution included,
    /// thread spawn/join excluded as far as possible).
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub threads: usize,
    /// Total tasks executed (popped and processed) across all threads.
    pub tasks_executed: u64,
    /// O(threads) quiescence scans performed across all workers.  The
    /// epoch-gated scan keeps `quiescence_scans * SCAN_GATE <=
    /// total.empty_pops`; before the gate every empty pop scanned.
    pub quiescence_scans: u64,
    /// Per-thread scheduler operation counters.
    pub per_thread: Vec<OpStats>,
    /// Sum of `per_thread`.
    pub total: OpStats,
    /// Merged opt-in instrumentation (phase times, rank-error histogram,
    /// trace lanes); `None` when the run carried no telemetry.
    pub telemetry: Option<TelemetryReport>,
}

impl RunMetrics {
    /// Tasks executed per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.tasks_executed as f64 / secs
        }
    }

    /// Speedup of this run relative to a baseline wall-clock time.
    pub fn speedup_over(&self, baseline: Duration) -> f64 {
        let own = self.elapsed.as_secs_f64();
        if own == 0.0 {
            f64::INFINITY
        } else {
            baseline.as_secs_f64() / own
        }
    }

    /// The combined NUMA locality ratio observed during the run (the
    /// paper's `E_int`: in-node samples and steals over all classified
    /// events), if any were classified.
    pub fn node_locality(&self) -> Option<f64> {
        self.total.locality_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(ms: u64, tasks: u64) -> RunMetrics {
        RunMetrics {
            elapsed: Duration::from_millis(ms),
            threads: 4,
            tasks_executed: tasks,
            quiescence_scans: 0,
            per_thread: vec![OpStats::default(); 4],
            total: OpStats::default(),
            telemetry: None,
        }
    }

    #[test]
    fn throughput_is_tasks_per_second() {
        let m = metrics(500, 1_000);
        assert!((m.throughput() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_baseline_over_elapsed() {
        let m = metrics(250, 1_200);
        assert!((m.speedup_over(Duration::from_millis(1000)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_is_handled() {
        let m = metrics(0, 10);
        assert_eq!(m.throughput(), 0.0);
        assert!(m.speedup_over(Duration::from_millis(5)).is_infinite());
    }
}
