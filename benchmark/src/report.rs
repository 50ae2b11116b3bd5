//! Metric names and units (the same list as `../BENCHMARK.json`, checked
//! by a test), the per-layer value store, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run.  A metric a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // What the traced half itself measured (never gated).
    ("bench.nproc", "count"),
    ("bench.threads", "count"),
    ("bench.window_s", "s"),
    ("bench.failed_share", "ratio"),
    ("bench.traced_throughput_per_s", "1/s"),
    ("latency.samples", "count"),
    ("latency.us_p50", "us"),
    ("latency.us_p90", "us"),
    ("latency.us_p99", "us"),
    ("latency.us_tail", "us"),
    ("latency.tail_percentile", "pct"),
    ("latency.samples_beyond_tail", "count"),
    ("telemetry.overhead_share", "ratio"),
    ("trace.spans", "count"),
    // smq + dheap
    ("smq.ns_per_op", "ns"),
    ("smq.locks_per_push", "ratio"),
    ("smq.empty_pop_share", "ratio"),
    ("smq.tasks_per_batch", "count"),
    ("dheap.hold_ns_per_op", "ns"),
    ("smq.steal_success_share", "ratio"),
    ("smq.steal_failed_claim_share", "ratio"),
    ("smq.stolen_task_share", "ratio"),
    ("smq.contention_retries_per_kop", "count"),
    ("smq.rank_err_p50", "count"),
    ("smq.rank_err_p99", "count"),
    // multiqueue
    ("multiqueue.ns_per_op", "ns"),
    ("multiqueue.locks_per_pop", "ratio"),
    ("multiqueue.locks_per_push", "ratio"),
    ("multiqueue.contention_retries_per_kop", "count"),
    ("multiqueue.empty_pop_share", "ratio"),
    // algos
    ("algos.useful_tasks", "count"),
    ("algos.wasted_share", "ratio"),
    ("algos.work_increase", "ratio"),
    ("algos.seq_reference_ms", "ms"),
    ("algos.speedup_vs_seq", "ratio"),
    ("algos.tasks_per_query", "count"),
    ("algos.epoch_wraps", "count"),
    // runtime
    ("runtime.tasks_executed", "count"),
    ("runtime.scans_per_ktask", "count"),
    ("runtime.spawn_join_us", "us"),
    ("runtime.phase_pop_share", "ratio"),
    ("runtime.phase_steal_share", "ratio"),
    ("runtime.phase_process_share", "ratio"),
    ("runtime.phase_flush_share", "ratio"),
    ("runtime.phase_park_share", "ratio"),
    ("runtime.phase_scan_share", "ratio"),
    // pool
    ("pool.spawn_ms", "ms"),
    ("pool.threads_spawned", "count"),
    ("pool.handles_created", "count"),
    ("pool.gangs_poisoned", "count"),
    ("pool.gangs_respawned", "count"),
    ("pool.job_overhead_us_p50", "us"),
    ("pool.service_time_us_p50", "us"),
    ("pool.service_time_us_p99", "us"),
    ("pool.submit_us_p50", "us"),
    ("pool.queue_wait_us_p50", "us"),
    ("pool.queue_wait_us_p99", "us"),
    ("pool.queue_depth_max", "count"),
    ("pool.rejected_share", "ratio"),
    ("pool.failed", "count"),
    ("pool.cancelled", "count"),
    ("pool.retried", "count"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.late_us_p99", "us"),
    // graph
    ("graph.generate_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.bytes_per_edge", "B"),
    ("graph.pin_ns_p50", "ns"),
    ("graph.publish_us_p50", "us"),
    ("graph.publish_us_p99", "us"),
    ("graph.updates_per_s", "1/s"),
    ("graph.versions_published", "count"),
    ("graph.compactions", "count"),
    ("graph.overlay_edges_mean", "count"),
    ("graph.version_lag_p99", "count"),
];

/// Per-layer values collected during one run.
#[derive(Default)]
pub struct Layer(Vec<(&'static str, f64)>);

impl Layer {
    /// Records `name` (last write wins).  Panics on a name the registry
    /// does not list, so a typo cannot silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric '{name}' is not in the registry"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn absorb(&mut self, other: Layer) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

/// What one timed window produced.
pub struct Window {
    /// Building what the window runs on (scheduler, pool, service), and
    /// the warm-up that follows; both count as set-up.
    pub spawn_s: f64,
    pub warmup_s: f64,
    /// Seconds the clock ran.
    pub measured_s: f64,
    /// Completed work units per second of `measured_s`.
    pub throughput_per_s: f64,
    /// One latency sample per `units_per_sample` work units, nanoseconds.
    pub latency_ns: Vec<u64>,
    pub units_per_sample: f64,
    pub attempted: u64,
    pub failed: u64,
    pub layer: Layer,
}

/// The last line of standard output: one JSON object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let correct = failed == 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not a finite number");
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), registry(END_TO_END));
        assert_eq!(declared("per_layer"), registry(PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "duplicate name"
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(10, 0, &[("a_s", "s", 1.25), ("b", "1/s", 3e7)]);
        let doc = serde_json::from_str(&line).expect("parses");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(10));
        let a = doc.get("metrics").and_then(|m| m.get("a_s")).expect("a_s");
        assert_eq!(a.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(a.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn unknown_layer_names_are_rejected() {
        let mut layer = Layer::default();
        layer.set("smq.ns_per_op", 1.0);
        layer.set("smq.ns_per_op", 2.0);
        assert_eq!(layer.get("smq.ns_per_op"), 2.0);
        assert_eq!(layer.get("pool.failed"), 0.0);
        assert!(std::panic::catch_unwind(|| Layer::default().set("smq.typo", 1.0)).is_err());
    }
}
