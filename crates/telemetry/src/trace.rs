//! chrome://tracing export: one timeline lane per worker, phase spans as
//! complete ("X") events.
//!
//! The output is the Trace Event Format's JSON-object form
//! (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and Perfetto.
//! Each lane carries a thread-name metadata event so the UI labels rows
//! with the worker's OS thread name (`smq-pool-<gang>-<local>`).

use std::io::Write as _;
use std::path::Path;

use serde::Serialize as _;

use crate::worker::TraceLane;

/// Renders `lanes` as a chrome-trace JSON document.
///
/// Timestamps are microseconds (fractional) since the shared origin
/// instant, so all lanes line up on one clock.
pub fn chrome_trace_json(lanes: &[TraceLane]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, lane) in lanes.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        // Metadata event: label the lane with the worker's thread name.
        out.push_str("{\"ph\":\"M\",\"pid\":0,\"tid\":");
        tid.serialize_json(&mut out);
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
        lane.name.serialize_json(&mut out);
        out.push_str("}}");
        for event in &lane.events {
            out.push_str(",{\"ph\":\"X\",\"pid\":0,\"tid\":");
            tid.serialize_json(&mut out);
            out.push_str(",\"name\":");
            event.phase.name().serialize_json(&mut out);
            out.push_str(",\"ts\":");
            micros(event.start_ns).serialize_json(&mut out);
            out.push_str(",\"dur\":");
            micros(event.end_ns.saturating_sub(event.start_ns)).serialize_json(&mut out);
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace_json`] to `path` (created/truncated).
pub fn write_chrome_trace(path: &Path, lanes: &[TraceLane]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(chrome_trace_json(lanes).as_bytes())?;
    file.flush()
}

#[inline]
fn micros(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{Phase, PhaseEvent};

    #[test]
    fn trace_contains_lane_names_and_spans() {
        let lanes = vec![
            TraceLane {
                name: "smq-pool-0-0".into(),
                dropped: 0,
                events: vec![PhaseEvent {
                    phase: Phase::Process,
                    start_ns: 2_000,
                    end_ns: 5_000,
                }],
            },
            TraceLane {
                name: "smq-pool-0-1".into(),
                dropped: 0,
                events: vec![],
            },
        ];
        let json = chrome_trace_json(&lanes);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"smq-pool-0-0\""));
        assert!(json.contains("\"smq-pool-0-1\""));
        assert!(json.contains("\"name\":\"process\""));
        assert!(json.contains("\"ts\":2"));
        assert!(json.contains("\"dur\":3"));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }
}
