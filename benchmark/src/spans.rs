//! The benchmark's own spans, recorded around each call into a product
//! layer during the traced run.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the id of the
//! span that caused it, and a request id shared by every span of one
//! request.  Threads record into private buffers that are merged when they
//! finish; nothing is written until the run is over.  With tracing off the
//! buffers record nothing.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const ROOT: u64 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    sink: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT),
            sink: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A private buffer for one thread; `lane` becomes the trace's thread
    /// id.
    pub fn lane(&self, lane: u32) -> Lane<'_> {
        Lane {
            tracer: self,
            lane,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far by finished lanes.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.sink.lock().expect("span sink poisoned"))
    }
}

pub struct Lane<'t> {
    tracer: &'t Tracer,
    lane: u32,
    spans: Vec<Span>,
}

impl Lane<'_> {
    /// Reserves an id, so children can name a parent that is recorded only
    /// once it has ended.
    pub fn new_id(&self) -> u64 {
        if self.tracer.on {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            ROOT
        }
    }

    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.tracer.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            lane: self.lane,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as a span and returns its result.
    pub fn scope<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let id = self.new_id();
        self.record(id, name, parent, 0, start, Instant::now());
        out
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            self.tracer
                .sink
                .lock()
                .expect("span sink poisoned")
                .append(&mut self.spans);
        }
    }
}

/// Per span name: how many, their total time, and their self time.
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// A span's self time is its duration minus the part of it its children
/// cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: Vec<SelfTime> = Vec::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let row = match by_name.iter_mut().find(|r| r.name == s.name) {
            Some(row) => row,
            None => {
                by_name.push(SelfTime {
                    name: s.name,
                    count: 0,
                    total_ms: 0.0,
                    self_ms: 0.0,
                });
                by_name.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_ms += total as f64 / 1e6;
        row.self_ms += total.saturating_sub(covered) as f64 / 1e6;
    }
    by_name.sort_by(|a, b| a.name.cmp(b.name));
    by_name
}

/// Writes the spans as a chrome://tracing (Perfetto) file: one complete
/// event per span, `tid` = the recording lane, `args` = id, parent and
/// request; the per-name self times ride along under `selfTimeMs`.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    spans: &[Span],
    self_times: &[SelfTime],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 160 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            layer,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.request,
        );
    }
    let _ = write!(out, "\n],\"workload\":\"{workload}\",\"selfTimeMs\":{{");
    for (i, row) in self_times.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\":{{\"count\":{},\"total\":{:.3},\"self\":{:.3}}}",
            if i == 0 { "" } else { "," },
            row.name,
            row.count,
            row.total_ms,
            row.self_ms,
        );
    }
    out.push_str("}}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 0,
            lane: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("a.parent", 1, ROOT, 0, 1_000_000),
            // Two overlapping children cover [100k, 500k) between them.
            span("b.child", 2, 1, 100_000, 400_000),
            span("b.child", 3, 1, 300_000, 500_000),
            // A grandchild takes nothing from the parent directly.
            span("c.leaf", 4, 2, 150_000, 200_000),
        ];
        let rows = self_times(&spans);
        let row = |name| rows.iter().find(|r| r.name == name).unwrap();
        assert!((row("a.parent").self_ms - 0.6).abs() < 1e-9);
        assert!((row("b.child").total_ms - 0.5).abs() < 1e-9);
        assert!((row("b.child").self_ms - 0.45).abs() < 1e-9);
        assert_eq!(row("b.child").count, 2);
        assert!((row("c.leaf").self_ms - 0.05).abs() < 1e-9);
    }

    #[test]
    fn lanes_record_only_when_tracing_is_on() {
        for on in [false, true] {
            let tracer = Tracer::new(on);
            {
                let mut lane = tracer.lane(3);
                let parent = lane.new_id();
                let got = lane.scope("x.call", parent, || 41 + 1);
                assert_eq!(got, 42);
                let t = Instant::now();
                lane.record(parent, "x.request", ROOT, 9, t, t);
            }
            let spans = tracer.take();
            assert_eq!(spans.len(), if on { 2 } else { 0 });
            if on {
                assert_eq!(spans[0].parent, spans[1].id);
                assert_eq!(spans[1].request, 9);
                assert_eq!(spans[0].lane, 3);
            }
        }
    }
}
