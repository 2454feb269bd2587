//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each crate's public functions; nothing inside the simulator is
//! instrumented. Each span has a name, a start and an end on the host
//! clock, the span that enclosed it, and a run id shared by the spans
//! of one operation. At exit the spans are written out as Chrome
//! trace-event JSON (open in `chrome://tracing` or ui.perfetto.dev).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.run` or `artifact.fig8`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub run_id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u64,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans opened from here on carry a fresh
    /// run id.
    pub fn next_run(&mut self) {
        self.run_id += 1;
    }

    /// Runs `f` inside a span named `name`, nested in whichever span is
    /// open, and returns its result with the span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        (out, self.spans[idx].secs())
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its direct children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        self_times(&self.spans)
    }

    /// The spans as a Chrome trace-event JSON document: one complete
    /// (`"ph":"X"`) event per span, timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run_id,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time per span name (see [`Recorder::self_times`]).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
        *out.entry(s.name.clone()).or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("a", 50, 70, Some(0)),
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 50e-9).abs() < 1e-15);
        assert!((t["a"] - 40e-9).abs() < 1e-15);
        assert!((t["leaf"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut r = Recorder::new();
        r.next_run();
        let (v, outer) = r.span("outer", |r| r.span("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(outer >= 0.0);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].run_id, 1);
        let json = r.chrome_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
    }
}
