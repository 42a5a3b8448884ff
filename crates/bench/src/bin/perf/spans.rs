//! The harness's own span recorder.
//!
//! Spans are recorded only around the calls the harness makes into a
//! layer; tracing inside the crates is a later issue. Records stay in
//! memory and are written once, when the traced pass ends, as Chrome
//! trace JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>).

use crate::json::Value;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Disabled (the untraced runs), `span` just
/// calls the closure.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (spans[id].end_ns - spans[id].start_ns).saturating_sub(children)
}

/// Chrome trace events (`ph: "X"`) for one workload's spans; `pid`
/// separates workloads when several are merged into one file.
pub fn chrome_events(spans: &[Span], workload: &str, pid: usize) -> Vec<Value> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::obj([
                ("name", Value::str(s.name.as_str())),
                ("cat", Value::str(workload)),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Value::Num(pid as f64)),
                ("tid", Value::Num(1.0)),
                (
                    "args",
                    Value::obj([
                        ("workload", Value::str(workload)),
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_us", Value::Num(self_ns(spans, id) as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect()
}

/// The Chrome trace document around a list of events.
pub fn chrome_trace(events: Vec<Value>) -> Value {
    Value::obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut rec = Recorder::new(true);
        let out = rec.span("outer", |rec| {
            rec.span("inner", |_| std::hint::black_box(1 + 1));
            rec.span("inner", |_| ());
            7
        });
        assert_eq!(out, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let inner: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            self_ns(spans, 0),
            spans[0].end_ns - spans[0].start_ns - inner
        );
        assert_eq!(rec.durations_s("inner").len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 3), 3);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut rec = Recorder::new(true);
        rec.span("engine.run", |rec| rec.span("replay.\"odd\" name", |_| ()));
        let doc = chrome_trace(chrome_events(rec.spans(), "sim-steady", 1));
        s2c2_telemetry::export::validate_json(&doc.to_pretty()).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Value::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
