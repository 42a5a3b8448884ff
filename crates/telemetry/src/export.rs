//! Trace exporters: deterministic JSONL event logs and Chrome
//! trace-event timelines.
//!
//! Both formats are emitted with hand-rolled JSON (the workspace builds
//! without registry access, so no serde): field order is fixed per event
//! type and floats use Rust's shortest-round-trip `Display`, making the
//! output byte-stable for a given event sequence. Since trace events
//! carry only virtual-clock times, two runs of the same seed export
//! byte-identical files — a property CI enforces.
//!
//! The Chrome format ([`chrome_trace`]) loads in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): pid 1 holds one track per
//! worker (task spans, redo spans), pid 2 one track per tenant (job
//! lifetime spans plus recovery-rung instants). Virtual seconds map to
//! trace microseconds.

use crate::event::{TraceEvent, TraceEventKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize events as JSON Lines: one object per event, fixed field
/// order, trailing newline after every line.
#[must_use]
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let t = e.time;
        match &e.kind {
            TraceEventKind::JobArrival {
                job,
                tenant,
                preset,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"job_arrival","job":{job},"tenant":{tenant},"preset":"{}"}}"#,
                    esc(preset)
                );
            }
            TraceEventKind::Malformed { job } => {
                let _ = writeln!(out, r#"{{"t":{t},"type":"malformed","job":{job}}}"#);
            }
            TraceEventKind::Admitted { job, leader } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"admitted","job":{job},"leader":{leader}}}"#
                );
            }
            TraceEventKind::BatchFormed { leader, members } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"batch_formed","leader":{leader},"members":{members}}}"#
                );
            }
            TraceEventKind::IterationStart {
                job,
                iteration,
                generation,
                rhs,
                share,
                degraded,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"iteration_start","job":{job},"iteration":{iteration},"generation":{generation},"rhs":{rhs},"share":{share},"degraded":{degraded}}}"#
                );
            }
            TraceEventKind::RecoveryRung {
                job,
                generation,
                rung,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"recovery_rung","job":{job},"generation":{generation},"rung":{rung}}}"#
                );
            }
            TraceEventKind::TaskDispatch {
                job,
                worker,
                generation,
                chunks,
                redo,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"task_dispatch","job":{job},"worker":{worker},"generation":{generation},"chunks":{chunks},"redo":{redo}}}"#
                );
            }
            TraceEventKind::TaskComplete {
                job,
                worker,
                generation,
                redo,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"task_complete","job":{job},"worker":{worker},"generation":{generation},"redo":{redo}}}"#
                );
            }
            TraceEventKind::TaskCancel {
                job,
                worker,
                generation,
                redo,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"task_cancel","job":{job},"worker":{worker},"generation":{generation},"redo":{redo}}}"#
                );
            }
            TraceEventKind::Decode {
                job,
                generation,
                seconds,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"decode","job":{job},"generation":{generation},"seconds":{seconds}}}"#
                );
            }
            TraceEventKind::Verify { job, generation } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"verify","job":{job},"generation":{generation}}}"#
                );
            }
            TraceEventKind::IterationComplete {
                job,
                iteration,
                generation,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"iteration_complete","job":{job},"iteration":{iteration},"generation":{generation}}}"#
                );
            }
            TraceEventKind::JobComplete { job, tenant } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"job_complete","job":{job},"tenant":{tenant}}}"#
                );
            }
            TraceEventKind::JobFailed { job, tenant } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"job_failed","job":{job},"tenant":{tenant}}}"#
                );
            }
            TraceEventKind::WorkerUp { worker } => {
                let _ = writeln!(out, r#"{{"t":{t},"type":"worker_up","worker":{worker}}}"#);
            }
            TraceEventKind::WorkerDown { worker } => {
                let _ = writeln!(out, r#"{{"t":{t},"type":"worker_down","worker":{worker}}}"#);
            }
            TraceEventKind::Rebalance { resident } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"rebalance","resident":{resident}}}"#
                );
            }
            TraceEventKind::RoundParked {
                job,
                iteration,
                generation,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"round_parked","job":{job},"iteration":{iteration},"generation":{generation}}}"#
                );
            }
            TraceEventKind::RoundRetired {
                job,
                iteration,
                generation,
                parked,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"round_retired","job":{job},"iteration":{iteration},"generation":{generation},"parked":{parked}}}"#
                );
            }
            TraceEventKind::PipelineStall {
                job,
                generation,
                seconds,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"t":{t},"type":"pipeline_stall","job":{job},"generation":{generation},"seconds":{seconds}}}"#
                );
            }
        }
    }
    out
}

/// How a Chrome span ended, recorded in its `args`.
#[derive(Clone, Copy)]
enum SpanEnd {
    Complete,
    Cancel,
    Superseded,
    Open,
    Failed,
    Malformed,
}

impl SpanEnd {
    fn tag(self) -> &'static str {
        match self {
            SpanEnd::Complete => "complete",
            SpanEnd::Cancel => "cancel",
            SpanEnd::Superseded => "superseded",
            SpanEnd::Open => "open",
            SpanEnd::Failed => "failed",
            SpanEnd::Malformed => "malformed",
        }
    }
}

/// Process id used for the per-worker track group.
const PID_WORKERS: u32 = 1;
/// Process id used for the per-tenant track group.
const PID_TENANTS: u32 = 2;

/// Serialize events into the Chrome trace-event JSON format
/// (`chrome://tracing` / Perfetto), one track per worker and per
/// tenant. Virtual seconds become trace microseconds.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let last_time = events.last().map_or(0.0, |e| e.time);
    let mut tenant_of: BTreeMap<u64, u32> = BTreeMap::new();
    let mut workers: BTreeSet<usize> = BTreeSet::new();
    let mut tenants: BTreeSet<u32> = BTreeSet::new();
    for e in events {
        match e.kind {
            TraceEventKind::JobArrival { job, tenant, .. } => {
                tenant_of.insert(job, tenant);
                tenants.insert(tenant);
            }
            TraceEventKind::TaskDispatch { worker, .. }
            | TraceEventKind::TaskComplete { worker, .. }
            | TraceEventKind::TaskCancel { worker, .. }
            | TraceEventKind::WorkerUp { worker }
            | TraceEventKind::WorkerDown { worker } => {
                workers.insert(worker);
            }
            // No worker or tenant identity to collect.
            TraceEventKind::Malformed { .. }
            | TraceEventKind::Admitted { .. }
            | TraceEventKind::BatchFormed { .. }
            | TraceEventKind::IterationStart { .. }
            | TraceEventKind::RecoveryRung { .. }
            | TraceEventKind::Decode { .. }
            | TraceEventKind::Verify { .. }
            | TraceEventKind::IterationComplete { .. }
            | TraceEventKind::JobComplete { .. }
            | TraceEventKind::JobFailed { .. }
            | TraceEventKind::Rebalance { .. }
            | TraceEventKind::RoundParked { .. }
            | TraceEventKind::RoundRetired { .. }
            | TraceEventKind::PipelineStall { .. } => {}
        }
    }

    let mut rows: Vec<String> = Vec::new();
    let meta = |name: &str, pid: u32, tid: u64, label: &str| {
        format!(
            r#"{{"name":"{name}","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            esc(label)
        )
    };
    rows.push(meta("process_name", PID_WORKERS, 0, "workers"));
    rows.push(meta("process_name", PID_TENANTS, 0, "tenants"));
    for &w in &workers {
        rows.push(meta(
            "thread_name",
            PID_WORKERS,
            w as u64,
            &format!("worker {w}"),
        ));
    }
    for &t in &tenants {
        rows.push(meta(
            "thread_name",
            PID_TENANTS,
            u64::from(t),
            &format!("tenant {t}"),
        ));
    }

    let span = |name: &str, cat: &str, pid: u32, tid: u64, start: f64, end: f64, args: String| {
        let ts = start * 1e6;
        let dur = (end - start).max(0.0) * 1e6;
        format!(
            r#"{{"name":"{}","cat":"{cat}","ph":"X","pid":{pid},"tid":{tid},"ts":{ts},"dur":{dur},"args":{{{args}}}}}"#,
            esc(name)
        )
    };

    // Worker tracks: one span per dispatched task, closed by its
    // complete/cancel (or superseded by a re-dispatch of the same redo
    // slot, or left open at end of trace).
    let mut open_tasks: BTreeMap<(u64, usize, u64, bool), f64> = BTreeMap::new();
    // Tenant tracks: one span per job lifetime.
    let mut open_jobs: BTreeMap<u64, f64> = BTreeMap::new();
    let close_task = |rows: &mut Vec<String>,
                      key: (u64, usize, u64, bool),
                      start: f64,
                      end: f64,
                      how: SpanEnd| {
        let (job, worker, generation, redo) = key;
        let name = if redo {
            format!("job {job} g{generation} redo")
        } else {
            format!("job {job} g{generation}")
        };
        let cat = if redo { "redo" } else { "task" };
        rows.push(span(
            &name,
            cat,
            PID_WORKERS,
            worker as u64,
            start,
            end,
            format!(
                r#""job":{job},"generation":{generation},"end":"{}""#,
                how.tag()
            ),
        ));
    };
    let close_job = |rows: &mut Vec<String>,
                     tenant_of: &BTreeMap<u64, u32>,
                     job: u64,
                     start: f64,
                     end: f64,
                     how: SpanEnd| {
        let tid = u64::from(tenant_of.get(&job).copied().unwrap_or(0));
        rows.push(span(
            &format!("job {job}"),
            "job",
            PID_TENANTS,
            tid,
            start,
            end,
            format!(r#""job":{job},"end":"{}""#, how.tag()),
        ));
    };

    for e in events {
        match e.kind {
            TraceEventKind::JobArrival { job, .. } => {
                open_jobs.insert(job, e.time);
            }
            TraceEventKind::JobComplete { job, .. } => {
                if let Some(start) = open_jobs.remove(&job) {
                    close_job(&mut rows, &tenant_of, job, start, e.time, SpanEnd::Complete);
                }
            }
            TraceEventKind::JobFailed { job, .. } => {
                if let Some(start) = open_jobs.remove(&job) {
                    close_job(&mut rows, &tenant_of, job, start, e.time, SpanEnd::Failed);
                }
            }
            TraceEventKind::Malformed { job } => {
                if let Some(start) = open_jobs.remove(&job) {
                    close_job(
                        &mut rows,
                        &tenant_of,
                        job,
                        start,
                        e.time,
                        SpanEnd::Malformed,
                    );
                }
            }
            TraceEventKind::TaskDispatch {
                job,
                worker,
                generation,
                redo,
                ..
            } => {
                let key = (job, worker, generation, redo);
                // A re-dispatch into the same slot (merged redo work)
                // supersedes the outstanding span.
                if let Some(start) = open_tasks.insert(key, e.time) {
                    close_task(&mut rows, key, start, e.time, SpanEnd::Superseded);
                }
            }
            TraceEventKind::TaskComplete {
                job,
                worker,
                generation,
                redo,
            } => {
                let key = (job, worker, generation, redo);
                if let Some(start) = open_tasks.remove(&key) {
                    close_task(&mut rows, key, start, e.time, SpanEnd::Complete);
                }
            }
            TraceEventKind::TaskCancel {
                job,
                worker,
                generation,
                redo,
            } => {
                let key = (job, worker, generation, redo);
                if let Some(start) = open_tasks.remove(&key) {
                    close_task(&mut rows, key, start, e.time, SpanEnd::Cancel);
                }
            }
            TraceEventKind::RecoveryRung { job, rung, .. } => {
                let tid = u64::from(tenant_of.get(&job).copied().unwrap_or(0));
                let ts = e.time * 1e6;
                rows.push(format!(
                    r#"{{"name":"rung {rung}","cat":"recovery","ph":"i","s":"t","pid":{PID_TENANTS},"tid":{tid},"ts":{ts},"args":{{"job":{job}}}}}"#
                ));
            }
            // Not rendered as chrome spans or instants.
            TraceEventKind::Admitted { .. }
            | TraceEventKind::BatchFormed { .. }
            | TraceEventKind::IterationStart { .. }
            | TraceEventKind::Decode { .. }
            | TraceEventKind::Verify { .. }
            | TraceEventKind::IterationComplete { .. }
            | TraceEventKind::WorkerUp { .. }
            | TraceEventKind::WorkerDown { .. }
            | TraceEventKind::Rebalance { .. }
            | TraceEventKind::RoundParked { .. }
            | TraceEventKind::RoundRetired { .. }
            | TraceEventKind::PipelineStall { .. } => {}
        }
    }
    // Anything still in flight when the trace ends renders to the last
    // timestamp, tagged open.
    for (key, start) in std::mem::take(&mut open_tasks) {
        close_task(&mut rows, key, start, last_time, SpanEnd::Open);
    }
    for (job, start) in std::mem::take(&mut open_jobs) {
        close_job(&mut rows, &tenant_of, job, start, last_time, SpanEnd::Open);
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(row);
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Minimal strict JSON syntax checker (objects, arrays, strings with
/// escapes, numbers, literals). Used by tests and examples to assert
/// exporter output is well-formed without pulling in a JSON dependency.
///
/// # Errors
/// Returns the byte offset and a short description of the first syntax
/// error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos:?}")),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos:?}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b.get(*pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos:?}"));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos:?}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos:?}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    let int_start = *pos;
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    // RFC 8259: the integer part is `0` or starts with a nonzero digit.
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn sample_events() -> Vec<TraceEvent> {
        use TraceEventKind as K;
        let ev = |time, kind| TraceEvent { time, kind };
        vec![
            ev(
                0.0,
                K::JobArrival {
                    job: 1,
                    tenant: 0,
                    preset: "small",
                },
            ),
            ev(0.0, K::Admitted { job: 1, leader: 1 }),
            ev(
                0.0,
                K::IterationStart {
                    job: 1,
                    iteration: 0,
                    generation: 1,
                    rhs: 1,
                    share: 0.5,
                    degraded: false,
                },
            ),
            ev(
                0.0,
                K::RecoveryRung {
                    job: 1,
                    generation: 1,
                    rung: 1,
                },
            ),
            ev(
                0.0,
                K::TaskDispatch {
                    job: 1,
                    worker: 2,
                    generation: 1,
                    chunks: 3,
                    redo: false,
                },
            ),
            ev(
                1.25,
                K::TaskComplete {
                    job: 1,
                    worker: 2,
                    generation: 1,
                    redo: false,
                },
            ),
            ev(
                1.25,
                K::Decode {
                    job: 1,
                    generation: 1,
                    seconds: 0.001,
                },
            ),
            ev(
                1.251,
                K::Verify {
                    job: 1,
                    generation: 1,
                },
            ),
            ev(1.251, K::JobComplete { job: 1, tenant: 0 }),
        ]
    }

    #[test]
    fn jsonl_lines_are_valid_json_with_fixed_fields() {
        let out = jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 9);
        for line in &lines {
            validate_json(line).expect("every JSONL line parses");
        }
        assert_eq!(
            lines[0],
            r#"{"t":0,"type":"job_arrival","job":1,"tenant":0,"preset":"small"}"#
        );
        assert!(lines[4].contains(r#""type":"task_dispatch""#));
    }

    #[test]
    fn jsonl_is_deterministic() {
        let events = sample_events();
        assert_eq!(jsonl(&events), jsonl(&events));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks() {
        let out = chrome_trace(&sample_events());
        validate_json(&out).expect("chrome trace parses as JSON");
        assert!(out.contains(r#""name":"process_name""#));
        assert!(out.contains(r#""name":"worker 2""#));
        assert!(out.contains(r#""name":"tenant 0""#));
        assert!(out.contains(r#""ph":"X""#));
        // Task span: dispatched at 0, completed at 1.25s -> 1.25e6 us.
        assert!(out.contains(r#""ts":0,"dur":1250000"#));
        assert!(out.contains(r#""name":"rung 1""#));
    }

    #[test]
    fn unclosed_spans_render_as_open() {
        use TraceEventKind as K;
        let events = vec![
            TraceEvent {
                time: 0.0,
                kind: K::JobArrival {
                    job: 7,
                    tenant: 1,
                    preset: "m",
                },
            },
            TraceEvent {
                time: 0.5,
                kind: K::TaskDispatch {
                    job: 7,
                    worker: 0,
                    generation: 3,
                    chunks: 1,
                    redo: true,
                },
            },
        ];
        let out = chrome_trace(&events);
        validate_json(&out).unwrap();
        assert!(out.contains(r#""end":"open""#));
        assert!(out.contains(r#""cat":"redo""#));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json(r#"{"a":[1,2.5,-3e-2],"b":"x\n","c":null}"#).unwrap();
        assert!(validate_json(r#"{"a":}"#).is_err());
        assert!(validate_json(r#"{"a":1"#).is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json(r#"{"a":1} extra"#).is_err());
        for ok in ["0", "-0", "0.5", "10"] {
            validate_json(ok).unwrap();
        }
        for leading_zero in ["01", "-007", "00.5"] {
            assert!(validate_json(leading_zero).is_err(), "{leading_zero}");
        }
    }
}
