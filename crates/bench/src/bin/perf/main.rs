//! `perf` — one seeded harness that measures host time and virtual time
//! end to end and layer by layer. See `README.md` beside this file.
//!
//! ```text
//! perf run     [--seed N] [--quick]        all workloads -> results/perf.json
//! perf check   <a.json> <b.json>          compare two result files
//! perf measure --workload W --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! `measure` is the unit the other two build on and the command
//! `BENCHMARK.json` names: one workload in one process, either the
//! untraced repetitions (end-to-end metrics) or the traced pass
//! (per-layer metrics), ending in a `detail` line for `run` and the JSON
//! result line for the benchmark driver.

mod catalog;
mod check;
mod json;
mod replay;
mod spans;
mod stats;
mod workloads;

use catalog::MetricDef;
use json::Value;
use stats::Summary;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Opts, Outcome, Workload, WORKLOADS};

const USAGE: &str = "\
perf — seeded end-to-end and per-layer benchmark of the S2C2 workspace

USAGE:
    perf run     [--seed N] [--quick]
    perf check   <a.json> <b.json>          (run where BENCHMARK.json is)
    perf measure --workload W --seed N --seconds S --trace 0|1 [--quick]

    run      every workload, untraced then traced, each in a child process;
             writes results/perf.json and results/perf_trace.json; exits
             non-zero if a correctness gate fails
    check    one row per (workload, metric) with verdict ok / worse /
             unresolved / changed; exits non-zero on worse or changed
    measure  one workload in this process: a readable report, a `detail`
             line (the same figures as JSON, with min/max/n, for `run`),
             and as the last line of stdout the JSON result the benchmark
             driver reads

WORKLOADS: sim-steady, sim-volatile, threaded-numeric, paper-logreg
--quick    1/20 sizes, one repetition, replays at 0.02 s (smoke use)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("measure") => measure(&args[1..]),
        _ => Err(String::new()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare flags, in any order.
struct Flags<'a> {
    args: &'a [String],
}

impl Flags<'_> {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == name)?;
        self.args.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

// ---------------------------------------------------------------------
// measure
// ---------------------------------------------------------------------

fn measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags { args };
    let name = flags
        .value("--workload")
        .ok_or("measure needs --workload")?;
    let (index, workload) = WORKLOADS
        .iter()
        .enumerate()
        .find(|(_, w)| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let opts = Opts {
        seed: flags.parsed("--seed")?.unwrap_or(42),
        seconds: flags.parsed("--seconds")?.unwrap_or(10.0),
        trace: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        quick: flags.has("--quick"),
    };
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }

    let mut rec = spans::Recorder::new(opts.trace);
    let out = rec.span(workload.name, |rec| {
        workloads::measure(workload, &opts, rec)
    });
    let defs = if opts.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };

    println!(
        "perf measure: {} seed={} trace={} host-threads={}",
        workload.name,
        opts.seed,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("  {}", out.sizes);
    for (name, s) in &out.metrics {
        let def = catalog::find(name).expect("emitted metrics are in the catalogue");
        print!("  {:<40} {:>16} {:<6}", name, figure(s.value), def.unit);
        if s.n > 1 {
            print!(
                "  (min {}, max {}, n {})",
                figure(s.min),
                figure(s.max),
                s.n
            );
        }
        println!();
    }
    println!("  virtual_digest {}", digest_text(&out));
    for failure in &out.gate_failures {
        println!("  GATE FAILED: {failure}");
    }

    if opts.trace {
        let path = trace_path(workload.name);
        let doc = spans::chrome_trace(spans::chrome_events(rec.spans(), workload.name, index + 1));
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, doc.to_pretty()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  [written {path}]");
    }
    println!("detail {}", detail(&out).to_line());
    println!("{}", result_line(&out, defs, workload).to_line());
    Ok(ExitCode::SUCCESS)
}

/// Six significant-looking places for people; the JSON carries every digit.
fn figure(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

fn digest_text(out: &Outcome) -> String {
    format!("{:#018x}", out.digest.unwrap_or(0))
}

fn trace_path(workload: &str) -> String {
    format!("results/perf_trace.{workload}.json")
}

fn summary_of<'a>(out: &'a Outcome, name: &str) -> Option<&'a Summary> {
    out.metrics.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter carrying every name of the list the mode
/// reports. A per-layer metric of a layer the workload never enters
/// reads 0 there.
fn result_line(out: &Outcome, defs: &[MetricDef], workload: &Workload) -> Value {
    let missing: Vec<&str> = defs
        .iter()
        .filter(|d| d.on & workload.bit != 0 && summary_of(out, d.name).is_none())
        .map(|d| d.name)
        .collect();
    let metrics = defs.iter().map(|d| {
        let value = summary_of(out, d.name).map_or(0.0, |s| s.value);
        (
            d.name,
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(d.unit))]),
        )
    });
    Value::obj([
        (
            "correct",
            Value::Bool(out.gate_failures.is_empty() && missing.is_empty()),
        ),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

/// The `detail` line, which `perf run` keeps of a child: the applicable
/// metrics with their spread, the digest and the gate failures. (The
/// result line cannot carry them: the driver fixes its keys.)
fn detail(out: &Outcome) -> Value {
    let metrics = out.metrics.iter().map(|(name, s)| {
        let def = catalog::find(name).expect("emitted metrics are in the catalogue");
        (
            *name,
            Value::obj([
                ("value", Value::Num(s.value)),
                ("unit", Value::str(def.unit)),
                ("better", Value::str(def.better.as_str())),
                ("min", Value::Num(s.min)),
                ("max", Value::Num(s.max)),
                ("n", Value::Num(s.n as f64)),
            ]),
        )
    });
    Value::obj([
        ("virtual_digest", Value::str(digest_text(out))),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "gate_failures",
            Value::Arr(out.gate_failures.iter().map(Value::str).collect()),
        ),
        ("metrics", Value::obj(metrics)),
    ])
}

// ---------------------------------------------------------------------
// run
// ---------------------------------------------------------------------

/// Runs `perf measure` in a child process (its own peak RSS, its own
/// page-fault history), echoing its report and returning its detail.
fn measure_in_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["measure", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn().map_err(|e| format!("starting child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut detail = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        if let Some(text) = line.strip_prefix("detail ") {
            detail = Some(json::from_text(text)?);
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    detail.ok_or_else(|| format!("{workload}: child printed no detail line"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags { args };
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(42);
    let quick = flags.has("--quick");
    // Three repetitions of every workload fit in ten seconds.
    let seconds = if quick { 0.0 } else { 10.0 };

    let mut entries = Vec::new();
    let mut trace_events = Vec::new();
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        let untraced = measure_in_child(w.name, seed, seconds, false, quick)?;
        let traced = measure_in_child(w.name, seed, seconds, true, quick)?;
        for part in [&untraced, &traced] {
            for failure in part
                .get("gate_failures")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
            {
                failures.push(format!("{}: {}", w.name, failure.as_str().unwrap_or("?")));
            }
        }
        // The traced pass repeats the untraced stream; a span recorder
        // that changed a virtual result would show here.
        let digest = untraced
            .get("virtual_digest")
            .cloned()
            .unwrap_or(Value::Null);
        if traced.get("virtual_digest") != Some(&digest) {
            failures.push(format!("{}: traced and untraced digests differ", w.name));
        }
        let path = trace_path(w.name);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        if let Some(events) = json::from_text(&text)?
            .get("traceEvents")
            .and_then(Value::as_arr)
        {
            trace_events.extend_from_slice(events);
        }
        let field = |part: &Value, key: &str| part.get(key).cloned().unwrap_or(Value::Null);
        entries.push(Value::obj([
            ("name", Value::str(w.name)),
            ("why", Value::str(w.why)),
            ("virtual_digest", digest),
            ("attempted", field(&untraced, "attempted")),
            ("failed", field(&untraced, "failed")),
            ("end_to_end", field(&untraced, "metrics")),
            ("per_layer", field(&traced, "metrics")),
        ]));
        println!();
    }

    let doc = Value::obj([
        ("schema", Value::str("s2c2-perf/1")),
        ("seed", Value::Num(seed as f64)),
        ("quick", Value::Bool(quick)),
        ("seconds", Value::Num(seconds)),
        (
            "host_threads",
            Value::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("correct", Value::Bool(failures.is_empty())),
        ("workloads", Value::Arr(entries)),
    ]);
    std::fs::write("results/perf.json", doc.to_pretty())
        .and_then(|()| {
            std::fs::write(
                "results/perf_trace.json",
                spans::chrome_trace(trace_events).to_pretty(),
            )
        })
        .map_err(|e| format!("writing results: {e}"))?;
    println!("[written results/perf.json and results/perf_trace.json]");
    if failures.is_empty() {
        println!("perf run: every correctness gate held");
        Ok(ExitCode::SUCCESS)
    } else {
        for failure in &failures {
            println!("GATE FAILED: {failure}");
        }
        Ok(ExitCode::FAILURE)
    }
}

// ---------------------------------------------------------------------
// check
// ---------------------------------------------------------------------

fn check(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("check takes exactly two result files".into());
    };
    Ok(if check::run(a, b)? {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut out = Outcome::default();
        for d in catalog::END_TO_END {
            out.metrics.push((d.name, Summary::single(1.5)));
        }
        out.attempted = 10;
        let line = result_line(&out, catalog::END_TO_END, &WORKLOADS[0]).to_line();
        s2c2_telemetry::export::validate_json(&line).unwrap();
        let doc = json::from_text(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), catalog::END_TO_END.len());
        assert_eq!(
            metrics[0].1,
            Value::obj([("value", Value::Num(1.5)), ("unit", Value::str("s"))])
        );
    }

    #[test]
    fn per_layer_line_names_every_metric_and_flags_a_missing_one() {
        // Nothing measured: layers the workload enters are missing, so
        // the line is complete but not correct.
        let out = Outcome::default();
        let doc = result_line(&out, catalog::PER_LAYER, &WORKLOADS[3]);
        let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), catalog::PER_LAYER.len());
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("attempted"), Some(&Value::Num(1.0)));
    }
}
