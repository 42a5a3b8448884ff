//! `perf check <a.json> <b.json>`: compares two result files of
//! `perf run`, metric by metric, against the directions and bounds in
//! the `BENCHMARK.json` of the current directory (the repository root).
//! `a` is the baseline (the parent commit), `b` the candidate.

use crate::catalog::{is_exact, Better};
use crate::json::{self, Value};
use crate::workloads::WORKLOADS;

/// Differences below these absolute sizes are noise whatever the ratio
/// says: set-up of the simulated workloads takes tens of milliseconds.
const FLOORS: &[(&str, f64)] = &[("setup_s", 0.05)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
    /// A virtual-side figure (virtual time, a count) that differs; on
    /// one seed it must not, whatever the host's speed.
    Changed,
    /// A host-side per-layer figure: shown with its direction, not
    /// judged (per-layer metrics have no bound).
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Info => "-",
        }
    }
}

/// One metric of one workload as a result file records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.value.abs().max(f64::MIN_POSITIVE)
    }
}

/// By how much of `a` the candidate is worse (negative = better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Judges an end-to-end metric against its bound.
pub fn judge(a: &Stat, b: &Stat, better: Better, bound: f64, floor: f64) -> Verdict {
    if (b.value - a.value).abs() <= floor {
        return Verdict::Ok;
    }
    if worse_by(a.value, b.value, better) > bound {
        return Verdict::Worse;
    }
    let every_run_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if a.spread().max(b.spread()) > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn stat(v: &Value) -> Option<(Stat, &str, Better)> {
    let num = |k: &str| v.get(k).and_then(Value::as_f64);
    let value = num("value")?;
    let better = v
        .get("better")
        .and_then(Value::as_str)
        .and_then(Better::from_name)?;
    Some((
        Stat {
            value,
            min: num("min").unwrap_or(value),
            max: num("max").unwrap_or(value),
        },
        v.get("unit").and_then(Value::as_str)?,
        better,
    ))
}

/// Reads the two result files and `BENCHMARK.json`, prints the
/// comparison, and returns whether any row read `worse` or `changed`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let counts = compare(
        &read_json(a_path)?,
        &read_json(b_path)?,
        &read_json("BENCHMARK.json")?,
    )?;
    let of = |v: Verdict| counts[v as usize];
    println!(
        "\nperf check: {} ok, {} worse, {} unresolved, {} changed (virtual side), {} shown without a bound",
        of(Verdict::Ok),
        of(Verdict::Worse),
        of(Verdict::Unresolved),
        of(Verdict::Changed),
        of(Verdict::Info)
    );
    Ok(of(Verdict::Worse) + of(Verdict::Changed) > 0)
}

/// Prints one row per (workload, metric) of baseline `a` against
/// candidate `b`; returns how many rows read each verdict, indexed by
/// `Verdict as usize`.
fn compare(a: &Value, b: &Value, bench: &Value) -> Result<[usize; 5], String> {
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_f64);
    if seed(a) != seed(b) || a.get("quick") != b.get("quick") {
        return Err("the two files ran different seeds or sizes; nothing to compare".into());
    }
    for (side, doc) in [("a", a), ("b", b)] {
        if doc.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!(
                "file {side} records a failed correctness gate; its figures mean nothing"
            ));
        }
    }
    let mut bounds = Vec::new();
    for e in bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without name")?;
        let better = e
            .get("better")
            .and_then(Value::as_str)
            .and_then(Better::from_name)
            .ok_or_else(|| format!("{name}: bad `better`"))?;
        let bound = e
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        bounds.push((name, better, bound));
    }

    let b_workloads = workloads(b);
    let mut counts = [0usize; 5];
    println!(
        "{:<18} {:<40} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "a", "b", "worse by"
    );
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = b_workloads.iter().find(|w| w.get("name") == wa.get("name")) else {
            println!("{name:<18} missing from b  worse");
            counts[Verdict::Worse as usize] += 1;
            continue;
        };
        let bit = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map_or(0, |w| w.bit);
        let digest = |w: &Value| {
            w.get("virtual_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if digest(wa) != digest(wb) {
            println!(
                "{name:<18} virtual_digest {:?} -> {:?}  changed",
                digest(wa),
                digest(wb)
            );
            counts[Verdict::Changed as usize] += 1;
        }
        let mut row = |metric: &str, a: f64, b: f64, better: Better, verdict: Verdict| {
            let worse = 100.0 * worse_by(a, b, better);
            println!(
                "{name:<18} {metric:<40} {a:>14.6} {b:>14.6} {worse:>+8.2}%  {}",
                verdict.as_str()
            );
            counts[verdict as usize] += 1;
        };
        for section in ["end_to_end", "per_layer"] {
            let Some(metrics) = wa.get(section).and_then(Value::as_obj) else {
                continue;
            };
            for (metric, va) in metrics {
                let Some((sa, unit, better)) = stat(va) else {
                    return Err(format!("file a: {name} {metric} is malformed"));
                };
                // A candidate that no longer reports a figure has not kept it.
                let Some((sb, _, _)) = wb.get(section).and_then(|s| s.get(metric)).and_then(stat)
                else {
                    row(metric, sa.value, f64::NAN, better, Verdict::Worse);
                    continue;
                };
                let bounded = bounds.iter().find(|(n, _, _)| n == metric);
                // BENCHMARK.json, where it lists the metric, is the authority
                // on its direction.
                let better = bounded.map_or(better, |&(_, b, _)| b);
                let verdict = if let Some(&(_, _, bound)) = bounded {
                    let floor = FLOORS
                        .iter()
                        .find(|(n, _)| n == metric)
                        .map_or(0.0, |&(_, f)| f);
                    judge(&sa, &sb, better, bound, floor)
                } else if !is_exact(metric, unit, bit) {
                    Verdict::Info
                } else if sa.value == sb.value {
                    Verdict::Ok
                } else {
                    Verdict::Changed
                };
                row(metric, sa.value, sb.value, better, verdict);
            }
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, min: f64, max: f64) -> Stat {
        Stat { value, min, max }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = s(10.0, 9.9, 10.1);
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not.
        assert_eq!(
            judge(&a, &s(10.5, 10.4, 10.6), Better::Lower, 0.1, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &s(12.0, 11.9, 12.1), Better::Lower, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &s(5.0, 4.9, 5.1), Better::Lower, 0.1, 0.0),
            Verdict::Ok
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            judge(&a, &s(8.0, 7.9, 8.1), Better::Higher, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &s(12.0, 11.9, 12.1), Better::Higher, 0.1, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = s(10.0, 8.0, 12.0);
        assert_eq!(
            judge(&noisy, &s(10.2, 10.1, 10.3), Better::Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &s(10.0, 9.9, 10.1),
                &s(10.2, 8.0, 12.5),
                Better::Lower,
                0.1,
                0.0
            ),
            Verdict::Unresolved
        );
        // Noisy, but the candidate's slowest run beats the baseline's fastest.
        assert_eq!(
            judge(&noisy, &s(7.0, 6.0, 7.9), Better::Lower, 0.1, 0.0),
            Verdict::Ok
        );
        // Beyond the bound is worse however noisy the runs were.
        assert_eq!(
            judge(&noisy, &s(13.0, 9.0, 15.0), Better::Lower, 0.1, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn absolute_floor_absorbs_small_set_up_times() {
        // 20 ms -> 60 ms is 3x, but 40 ms is below the 50 ms floor.
        let (a, b) = (s(0.020, 0.019, 0.021), s(0.060, 0.059, 0.061));
        assert_eq!(judge(&a, &b, Better::Lower, 0.25, 0.05), Verdict::Ok);
        assert_eq!(judge(&a, &b, Better::Lower, 0.25, 0.0), Verdict::Worse);
        assert!(FLOORS.iter().any(|&(n, f)| n == "setup_s" && f == 0.05));
    }

    /// A result file with one workload, one end-to-end metric and two
    /// per-layer counts.
    fn text(workload: &str, wall_s: f64, events: u32, reuses: Option<u32>) -> String {
        let count = |v: u32| {
            format!(
                r#"{{"value": {v}, "unit": "count", "better": "lower", "min": {v}, "max": {v}, "n": 1}}"#
            )
        };
        let reuses = reuses.map_or(String::new(), |v| {
            format!(r#", "serve.engine.scratch_reuses": {}"#, count(v))
        });
        format!(
            r#"{{"seed": 42, "quick": false, "correct": true, "workloads": [{{
                "name": "{workload}", "virtual_digest": "0x1",
                "end_to_end": {{"wall_s": {{"value": {wall_s}, "unit": "s", "better": "lower",
                                           "min": {wall_s}, "max": {wall_s}, "n": 3}}}},
                "per_layer": {{"serve.engine.events": {}{reuses}}}}}]}}"#,
            count(events)
        )
    }

    fn file(workload: &str, wall_s: f64, events: u32, reuses: Option<u32>) -> Value {
        json::from_text(&text(workload, wall_s, events, reuses)).unwrap()
    }

    fn bench() -> Value {
        json::from_text(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    fn tally(a: &Value, b: &Value) -> (usize, usize, usize, usize) {
        let c = compare(a, b, &bench()).unwrap();
        let of = |v: Verdict| c[v as usize];
        (
            of(Verdict::Ok),
            of(Verdict::Worse),
            of(Verdict::Changed),
            of(Verdict::Info),
        )
    }

    #[test]
    fn counts_must_repeat_except_thread_timed_ones() {
        let a = file("threaded-numeric", 3.0, 100, Some(50));
        assert_eq!(tally(&a, &a), (2, 0, 0, 1));
        // The recycled-buffer count races with the worker threads on the
        // Threaded backend: shown, not judged. Any other count must repeat.
        let b = file("threaded-numeric", 3.0, 100, Some(49));
        assert_eq!(tally(&a, &b), (2, 0, 0, 1));
        let b = file("threaded-numeric", 3.0, 101, Some(50));
        assert_eq!(tally(&a, &b), (1, 0, 1, 1));
        // On the Sim backend nothing races.
        let (a, b) = (
            file("sim-steady", 3.0, 100, Some(50)),
            file("sim-steady", 3.0, 100, Some(49)),
        );
        assert_eq!(tally(&a, &b), (2, 0, 1, 0));
    }

    #[test]
    fn a_dropped_metric_or_a_failed_run_does_not_pass() {
        let a = file("sim-steady", 3.0, 100, Some(50));
        let b = file("sim-steady", 3.0, 100, None);
        assert_eq!(tally(&a, &b), (2, 1, 0, 0));
        // Extra metrics in the candidate are not held against it.
        assert_eq!(tally(&b, &a), (2, 0, 0, 0));
        let other = file("sim-volatile", 3.0, 100, Some(50));
        assert_eq!(tally(&a, &other), (0, 1, 0, 0));

        let failed = text("sim-steady", 3.0, 100, Some(50)).replace("true", "false");
        let failed = json::from_text(&failed).unwrap();
        assert!(compare(&a, &failed, &bench()).is_err());
        assert!(compare(&failed, &a, &bench()).is_err());
    }
}
