//! The metric catalogue: every name the harness may print, its unit,
//! its direction, and the workloads whose code path produces it.
//!
//! `BENCHMARK.json` lists the same names (a unit test holds the two
//! together). Units carry one convention `perf check` relies on: a unit
//! that starts with `v` (`vs`, `vratio`) or is `count` is measured on
//! the virtual side — it depends on the seed and the code's decisions,
//! never on how fast the host ran — so two runs of one seed must agree
//! on it bit for bit. [`HOST_TIMED`] lists the exceptions.

pub const SIM_STEADY: u8 = 1;
pub const SIM_VOLATILE: u8 = 2;
pub const THREADED: u8 = 4;
pub const LOGREG: u8 = 8;
const SIM: u8 = SIM_STEADY | SIM_VOLATILE;
const SERVE: u8 = SIM | THREADED;
const NUMERIC: u8 = THREADED | LOGREG;
const ALL: u8 = SERVE | LOGREG;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// The inverse of [`Self::as_str`].
    pub fn from_name(name: &str) -> Option<Better> {
        [Better::Lower, Better::Higher]
            .into_iter()
            .find(|b| b.as_str() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Bit set of the workloads that exercise the code this measures.
    /// On the others the metric does not apply: `perf run` leaves it
    /// out, and the driver's result line (which must carry every name)
    /// reads 0 for it.
    pub on: u8,
}

const fn m(name: &'static str, unit: &'static str, better: Better, on: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        on,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees in host time; measured with tracing
/// off, on every workload. A "unit" of work is a job on the serve
/// workloads and a gradient-descent step on `paper-logreg`.
///
/// No virtual-time figure is in this list, because the driver judges an
/// end-to-end metric by its spread *across seeds*, and a virtual
/// statistic differs from seed to seed by design (the seed draws the
/// pool) while repeating exactly on one seed. They are the first rows of
/// [`PER_LAYER`] instead, and `perf check` holds them to exact equality.
#[rustfmt::skip] // one metric per line
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, ALL),
    m("wall_s", "s", Lower, ALL),
    m("units_per_s", "1/s", Higher, ALL),
    m("peak_rss_mb", "MB", Lower, ALL),
];

/// Single layers, measured in the traced pass: (R) replays of a layer's
/// public functions at the shapes the workloads use, and (C) counts and
/// phase totals read from the program's public outputs.
#[rustfmt::skip] // one metric per line
pub const PER_LAYER: &[MetricDef] = &[
    // Headline figures that exist on some workloads only.
    m("sojourn_p50_vs", "vs", Lower, SERVE),
    m("sojourn_p99_vs", "vs", Lower, SERVE),
    m("events_per_s", "1/s", Higher, SERVE),
    m("failed_ratio", "vratio", Lower, ALL),
    m("virtual_latency_s", "vs", Lower, LOGREG),
    m("latency_reduction_vs_mds", "vratio", Higher, LOGREG),
    m("step_p50_ms", "ms", Lower, LOGREG),
    m("step_p95_ms", "ms", Lower, LOGREG),
    m("harness.traced_wall_s", "s", Lower, ALL),
    // s2c2-linalg (R)
    m("linalg.matvec_rows.serve_ns", "ns", Lower, THREADED),
    m("linalg.matvec_multi.serve_m4_ns", "ns", Lower, THREADED),
    m("linalg.matvec_rows.paper_ns", "ns", Lower, LOGREG),
    m("linalg.matvec.paper_gb_per_s", "GB/s", Higher, LOGREG),
    m("linalg.lu_solve.m10_ns", "ns", Lower, NUMERIC),
    // s2c2-coding (R + C)
    m("coding.encode.serve_medium_ms", "ms", Lower, THREADED),
    m("coding.encode.paper_ms", "ms", Lower, LOGREG),
    m("coding.cache.hit_ns", "ns", Lower, THREADED),
    m("coding.worker_compute.serve_ns", "ns", Lower, THREADED),
    m("coding.decode.serve_us", "us", Lower, THREADED),
    m("coding.decode.paper_us", "us", Lower, LOGREG),
    m("coding.cache.hits", "count", Higher, THREADED),
    m("coding.cache.misses", "count", Lower, THREADED),
    m("coding.cache.hit_ratio", "vratio", Higher, THREADED),
    // s2c2-core (R + C)
    m("core.alloc.n16_ns", "ns", Lower, SIM),
    m("core.alloc.n50_ns", "ns", Lower, LOGREG),
    m("core.speed_tracker.observe_n16_ns", "ns", Lower, SIM),
    m("core.strategy.wasted_rows.mds", "count", Lower, LOGREG),
    m("core.strategy.wasted_rows.s2c2", "count", Lower, LOGREG),
    m("core.strategy.virtual_per_iter_vs.mds", "vs", Lower, LOGREG),
    m("core.strategy.virtual_per_iter_vs.s2c2", "vs", Lower, LOGREG),
    // s2c2-predict (R)
    m("predict.lstm.step_ns", "ns", Lower, LOGREG),
    m("predict.lstm.train_s", "s", Lower, LOGREG),
    // s2c2-cluster (R + C)
    m("cluster.threaded.round_trip_us", "us", Lower, THREADED),
    m("cluster.threaded.fanout8_us", "us", Lower, THREADED),
    m("cluster.threaded.model_wall_ratio", "ratio", Lower, THREADED),
    // s2c2-serve::event / admission / shared_alloc / workload (R)
    m("serve.event.hold_1k_ns", "ns", Lower, SIM),
    m("serve.event.hold_100k_ns", "ns", Lower, SIM),
    m("serve.admission.pick_fifo_q1024_ns", "ns", Lower, SIM),
    m("serve.admission.pick_wfs_q1024_ns", "ns", Lower, SIM),
    m("serve.shared_alloc.r1_ns", "ns", Lower, SIM),
    m("serve.shared_alloc.r4_ns", "ns", Lower, SIM),
    m("serve.workload.generate_ns_per_job", "ns", Lower, SIM),
    // s2c2-serve::engine (C)
    m("serve.engine.events", "count", Lower, SERVE),
    m("serve.engine.events_per_job", "vratio", Lower, SERVE),
    m("serve.engine.ns_per_event", "ns", Lower, SERVE),
    m("serve.engine.self_s", "s", Lower, SERVE),
    m("serve.backend.encode_s", "s", Lower, SERVE),
    m("serve.backend.compute_s", "s", Lower, SERVE),
    m("serve.backend.decode_s", "s", Lower, SERVE),
    m("serve.backend.verify_s", "s", Lower, SERVE),
    m("serve.backend.verified_iterations", "count", Higher, SERVE),
    m("serve.backend.max_decode_err", "ratio", Lower, SERVE),
    m("serve.recovery.timeouts", "count", Lower, SERVE),
    m("serve.recovery.rung_1", "count", Higher, SERVE),
    m("serve.recovery.rung_2", "count", Lower, SERVE),
    m("serve.recovery.rung_3", "count", Lower, SERVE),
    m("serve.recovery.rung_4", "count", Lower, SERVE),
    m("serve.recovery.rung_5", "count", Lower, SERVE),
    m("serve.recovery.useful_ratio", "vratio", Higher, SERVE),
    m("serve.rebalance.count", "count", Lower, SERVE),
    m("serve.engine.degraded_iterations", "count", Lower, SERVE),
    m("serve.engine.scratch_reuses", "count", Higher, SERVE),
    m("serve.engine.utilization_v", "vratio", Higher, SERVE),
    m("serve.engine.mean_queue_depth_v", "vratio", Lower, SERVE),
    m("serve.engine.max_queue_depth", "count", Lower, SERVE),
    m("serve.engine.cancel_ratio", "vratio", Lower, SERVE),
    // s2c2-telemetry (traced pass, engine telemetry on)
    m("telemetry.wall_ratio", "ratio", Lower, SERVE),
    m("telemetry.trace_events", "count", Lower, SERVE),
    m("telemetry.events_per_job", "vratio", Lower, SERVE),
    m("telemetry.task_dispatch", "count", Lower, SERVE),
    m("telemetry.task_complete", "count", Higher, SERVE),
    m("telemetry.task_cancel", "count", Lower, SERVE),
    m("telemetry.jsonl_mb_per_s", "MB/s", Higher, SERVE),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Counts that host thread timing reaches on some workloads. On the
/// Threaded backend `ServiceReport::scratch_reuses` includes input
/// buffers recycled only when no worker thread still holds a clone
/// (`Arc::try_unwrap`), which is a race the host's scheduler decides.
const HOST_TIMED: &[(&str, u8)] = &[("serve.engine.scratch_reuses", THREADED)];

/// Whether two runs of one seed must agree exactly on this metric on
/// the workload with bit `workload`.
pub fn is_exact(name: &str, unit: &str, workload: u8) -> bool {
    (unit.starts_with('v') || unit == "count")
        && !HOST_TIMED
            .iter()
            .any(|&(n, on)| n == name && on & workload != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.on != 0 && d.on <= ALL);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn counts_are_exact_except_where_thread_timing_reaches_them() {
        assert!(is_exact("serve.engine.events", "count", THREADED));
        assert!(is_exact("sojourn_p99_vs", "vs", THREADED));
        assert!(!is_exact("wall_s", "s", SIM_STEADY));
        assert!(is_exact("serve.engine.scratch_reuses", "count", SIM_STEADY));
        assert!(!is_exact("serve.engine.scratch_reuses", "count", THREADED));
        for (name, _) in HOST_TIMED {
            assert!(find(name).is_some(), "{name}");
        }
    }

    /// `BENCHMARK.json` is what the driver and `perf check` read; the
    /// catalogue is what the harness emits. They must list the same
    /// names, units and directions, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = json::from_text(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let field = |k: &str| e.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let catalogue = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        for e in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = e.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
