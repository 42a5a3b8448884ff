//! The `e2e` experiment: the serve engine's execution backends compared
//! on one recurring-matrix trace workload.
//!
//! A trace of jobs drawn from the standard presets (each preset carries
//! one model matrix identity, so the stream re-submits the same models
//! over and over) is served three times:
//!
//! * **sim** — the timing-only backend: the schedule, no numerics;
//! * **sim-verified** — master-side numerics: every completed iteration
//!   is decoded from the timing model's worker coverage and checked
//!   against a sequential `A·x` reference;
//! * **threaded** — real OS-thread workers: the same chunk tasks are
//!   dispatched to a [`s2c2_cluster::threaded::ThreadedCluster`],
//!   cancelled in step with the §4.3 recovery ladder, and decoded from
//!   actual worker replies.
//!
//! Virtual latencies are backend-independent by construction (the table
//! shows it); what the numeric rows add is proof the schedule *computes
//! the right answers* — verified iteration counts, the worst observed
//! decode error, and the encode-cache hit rate showing recurring jobs
//! skip re-encoding.

use crate::experiments::{common, Scale};
use crate::report::Table;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;

/// Pool size (small: the threaded row spawns one OS thread per worker).
pub const POOL: usize = 8;
/// Injected 5×-slow stragglers.
pub const STRAGGLERS: usize = 1;
/// Workload seed.
pub const SEED: u64 = 0x0E2E;

/// Builds the recurring-matrix trace workload: presets cycle, so every
/// job re-submits one of three model matrices.
#[must_use]
pub fn trace_workload(jobs: usize) -> Vec<(f64, JobSpec)> {
    let instants: Vec<f64> = (0..jobs).map(|i| 0.4 * i as f64).collect();
    generate_workload(
        &ArrivalPattern::Trace(instants),
        &JobPreset::standard_mix(),
        jobs,
        3,
        POOL,
        SEED,
    )
}

/// Runs the canonical e2e scenario under one backend.
///
/// # Panics
///
/// Panics if the engine rejects the configuration, the run stalls, or a
/// numeric backend fails verification — all must hold on every commit.
#[must_use]
pub fn run_backend(backend: BackendKind, jobs: usize) -> ServiceReport {
    let pool = common::controlled_cluster(POOL, STRAGGLERS, SEED);
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.backend = backend;
    ServiceEngine::new(pool, cfg)
        .expect("e2e configuration is valid")
        .run(&trace_workload(jobs))
        .expect("e2e run completes and verifies")
}

/// Runs the e2e experiment.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let jobs = scale.pick(10, 30);
    let mut table = Table::new(
        format!(
            "E2E — execution backends on a {jobs}-job recurring-matrix trace, \
             {POOL}-worker pool ({STRAGGLERS} straggler)"
        ),
        vec![
            "p50_latency".into(),
            "p99_latency".into(),
            "completed".into(),
            "verified_iters".into(),
            "cache_hits".into(),
            "cache_misses".into(),
            "cache_hit_rate".into(),
            "max_decode_err".into(),
        ],
    );
    for backend in [
        BackendKind::Sim,
        BackendKind::SimVerified,
        BackendKind::Threaded,
    ] {
        let r = run_backend(backend, jobs);
        assert_eq!(
            r.completed(),
            jobs,
            "{backend} backend must serve every job"
        );
        table.push_row(
            backend.to_string(),
            vec![
                r.latency_percentile(50.0),
                r.latency_percentile(99.0),
                r.completed() as f64,
                r.verified_iterations as f64,
                r.encode_cache_hits as f64,
                r.encode_cache_misses as f64,
                r.encode_cache_hit_rate(),
                r.max_decode_error,
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_backend_independent() {
        let t = run(Scale::Quick);
        for col in ["p50_latency", "p99_latency", "completed"] {
            let sim = t.value("sim", col);
            let verified = t.value("sim-verified", col);
            let threaded = t.value("threaded", col);
            assert_eq!(sim, verified, "{col} must not depend on the backend");
            assert_eq!(sim, threaded, "{col} must not depend on the backend");
        }
    }

    #[test]
    fn recurring_trace_hits_the_encode_cache() {
        let t = run(Scale::Quick);
        for row in ["sim-verified", "threaded"] {
            assert!(
                t.value(row, "cache_hit_rate") > 0.0,
                "{row}: recurring matrices must hit the cache"
            );
            // Three presets -> exactly three encodings; the rest hit.
            assert_eq!(t.value(row, "cache_misses"), 3.0, "{row}");
        }
        assert_eq!(t.value("sim", "cache_hit_rate"), 0.0, "sim never encodes");
    }

    #[test]
    fn rows_guard_the_numeric_path() {
        // The same checks on the raw reports rather than the table.
        let report = |backend| {
            let r = run_backend(backend, 10);
            assert_eq!(r.completed(), 10, "{backend} must complete every job");
            r
        };
        let sim = report(BackendKind::Sim);
        let verified = report(BackendKind::SimVerified);
        let threaded = report(BackendKind::Threaded);
        // Virtual latencies are backend-independent.
        assert_eq!(
            sim.latency_percentile(50.0),
            threaded.latency_percentile(50.0)
        );
        assert_eq!(
            verified.latency_percentile(99.0),
            threaded.latency_percentile(99.0)
        );
        // Numeric backends verify every iteration and amortize encodes.
        assert_eq!(sim.verified_iterations, 0);
        assert!(threaded.verified_iterations > 0);
        assert!(threaded.encode_cache_hits > 0, "recurring trace must hit");
        assert_eq!(threaded.encode_cache_misses, 3, "one encode per preset");
    }

    #[test]
    fn numeric_backends_verify_every_iteration() {
        let t = run(Scale::Quick);
        assert_eq!(t.value("sim", "verified_iters"), 0.0);
        let verified = t.value("sim-verified", "verified_iters");
        assert!(verified > 0.0);
        assert_eq!(t.value("threaded", "verified_iters"), verified);
        for row in ["sim-verified", "threaded"] {
            assert!(
                t.value(row, "max_decode_err") < 1e-6,
                "{row}: decode must match the sequential reference"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a, b);
    }
}
