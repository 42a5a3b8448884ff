//! The `serve` experiment: many concurrent coded jobs on one shared
//! pool, S²C² vs conventional MDS vs uncoded under rising offered load.
//!
//! This is the service regime the related work targets (elastic cloud
//! load, tail-latency SLOs) rather than a paper figure: jobs arrive
//! Poisson, queue behind an admission policy, and share the pool's
//! capacity. Three tables come out:
//!
//! * **policies** — sojourn-latency distribution (p50/p95/p99), mean,
//!   throughput, utilization, and queue depth per scheduling mode at a
//!   moderate offered load;
//! * **load** — p99 sojourn latency per mode as the arrival rate rises
//!   (the classic hockey-stick separation);
//! * **threads** — the same S²C² service with 1-thread vs 4-thread
//!   worker matvecs (`s2c2_linalg::parallel` row-partitioning), showing
//!   the intra-worker parallelism delta end to end.
//!
//! Everything is seeded: reruns are bit-identical.

use crate::experiments::{common, Scale};
use crate::report::Table;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;

/// Pool size for the serve scenario.
pub const POOL: usize = 16;
/// Injected 5×-slow stragglers.
pub const STRAGGLERS: usize = 3;
/// Workload seed (shared by every mode so loads are identical).
pub const SEED: u64 = 0x5EBE;

/// The experiment's three tables.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    /// Per-policy service metrics at the reference load.
    pub policies: Table,
    /// p99 sojourn latency per policy as offered load rises.
    pub load: Table,
    /// Worker-thread scaling of the S²C² service.
    pub threads: Table,
}

/// Builds the scheduling mode for one of the experiment's policy labels.
///
/// # Panics
///
/// Panics on an unknown label.
#[must_use]
pub fn mode(name: &str) -> SchedulerMode {
    match name {
        "uncoded" => SchedulerMode::Uncoded,
        "mds" => SchedulerMode::ConventionalMds,
        "s2c2" => SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        },
        other => panic!("unknown scheduling mode {other}"),
    }
}

/// Runs one service configuration of the canonical serve scenario.
///
/// # Panics
///
/// Panics if the engine rejects the configuration or the run stalls —
/// the scenario must be runnable on every commit.
#[must_use]
pub fn run_service(
    scheduler: SchedulerMode,
    rate: f64,
    jobs: usize,
    threads: usize,
) -> ServiceReport {
    let pool = common::controlled_cluster(POOL, STRAGGLERS, SEED);
    let workload = generate_workload(
        &ArrivalPattern::Poisson { rate },
        &JobPreset::standard_mix(),
        jobs,
        4,
        POOL,
        SEED,
    );
    let mut cfg = ServeConfig::new(scheduler);
    cfg.worker_threads = threads;
    ServiceEngine::new(pool, cfg)
        .expect("serve configuration is valid")
        .run(&workload)
        .expect("service run completes")
}

/// Runs the serve experiment.
#[must_use]
pub fn run(scale: Scale) -> ServeOutput {
    let jobs = scale.pick(16, 60);
    let base_rate = 1.0;

    let mut policies = Table::new(
        format!(
            "Serve — {jobs} jobs over a {POOL}-worker pool ({STRAGGLERS} stragglers), \
             Poisson λ = {base_rate}/s"
        ),
        vec![
            "p50_latency".into(),
            "p95_latency".into(),
            "p99_latency".into(),
            "mean_latency".into(),
            "throughput".into(),
            "utilization".into(),
            "mean_queue".into(),
            "timeouts".into(),
        ],
    );
    for name in ["uncoded", "mds", "s2c2"] {
        let r = run_service(mode(name), base_rate, jobs, 1);
        assert_eq!(r.completed(), jobs, "{name} must serve every job");
        policies.push_row(
            name,
            vec![
                r.latency_percentile(50.0),
                r.latency_percentile(95.0),
                r.latency_percentile(99.0),
                r.mean_latency(),
                r.throughput(),
                r.utilization(),
                r.mean_queue_depth(),
                r.timeouts as f64,
            ],
        );
    }

    let mut load = Table::new(
        "Serve — p99 sojourn latency vs offered load".to_string(),
        vec!["uncoded_p99".into(), "mds_p99".into(), "s2c2_p99".into()],
    );
    for mult in [0.5, 1.0, 2.0] {
        let rate = base_rate * mult;
        let row: Vec<f64> = ["uncoded", "mds", "s2c2"]
            .iter()
            .map(|name| run_service(mode(name), rate, jobs, 1).latency_percentile(99.0))
            .collect();
        load.push_row(format!("load_{mult}x"), row);
    }

    let mut threads = Table::new(
        "Serve — S²C² with parallel worker matvec (s2c2_linalg::parallel)".to_string(),
        vec![
            "p50_latency".into(),
            "p99_latency".into(),
            "mean_latency".into(),
            "throughput".into(),
        ],
    );
    for t in [1usize, 4] {
        let r = run_service(mode("s2c2"), base_rate, jobs, t);
        threads.push_row(
            format!("s2c2[{t}t]"),
            vec![
                r.latency_percentile(50.0),
                r.latency_percentile(99.0),
                r.mean_latency(),
                r.throughput(),
            ],
        );
    }

    ServeOutput {
        policies,
        load,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s2c2_beats_conventional_p99_at_same_load() {
        let out = run(Scale::Quick);
        let s2c2 = out.policies.value("s2c2", "p99_latency");
        let mds = out.policies.value("mds", "p99_latency");
        let uncoded = out.policies.value("uncoded", "p99_latency");
        assert!(
            s2c2 < mds,
            "shared-cluster s2c2 p99 {s2c2} must beat conventional mds {mds}"
        );
        assert!(
            mds < uncoded,
            "coded mds p99 {mds} must beat uncoded {uncoded} under stragglers"
        );
    }

    #[test]
    fn summary_shows_the_tail_win_at_forty_jobs() {
        let report = |name: &str| {
            let r = run_service(mode(name), 1.0, 40, 1);
            assert_eq!(r.completed(), 40, "{name} must complete every job");
            r
        };
        let (s2c2, mds) = (report("s2c2"), report("mds"));
        assert!(
            s2c2.latency_percentile(99.0) < mds.latency_percentile(99.0),
            "serve s2c2 p99 {} must beat mds {}",
            s2c2.latency_percentile(99.0),
            mds.latency_percentile(99.0)
        );
        assert!(s2c2.throughput() > 0.0);
    }

    #[test]
    fn utilization_within_bounds_and_tenants_present() {
        for name in ["uncoded", "mds", "s2c2"] {
            let u = run_service(mode(name), 1.0, 40, 1).utilization();
            assert!((0.0..=1.0).contains(&u), "{name}: utilization {u}");
        }
        // The workload spreads jobs over 4 tenants.
        let tenants = run_service(mode("s2c2"), 1.0, 40, 1).tenant_summaries();
        assert_eq!(tenants.len(), 4);
        let share_sum: f64 = tenants.iter().map(|t| t.achieved_share).sum();
        assert!(
            share_sum <= 1.0 + 1e-9,
            "achieved shares sum to {share_sum}"
        );
        for t in &tenants {
            assert_eq!(t.on_time_ratio, 1.0, "no SLOs in the serve scenario");
        }
    }

    #[test]
    fn parallel_workers_improve_the_service() {
        let out = run(Scale::Quick);
        let seq = out.threads.value("s2c2[1t]", "mean_latency");
        let par = out.threads.value("s2c2[4t]", "mean_latency");
        assert!(
            par < seq,
            "4-thread workers ({par}) must beat 1-thread ({seq})"
        );
    }

    #[test]
    fn load_sweep_is_monotone_for_s2c2() {
        let out = run(Scale::Quick);
        let low = out.load.value("load_0.5x", "s2c2_p99");
        let high = out.load.value("load_2x", "s2c2_p99");
        assert!(
            low <= high,
            "more load cannot shrink the tail: {low} vs {high}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a.policies, b.policies);
        assert_eq!(a.load, b.load);
        assert_eq!(a.threads, b.threads);
    }
}
