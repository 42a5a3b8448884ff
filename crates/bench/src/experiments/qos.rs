//! The `qos` experiment: tenant-weighted capacity shares and
//! deadline-aware admission on the shared service engine.
//!
//! Two tables come out:
//!
//! * **weights** — two tenants submit *identical* saturating job
//!   streams, but tenant 1's jobs carry capacity weight 2. Under
//!   weighted fair-share admission and weighted S²C² capacity
//!   splitting, tenant 1 must achieve ≈ 2× tenant 0's work share while
//!   both contend (measured censored at the earliest tenant drain, so
//!   the eventual full drain cannot mask the enforcement).
//! * **deadline** — the same deadline-carrying Poisson load served
//!   under FIFO and earliest-deadline admission. EDF lifts the
//!   on-time ratio at identical offered load by spending queueing slack
//!   where the SLOs are loose instead of where they are tight.
//!
//! Everything is seeded: reruns are bit-identical.

use crate::experiments::{common, Scale};
use crate::report::Table;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;
use s2c2_serve::QueuePolicy;

/// Pool size (shared with the serve experiment's scenario).
pub const POOL: usize = 16;
/// Injected 5×-slow stragglers.
pub const STRAGGLERS: usize = 3;
/// Workload seed.
pub const SEED: u64 = 0x0905;

/// The experiment's tables.
#[derive(Debug, Clone)]
pub struct QosOutput {
    /// Per-tenant achieved vs entitled share under saturation.
    pub weights: Table,
    /// On-time ratio per admission policy at the same offered load.
    pub deadline: Table,
}

/// Runs the weighted-tenant scenario and returns the service report.
///
/// # Panics
///
/// Panics if the engine rejects the configuration or the run stalls.
#[must_use]
pub fn run_weighted(jobs_per_tenant: usize) -> ServiceReport {
    let pool = common::controlled_cluster(POOL, STRAGGLERS, SEED);
    // Identical interleaved streams: same preset, same arrival instants,
    // alternating tenants; only the weight differs.
    let mut arrivals = Vec::with_capacity(2 * jobs_per_tenant);
    for i in 0..(2 * jobs_per_tenant) as u64 {
        let tenant = (i % 2) as u32;
        let weight = if tenant == 1 { 2.0 } else { 1.0 };
        arrivals.push((
            0.01 * i as f64,
            JobPreset::medium()
                .with_weight(weight)
                .instantiate(i, tenant, POOL),
        ));
    }
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.policy = QueuePolicy::WeightedFairShare;
    // Two residency slots: both tenants stay resident and contend for
    // capacity the whole run — the regime weighted shares are about.
    cfg.max_resident = 2;
    ServiceEngine::new(pool, cfg)
        .expect("qos weighted configuration is valid")
        .run(&arrivals)
        .expect("qos weighted run completes")
}

/// Builds the deadline-carrying workload of the admission scenario.
#[must_use]
pub fn deadline_workload(jobs: usize) -> Vec<(f64, JobSpec)> {
    // Deadlines proportional to each size class's unloaded service
    // time: tight for interactive jobs, loose for batch — the shape
    // that makes admission *order* matter under queueing.
    let mix = vec![
        (JobPreset::small().with_deadline(1.5), 5.0),
        (JobPreset::medium().with_deadline(5.0), 3.0),
        (JobPreset::large().with_deadline(20.0), 1.0),
    ];
    generate_workload(
        &ArrivalPattern::Poisson { rate: 4.0 },
        &mix,
        jobs,
        4,
        POOL,
        SEED,
    )
}

/// Runs the deadline scenario under one admission policy.
///
/// # Panics
///
/// Panics if the engine rejects the configuration or the run stalls.
#[must_use]
pub fn run_deadline(jobs: usize, policy: QueuePolicy) -> ServiceReport {
    let pool = common::controlled_cluster(POOL, STRAGGLERS, SEED);
    let workload = deadline_workload(jobs);
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.policy = policy;
    ServiceEngine::new(pool, cfg)
        .expect("qos deadline configuration is valid")
        .run(&workload)
        .expect("qos deadline run completes")
}

/// Runs the qos experiment.
#[must_use]
pub fn run(scale: Scale) -> QosOutput {
    let per_tenant = scale.pick(10, 24);
    let weighted = run_weighted(per_tenant);
    let mut weights = Table::new(
        format!(
            "QoS — weighted tenants: 2 identical streams of {per_tenant} medium jobs, \
             tenant 1 at weight 2, {POOL}-worker pool ({STRAGGLERS} stragglers)"
        ),
        vec![
            "weight".into(),
            "entitled_share".into(),
            "achieved_share".into(),
            "p50_latency".into(),
            "p99_latency".into(),
            "completed".into(),
        ],
    );
    for t in weighted.tenant_summaries() {
        // Every job of a tenant carries the same weight in this
        // scenario; read it back from the records rather than
        // restating the construction rule.
        let weight = weighted
            .jobs
            .iter()
            .find(|j| j.tenant == t.tenant)
            .map_or(1.0, |j| j.weight);
        weights.push_row(
            format!("tenant{}", t.tenant),
            vec![
                weight,
                t.entitled_share,
                t.achieved_share,
                t.p50_latency,
                t.p99_latency,
                t.completed as f64,
            ],
        );
    }
    assert!(
        weighted.utilization() <= 1.0,
        "utilization must stay within [0, 1]"
    );

    let jobs = scale.pick(40, 80);
    let mut deadline = Table::new(
        format!(
            "QoS — deadline admission: {jobs} SLO-carrying jobs, Poisson λ = 4/s, \
             same offered load per policy"
        ),
        vec![
            "on_time_ratio".into(),
            "p50_latency".into(),
            "p99_latency".into(),
            "completed".into(),
            "utilization".into(),
        ],
    );
    for (label, policy) in [
        ("fifo", QueuePolicy::Fifo),
        ("edf", QueuePolicy::EarliestDeadline),
    ] {
        let r = run_deadline(jobs, policy);
        assert_eq!(
            r.completed() + r.failed(),
            jobs,
            "{label} must resolve every job"
        );
        assert!(r.utilization() <= 1.0, "{label} utilization out of range");
        deadline.push_row(
            label,
            vec![
                r.on_time_ratio(),
                r.latency_percentile(50.0),
                r.latency_percentile(99.0),
                r.completed() as f64,
                r.utilization(),
            ],
        );
    }

    QosOutput { weights, deadline }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_2_tenant_achieves_proportional_share() {
        let out = run(Scale::Quick);
        let t0 = out.weights.value("tenant0", "achieved_share");
        let t1 = out.weights.value("tenant1", "achieved_share");
        let ratio = t1 / t0;
        assert!(
            ratio >= 1.8,
            "weight-2 tenant achieved {ratio:.2}x the weight-1 share (need >= 1.8x)"
        );
        // Entitlements are exact by construction.
        assert!((out.weights.value("tenant1", "entitled_share") - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn edf_beats_fifo_on_time_at_same_load() {
        let out = run(Scale::Quick);
        let fifo = out.deadline.value("fifo", "on_time_ratio");
        let edf = out.deadline.value("edf", "on_time_ratio");
        assert!(
            edf > fifo,
            "EDF on-time ratio {edf:.3} must strictly beat FIFO {fifo:.3}"
        );
    }

    #[test]
    fn utilization_bounded_across_policies() {
        let out = run(Scale::Quick);
        for row in ["fifo", "edf"] {
            let u = out.deadline.value(row, "utilization");
            assert!((0.0..=1.0).contains(&u), "{row} utilization {u}");
        }
    }

    /// Regression pin for the engine-module split: the full-scale qos
    /// headline numbers recorded before the refactor (PR 3's
    /// `figures -- qos`) must be preserved exactly — the split, the
    /// backend seam, and the new QoS knobs default to byte-identical
    /// behavior.
    #[test]
    fn full_scale_headlines_preserved_across_refactors() {
        let out = run(Scale::Full);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(
            out.weights.value("tenant0", "achieved_share"),
            0.3142857142857143
        ));
        assert!(close(
            out.weights.value("tenant1", "achieved_share"),
            0.6857142857142857
        ));
        assert!(close(
            out.weights.value("tenant0", "p50_latency"),
            14.897551891076214
        ));
        assert!(close(
            out.weights.value("tenant1", "p50_latency"),
            7.170875036551426
        ));
        assert!(close(out.deadline.value("fifo", "on_time_ratio"), 0.25));
        assert!(close(out.deadline.value("edf", "on_time_ratio"), 0.9875));
        assert!(close(
            out.deadline.value("fifo", "p99_latency"),
            13.533762638708323
        ));
        assert!(close(
            out.deadline.value("edf", "p99_latency"),
            18.915093529112106
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.deadline, b.deadline);
    }
}
