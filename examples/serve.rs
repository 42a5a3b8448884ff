//! Quickstart for the multi-job service engine: a shared 16-worker pool
//! serving a Poisson stream of heterogeneous coded jobs, comparing
//! shared-cluster S²C² scheduling against conventional MDS and uncoded —
//! then the QoS layer: tenant-weighted capacity shares and
//! deadline-aware admission.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use s2c2::prelude::*;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::JobSpec;

fn main() {
    let n = 16;
    // A pool with three hidden 5x stragglers and ±20% heterogeneity.
    let pool = || {
        ClusterSpec::builder(n)
            .compute_bound()
            .seed(0x5EED)
            .straggler_slowdown(5.0)
            .stragglers(&[2, 7, 11], 0.2)
            .build()
    };

    // 50 jobs arriving at ~1.2 jobs/s from the standard small/medium/large
    // mix, shared across 4 tenants.
    let workload = generate_workload(
        &ArrivalPattern::Poisson { rate: 1.2 },
        &JobPreset::standard_mix(),
        50,
        4,
        n,
        42,
    );
    println!(
        "serving {} jobs over a {n}-worker pool (3 hidden stragglers)...\n",
        workload.len()
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>11} {:>12} {:>9}",
        "policy", "p50 (s)", "p95 (s)", "p99 (s)", "jobs/s", "utilization", "timeouts"
    );

    for (name, mode) in [
        ("uncoded", SchedulerMode::Uncoded),
        ("mds", SchedulerMode::ConventionalMds),
        (
            "s2c2",
            SchedulerMode::SharedS2c2 {
                predictor: PredictorSource::LastValue,
            },
        ),
    ] {
        let cfg = ServeConfig::new(mode);
        let report = ServiceEngine::new(pool(), cfg)
            .expect("valid configuration")
            .run(&workload)
            .expect("service run completes");
        assert_eq!(report.completed(), workload.len());
        println!(
            "{:<10} {:>9.3} {:>9.3} {:>9.3} {:>11.3} {:>12.3} {:>9}",
            name,
            report.latency_percentile(50.0),
            report.latency_percentile(95.0),
            report.latency_percentile(99.0),
            report.throughput(),
            report.utilization(),
            report.timeouts,
        );
    }

    println!(
        "\nshared-cluster S²C² squeezes the same (n,k) slack across every \
         resident job:\nless tail latency at the same offered load, no data \
         movement, no re-encoding."
    );

    // --- QoS: tenant-weighted shares -----------------------------------
    // Two tenants submit identical saturating streams; tenant 1's jobs
    // carry capacity weight 2. The weighted fair-share admission keeps
    // one job of each resident, and the weighted capacity split gives
    // the heavy tenant twice the fractional rate on every worker.
    let mut arrivals: Vec<(f64, JobSpec)> = Vec::new();
    for i in 0..32u64 {
        let tenant = (i % 2) as u32;
        let weight = if tenant == 1 { 2.0 } else { 1.0 };
        arrivals.push((
            0.01 * i as f64,
            JobPreset::medium()
                .with_weight(weight)
                .instantiate(i, tenant, n),
        ));
    }
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.policy = QueuePolicy::WeightedFairShare;
    cfg.max_resident = 2;
    let report = ServiceEngine::new(pool(), cfg)
        .expect("valid configuration")
        .run(&arrivals)
        .expect("service run completes");
    println!("\nweighted tenants (identical streams, tenant 1 at weight 2):");
    println!(
        "{:<10} {:>7} {:>15} {:>15} {:>9} {:>9}",
        "tenant", "weight", "entitled_share", "achieved_share", "p50 (s)", "p99 (s)"
    );
    for t in report.tenant_summaries() {
        let weight = report
            .jobs
            .iter()
            .find(|j| j.tenant == t.tenant)
            .map_or(1.0, |j| j.weight);
        println!(
            "{:<10} {:>7.1} {:>15.3} {:>15.3} {:>9.3} {:>9.3}",
            format!("tenant{}", t.tenant),
            weight,
            t.entitled_share,
            t.achieved_share,
            t.p50_latency,
            t.p99_latency,
        );
    }
    assert!(report.utilization() <= 1.0);

    // --- QoS: deadline-aware admission ---------------------------------
    // The same overloaded SLO-carrying stream under FIFO vs
    // earliest-deadline admission: EDF spends the queueing slack where
    // deadlines are loose.
    let mix = vec![
        (JobPreset::small().with_deadline(1.5), 5.0),
        (JobPreset::medium().with_deadline(5.0), 3.0),
        (JobPreset::large().with_deadline(20.0), 1.0),
    ];
    let slo_load = generate_workload(&ArrivalPattern::Poisson { rate: 4.0 }, &mix, 40, 4, n, 7);
    println!("\ndeadline admission (same 40-job SLO stream, Poisson 4/s):");
    println!(
        "{:<12} {:>13} {:>9} {:>9}",
        "policy", "on_time_ratio", "p99 (s)", "served"
    );
    for (name, policy) in [
        ("fifo", QueuePolicy::Fifo),
        ("edf", QueuePolicy::EarliestDeadline),
    ] {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.policy = policy;
        let report = ServiceEngine::new(pool(), cfg)
            .expect("valid configuration")
            .run(&slo_load)
            .expect("service run completes");
        println!(
            "{:<12} {:>13.3} {:>9.3} {:>9}",
            name,
            report.on_time_ratio(),
            report.latency_percentile(99.0),
            report.completed(),
        );
    }

    println!(
        "\nweights buy proportional throughput, deadline admission buys \
         on-time ratio —\nsame pool, same coded slack, no duplicate work."
    );
}
