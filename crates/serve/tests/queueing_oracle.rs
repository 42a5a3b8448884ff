//! The serve engine checked against closed-form queueing theory.
//!
//! On a homogeneous pool with unbounded residency, every resident job
//! holds the same fraction of every worker (its weight over the resident
//! weight mass, all weights 1 here), so `N` resident jobs each progress
//! at `1 / N` of the rate they would have alone: the engine is an
//! M/G/1 processor-sharing queue whose service requirement is a job's
//! *sole-job sojourn* `x`. Processor sharing's mean sojourn given `x`
//! is `x / (1 − ρ)`, `ρ = λ · E[x]`, whatever the size distribution
//! (Kleinrock, 1967): every size class of the standard mix is slowed by
//! the same factor.
//!
//! The test uses the public serve API only and computes every formula
//! itself. `x` is measured by the same engine (one job, alone), and the
//! check is on the shape of sharing, not on the model's speed. For each
//! of uncoded, MDS and S²C², at ρ ∈ {0.3, 0.5, 0.7}, each class's mean
//! `T / x` must lie in a batch-means confidence interval around
//! `1 / (1 − ρ)`. Seeds, job counts, the warm-up cut and the confidence
//! level were fixed before the first run; the job count is what fits a
//! ≈ 30 s release budget for all nine loaded runs.
//!
//! Ignored in debug builds (the tier-1 `cargo test` stays fast); CI runs
//! it with `cargo test --release -p s2c2-serve --test queueing_oracle`.

use s2c2_cluster::ClusterSpec;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;

/// Pool size.
const N: usize = 16;
/// Jobs per loaded run.
const JOBS: usize = 80_000;
/// Leading jobs dropped: the run starts empty, so early arrivals see a
/// lighter load than the stationary one.
const WARM_UP: usize = JOBS / 20;
/// Batches the rest is cut into, in arrival order.
const BATCHES: usize = 20;
/// Loads checked.
const LOADS: [f64; 3] = [0.3, 0.5, 0.7];
/// Arrival-stream seed, one per load.
const SEEDS: [u64; 3] = [0x0090_AC1E_0301, 0x0090_AC1E_0501, 0x0090_AC1E_0701];
/// Two-sided Student-t quantile with `BATCHES − 1 = 19` degrees of
/// freedom at `α = 0.01 / 27`: a 99 % family-wise level (Bonferroni)
/// over the 27 checks (3 schedulers × 3 loads × 3 classes).
const T_CRIT: f64 = 4.318_575;

/// Builds a fresh scheduler mode (`SchedulerMode` is not `Clone`).
type MakeMode = fn() -> SchedulerMode;

/// The three schedulers the oracle holds to processor sharing.
fn modes() -> [(&'static str, MakeMode); 3] {
    [
        ("uncoded", || SchedulerMode::Uncoded),
        ("mds", || SchedulerMode::ConventionalMds),
        ("s2c2", || SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        }),
    ]
}

fn run(mode: SchedulerMode, workload: &[(f64, JobSpec)]) -> ServiceReport {
    let mut cfg = ServeConfig::new(mode);
    cfg.max_resident = usize::MAX;
    cfg.max_events = 1_000 * workload.len() as u64;
    let pool = ClusterSpec::builder(N).compute_bound().build();
    let engine = ServiceEngine::new(pool, cfg).expect("valid config");
    engine.run(workload).expect("run completes")
}

/// Mean and confidence half-width of the batch means.
fn interval(batch_means: &[f64]) -> (f64, f64) {
    let b = batch_means.len() as f64;
    let mean = batch_means.iter().sum::<f64>() / b;
    let var = batch_means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (b - 1.0);
    (mean, T_CRIT * (var / b).sqrt())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a ≈ 30 s release-mode oracle; run with --release"
)]
fn every_class_is_slowed_by_one_over_one_minus_rho() {
    let mix = JobPreset::standard_mix();
    let total: f64 = mix.iter().map(|(_, p)| p).sum();
    let mut failures = Vec::new();
    for (label, mode) in modes() {
        // Sole-job sojourn per class.
        let x: Vec<f64> = mix
            .iter()
            .map(|(preset, _)| {
                let report = run(mode(), &[(0.0, preset.instantiate(0, 0, N))]);
                report.jobs[0].latency()
            })
            .collect();
        let mean_x: f64 = mix.iter().zip(&x).map(|((_, p), x)| p / total * x).sum();
        for (&rho, &seed) in LOADS.iter().zip(&SEEDS) {
            let rate = rho / mean_x;
            let stream =
                generate_workload(&ArrivalPattern::Poisson { rate }, &mix, JOBS, 1, N, seed);
            let report = run(mode(), &stream);
            assert_eq!(report.completed(), JOBS, "{label} ρ {rho}");
            let mut jobs = report.jobs.clone();
            jobs.sort_by_key(|j| j.id);
            let kept = &jobs[WARM_UP..];
            let per_batch = kept.len() / BATCHES;
            let expected = 1.0 / (1.0 - rho);
            for (class, (preset, _)) in mix.iter().enumerate() {
                let batch_means: Vec<f64> = kept
                    .chunks_exact(per_batch)
                    .map(|batch| {
                        let slowdowns: Vec<f64> = batch
                            .iter()
                            .filter(|j| j.preset == preset.name)
                            .map(|j| j.latency() / x[class])
                            .collect();
                        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
                    })
                    .collect();
                let (mean, half) = interval(&batch_means);
                let verdict = if (mean - expected).abs() <= half {
                    "ok"
                } else {
                    failures.push(format!("{label} ρ {rho} {}", preset.name));
                    "OUTSIDE"
                };
                println!(
                    "{label:>7} ρ {rho} {:>6}: mean T/x {mean:.4} ± {half:.4} \
                     vs 1/(1−ρ) {expected:.4} [{verdict}]",
                    preset.name
                );
            }
        }
    }
    assert!(failures.is_empty(), "outside the interval: {failures:?}");
}
