//! The `batch` experiment: coalescing small jobs onto shared
//! encode/dispatch rounds at high arrival rate.
//!
//! S²C²'s win over fixed MDS comes from amortizing coding work across
//! the computation it protects; a stream of *small* jobs gives that win
//! back, because every job pays its own dispatch round-trip, decode,
//! and residency slot regardless of how little compute it carries. The
//! rateless-coding and straggler-exploitation lines of related work
//! make the same observation: at high arrival rates, per-round fixed
//! costs — not per-row compute — dominate.
//!
//! This experiment offers an identical high-λ Poisson stream of
//! small-preset jobs (one shared model matrix, the regime the encode
//! cache and batch key target) to the serve engine twice:
//!
//! * **unbatched** — [`ServeConfig::max_batch`] 1: the engine exactly as
//!   it was;
//! * **batch-size** — `max_batch` 4: queued mates ride the policy pick
//!   opportunistically, up to 4 per round.
//!
//! The cluster model carries realistic per-message latency (the LAN
//! link the paper's controlled cluster uses) so the fixed cost being
//! amortized is visible: batching `m` jobs pays one input transfer, one
//! reply, and one decode LU factorization per round instead of `m`.
//! The table shows sustained throughput and p99 sojourn; the batched
//! row must beat the unbatched engine on both (asserted in tests).

use crate::experiments::Scale;
use crate::report::Table;
use s2c2_cluster::{ClusterSpec, CommModel, ComputeModel};
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;

/// Pool size.
pub const POOL: usize = 8;
/// Injected 5×-slow straggler ids.
pub const STRAGGLERS: &[usize] = &[2];
/// Workload seed.
pub const SEED: u64 = 0x0BA7C;
/// Offered load, in jobs per second — chosen above the unbatched
/// engine's sustainable rate and below the batched one's, so the
/// amortization shows up as both throughput and tail latency.
pub const ARRIVAL_RATE: f64 = 200.0;

/// The batched-serving cluster: the paper's controlled straggler setup
/// over a LAN-latency link (2 ms per message) and a worker throughput
/// that leaves small-job rounds fixed-cost-dominated — the regime the
/// batching layer exists for. (`compute_bound()` would hide the fixed
/// costs behind near-zero latency and show only the slot-multiplexing
/// effect.)
#[must_use]
pub fn cluster() -> ClusterSpec {
    ClusterSpec::builder(POOL)
        .comm(CommModel::new(1e9, 2e-3))
        .compute(ComputeModel::new(2e6))
        .decode_flops_per_sec(1e8)
        .seed(SEED)
        .straggler_slowdown(5.0)
        .stragglers(STRAGGLERS, 0.2)
        .build()
}

/// The high-λ small-job stream: every job draws the small preset, so
/// the whole stream shares one model matrix and one batch key.
#[must_use]
pub fn small_job_workload(jobs: usize) -> Vec<(f64, JobSpec)> {
    generate_workload(
        &ArrivalPattern::Poisson { rate: ARRIVAL_RATE },
        &[(JobPreset::small(), 1.0)],
        jobs,
        2,
        POOL,
        SEED,
    )
}

/// Runs the canonical batch scenario at one batch cap (1 is no batching).
///
/// # Panics
///
/// Panics if the engine rejects the configuration or the run stalls —
/// both must hold on every commit.
#[must_use]
pub fn run_policy(max_batch: usize, jobs: usize) -> ServiceReport {
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.max_batch = max_batch;
    ServiceEngine::new(cluster(), cfg)
        .expect("batch configuration is valid")
        .run(&small_job_workload(jobs))
        .expect("batch run completes")
}

/// The two batch caps the table compares, with row labels.
#[must_use]
pub fn policies() -> Vec<(&'static str, usize)> {
    vec![("unbatched", 1), ("batch-size", 4)]
}

/// Runs the batch experiment.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let jobs = scale.pick(120, 400);
    let mut table = Table::new(
        format!(
            "Batching — {jobs} small jobs at λ = {ARRIVAL_RATE}/s on a {POOL}-worker \
             LAN pool ({} straggler): one encode/dispatch round per batch",
            STRAGGLERS.len()
        ),
        vec![
            "throughput".into(),
            "p50_latency".into(),
            "p99_latency".into(),
            "completed".into(),
            "batch_rounds".into(),
            "mean_batch".into(),
            "utilization".into(),
        ],
    );
    for (label, max_batch) in policies() {
        let r = run_policy(max_batch, jobs);
        assert_eq!(r.completed(), jobs, "{label} must serve every job");
        assert!(
            (0.0..=1.0).contains(&r.utilization()),
            "{label} utilization out of range"
        );
        table.push_row(
            label,
            vec![
                r.throughput(),
                r.latency_percentile(50.0),
                r.latency_percentile(99.0),
                r.completed() as f64,
                r.batch_rounds as f64,
                r.mean_batch_size(),
                r.utilization(),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_beats_unbatched_on_throughput_and_tail() {
        // The acceptance bar for the whole batching layer: at high λ on
        // the small-job preset, size-threshold batching must sustain
        // more throughput *and* a lower p99 sojourn than the unbatched
        // engine.
        let t = run(Scale::Quick);
        let off_tp = t.value("unbatched", "throughput");
        let off_p99 = t.value("unbatched", "p99_latency");
        let (tp, p99) = (
            t.value("batch-size", "throughput"),
            t.value("batch-size", "p99_latency"),
        );
        assert!(tp > off_tp, "throughput {tp} must beat unbatched {off_tp}");
        assert!(p99 < off_p99, "p99 {p99} must beat unbatched {off_p99}");
    }

    #[test]
    fn batches_actually_form() {
        let t = run(Scale::Quick);
        assert_eq!(t.value("unbatched", "batch_rounds"), 0.0);
        assert_eq!(t.value("unbatched", "mean_batch"), 0.0);
        assert!(t.value("batch-size", "batch_rounds") > 0.0, "must batch");
        let mean = t.value("batch-size", "mean_batch");
        assert!(
            mean > 1.0 && mean <= 4.0 + 1e-12,
            "mean batch size {mean} outside (1, 4]"
        );
    }

    #[test]
    fn every_policy_serves_the_same_job_set() {
        let jobs = 60;
        let base: Vec<u64> = {
            let mut ids: Vec<u64> = run_policy(1, jobs)
                .jobs
                .iter()
                .filter(|j| !j.failed)
                .map(|j| j.id)
                .collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(base.len(), jobs);
        for (label, max_batch) in policies() {
            let mut ids: Vec<u64> = run_policy(max_batch, jobs)
                .jobs
                .iter()
                .filter(|j| !j.failed)
                .map(|j| j.id)
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, base, "{label} must complete the identical job set");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a, b);
    }
}
