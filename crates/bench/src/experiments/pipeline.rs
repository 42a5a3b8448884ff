//! The `pipeline` experiment: cross-round pipelined serving.
//!
//! Sweeps the in-flight window depth ∈ {1, 2, 4} over the calm and
//! volatile cloud presets at a fixed arrival rate, on an
//! iteration-heavy job mix. At depth 1 every round is a hard barrier:
//! one straggled round stalls the whole job. At depth ≥ 2 fast workers
//! stream ahead into later rounds while a straggled round is re-served,
//! so the per-round stall is absorbed as pipeline depth — the headline
//! number is p99 sojourn and total stall time vs depth at the same λ.
//!
//! Everything tabulated is virtual-clock data, so the table is
//! byte-deterministic across reruns and machines.

use crate::experiments::{common, Scale};
use crate::report::Table;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;
use s2c2_telemetry::export;
use s2c2_trace::CloudTraceConfig;
use std::path::Path;

/// Pool size: small enough that one slowed worker is a meaningful
/// fraction of capacity, the regime where pipelining pays.
pub const POOL: usize = 8;
/// Workload seed.
pub const SEED: u64 = 0x0909;
/// Fixed arrival rate (jobs/s) across every depth — the sweep varies
/// only the window depth, never the offered load.
pub const ARRIVAL_RATE: f64 = 0.6;
/// Window depths swept.
pub const DEPTHS: &[usize] = &[1, 2, 4];

/// The iteration-heavy workload: pipelining overlaps rounds *within* a
/// job, so the win scales with iterations per job.
#[must_use]
pub fn workload(jobs: usize) -> Vec<(f64, JobSpec)> {
    let mix = vec![(JobPreset::medium(), 3.0), (JobPreset::large(), 1.0)];
    generate_workload(
        &ArrivalPattern::Poisson { rate: ARRIVAL_RATE },
        &mix,
        jobs,
        2,
        POOL,
        SEED,
    )
}

/// Runs one depth on one preset.
///
/// # Panics
///
/// Panics if the engine rejects the configuration or the run stalls —
/// the sweep is over committed presets that must always serve.
#[must_use]
pub fn run_depth(
    jobs: usize,
    preset: &CloudTraceConfig,
    depth: usize,
    telemetry: bool,
) -> ServiceReport {
    let pool = common::cloud_cluster(POOL, preset, SEED);
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.pipeline = PipelinePolicy::Depth(depth);
    cfg.telemetry = telemetry;
    ServiceEngine::new(pool, cfg)
        .expect("pipeline configuration is valid")
        .run(&workload(jobs))
        .expect("pipeline run completes")
}

/// Runs the pipeline experiment.
///
/// # Panics
///
/// Panics if any run drops a job, or if depth 2 fails to improve the
/// p99 sojourn over depth 1 on the volatile preset — the experiment's
/// headline claim, enforced rather than eyeballed.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let jobs = scale.pick(10, 28);
    let mut table = Table::new(
        format!(
            "PIPELINE — window depth sweep, {jobs} iteration-heavy jobs at \
             λ={ARRIVAL_RATE}/s, {POOL}-worker cloud pool"
        ),
        vec![
            "p50_sojourn".into(),
            "p99_sojourn".into(),
            "stall_s".into(),
            "parked".into(),
            "overlap_s".into(),
            "throughput".into(),
            "scratch_reuse".into(),
        ],
    );
    for (preset_name, preset) in [
        ("calm", CloudTraceConfig::calm()),
        ("volatile", CloudTraceConfig::volatile()),
    ] {
        for &depth in DEPTHS {
            let r = run_depth(jobs, &preset, depth, false);
            assert_eq!(
                r.completed(),
                jobs,
                "{preset_name}/depth-{depth}: every job must complete"
            );
            table.push_row(
                format!("{preset_name}/depth-{depth}"),
                vec![
                    r.latency_percentile(50.0),
                    r.latency_percentile(99.0),
                    r.pipeline_stall_time,
                    r.rounds_parked as f64,
                    r.pipeline_overlap_time,
                    r.throughput(),
                    r.scratch_reuses as f64,
                ],
            );
        }
    }
    let p99 = |label: &str| table.value(label, "p99_sojourn");
    assert!(
        p99("volatile/depth-2") <= p99("volatile/depth-1"),
        "depth 2 must not worsen the volatile p99 sojourn: {} vs {}",
        p99("volatile/depth-2"),
        p99("volatile/depth-1"),
    );
    table
}

/// Writes the exporter artifact of one traced depth-2 volatile run into
/// `dir` — the JSONL stream exercises the pipeline trace events
/// (`RoundParked` / `RoundRetired` / `PipelineStall`) end to end and is
/// part of the deterministic surface CI diffs across reruns.
///
/// # Errors
///
/// Propagates I/O failures from writing the artifact file.
///
/// # Panics
///
/// Panics if the traced run completes without telemetry attached.
pub fn write_exports(scale: Scale, dir: &Path) -> std::io::Result<()> {
    let jobs = scale.pick(10, 28);
    let r = run_depth(jobs, &CloudTraceConfig::volatile(), 2, true);
    let tel = r
        .telemetry
        .as_ref()
        .expect("telemetry was enabled for this run");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("pipeline_events.jsonl"),
        export::jsonl(tel.trace.events()),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a, b, "same seed must reproduce the table");
    }

    #[test]
    fn depth_two_beats_depth_one_on_volatile_p99() {
        let out = run(Scale::Quick);
        let p99 = |label: &str| out.value(label, "p99_sojourn");
        assert!(
            p99("volatile/depth-2") <= p99("volatile/depth-1"),
            "pipelining must absorb volatile stalls: {} vs {}",
            p99("volatile/depth-2"),
            p99("volatile/depth-1"),
        );
    }

    #[test]
    fn full_sweep_keeps_the_headline_claim() {
        // The full-scale sweep must show depth 2 holding or beating the
        // depth-1 p99 on the volatile preset, not only the quick one.
        let jobs = Scale::Full.pick(10, 28);
        let p99 = |depth| {
            run_depth(jobs, &CloudTraceConfig::volatile(), depth, false).latency_percentile(99.0)
        };
        let (two, one) = (p99(2), p99(1));
        assert!(
            two <= one,
            "full sweep must show depth 2 ≤ depth 1 on volatile p99: {two} vs {one}"
        );
    }

    #[test]
    fn deeper_windows_overlap_rounds() {
        let out = run(Scale::Quick);
        for preset in ["calm", "volatile"] {
            assert_eq!(
                out.value(&format!("{preset}/depth-1"), "overlap_s"),
                0.0,
                "{preset}: a depth-1 window cannot overlap rounds"
            );
            assert!(
                out.value(&format!("{preset}/depth-2"), "overlap_s") > 0.0,
                "{preset}: depth 2 must overlap successive rounds"
            );
        }
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let out = run(Scale::Quick);
        for (label, _) in &out.rows {
            assert!(
                out.value(label, "scratch_reuse") > 0.0,
                "{label}: multi-iteration jobs must recycle scratch buffers"
            );
        }
    }

    #[test]
    fn jsonl_export_is_deterministic() {
        let a = run_depth(6, &CloudTraceConfig::volatile(), 2, true);
        let b = run_depth(6, &CloudTraceConfig::volatile(), 2, true);
        let tel = |r: &ServiceReport| {
            export::jsonl(
                r.telemetry
                    .as_ref()
                    .expect("telemetry enabled")
                    .trace
                    .events(),
            )
        };
        assert_eq!(
            tel(&a),
            tel(&b),
            "same seed must export byte-identical JSONL"
        );
    }
}
