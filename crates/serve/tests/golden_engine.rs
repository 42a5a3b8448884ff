//! Golden pins of the serve engine's event stream.
//!
//! Six small seeded `Sim` runs in five tests: (a), (b), (c′), (d) with
//! two runs, and (e). The first five runs are chosen
//! so that together they walk every task-lifecycle path the engine has — for original
//! and redo tasks alike: deadline cancel + reassignment (rung 3,
//! including a redo merged onto a worker that still has one pending),
//! churn cancels, wait-out (rung 4), restart (rung 5), retry exhaustion
//! with the rest of the window torn down, in-order parking at pipeline
//! depth 2, batch rounds, share rebalances that stretch open tasks and
//! re-arm their deadline, and the baselines' stragglers abandoned at
//! round completion. (Not reached by any small run: a redo still open
//! when its round completes, which needs an exact finish/deadline tie;
//! `engine/tests.rs` covers that cancel directly.) The sixth, (e), pins the
//! *arrival order* of a hand-built workload slice: arrivals win ties
//! against engine events at the same instant, and equal-time arrivals
//! keep slice order. Each run is pinned by the FNV-1a of its JSONL
//! trace export plus the report counters a trace does not carry.
//!
//! The constants were generated on the engine as it stood before the
//! per-round task model moved into `engine/round.rs` (the arrival-order
//! case: before arrivals stopped being pre-pushed onto the event
//! queue; case (c′): while the engine still carried deadline boosts,
//! with the boost off — it replaced a case (c) that added one); a refactor of the engine must reproduce them unedited. A change that *means* to alter
//! behaviour regenerates them (the failure message prints the observed
//! value) and says why in CHANGES.md.

use s2c2_cluster::ClusterSpec;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;
use s2c2_serve::JobId;
use s2c2_telemetry::export::jsonl;
use s2c2_trace::CloudTraceConfig;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Everything one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    trace_fnv: u64,
    events_processed: u64,
    timeouts: usize,
    recovery_rung_counts: [u64; 5],
    rebalances: usize,
    scratch_reuses: u64,
    /// FNV-1a over every job's `(id, finished.to_bits())`, in record
    /// order.
    finished_fnv: u64,
}

fn pin_of(report: &ServiceReport) -> Pin {
    let tel = report.telemetry.as_ref().expect("telemetry was enabled");
    let finished_fnv = report.jobs.iter().fold(FNV_OFFSET, |h, j| {
        fnv1a(
            fnv1a(h, &j.id.to_le_bytes()),
            &j.finished.to_bits().to_le_bytes(),
        )
    });
    Pin {
        trace_fnv: fnv1a(FNV_OFFSET, jsonl(tel.trace.events()).as_bytes()),
        events_processed: report.events_processed,
        timeouts: report.timeouts,
        recovery_rung_counts: report.recovery_rung_counts,
        rebalances: report.rebalances,
        scratch_reuses: report.scratch_reuses,
        finished_fnv,
    }
}

/// How many trace events satisfy `f`.
fn count(report: &ServiceReport, f: impl Fn(&TraceEventKind) -> bool) -> usize {
    let tel = report.telemetry.as_ref().expect("telemetry was enabled");
    tel.trace.events().iter().filter(|e| f(&e.kind)).count()
}

/// Redo dispatches onto a worker whose previous redo for the same round
/// was still open — the merged-redo path of rung 3.
fn merged_redos(report: &ServiceReport) -> usize {
    let tel = report.telemetry.as_ref().expect("telemetry was enabled");
    let mut open: Vec<(u64, u64, usize)> = Vec::new();
    let mut merged = 0;
    for e in tel.trace.events() {
        match e.kind {
            TraceEventKind::TaskDispatch {
                job,
                worker,
                generation,
                redo: true,
                ..
            } => {
                if open.contains(&(job, generation, worker)) {
                    merged += 1;
                } else {
                    open.push((job, generation, worker));
                }
            }
            TraceEventKind::TaskComplete {
                job,
                worker,
                generation,
                redo: true,
            }
            | TraceEventKind::TaskCancel {
                job,
                worker,
                generation,
                redo: true,
            } => open.retain(|&k| k != (job, generation, worker)),
            _ => {}
        }
    }
    merged
}

fn s2c2(predictor: PredictorSource) -> ServeConfig {
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 { predictor });
    cfg.telemetry = true;
    cfg
}

fn controlled_pool(n: usize, stragglers: &[usize]) -> ClusterSpec {
    ClusterSpec::builder(n)
        .compute_bound()
        .seed(0xFEED)
        .straggler_slowdown(5.0)
        .stragglers(stragglers, 0.2)
        .build()
}

fn poisson(jobs: usize, rate: f64, n: usize, seed: u64) -> Vec<(f64, JobSpec)> {
    generate_workload(
        &ArrivalPattern::Poisson { rate },
        &JobPreset::standard_mix(),
        jobs,
        3,
        n,
        seed,
    )
}

/// (a) S²C² planning on uniform predictions over a pool with two 5×
/// slow workers, plus light churn: every job's first rounds mispredict,
/// the §4.3 deadline cancels the late originals and hands their chunks
/// to finished workers; a worker lost while redos are open forces a
/// second reassignment that merges onto a still-pending redo.
fn cold_start_misprediction() -> ServiceReport {
    let n = 12;
    let mut cfg = s2c2(PredictorSource::Uniform);
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.02,
        p_recover: 0.5,
        min_up: 10,
    });
    cfg.max_retries = 10;
    let engine = ServiceEngine::new(controlled_pool(n, &[0, 5]), cfg).expect("valid config");
    engine.run(&poisson(12, 1.0, n, 21)).expect("run completes")
}

/// (b) A volatile cloud pool under churn with a one-restart budget at
/// pipeline depth 2: wait-outs, restarts, rounds parked behind a
/// restarted sibling, and jobs that exhaust their retries while the
/// other round of their window still has originals and redos open.
fn churn_storm() -> ServiceReport {
    let n = 12;
    let mut cfg = s2c2(PredictorSource::LastValue);
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.06,
        p_recover: 0.4,
        min_up: 9,
    });
    cfg.max_retries = 1;
    cfg.pipeline = PipelinePolicy::Depth(2);
    let pool = ClusterSpec::builder(n)
        .compute_bound()
        .seed(0xFEED)
        .cloud(&CloudTraceConfig::volatile())
        .build();
    let engine = ServiceEngine::new(pool, cfg).expect("valid config");
    engine.run(&poisson(24, 1.5, n, 20)).expect("run completes")
}

/// (c′) Pipeline depth 2 with size-threshold batching on a
/// mispredicting pool: batch rounds of up to three members share three
/// residency slots, admissions and completions rebalance the residents
/// while originals are open, and late originals are redone.
fn pipelined_batches() -> ServiceReport {
    let n = 12;
    let mut cfg = s2c2(PredictorSource::Uniform);
    cfg.pipeline = PipelinePolicy::Depth(2);
    cfg.batch = BatchPolicy::SizeThreshold { max_batch: 3 };
    cfg.max_resident = 3;
    let mix = [
        (JobPreset::small().with_deadline(3.0), 3.0),
        (JobPreset::medium(), 2.0),
    ];
    let stream = generate_workload(&ArrivalPattern::Poisson { rate: 4.0 }, &mix, 24, 3, n, 2);
    let engine = ServiceEngine::new(controlled_pool(n, &[2, 7]), cfg).expect("valid config");
    engine.run(&stream).expect("run completes")
}

/// (d) The non-adaptive baselines under churn. They never cancel on a
/// deadline, so they reach what S²C² cannot: stragglers still running
/// when the round completes (abandoned there), and recovery that keeps
/// counting on in-flight originals.
fn baseline_under_churn(scheduler: SchedulerMode, seed: u64) -> ServiceReport {
    let n = 12;
    let mut cfg = ServeConfig::new(scheduler);
    cfg.telemetry = true;
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.05,
        p_recover: 0.4,
        min_up: 10,
    });
    cfg.max_retries = 10;
    let engine = ServiceEngine::new(controlled_pool(n, &[3]), cfg).expect("valid config");
    engine
        .run(&poisson(10, 1.0, n, seed))
        .expect("run completes")
}

/// (e) A hand-built slice that is *not* time-sorted, with duplicate
/// arrival instants, arrivals at t = 0 and arrivals landing exactly on
/// epoch ticks (multiples of `cfg.epoch`) while the pool resamples
/// speeds and churns at those ticks. Ids are deliberately out of step
/// with both slice and time order, and two residency slots keep a
/// queue, so the order arrivals are taken in decides who is admitted
/// first and at which speeds.
fn arrival_ties() -> (Vec<(f64, JobSpec)>, ServiceReport) {
    let n = 12;
    let mut cfg = s2c2(PredictorSource::LastValue);
    cfg.max_resident = 2;
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.05,
        p_recover: 0.5,
        min_up: 10,
    });
    cfg.max_retries = 10;
    let tick = cfg.epoch;
    let job = |id: JobId, preset: JobPreset| preset.instantiate(id, (id % 3) as u32, n);
    let stream = vec![
        (2.0 * tick, job(0, JobPreset::medium())),
        (0.0, job(5, JobPreset::small())),
        (tick, job(1, JobPreset::small())),
        (0.0, job(2, JobPreset::medium())),
        (4.0 * tick, job(3, JobPreset::medium())),
        (tick, job(4, JobPreset::small())),
        (3.0 * tick, job(6, JobPreset::small())),
        (0.3, job(7, JobPreset::small())),
        (2.0 * tick, job(8, JobPreset::small())),
        (4.0 * tick, job(9, JobPreset::small())),
        (0.0, job(10, JobPreset::small())),
        (9.0 * tick, job(11, JobPreset::medium())),
    ];
    let pool = ClusterSpec::builder(n)
        .compute_bound()
        .seed(0xFEED)
        .cloud(&CloudTraceConfig::volatile())
        .build();
    let engine = ServiceEngine::new(pool, cfg).expect("valid config");
    let report = engine.run(&stream).expect("run completes");
    (stream, report)
}

fn cancels(report: &ServiceReport, of_redo: bool) -> usize {
    count(
        report,
        |k| matches!(k, TraceEventKind::TaskCancel { redo, .. } if *redo == of_redo),
    )
}

#[test]
fn golden_cold_start_misprediction() {
    let report = cold_start_misprediction();
    assert_eq!(report.completed(), 12);
    assert!(report.timeouts > 0, "uniform predictions must mispredict");
    assert!(report.recovery_rung_counts[2] > 0, "rung 3 must fire");
    assert!(cancels(&report, false) > 0, "late originals are cancelled");
    assert!(cancels(&report, true) > 0, "churn cancels an open redo");
    assert!(merged_redos(&report) > 0, "a redo merges onto an open one");
    assert_eq!(
        pin_of(&report),
        Pin {
            trace_fnv: 0xCECC120D42DF9CE4,
            events_processed: 3404,
            timeouts: 59,
            recovery_rung_counts: [78, 0, 68, 17, 6],
            rebalances: 54,
            scratch_reuses: 74,
            finished_fnv: 0x7CC0F224E75F890E,
        }
    );
}

#[test]
fn golden_churn_storm() {
    let report = churn_storm();
    let rungs = report.recovery_rung_counts;
    assert!(rungs[3] > 0 && rungs[4] > 0, "rungs 4 and 5 must fire");
    assert!(report.failed() > 0, "a job must exhaust its retries");
    assert!(report.completed() > 0, "and some must survive");
    assert!(report.rounds_parked > 0, "a round must park at depth 2");
    assert!(cancels(&report, true) > 0, "open redos are cancelled");
    assert_eq!(
        pin_of(&report),
        Pin {
            trace_fnv: 0xBA93A38A872C2284,
            events_processed: 3251,
            timeouts: 33,
            recovery_rung_counts: [123, 0, 37, 55, 19],
            rebalances: 62,
            scratch_reuses: 115,
            finished_fnv: 0x62A3C83561387838,
        }
    );
}

#[test]
fn golden_pipelined_batches() {
    let report = pipelined_batches();
    assert_eq!(report.completed(), 24);
    assert!(report.batch_rounds > 0, "batches must form");
    assert!(report.rebalances > 0, "admissions rebalance the residents");
    assert!(report.recovery_rung_counts[2] > 0, "redos must be in play");
    assert_eq!(
        pin_of(&report),
        Pin {
            trace_fnv: 0xAF3FFF844F0C0CFA,
            events_processed: 3291,
            timeouts: 44,
            recovery_rung_counts: [72, 0, 44, 0, 0],
            rebalances: 38,
            scratch_reuses: 66,
            finished_fnv: 0xC68C01B3598B06FB,
        }
    );
}

#[test]
fn golden_baselines_under_churn() {
    let mds = baseline_under_churn(SchedulerMode::ConventionalMds, 1);
    assert_eq!(mds.completed(), 10);
    assert!(
        mds.recovery_rung_counts[4] > 0,
        "churn must force a restart"
    );
    assert!(cancels(&mds, false) > 0, "stragglers are abandoned");
    assert_eq!(
        pin_of(&mds),
        Pin {
            trace_fnv: 0x4B15D6B890019DDA,
            events_processed: 1809,
            timeouts: 0,
            recovery_rung_counts: [73, 0, 0, 5, 5],
            rebalances: 18,
            scratch_reuses: 69,
            finished_fnv: 0xB81FFA477542B15C,
        }
    );
    let uncoded = baseline_under_churn(SchedulerMode::Uncoded, 2);
    assert_eq!(uncoded.completed(), 10);
    assert!(
        uncoded.recovery_rung_counts[2] > 0,
        "lost chunks are redone"
    );
    assert!(merged_redos(&uncoded) > 0, "onto workers with open redos");
    assert_eq!(
        pin_of(&uncoded),
        Pin {
            trace_fnv: 0x08DB6CB61EFF6C1E,
            events_processed: 2185,
            timeouts: 13,
            recovery_rung_counts: [64, 0, 25, 15, 0],
            rebalances: 30,
            scratch_reuses: 60,
            finished_fnv: 0xB1EB54C804CBF3CD,
        }
    );
}

#[test]
fn golden_arrival_ties() {
    let (stream, report) = arrival_ties();
    assert_eq!(report.completed(), stream.len());
    assert!(
        stream.windows(2).any(|w| w[0].0 > w[1].0),
        "the slice must not be time-sorted"
    );
    // Arrivals are taken in time order, equal instants in slice order
    // (not id order).
    let tel = report.telemetry.as_ref().expect("telemetry was enabled");
    let arrivals: Vec<(f64, JobId)> = tel
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::JobArrival { job, .. } => Some((e.time, job)),
            _ => None,
        })
        .collect();
    let ids: Vec<JobId> = arrivals.iter().map(|&(_, job)| job).collect();
    assert_eq!(ids, [5, 2, 10, 1, 4, 7, 0, 8, 6, 3, 9, 11]);
    // An arrival landing on an epoch tick is taken before the tick: the
    // tick's churn is traced at the same instant, after the arrival.
    let events = tel.trace.events();
    let arrival_then_churn = events.iter().enumerate().any(|(i, e)| {
        matches!(e.kind, TraceEventKind::JobArrival { .. })
            && events[i + 1..]
                .iter()
                .take_while(|later| later.time.to_bits() == e.time.to_bits())
                .any(|later| {
                    matches!(
                        later.kind,
                        TraceEventKind::WorkerDown { .. } | TraceEventKind::WorkerUp { .. }
                    )
                })
    });
    assert!(
        arrival_then_churn,
        "a tick must churn right after an arrival"
    );
    assert_eq!(
        pin_of(&report),
        Pin {
            trace_fnv: 0xF3DDFE6603598799,
            events_processed: 1378,
            timeouts: 13,
            recovery_rung_counts: [66, 0, 13, 15, 2],
            rebalances: 22,
            scratch_reuses: 64,
            finished_fnv: 0x9FBE8643E96FAAFB,
        }
    );
}
