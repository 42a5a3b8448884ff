//! Unit tests for the service engine: the timing/behavior suite from
//! the monolithic-engine era (kept verbatim to pin the refactor), plus
//! the backend, batching, telemetry and pipelining suites, and direct
//! tests of the per-round task model in `round.rs`.

use super::*;
use crate::workload::{generate_workload, ArrivalPattern, JobPreset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pool(n: usize, stragglers: &[usize]) -> ClusterSpec {
    ClusterSpec::builder(n)
        .compute_bound()
        .seed(0xFEED)
        .straggler_slowdown(5.0)
        .stragglers(stragglers, 0.2)
        .build()
}

fn workload(jobs: usize, rate: f64, n: usize, seed: u64) -> Vec<(f64, JobSpec)> {
    generate_workload(
        &ArrivalPattern::Poisson { rate },
        &JobPreset::standard_mix(),
        jobs,
        3,
        n,
        seed,
    )
}

fn run_mode(mode: SchedulerMode, jobs: usize, rate: f64) -> ServiceReport {
    let n = 12;
    let engine = ServiceEngine::new(pool(n, &[2, 7]), ServeConfig::new(mode)).unwrap();
    engine.run(&workload(jobs, rate, n, 5)).unwrap()
}

#[test]
fn single_job_completes() {
    let n = 8;
    let spec = JobPreset::small().instantiate(0, 0, n);
    let engine = ServiceEngine::new(
        pool(n, &[]),
        ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        }),
    )
    .unwrap();
    let report = engine.run(&[(0.0, spec)]).unwrap();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.failed(), 0);
    assert!(report.jobs[0].latency() > 0.0);
    assert!(report.makespan > 0.0);
    assert!(report.utilization() > 0.0);
}

#[test]
fn deterministic_given_seeds() {
    let a = run_mode(
        SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        },
        20,
        1.5,
    );
    let b = run_mode(
        SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        },
        20,
        1.5,
    );
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn s2c2_beats_conventional_tail_under_stragglers() {
    let s2c2 = run_mode(
        SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        },
        30,
        1.2,
    );
    let mds = run_mode(SchedulerMode::ConventionalMds, 30, 1.2);
    assert_eq!(s2c2.completed(), 30);
    assert_eq!(mds.completed(), 30);
    assert!(
        s2c2.latency_percentile(99.0) < mds.latency_percentile(99.0),
        "s2c2 p99 {} should beat mds p99 {}",
        s2c2.latency_percentile(99.0),
        mds.latency_percentile(99.0)
    );
}

#[test]
fn uncoded_pays_the_straggler_tax() {
    let uncoded = run_mode(SchedulerMode::Uncoded, 15, 0.5);
    let s2c2 = run_mode(
        SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        },
        15,
        0.5,
    );
    assert_eq!(uncoded.completed(), 15);
    assert!(
        uncoded.mean_latency() > s2c2.mean_latency(),
        "uncoded {} should trail s2c2 {}",
        uncoded.mean_latency(),
        s2c2.mean_latency()
    );
}

#[test]
fn queue_builds_under_load_and_drains() {
    let report = run_mode(SchedulerMode::ConventionalMds, 40, 8.0);
    assert_eq!(report.completed(), 40);
    assert!(report.max_queue_depth() > 0, "overload must queue");
    assert_eq!(report.queue_depth.last().unwrap().1, 0, "queue drains");
}

#[test]
fn mispredictions_fire_timeouts() {
    // Uniform predictions on a straggler pool: the adaptive engine
    // must detect and recover via timeouts.
    let n = 12;
    let engine = ServiceEngine::new(
        pool(n, &[0, 5]),
        ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::Uniform,
        }),
    )
    .unwrap();
    let report = engine.run(&workload(10, 1.0, n, 9)).unwrap();
    assert_eq!(report.completed(), 10);
    assert!(report.timeouts > 0, "uniform predictions must mispredict");
}

#[test]
fn survives_churn() {
    let n = 12;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.05,
        p_recover: 0.4,
        min_up: 10,
    });
    cfg.max_retries = 10;
    let engine = ServiceEngine::new(pool(n, &[3]), cfg).unwrap();
    let report = engine.run(&workload(25, 1.0, n, 21)).unwrap();
    assert_eq!(
        report.completed() + report.failed(),
        25,
        "every job resolves"
    );
    assert!(
        report.completed() >= 23,
        "churn floor keeps most jobs alive"
    );
}

#[test]
fn malformed_job_fails_fast() {
    let n = 4;
    let mut spec = JobPreset::small().instantiate(0, 0, 8);
    spec.k = 8; // bigger than the 4-worker pool
    let engine = ServiceEngine::new(
        pool(n, &[]),
        ServeConfig::new(SchedulerMode::ConventionalMds),
    )
    .unwrap();
    let report = engine.run(&[(0.0, spec)]).unwrap();
    assert_eq!(report.failed(), 1);
    assert_eq!(report.completed(), 0);
}

#[test]
fn worker_threads_cut_latency() {
    let base = {
        let engine = ServiceEngine::new(
            pool(12, &[2]),
            ServeConfig::new(SchedulerMode::SharedS2c2 {
                predictor: PredictorSource::LastValue,
            }),
        )
        .unwrap();
        engine.run(&workload(12, 1.0, 12, 13)).unwrap()
    };
    let threaded = {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.worker_threads = 4;
        let engine = ServiceEngine::new(pool(12, &[2]), cfg).unwrap();
        engine.run(&workload(12, 1.0, 12, 13)).unwrap()
    };
    assert!(
        threaded.mean_latency() < base.mean_latency(),
        "4-thread workers {} should beat 1-thread {}",
        threaded.mean_latency(),
        base.mean_latency()
    );
}

#[test]
fn invalid_config_rejected() {
    let mut cfg = ServeConfig::new(SchedulerMode::Uncoded);
    cfg.max_resident = 0;
    assert!(matches!(
        ServiceEngine::new(pool(4, &[]), cfg),
        Err(ServeError::InvalidConfig(_))
    ));
    let mut cfg = ServeConfig::new(SchedulerMode::Uncoded);
    cfg.epoch = 0.0;
    assert!(ServiceEngine::new(pool(4, &[]), cfg).is_err());
}

#[test]
fn empty_pool_rejected_at_config() {
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        let mut spec = pool(4, &[]);
        spec.workers.clear();
        let mut cfg = ServeConfig::new(SchedulerMode::Uncoded);
        cfg.backend = backend;
        assert!(
            matches!(
                ServiceEngine::new(spec, cfg),
                Err(ServeError::InvalidConfig(_))
            ),
            "an empty pool must be rejected on {backend:?}"
        );
    }
}

#[test]
fn invalid_churn_probabilities_rejected_at_config() {
    // Out-of-range or NaN probabilities are a configuration error, not
    // a panic inside the churn process.
    for (p_fail, p_recover) in [
        (1.5, 0.5),
        (-0.1, 0.5),
        (f64::NAN, 0.5),
        (0.1, 1.5),
        (0.1, f64::NAN),
    ] {
        let mut cfg = ServeConfig::new(SchedulerMode::Uncoded);
        cfg.churn = Some(ChurnConfig {
            p_fail,
            p_recover,
            min_up: 2,
        });
        assert!(
            matches!(
                ServiceEngine::new(pool(4, &[]), cfg),
                Err(ServeError::InvalidConfig(_))
            ),
            "p_fail {p_fail}, p_recover {p_recover} must be rejected"
        );
    }
    // The closed interval's ends are valid.
    let mut cfg = ServeConfig::new(SchedulerMode::Uncoded);
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.0,
        p_recover: 1.0,
        min_up: 2,
    });
    assert!(ServiceEngine::new(pool(4, &[]), cfg).is_ok());
}

#[test]
fn fair_share_spreads_tenants() {
    // Two tenants, one flooding, every weight 1: weighted fair-share
    // must still admit the other tenant's job ahead of the flood's
    // backlog.
    let n = 8;
    let mut arrivals: Vec<(f64, JobSpec)> = (0..6)
        .map(|i| (0.001 * i as f64, JobPreset::medium().instantiate(i, 0, n)))
        .collect();
    arrivals.push((0.01, JobPreset::small().instantiate(6, 1, n)));
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.policy = QueuePolicy::WeightedFairShare;
    cfg.max_resident = 2;
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let report = engine.run(&arrivals).unwrap();
    assert_eq!(report.completed(), 7);
    let tenant1 = report.jobs.iter().find(|j| j.tenant == 1).unwrap();
    // The tenant-1 job must not be admitted last even though it
    // arrived last: fair share jumps it over the flood.
    let later_admitted = report
        .jobs
        .iter()
        .filter(|j| j.tenant == 0 && j.admitted > tenant1.admitted)
        .count();
    assert!(later_admitted >= 2, "fair share should leapfrog the flood");
}

#[test]
fn thread_speedup_model() {
    assert_eq!(thread_speedup(1), 1.0);
    assert!((thread_speedup(4) - 3.7).abs() < 1e-12);
}

#[test]
fn utilization_stays_within_bounds_with_abandoned_tasks() {
    // Regression for the stale-share oversubscription bug: one huge
    // single-iteration job snapshots the pool alone, then a stream
    // of small jobs arrives mid-iteration. MDS over-provisions, so
    // plenty of straggler tasks are abandoned (refunded) when the
    // fastest k finish. Utilization used to report 1.24.
    let n = 8;
    let mut big = JobPreset::large().instantiate(0, 0, n);
    big.rows = 200_000;
    big.iterations = 1;
    let mut arrivals: Vec<(f64, JobSpec)> = vec![(0.0, big)];
    for i in 1..40u64 {
        arrivals.push((0.02 * i as f64, JobPreset::small().instantiate(i, 0, n)));
    }
    for mode in [
        SchedulerMode::ConventionalMds,
        SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        },
    ] {
        let engine = ServiceEngine::new(pool(n, &[2]), ServeConfig::new(mode)).unwrap();
        let r = engine.run(&arrivals).unwrap();
        assert_eq!(r.completed(), 40);
        assert!(
            (0.0..=1.0).contains(&r.utilization()),
            "utilization {} out of [0, 1]",
            r.utilization()
        );
        // The invariant behind it: no worker is busier than the
        // service horizon, even before the metric-level truncation.
        let max_busy = r.busy_time.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_busy <= r.makespan + 1e-6,
            "worker busy {max_busy} exceeds makespan {}",
            r.makespan
        );
        assert!(r.rebalances > 0, "membership churn must rebalance");
    }
}

#[test]
fn weighted_tenant_gets_proportional_throughput() {
    // Two tenants with identical job streams; tenant 1 weighs 2.
    // Under saturation its censored work share must approach 2x.
    let n = 12;
    let mut arrivals = Vec::new();
    for i in 0..24u64 {
        let tenant = (i % 2) as u32;
        let w = if tenant == 1 { 2.0 } else { 1.0 };
        arrivals.push((
            0.01 * i as f64,
            JobPreset::medium().with_weight(w).instantiate(i, tenant, n),
        ));
    }
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.policy = QueuePolicy::WeightedFairShare;
    cfg.max_resident = 2;
    let engine = ServiceEngine::new(pool(n, &[3]), cfg).unwrap();
    let r = engine.run(&arrivals).unwrap();
    assert_eq!(r.completed(), 24);
    let tenants = r.tenant_summaries();
    assert!((tenants[0].entitled_share - 1.0 / 3.0).abs() < 1e-12);
    assert!((tenants[1].entitled_share - 2.0 / 3.0).abs() < 1e-12);
    let ratio = tenants[1].achieved_share / tenants[0].achieved_share;
    assert!(
        ratio >= 1.8,
        "weight-2 tenant achieved only {ratio:.2}x the weight-1 share"
    );
}

#[test]
fn work_conserving_rebalance_frees_capacity_early() {
    // Job A runs one long iteration; job B shares the pool briefly
    // and departs. With work conservation A reclaims the freed half
    // immediately, so its latency stays close to the solo run —
    // without it, A would crawl at share 1/2 for the whole span.
    let n = 8;
    let mut long_job = JobPreset::large().instantiate(0, 0, n);
    long_job.rows = 100_000;
    long_job.iterations = 1;
    let solo = {
        let engine = ServiceEngine::new(
            pool(n, &[]),
            ServeConfig::new(SchedulerMode::ConventionalMds),
        )
        .unwrap();
        engine.run(&[(0.0, long_job.clone())]).unwrap()
    };
    let shared = {
        let engine = ServiceEngine::new(
            pool(n, &[]),
            ServeConfig::new(SchedulerMode::ConventionalMds),
        )
        .unwrap();
        let mut small = JobPreset::small().instantiate(1, 1, n);
        small.iterations = 1;
        engine
            .run(&[(0.0, long_job.clone()), (0.0, small)])
            .unwrap()
    };
    let solo_latency = solo.jobs[0].latency();
    let shared_latency = shared
        .jobs
        .iter()
        .find(|j| j.id == 0)
        .expect("long job resolves")
        .latency();
    assert!(
        shared_latency < 1.3 * solo_latency,
        "work conservation should keep the long job near its solo \
         latency: solo {solo_latency:.3}, shared {shared_latency:.3}"
    );
    assert!(shared.rebalances > 0);
}

#[test]
fn infeasible_deadlines_rejected_at_admission() {
    let n = 8;
    // A deadline no pool could meet, next to a comfortably feasible
    // neighbour.
    let hopeless = JobPreset::large().with_deadline(1e-6).instantiate(0, 0, n);
    let fine = JobPreset::small().with_deadline(60.0).instantiate(1, 0, n);
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.reject_infeasible_deadlines = true;
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let r = engine.run(&[(0.0, hopeless), (0.0, fine)]).unwrap();
    assert_eq!(r.rejected(), 1);
    assert_eq!(r.completed(), 1);
    let rejected = r.jobs.iter().find(|j| j.rejected).unwrap();
    assert_eq!(rejected.id, 0);
    assert!(rejected.failed);
    assert!(!rejected.on_time());
    let served = r.jobs.iter().find(|j| !j.failed).unwrap();
    assert!(served.on_time());
    // Without the knob the hopeless job is served (late) instead.
    let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let hopeless = JobPreset::large().with_deadline(1e-6).instantiate(0, 0, n);
    let fine = JobPreset::small().with_deadline(60.0).instantiate(1, 0, n);
    let r = engine.run(&[(0.0, hopeless), (0.0, fine)]).unwrap();
    assert_eq!(r.rejected(), 0);
    assert_eq!(r.completed(), 2);
    assert!(r.on_time_ratio() < 1.0);
}

#[test]
fn earliest_deadline_admission_beats_fifo_on_time() {
    // A burst of loose-deadline work arrives just before one
    // tight-deadline job: FIFO makes it wait out the burst, EDF
    // jumps it forward.
    let n = 8;
    let build = |policy: QueuePolicy| {
        let mut arrivals: Vec<(f64, JobSpec)> = (0..6)
            .map(|i| {
                (
                    0.001 * i as f64,
                    JobPreset::medium()
                        .with_deadline(120.0)
                        .instantiate(i, 0, n),
                )
            })
            .collect();
        arrivals.push((
            0.01,
            JobPreset::small().with_deadline(3.0).instantiate(6, 1, n),
        ));
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.policy = policy;
        cfg.max_resident = 1;
        let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
        engine.run(&arrivals).unwrap()
    };
    let fifo = build(QueuePolicy::Fifo);
    let edf = build(QueuePolicy::EarliestDeadline);
    assert_eq!(fifo.completed(), 7);
    assert_eq!(edf.completed(), 7);
    assert!(
        edf.on_time_ratio() > fifo.on_time_ratio(),
        "EDF on-time {} must beat FIFO {}",
        edf.on_time_ratio(),
        fifo.on_time_ratio()
    );
}

#[test]
fn malformed_qos_fields_return_typed_invalid_job() {
    // A NaN/zero/negative weight or a non-positive deadline must be
    // refused with `ServeError::InvalidJob` — not silently recorded,
    // and certainly not allowed to reach the share normalization or a
    // sorting comparator where it used to be able to panic mid-run.
    let n = 4;
    for (bad, needle) in [
        (
            JobPreset::small().with_weight(0.0).instantiate(0, 0, n),
            "weight",
        ),
        (
            JobPreset::small().with_weight(-2.0).instantiate(1, 0, n),
            "weight",
        ),
        (
            JobPreset::small()
                .with_weight(f64::NAN)
                .instantiate(2, 0, n),
            "weight",
        ),
        (
            JobPreset::small()
                .with_weight(f64::INFINITY)
                .instantiate(3, 0, n),
            "weight",
        ),
        (
            JobPreset::small().with_deadline(-1.0).instantiate(4, 0, n),
            "deadline",
        ),
        (
            JobPreset::small().with_deadline(0.0).instantiate(5, 0, n),
            "deadline",
        ),
        (
            JobPreset::small()
                .with_deadline(f64::NAN)
                .instantiate(6, 0, n),
            "deadline",
        ),
    ] {
        let id = bad.id;
        let engine = ServiceEngine::new(
            pool(n, &[]),
            ServeConfig::new(SchedulerMode::ConventionalMds),
        )
        .unwrap();
        let err = engine
            .run(&[(0.0, bad)])
            .expect_err("invalid QoS fields must be refused");
        match err {
            ServeError::InvalidJob { job, reason } => {
                assert_eq!(job, id);
                assert!(reason.contains(needle), "{reason} should name {needle}");
            }
            other => panic!("expected InvalidJob, got {other}"),
        }
    }
}

#[test]
fn invalid_arrival_times_return_typed_invalid_job() {
    // Arrivals are streamed, never pushed onto the event queue, so a
    // bad instant cannot reach `EventQueue::push`'s assert: it is
    // refused up front, wherever in the slice it sits.
    let n = 4;
    for bad in [f64::NAN, -1.0, f64::INFINITY] {
        let engine = ServiceEngine::new(
            pool(n, &[]),
            ServeConfig::new(SchedulerMode::ConventionalMds),
        )
        .unwrap();
        let stream = [
            (0.5, JobPreset::small().instantiate(0, 0, n)),
            (bad, JobPreset::small().instantiate(1, 0, n)),
        ];
        match engine.run(&stream).expect_err("a bad instant is refused") {
            ServeError::InvalidJob { job, reason } => {
                assert_eq!(job, 1);
                assert!(reason.contains("arrival time"), "{reason}");
            }
            other => panic!("expected InvalidJob, got {other}"),
        }
    }
}

#[test]
fn event_queue_holds_live_events_only() {
    // The perf harness's `sim-steady` pool and stream shape. The queue's
    // high-water mark is set by the work in flight (resident jobs ×
    // tasks, plus superseded completions not yet drained), not by how
    // many arrivals the stream still has to deliver.
    let n = 16;
    let peak_of = |jobs: usize| {
        let spec = ClusterSpec::builder(n)
            .compute_bound()
            .seed(0xFEED)
            .straggler_slowdown(5.0)
            .stragglers(&[2, 7, 12], 0.2)
            .build();
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.max_events = 400 * jobs as u64;
        let stream = generate_workload(
            &ArrivalPattern::Poisson { rate: 2.0 },
            &JobPreset::standard_mix(),
            jobs,
            4,
            n,
            42,
        );
        let mut engine = ServiceEngine::new(spec, cfg).unwrap();
        engine.drive(&stream).unwrap();
        assert_eq!(engine.report.jobs.len(), jobs);
        engine.queue.peak_len()
    };
    // Measured 359 and 326; with arrivals pre-pushed the peaks were at
    // least the stream lengths, 1 000 and 5 000.
    const LIVE_BOUND: usize = 512;
    let (short, long) = (peak_of(1_000), peak_of(5_000));
    assert!(short <= LIVE_BOUND, "1k-job peak {short}");
    assert!(long <= LIVE_BOUND, "5k-job peak {long}");
}

// ---- execution backends -------------------------------------------------

/// A small preset so numeric-backend tests stay fast.
fn tiny() -> JobPreset {
    JobPreset {
        name: "tiny",
        rows: 120,
        cols: 8,
        k_frac: 0.75,
        chunks_per_partition: 4,
        iterations: 2,
        weight: 1.0,
        deadline: None,
        matrix_id: None,
    }
}

fn tiny_workload(jobs: usize, n: usize) -> Vec<(f64, JobSpec)> {
    (0..jobs as u64)
        .map(|i| (0.05 * i as f64, tiny().instantiate(i, (i % 2) as u32, n)))
        .collect()
}

#[test]
fn threaded_backend_serves_and_verifies_end_to_end() {
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.backend = BackendKind::Threaded;
    let engine = ServiceEngine::new(pool(n, &[2]), cfg).unwrap();
    let report = engine.run(&tiny_workload(6, n)).unwrap();
    assert_eq!(report.completed(), 6);
    // Every completed iteration was decoded from real worker output and
    // checked against the sequential reference inside the engine.
    assert_eq!(report.verified_iterations, 6 * 2);
    assert!(report.max_decode_error < 1e-6);
    assert_eq!(report.job_outputs.len(), 6, "one final output per job");
    for (id, y) in &report.job_outputs {
        assert_eq!(y.len(), 120, "job {id} output has the original rows");
    }
    // All six jobs share the tiny preset's matrix: one encode, five hits.
    assert_eq!(report.encode_cache_misses, 1);
    assert_eq!(report.encode_cache_hits, 5);
}

#[test]
fn threaded_backend_survives_mispredictions_and_cancels() {
    // Uniform predictions on a straggler pool force the §4.3 cancel +
    // redo path; the threaded backend must keep numerics correct
    // through cancellations and redo dispatches.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::Uniform,
    });
    cfg.backend = BackendKind::Threaded;
    let engine = ServiceEngine::new(pool(n, &[0, 4]), cfg).unwrap();
    let report = engine.run(&tiny_workload(5, n)).unwrap();
    assert_eq!(report.completed(), 5);
    assert!(report.timeouts > 0, "uniform predictions must mispredict");
    assert_eq!(report.verified_iterations, 5 * 2);
    assert!(report.max_decode_error < 1e-6);
}

#[test]
fn sim_verified_and_threaded_outputs_match() {
    let n = 8;
    let run_with = |backend: BackendKind| {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.backend = backend;
        let engine = ServiceEngine::new(pool(n, &[1]), cfg).unwrap();
        engine.run(&tiny_workload(4, n)).unwrap()
    };
    let sim = run_with(BackendKind::SimVerified);
    let threaded = run_with(BackendKind::Threaded);
    // Timing is backend-independent...
    assert_eq!(sim.jobs, threaded.jobs);
    assert_eq!(sim.events_processed, threaded.events_processed);
    // ...and so are the decoded numerics: same coverage, same chunk
    // arithmetic, same decode order.
    assert_eq!(sim.job_outputs.len(), threaded.job_outputs.len());
    for ((id_a, a), (id_b, b)) in sim.job_outputs.iter().zip(threaded.job_outputs.iter()) {
        assert_eq!(id_a, id_b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12, "job {id_a}: {x} vs {y}");
        }
    }
}

#[test]
fn sim_backend_reports_no_numerics() {
    let n = 8;
    let engine = ServiceEngine::new(
        pool(n, &[]),
        ServeConfig::new(SchedulerMode::ConventionalMds),
    )
    .unwrap();
    let report = engine.run(&tiny_workload(3, n)).unwrap();
    assert_eq!(report.verified_iterations, 0);
    assert_eq!(report.encode_cache_hits + report.encode_cache_misses, 0);
    assert!(report.job_outputs.is_empty());
}

#[test]
fn distinct_matrix_ids_do_not_share_encodings() {
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.backend = BackendKind::SimVerified;
    let arrivals: Vec<(f64, JobSpec)> = (0..4u64)
        .map(|i| {
            (
                0.05 * i as f64,
                tiny().with_matrix_id(i).instantiate(i, 0, n),
            )
        })
        .collect();
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let report = engine.run(&arrivals).unwrap();
    assert_eq!(report.completed(), 4);
    assert_eq!(report.encode_cache_misses, 4, "four distinct models");
    assert_eq!(report.encode_cache_hits, 0);
    assert_eq!(report.encode_cache_hit_rate(), 0.0);
}

#[test]
fn threaded_backend_handles_uncoded_and_mds_modes() {
    let n = 6;
    for mode in [SchedulerMode::Uncoded, SchedulerMode::ConventionalMds] {
        let mut cfg = ServeConfig::new(mode);
        cfg.backend = BackendKind::Threaded;
        let engine = ServiceEngine::new(pool(n, &[3]), cfg).unwrap();
        let report = engine.run(&tiny_workload(3, n)).unwrap();
        assert_eq!(report.completed(), 3);
        assert_eq!(report.verified_iterations, 3 * 2);
        assert!(report.max_decode_error < 1e-6);
    }
}

#[test]
fn threaded_backend_survives_churn_with_verified_numerics() {
    // Churn + mispredictions drive the full recovery ladder — cancels,
    // redo reassignment, redo invalidation when the redo host itself
    // churns, rung-5 restarts — while the threaded backend executes
    // every credited chunk for real. Crediting work nobody computed
    // (e.g. churn-invalidated redo chunks) fails the run loudly.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::Uniform,
    });
    cfg.backend = BackendKind::Threaded;
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.08,
        p_recover: 0.5,
        min_up: 6,
    });
    cfg.max_retries = 10;
    let engine = ServiceEngine::new(pool(n, &[1, 5]), cfg).unwrap();
    let report = engine.run(&tiny_workload(8, n)).unwrap();
    assert_eq!(report.completed() + report.failed(), 8);
    assert!(report.completed() >= 6, "churn floor keeps most jobs alive");
    assert!(report.verified_iterations >= report.completed() * 2);
    assert!(report.max_decode_error < 1e-6);
}

#[test]
fn all_rejected_workload_reports_finite_metrics() {
    // Degenerate but legal: every job arrives at t = 0 with a provably
    // hopeless SLO and is rejected at admission, so the last resolution
    // is at t = 0 and makespan is exactly zero. The engine must drain
    // cleanly and every report metric must come back finite.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.reject_infeasible_deadlines = true;
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let w: Vec<(f64, JobSpec)> = (0..5u64)
        .map(|i| {
            (
                0.0,
                JobPreset::large().with_deadline(1e-9).instantiate(i, 0, n),
            )
        })
        .collect();
    let r = engine.run(&w).unwrap();
    assert_eq!(r.rejected(), 5);
    assert_eq!(r.completed(), 0);
    assert_eq!(r.makespan, 0.0);
    for v in [
        r.throughput(),
        r.utilization(),
        r.mean_queue_depth(),
        r.mean_latency(),
        r.latency_percentile(99.0),
        r.on_time_ratio(),
        r.mean_batch_size(),
    ] {
        assert!(v.is_finite(), "all-rejected metric must be finite: {v}");
    }
    for t in r.tenant_summaries() {
        assert!(t.p99_latency.is_finite());
        assert!(t.achieved_share.is_finite());
    }
}

// ---- batching / coalescing ----------------------------------------------

/// A saturating burst of small jobs (one shared preset ⇒ one batch key).
fn small_burst(jobs: usize, n: usize) -> Vec<(f64, JobSpec)> {
    (0..jobs as u64)
        .map(|i| {
            (
                0.01 * i as f64,
                JobPreset::small().instantiate(i, (i % 2) as u32, n),
            )
        })
        .collect()
}

/// A simultaneous burst of tiny numeric jobs, so the queue is deep when
/// the first slot frees and batches actually form (tiny jobs outrun any
/// spaced arrival pattern).
fn tiny_burst(jobs: usize, n: usize) -> Vec<(f64, JobSpec)> {
    (0..jobs as u64)
        .map(|i| (0.0, tiny().instantiate(i, (i % 2) as u32, n)))
        .collect()
}

#[test]
fn size_threshold_coalesces_queued_jobs() {
    let n = 8;
    let run_with = |batch: BatchPolicy| {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.max_resident = 2;
        cfg.batch = batch;
        let engine = ServiceEngine::new(pool(n, &[2]), cfg).unwrap();
        engine.run(&small_burst(12, n)).unwrap()
    };
    let off = run_with(BatchPolicy::Off);
    let batched = run_with(BatchPolicy::SizeThreshold { max_batch: 4 });
    // Both serve the identical job set...
    assert_eq!(off.completed(), 12);
    assert_eq!(batched.completed(), 12);
    let ids = |r: &ServiceReport| {
        let mut v: Vec<JobId> = r.jobs.iter().map(|j| j.id).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&off), ids(&batched));
    // ...but the batched engine coalesced queued mates onto shared
    // rounds, within the configured cap.
    assert!(batched.batches_admitted > 0, "burst must form batches");
    assert!(batched.batch_rounds > 0);
    assert!(batched.mean_batch_size() > 1.0);
    assert!(batched.mean_batch_size() <= 4.0 + 1e-12);
    assert_eq!(off.batches_admitted, 0);
    assert_eq!(off.batch_rounds, 0);
    // Per-member records survive batching: distinct arrivals, tenants,
    // and per-job latencies (members share a finish, not an arrival).
    for j in &batched.jobs {
        assert!(!j.failed);
        assert!(j.finished >= j.arrival);
    }
    // Capacity accounting stays sound under batch shares.
    assert!((0.0..=1.0).contains(&batched.utilization()));
}

#[test]
fn batched_members_decode_their_own_outputs() {
    // SimVerified: every member of a batch round is decoded from the
    // shared coverage and verified against its own A·x reference — the
    // de-interleave cannot mix members up without failing the run.
    let n = 8;
    let run_with = |batch: BatchPolicy| {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.backend = BackendKind::SimVerified;
        cfg.max_resident = 1;
        cfg.batch = batch;
        let engine = ServiceEngine::new(pool(n, &[2]), cfg).unwrap();
        engine.run(&tiny_burst(6, n)).unwrap()
    };
    let off = run_with(BatchPolicy::Off);
    let batched = run_with(BatchPolicy::SizeThreshold { max_batch: 3 });
    assert_eq!(off.completed(), 6);
    assert_eq!(batched.completed(), 6);
    assert!(batched.batches_admitted > 0);
    assert!(batched.max_decode_error < 1e-6);
    // Decoded final outputs are job-identical whether or not the job
    // rode a batch: the inputs are a function of (job id, iteration),
    // never of the batch.
    let sorted = |r: &ServiceReport| {
        let mut v = r.job_outputs.clone();
        v.sort_by_key(|(id, _)| *id);
        v
    };
    let a = sorted(&off);
    let b = sorted(&batched);
    assert_eq!(a.len(), b.len());
    for ((ia, ya), (ib, yb)) in a.iter().zip(b.iter()) {
        assert_eq!(ia, ib);
        for (x, y) in ya.iter().zip(yb.iter()) {
            assert!((x - y).abs() <= 1e-12, "job {ia}: {x} vs {y}");
        }
    }
    // One shared encode serves every batch member (all six jobs share
    // the tiny preset's matrix): 1 miss, 5 hits, batched or not.
    assert_eq!(batched.encode_cache_misses, 1);
    assert_eq!(batched.encode_cache_hits, 5);
}

#[test]
fn time_window_holds_then_flushes_one_batch() {
    // Two compatible jobs arrive 0.2s apart with free slots; the window
    // holds the first until mates accumulate, then flushes both as one
    // batch at (earliest arrival + window).
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.batch = BatchPolicy::TimeWindow {
        window: 0.5,
        max_batch: 4,
    };
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let w: Vec<(f64, JobSpec)> = vec![
        (0.0, JobPreset::small().instantiate(0, 0, n)),
        (0.2, JobPreset::small().instantiate(1, 0, n)),
    ];
    let r = engine.run(&w).unwrap();
    assert_eq!(r.completed(), 2);
    assert_eq!(r.batches_admitted, 1, "both jobs ride one batch");
    assert_eq!(r.batched_jobs, 2);
    for j in &r.jobs {
        assert!(
            (j.admitted - 0.5).abs() < 1e-9,
            "job {} admitted at {}, expected the window flush at 0.5",
            j.id,
            j.admitted
        );
    }
}

#[test]
fn time_window_size_cap_flushes_early() {
    // Reaching the size threshold flushes before the window expires.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.batch = BatchPolicy::TimeWindow {
        window: 30.0,
        max_batch: 2,
    };
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let w: Vec<(f64, JobSpec)> = vec![
        (0.0, JobPreset::small().instantiate(0, 0, n)),
        (0.1, JobPreset::small().instantiate(1, 0, n)),
    ];
    let r = engine.run(&w).unwrap();
    assert_eq!(r.completed(), 2);
    assert_eq!(r.batches_admitted, 1);
    for j in &r.jobs {
        assert!(
            (j.admitted - 0.1).abs() < 1e-9,
            "cap reached at t = 0.1 must flush immediately, admitted {}",
            j.admitted
        );
    }
}

#[test]
fn batch_window_flush_respects_edf_ordering() {
    // EDF + time-window batching: a tight-deadline job with its own
    // batch key is admitted at its own window expiry, never blocked
    // behind a held small-job group whose window is still open — and
    // the flushed group itself lists members in EDF order.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.policy = QueuePolicy::EarliestDeadline;
    cfg.max_resident = 1;
    cfg.batch = BatchPolicy::TimeWindow {
        window: 0.2,
        max_batch: 8,
    };
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let w: Vec<(f64, JobSpec)> = vec![
        (
            0.0,
            JobPreset::small().with_deadline(60.0).instantiate(0, 0, n),
        ),
        (
            0.0,
            JobPreset::medium().with_deadline(3.0).instantiate(1, 1, n),
        ),
        (
            0.05,
            JobPreset::small().with_deadline(50.0).instantiate(2, 0, n),
        ),
    ];
    let r = engine.run(&w).unwrap();
    assert_eq!(r.completed(), 3);
    let by_id = |id: JobId| r.jobs.iter().find(|j| j.id == id).unwrap();
    // The tight-deadline medium job flushes at its own window (t = 0.2)
    // and takes the single slot first — the held small batch does not
    // starve it.
    assert!(
        (by_id(1).admitted - 0.2).abs() < 1e-9,
        "EDF head admitted at {}, expected its window flush at 0.2",
        by_id(1).admitted
    );
    // The smalls flush later, as one batch, behind the EDF head.
    assert_eq!(r.batches_admitted, 1);
    assert_eq!(by_id(0).admitted, by_id(2).admitted);
    assert!(by_id(0).admitted > by_id(1).admitted);
}

#[test]
fn infeasible_member_rejected_without_dragging_batch_down() {
    // Deadline admission control applies per member: one hopeless SLO
    // inside a gathered group is turned away, the rest ride on.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.batch = BatchPolicy::SizeThreshold { max_batch: 4 };
    cfg.max_resident = 1;
    cfg.reject_infeasible_deadlines = true;
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let w: Vec<(f64, JobSpec)> = vec![
        // A blocker so the next three queue and gather as one group.
        (0.0, JobPreset::medium().instantiate(0, 0, n)),
        (0.0, JobPreset::small().instantiate(1, 0, n)),
        (
            0.0,
            JobPreset::small().with_deadline(1e-7).instantiate(2, 0, n),
        ),
        (0.0, JobPreset::small().instantiate(3, 0, n)),
    ];
    let r = engine.run(&w).unwrap();
    assert_eq!(r.rejected(), 1, "the hopeless member is rejected");
    assert_eq!(r.completed(), 3);
    let rejected = r.jobs.iter().find(|j| j.rejected).unwrap();
    assert_eq!(rejected.id, 2);
    assert_eq!(r.batches_admitted, 1, "survivors still batch");
    assert_eq!(r.batched_jobs, 2);
}

#[test]
fn batching_survives_mid_batch_straggler_recovery() {
    // Uniform predictions on a straggler pool force the §4.3 cancel +
    // redo ladder on batch rounds; the whole batch recovers together
    // and every member still decodes and verifies.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::Uniform,
    });
    cfg.backend = BackendKind::Threaded;
    cfg.batch = BatchPolicy::SizeThreshold { max_batch: 3 };
    cfg.max_resident = 1;
    let engine = ServiceEngine::new(pool(n, &[0, 4]), cfg).unwrap();
    let report = engine.run(&tiny_burst(6, n)).unwrap();
    assert_eq!(report.completed(), 6);
    assert!(report.timeouts > 0, "uniform predictions must mispredict");
    assert!(report.batches_admitted > 0, "queued jobs must coalesce");
    assert_eq!(report.verified_iterations, 6 * 2);
    assert!(report.max_decode_error < 1e-6);
}

#[test]
fn invalid_batch_policy_rejected_at_config() {
    for batch in [
        BatchPolicy::SizeThreshold { max_batch: 0 },
        BatchPolicy::SizeThreshold { max_batch: 1 },
        BatchPolicy::TimeWindow {
            window: 0.0,
            max_batch: 4,
        },
        BatchPolicy::TimeWindow {
            window: f64::NAN,
            max_batch: 4,
        },
        BatchPolicy::TimeWindow {
            window: 1.0,
            max_batch: 1,
        },
    ] {
        let mut cfg = ServeConfig::new(SchedulerMode::Uncoded);
        cfg.batch = batch;
        assert!(
            matches!(
                ServiceEngine::new(pool(4, &[]), cfg),
                Err(ServeError::InvalidConfig(_))
            ),
            "{batch} must be rejected"
        );
    }
}

// ---- telemetry ----------------------------------------------------------

#[test]
fn telemetry_is_off_by_default() {
    let report = run_mode(SchedulerMode::ConventionalMds, 5, 1.0);
    assert!(report.telemetry.is_none(), "tracing must be opt-in");
}

#[test]
fn rung_trace_events_mirror_ladder_transitions() {
    use s2c2_telemetry::TraceEventKind;
    // Uniform predictions on a straggler pool force timeout recovery,
    // so the ladder climbs past its entry rungs.
    let n = 12;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::Uniform,
    });
    cfg.telemetry = true;
    let engine = ServiceEngine::new(pool(n, &[0, 5]), cfg).unwrap();
    let report = engine.run(&workload(10, 1.0, n, 9)).unwrap();
    assert!(report.timeouts > 0, "uniform predictions must mispredict");
    let tel = report.telemetry.as_ref().expect("telemetry was enabled");
    assert_eq!(
        report.recovery_rung_counts,
        tel.trace.rung_counts(),
        "aggregate counters and the event log must agree rung by rung"
    );
    // Every iteration start is announced by exactly one entry-rung
    // event (1 normal, 2 degraded), adjacent, same instant, matching
    // the start's degraded flag.
    let events = tel.trace.events();
    let mut starts = 0u64;
    for pair in events.windows(2) {
        if let TraceEventKind::IterationStart {
            job,
            generation,
            degraded,
            ..
        } = pair[0].kind
        {
            starts += 1;
            match pair[1].kind {
                TraceEventKind::RecoveryRung {
                    job: j,
                    generation: g,
                    rung,
                } => {
                    assert_eq!((j, g), (job, generation));
                    assert_eq!(rung, if degraded { 2 } else { 1 });
                    assert_eq!(pair[1].time.to_bits(), pair[0].time.to_bits());
                }
                ref other => panic!("iteration start not chased by its rung event: {other:?}"),
            }
        }
    }
    assert_eq!(
        starts,
        report.recovery_rung_counts[0] + report.recovery_rung_counts[1],
        "entry-rung transitions count exactly the iteration starts"
    );
    assert!(
        report.recovery_rung_counts[2] + report.recovery_rung_counts[3] > 0,
        "timeout recovery must surface as rung-3 redo or rung-4 wait-out"
    );
}

// ---- pipelined serving --------------------------------------------------

fn pipelined_cfg(depth: usize, predictor: PredictorSource) -> ServeConfig {
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 { predictor });
    cfg.pipeline = PipelinePolicy::Depth(depth);
    cfg
}

#[test]
fn zero_pipeline_depth_rejected_at_config() {
    let mut cfg = ServeConfig::new(SchedulerMode::ConventionalMds);
    cfg.pipeline = PipelinePolicy::Depth(0);
    assert!(matches!(
        ServiceEngine::new(pool(8, &[]), cfg),
        Err(ServeError::InvalidConfig(_))
    ));
}

#[test]
fn depth_one_reproduces_the_barrier_engine_exactly() {
    // `Depth(1)` routes through the window machinery but must be
    // indistinguishable from `Off` — same records, same virtual clock,
    // same event count, same trace stream, bit for bit. Uniform
    // predictions on a straggler pool drag the recovery ladder (and its
    // re-armed timeouts) into the comparison.
    let run_with = |pipeline: PipelinePolicy| {
        let n = 12;
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::Uniform,
        });
        cfg.pipeline = pipeline;
        cfg.telemetry = true;
        let engine = ServiceEngine::new(pool(n, &[2, 7]), cfg).unwrap();
        engine.run(&workload(15, 1.2, n, 11)).unwrap()
    };
    let off = run_with(PipelinePolicy::Off);
    let one = run_with(PipelinePolicy::Depth(1));
    assert!(off.timeouts > 0, "the scenario must exercise recovery");
    assert_eq!(off.jobs, one.jobs);
    assert_eq!(off.makespan.to_bits(), one.makespan.to_bits());
    assert_eq!(off.events_processed, one.events_processed);
    assert_eq!(off.timeouts, one.timeouts);
    assert_eq!(off.recovery_rung_counts, one.recovery_rung_counts);
    assert_eq!(off.rebalances, one.rebalances);
    let (ta, tb) = (off.telemetry.unwrap(), one.telemetry.unwrap());
    assert_eq!(ta.trace, tb.trace, "trace streams must be identical");
    // And a window of one can never overlap or park anything.
    assert_eq!(one.rounds_parked, 0);
    assert_eq!(one.pipeline_overlap_time, 0.0);
    assert_eq!(one.pipeline_stall_time, 0.0);
}

#[test]
fn pipelined_rounds_retire_in_order() {
    // Depth 4 with mispredictions: later rounds can finish first, but
    // IterationComplete must still walk 0, 1, 2, ... per job.
    use std::collections::BTreeMap;
    let n = 12;
    let mut cfg = pipelined_cfg(4, PredictorSource::Uniform);
    cfg.telemetry = true;
    let engine = ServiceEngine::new(pool(n, &[2, 7]), cfg).unwrap();
    let report = engine.run(&workload(12, 1.2, n, 13)).unwrap();
    assert_eq!(report.completed(), 12);
    assert!(report.timeouts > 0, "uniform predictions must mispredict");
    assert!(
        report.pipeline_overlap_time > 0.0,
        "a deep window must overlap successive rounds"
    );
    let tel = report.telemetry.as_ref().unwrap();
    let mut next: BTreeMap<u64, usize> = BTreeMap::new();
    for ev in tel.trace.events() {
        if let s2c2_telemetry::TraceEventKind::IterationComplete { job, iteration, .. } = ev.kind {
            let e = next.entry(job).or_insert(0);
            assert_eq!(iteration, *e, "job {job} committed a round out of order");
            *e += 1;
        }
    }
    assert!(!next.is_empty(), "the run must commit iterations");
}

#[test]
fn window_depth_caps_in_flight_rounds() {
    // Backpressure: with clean predictions (no restarts), the number of
    // started-but-uncommitted rounds per job never exceeds the depth.
    use std::collections::BTreeMap;
    let n = 8;
    let mut cfg = pipelined_cfg(2, PredictorSource::LastValue);
    cfg.telemetry = true;
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let report = engine.run(&workload(8, 1.0, n, 17)).unwrap();
    assert_eq!(report.completed(), 8);
    let tel = report.telemetry.as_ref().unwrap();
    let mut in_flight: BTreeMap<u64, usize> = BTreeMap::new();
    for ev in tel.trace.events() {
        match ev.kind {
            s2c2_telemetry::TraceEventKind::IterationStart { job, .. } => {
                let e = in_flight.entry(job).or_insert(0);
                *e += 1;
                assert!(*e <= 2, "job {job} exceeded the window depth");
            }
            s2c2_telemetry::TraceEventKind::IterationComplete { job, .. } => {
                *in_flight.entry(job).or_insert(0) -= 1;
            }
            _ => {}
        }
    }
    assert!(
        report.pipeline_overlap_time > 0.0,
        "depth 2 must actually overlap rounds"
    );
}

#[test]
fn straggled_round_is_reserved_while_successors_stream() {
    // Mispredicted stragglers at depth 2 on the verified backend: the
    // §4.3 ladder re-serves the lagging round inside the window and
    // every decoded iteration still checks against the reference.
    let n = 8;
    let mut cfg = pipelined_cfg(2, PredictorSource::Uniform);
    cfg.backend = BackendKind::SimVerified;
    let engine = ServiceEngine::new(pool(n, &[0, 4]), cfg).unwrap();
    let report = engine.run(&tiny_workload(5, n)).unwrap();
    assert_eq!(report.completed(), 5);
    assert!(report.timeouts > 0, "uniform predictions must mispredict");
    assert_eq!(report.verified_iterations, 5 * 2);
    assert!(report.max_decode_error < 1e-6);
}

#[test]
fn pipelined_engine_survives_churn_across_window_rounds() {
    // The survives_churn scenario at depth 2, traced: a worker dying
    // with live tasks in *two* rounds of one job's window must have
    // both invalidated at the same instant, and the service must still
    // resolve every job.
    use std::collections::BTreeMap;
    let n = 12;
    let mut cfg = pipelined_cfg(2, PredictorSource::LastValue);
    cfg.churn = Some(ChurnConfig {
        p_fail: 0.05,
        p_recover: 0.4,
        min_up: 10,
    });
    cfg.max_retries = 10;
    cfg.telemetry = true;
    let engine = ServiceEngine::new(pool(n, &[3]), cfg).unwrap();
    let report = engine.run(&workload(25, 1.0, n, 21)).unwrap();
    assert_eq!(
        report.completed() + report.failed(),
        25,
        "every job resolves"
    );
    assert!(
        report.completed() >= 23,
        "churn floor keeps most jobs alive"
    );
    // Find a churn instant that swept tasks from two generations of the
    // same job — the multi-round cancellation the window introduces.
    let tel = report.telemetry.as_ref().unwrap();
    let events = tel.trace.events();
    let mut two_round_kill = false;
    for (i, ev) in events.iter().enumerate() {
        let s2c2_telemetry::TraceEventKind::WorkerDown { worker } = ev.kind else {
            continue;
        };
        let mut gens: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for later in &events[i + 1..] {
            if later.time.to_bits() != ev.time.to_bits() {
                break;
            }
            if let s2c2_telemetry::TraceEventKind::TaskCancel {
                job,
                worker: w,
                generation,
                ..
            } = later.kind
            {
                if w == worker {
                    let g = gens.entry(job).or_default();
                    if !g.contains(&generation) {
                        g.push(generation);
                    }
                }
            }
        }
        if gens.values().any(|g| g.len() >= 2) {
            two_round_kill = true;
            break;
        }
    }
    assert!(
        two_round_kill,
        "the scenario must kill a worker holding tasks in two window rounds"
    );
}

// ---- the per-round task model (engine/round.rs) -------------------------

use super::round::{RunningIteration, Sinks, Tasks};

/// The engine state a round writes to, standing alone.
struct Rig {
    busy: Vec<f64>,
    queue: EventQueue,
    backend: Box<dyn ExecutionBackend>,
    telemetry: Option<Telemetry>,
}

impl Rig {
    fn new(n: usize) -> Self {
        Rig {
            busy: vec![0.0; n],
            queue: EventQueue::new(),
            backend: backend::make_backend(BackendKind::Sim, n),
            telemetry: Some(Telemetry::new()),
        }
    }

    fn sinks(&mut self, now: f64) -> Sinks<'_> {
        Sinks {
            now,
            busy_time: &mut self.busy,
            queue: &mut self.queue,
            backend: self.backend.as_mut(),
            telemetry: &mut self.telemetry,
        }
    }

    /// `(worker, redo)` of every `TaskCancel` traced so far.
    fn cancels(&self) -> Vec<(usize, bool)> {
        let events = self.telemetry.as_ref().unwrap().trace.events();
        let cancel = |e: &TraceEvent| match e.kind {
            TraceEventKind::TaskCancel { worker, redo, .. } => Some((worker, redo)),
            _ => None,
        };
        events.iter().filter_map(cancel).collect()
    }
}

/// An undispatched round at share 0.5 over the given per-worker chunk
/// lists, `chunks` chunks per partition, `k` responses needed.
fn blank_round(lists: Vec<Vec<usize>>, chunks: usize, k: usize, rhs: usize) -> RunningIteration {
    let mut tasks = Tasks::default();
    tasks.reset(lists.len(), chunks, k);
    RunningIteration {
        job: 7,
        generation: 1,
        round_index: 0,
        share: 0.5,
        k_eff: k,
        rows_per_chunk: 10,
        rhs,
        assignment: s2c2_core::ChunkAssignment {
            chunks: lists,
            chunks_per_partition: chunks,
            k,
        },
        tasks,
        parked_at: None,
        waited_out: false,
        armed_deadline: f64::INFINITY,
        armed_seq: 0,
        share_integral: 0.0,
        share_anchor: 0.0,
        started: 0.0,
        t_input: 0.0,
        last_reply: 0.0,
    }
}

/// A 4-worker, 3-chunk, `k = 2` round at share 0.5, dispatched at
/// t = 0: worker 0 is the straggler (finish 10), workers 1 and 2 finish
/// at 1.5, worker 3 has no task. Every original is charged 1.0.
fn straggling_round(rig: &mut Rig) -> RunningIteration {
    let chunks = vec![vec![0, 1, 2], vec![0, 1], vec![2], vec![]];
    let mut round = blank_round(chunks, 3, 2, 1);
    let mut sinks = rig.sinks(0.0);
    for (w, finish) in [(0, 10.0), (1, 1.5), (2, 1.5)] {
        round.dispatch(w, finish, 1.0, 0.0, &mut sinks);
    }
    round
}

#[test]
fn churn_cancelled_redo_drops_its_chunk_list() {
    let mut rig = Rig::new(4);
    let mut round = straggling_round(&mut rig);
    assert_eq!(round.complete_task(1, false, 1.5), Some(2));
    assert_eq!(round.complete_task(2, false, 1.5), Some(1));
    // Deadline at t = 2: worker 2 is handed chunk 0, then churns out
    // half-way through the recompute.
    round.dispatch_redo(2, vec![0], 3.0, 0.4, &mut rig.sinks(2.0));
    assert_eq!(round.shortfall(0, false), 0, "the pending redo counts");
    assert!(round.cancel(2, true, &mut rig.sinks(2.5)));
    assert_eq!(round.shortfall(0, false), 1, "a cancelled one does not");
    // Back up, it is handed chunk 1 instead and finishes that. The
    // merged task must be credited with chunk 1 only: chunk 0 was never
    // computed.
    round.dispatch_redo(2, vec![1], 5.0, 0.4, &mut rig.sinks(4.0));
    assert_eq!(round.complete_task(2, true, 5.0), Some(1));
    let redo_credit: Vec<&[usize]> = round
        .credited()
        .filter(|c| c.worker == 2)
        .map(|c| c.chunks)
        .collect();
    assert_eq!(redo_credit, [&[2][..], &[1][..]]);
    assert_eq!(round.shortfall(0, false), 1);
    assert!(!round.complete());
}

#[test]
fn rung_three_cancels_only_originals_still_running_past_now() {
    let mut rig = Rig::new(4);
    let mut round = straggling_round(&mut rig);
    assert_eq!(round.complete_task(2, false, 1.5), Some(1));
    // Deadline at t = 2. Worker 1's completion (t = 1.5) has not been
    // popped yet, but its work is over: not late. Worker 3 never had a
    // task: "cancelling" it would fabricate a speed observation.
    let mut sinks = rig.sinks(2.0);
    assert!(round.cancel_late(0, &mut sinks));
    assert!(!round.cancel_late(1, &mut sinks));
    assert!(!round.cancel_late(2, &mut sinks));
    assert!(!round.cancel_late(3, &mut sinks));
    assert_eq!(rig.cancels(), [(0, false)]);
    assert_eq!(round.open_finish(1, false), Some(1.5), "still awaited");
    assert_eq!(round.open_finish(3, false), None);
    // Worker 0 is refunded (10 − 2) · 0.5 capped at its charge of 1.0;
    // nobody else's account moves.
    assert_eq!(rig.busy, [0.0, 1.0, 1.0, 0.0]);
}

#[test]
fn cancel_refunds_an_open_task_exactly_once() {
    let mut rig = Rig::new(4);
    let mut round = straggling_round(&mut rig);
    assert_eq!(round.complete_task(2, false, 1.5), Some(1));
    round.dispatch_redo(2, vec![0, 1], 9.0, 0.8, &mut rig.sinks(2.0));
    assert_eq!(rig.busy, [1.0, 1.0, 1.8, 0.0]);
    // Worker 1 churns out at t = 1.25: (1.5 − 1.25) · 0.5 comes back.
    assert!(round.cancel(1, false, &mut rig.sinks(1.25)));
    assert_eq!(rig.busy[1], 0.875);
    // A second churn event, a done task, and slots that never held a
    // task all refund nothing and trace nothing.
    let mut sinks = rig.sinks(1.25);
    assert!(!round.cancel(1, false, &mut sinks));
    assert!(!round.cancel(2, false, &mut sinks));
    assert!(!round.cancel(3, false, &mut sinks));
    assert!(!round.cancel(0, true, &mut sinks));
    assert_eq!(rig.busy, [1.0, 0.875, 1.8, 0.0]);
    assert_eq!(rig.cancels(), [(1, false)]);
    // Round completion abandons what is still open — the straggler and
    // the now superfluous redo — once each, and a stale completion
    // event for either is ignored afterwards.
    round.cancel_open(&mut rig.sinks(8.0));
    round.cancel_open(&mut rig.sinks(8.5));
    assert_eq!(rig.cancels(), [(1, false), (0, false), (2, true)]);
    assert_eq!(rig.busy, [0.0, 0.875, 1.3, 0.0]);
    assert!(!round.has_open());
    assert_eq!(round.complete_task(0, false, 10.0), None);
    assert_eq!(round.complete_task(2, true, 9.0), None);
}

#[test]
fn scratch_reset_matches_fresh_construction() {
    let mut rig = Rig::new(4);
    let mut round = straggling_round(&mut rig);
    // Dirty every field as a retired round would.
    round.complete_task(2, false, 1.5);
    round.dispatch_redo(2, vec![0, 1], 9.0, 0.8, &mut rig.sinks(2.0));
    round.cancel(0, false, &mut rig.sinks(2.0));
    let mut pool = Vec::new();
    round.reclaim(&mut pool);
    let mut tasks = pool.pop().unwrap();
    let kept_cap = tasks.redo_capacity(2);
    assert!(kept_cap >= 2);
    for (n, chunks, k) in [(5, 4, 3), (3, 2, 1)] {
        tasks.reset(n, chunks, k);
        let mut fresh = Tasks::default();
        fresh.reset(n, chunks, k);
        assert_eq!(tasks, fresh);
    }
    assert!(
        tasks.redo_capacity(2) >= kept_cap,
        "inner chunk lists keep their allocation across resets"
    );
}

#[test]
fn coverage_tally_equals_the_definitional_scan_after_every_op() {
    let (n, chunks) = (6, 5);
    let mut scratch = super::round::DecodeScratch::default();
    // What the sequences reached, over all seeds: the tally is only
    // tested where the ops actually went.
    let (mut completed, mut reopened, mut merged_open, mut doomed) = (0, 0, 0, 0);
    for seed in 0..200 {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(1..=3);
        let mut rig = Rig::new(n);
        // Every worker is assigned a random sorted chunk list.
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|_| (0..chunks).filter(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let mut round = blank_round(lists, chunks, k, 2);
        let mut dispatched = vec![false; n];
        let mut now = 0.0;
        for _ in 0..120 {
            now += rng.gen_range(0.0..0.5);
            let w = rng.gen_range(0..n);
            let redo = rng.gen_bool(0.4);
            let mut sinks = rig.sinks(now);
            match rng.gen_range(0..9) {
                0 | 1 if !dispatched[w] => {
                    dispatched[w] = true;
                    let finish = now + rng.gen_range(0.1..3.0);
                    round.dispatch(w, finish, 1.0, 0.0, &mut sinks);
                }
                2 | 3 => {
                    // The task's own completion event, or a stale one.
                    let at = match round.open_finish(w, redo) {
                        Some(finish) if rng.gen_bool(0.8) => finish,
                        _ => now + 7.0,
                    };
                    round.complete_task(w, redo, at);
                }
                4 => {
                    round.cancel(w, redo, &mut sinks);
                }
                5 => {
                    round.cancel_late(w, &mut sinks);
                }
                6 if rng.gen_bool(0.1) => round.cancel_open(&mut sinks),
                7 if round.task_done(w, false) => {
                    // Rung 3's rule: a finished host, chunks it does
                    // not hold — onto an idle, pending or done redo.
                    let extra: Vec<usize> = (0..chunks)
                        .filter(|&c| !round.holds(w, c) && rng.gen_bool(0.5))
                        .collect();
                    if !extra.is_empty() {
                        reopened += usize::from(round.task_done(w, true));
                        merged_open += usize::from(round.open_finish(w, true).is_some());
                        let finish = now + rng.gen_range(0.1..2.0);
                        round.dispatch_redo(w, extra, finish, 0.5, &mut sinks);
                    }
                }
                8 => {
                    round.rescale(rng.gen_range(0.1..1.0), &mut sinks);
                }
                _ => {}
            }
            assert_eq!(round.complete(), round.complete_by_scan(), "seed {seed}");
            assert_eq!(round.doomed(), round.doomed_by_scan(), "seed {seed}");
            for c in 0..chunks {
                for inflight in [false, true] {
                    assert_eq!(
                        round.shortfall(c, inflight),
                        round.shortfall_by_scan(c, inflight),
                        "seed {seed} chunk {c}"
                    );
                }
            }
            assert_eq!(
                round.decode_flops(&mut scratch).to_bits(),
                round.decode_flops_by_scan().to_bits(),
                "seed {seed}"
            );
            completed += usize::from(round.complete());
            doomed += usize::from(round.doomed());
        }
    }
    assert!(completed > 0 && doomed > 0, "{completed} {doomed}");
    assert!(reopened > 0, "a redo must merge onto a done one");
    assert!(merged_open > 0, "and onto a pending one");
}
