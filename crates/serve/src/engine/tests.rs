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
    assert_eq!(report.queue_depth.current(), 0, "queue drains");
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
fn invalid_cost_model_values_rejected_at_config() {
    // `ClusterSpec`'s fields are public, past the builder's asserts. A
    // zero or NaN throughput or a negative or NaN latency would time an
    // event at an infinite, NaN or negative instant; each is a typed
    // configuration error naming the field, not a panic in the run.
    type Poke = fn(&mut ClusterSpec);
    let cases: [(&str, Poke); 6] = [
        ("decode_flops_per_sec", |s| s.decode_flops_per_sec = 0.0),
        ("decode_flops_per_sec", |s| {
            s.decode_flops_per_sec = f64::NAN
        }),
        ("compute.elements_per_sec", |s| {
            s.compute.elements_per_sec = 0.0
        }),
        ("comm.bandwidth", |s| s.comm.bandwidth = 0.0),
        ("comm.latency", |s| s.comm.latency = -1.0),
        ("comm.latency", |s| s.comm.latency = f64::NAN),
    ];
    let n = 8;
    for (field, poke) in cases {
        let mut spec = pool(n, &[]);
        poke(&mut spec);
        let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        match ServiceEngine::new(spec, cfg).and_then(|e| e.run(&workload(10, 1.0, n, 3))) {
            Err(ServeError::InvalidConfig(msg)) => {
                assert!(msg.contains(field), "{msg} should name {field}");
            }
            Err(other) => panic!("{field}: expected InvalidConfig, got {other}"),
            Ok(_) => panic!("{field}: the configuration must be refused"),
        }
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
    // Arrivals are streamed, never queued, so a bad instant cannot
    // reach the agenda's assert: it is refused up front, wherever in the
    // slice it sits.
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

/// A speed model that steps from `before` to `after` at `epoch`.
#[derive(Clone)]
struct StepAt {
    epoch: usize,
    before: f64,
    after: f64,
}

impl s2c2_trace::SpeedModel for StepAt {
    fn speed_at(&mut self, epoch: usize) -> f64 {
        if epoch >= self.epoch {
            self.after
        } else {
            self.before
        }
    }

    fn clone_box(&self) -> BoxedSpeedModel {
        Box::new(self.clone())
    }
}

#[test]
fn speed_samples_outside_the_contract_end_the_run_typed() {
    // A zero speed would time a task at infinity, a NaN would never
    // register as a change, a negative one would charge negative compute
    // time: each is refused where the engine reads the model.
    let n = 8;
    for (speed, from) in [(0.0, 3), (f64::NAN, 3), (-1.0, 3), (0.0, 0)] {
        let mut spec = pool(n, &[]);
        spec.workers[2] = Box::new(StepAt {
            epoch: from,
            before: 1.0,
            after: speed,
        });
        let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        let engine = ServiceEngine::new(spec, cfg).unwrap();
        match engine.run(&workload(40, 2.0, n, 9)) {
            Err(ServeError::InvalidConfig(msg)) => {
                let needle = format!("worker 2's speed model returned {speed} at epoch {from}");
                assert!(msg.contains(&needle), "{msg} should say {needle}");
            }
            Err(other) => panic!("speed {speed}: expected InvalidConfig, got {other}"),
            Ok(_) => panic!("speed {speed}: the run must be refused"),
        }
    }
}

#[test]
fn epoch_tick_applies_a_change_of_any_size() {
    // 1e-17 → 2e-17 doubles the worker's speed, yet the two differ by
    // less than `f64::EPSILON`: a change is a change, not a difference
    // above a fixed absolute floor.
    let mut spec = ClusterSpec::builder(2).compute_bound().build();
    spec.workers[1] = Box::new(StepAt {
        epoch: 1,
        before: 1e-17,
        after: 2e-17,
    });
    let cfg = ServeConfig::new(SchedulerMode::ConventionalMds);
    let mut engine = ServiceEngine::new(spec, cfg).unwrap();
    // No jobs: `drive` only takes the epoch-0 samples.
    engine.drive(&[]).unwrap();
    assert_eq!(engine.speeds, [1.0, 1e-17]);
    engine.on_epoch_tick(1).unwrap();
    // Written in place: nothing is queued for the loop to pop back.
    assert_eq!(engine.speeds, [1.0, 2e-17]);
    assert!(engine.agenda.timed.is_empty());
}

#[test]
fn epoch_tick_applies_churn_in_place() {
    // Certain flips, whatever the RNG rolls: at epoch 0 both workers
    // fail and the floor revives worker 0; at epoch 1 worker 0 fails and
    // the floor revives worker 1, down the longest.
    let mut cfg = ServeConfig::new(SchedulerMode::ConventionalMds);
    cfg.churn = Some(ChurnConfig {
        p_fail: 1.0,
        p_recover: 0.0,
        min_up: 1,
    });
    cfg.telemetry = true;
    let spec = ClusterSpec::builder(2).compute_bound().build();
    let mut engine = ServiceEngine::new(spec, cfg).unwrap();
    engine.drive(&[]).unwrap();
    assert_eq!(engine.up, [true, false]);
    engine.begin_event(EPOCH).unwrap();
    engine.on_epoch_tick(1).unwrap();
    assert_eq!(engine.up, [false, true]);
    assert!(engine.agenda.timed.is_empty(), "no churn echo is queued");
    let trace = engine.telemetry.as_ref().unwrap().trace.events();
    let down = trace
        .iter()
        .find(|e| e.kind == s2c2_telemetry::TraceEventKind::WorkerDown { worker: 0 })
        .expect("the departure is traced");
    assert_eq!(down.time, EPOCH);
}

/// Forecasts 1.0 before its first observation and 0.0 after it.
#[derive(Clone)]
struct CollapsesOnce {
    observed: bool,
}

impl s2c2_predict::SpeedPredictor for CollapsesOnce {
    fn observe_and_predict(&mut self, _: f64) -> f64 {
        self.observed = true;
        0.0
    }
    fn predict_cold(&self) -> f64 {
        if self.observed {
            0.0
        } else {
            1.0
        }
    }
    fn clone_box(&self) -> s2c2_predict::BoxedPredictor {
        Box::new(self.clone())
    }
    fn reset(&mut self) {
        self.observed = false;
    }
}

#[test]
fn a_degraded_round_decodes_over_the_workers_that_are_up() {
    // Once every worker has reported, no prediction is positive, so every
    // round is planned at rung 2. It must still give each chunk to `k`
    // workers that are up, decode, and never restart.
    let n = 8;
    let predictor = PredictorSource::Prototype(Box::new(CollapsesOnce { observed: false }));
    let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 { predictor });
    let engine = ServiceEngine::new(ClusterSpec::builder(n).compute_bound().build(), cfg).unwrap();
    let stream: Vec<(f64, JobSpec)> = (0..10)
        .map(|id| (id as f64, JobPreset::small().instantiate(id, 0, n)))
        .collect();
    let report = engine.run(&stream).unwrap();
    assert_eq!(report.completed(), 10);
    let rungs = report.recovery_rung_counts;
    assert!(rungs[1] > 0, "rounds must degrade: {rungs:?}");
    assert_eq!(rungs[4], 0, "and never restart: {rungs:?}");
}

#[test]
fn shares_depend_on_weight_ratios_only() {
    // Weights in {1, 2}, then every weight scaled by 2^-1070. Both sets
    // are exact (the scaled ones subnormal), so every resident sum and
    // every share is the same number: the runs must agree bit for bit.
    let n = 12;
    let tiny = f64::MIN_POSITIVE / 2f64.powi(48);
    let stream = |scale: f64| -> Vec<(f64, JobSpec)> {
        workload(30, 4.0, n, 21)
            .into_iter()
            .map(|(t, mut spec)| {
                spec.weight = scale * if spec.id % 2 == 0 { 1.0 } else { 2.0 };
                (t, spec)
            })
            .collect()
    };
    let modes = || {
        [
            SchedulerMode::SharedS2c2 {
                predictor: PredictorSource::LastValue,
            },
            SchedulerMode::ConventionalMds,
        ]
    };
    for (unit, scaled) in modes().into_iter().zip(modes()) {
        let label = unit.to_string();
        let run = |mode, scale| {
            let engine = ServiceEngine::new(pool(n, &[2, 7]), ServeConfig::new(mode)).unwrap();
            engine.run(&stream(scale)).unwrap()
        };
        let (a, b) = (run(unit, 1.0), run(scaled, tiny));
        assert_eq!(a.completed(), 30, "{label}");
        assert!(a.rebalances > 0, "{label}: the stream must overlap");
        assert_eq!(a.events_processed, b.events_processed, "{label}");
        let finished = |r: &ServiceReport| -> Vec<(JobId, u64)> {
            r.jobs
                .iter()
                .map(|j| (j.id, j.finished.to_bits()))
                .collect()
        };
        assert_eq!(finished(&a), finished(&b), "{label}");
    }
}

#[test]
fn event_queue_holds_live_events_only() {
    // The perf harness's `sim-steady` pool and stream shape. Each round
    // in flight holds at most one entry in each of the agenda's three
    // queues (its decision, its next completion, its deadline), and the
    // timed queue one more for the epoch tick. At most `max_resident`
    // jobs hold at most `pipeline_depth` rounds each, so the queues'
    // peaks are bounded by that, not by the stream's length or by the
    // tasks in flight. Their sum bounds what all three held at once.
    let n = 16;
    let cfg = || {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.max_events = 400 * 5_000;
        cfg
    };
    let peak_of = |jobs: usize| {
        let spec = ClusterSpec::builder(n)
            .compute_bound()
            .seed(0xFEED)
            .straggler_slowdown(5.0)
            .stragglers(&[2, 7, 12], 0.2)
            .build();
        let stream = generate_workload(
            &ArrivalPattern::Poisson { rate: 2.0 },
            &JobPreset::standard_mix(),
            jobs,
            4,
            n,
            42,
        );
        let mut engine = ServiceEngine::new(spec, cfg()).unwrap();
        engine.drive(&stream).unwrap();
        assert_eq!(engine.report.jobs.len(), jobs);
        let Agenda {
            decisions,
            backlog,
            timed,
            ..
        } = &engine.agenda;
        assert!(decisions.is_empty() && backlog.is_empty() && timed.is_empty());
        decisions.peak_len() + backlog.peak_len() + timed.peak_len()
    };
    let rounds = cfg().max_resident * cfg().pipeline_depth;
    let live_bound = 3 * rounds + 1;
    // With a per-task completion queue the peaks summed to 359 and 326;
    // with arrivals pre-pushed they were at least the stream lengths,
    // 1 000 and 5 000.
    let (short, long) = (peak_of(1_000), peak_of(5_000));
    assert!(short <= live_bound, "1k-job peak {short} > {live_bound}");
    assert!(long <= live_bound, "5k-job peak {long} > {live_bound}");
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
    // Degenerate but legal: every job arrives at t = 0 asking for more
    // workers than the pool has (`k = n + 1`) and is turned away as
    // malformed, so the last resolution is at t = 0 and makespan is
    // exactly zero. The engine must drain cleanly and every report
    // metric must come back finite.
    let n = 8;
    let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    let engine = ServiceEngine::new(pool(n, &[]), cfg).unwrap();
    let w: Vec<(f64, JobSpec)> = (0..5u64)
        .map(|i| {
            let mut spec = JobPreset::large().with_deadline(1.0).instantiate(i, 0, n);
            spec.k = n + 1;
            (0.0, spec)
        })
        .collect();
    let r = engine.run(&w).unwrap();
    assert_eq!(r.failed(), 5);
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
    let run_with = |max_batch: usize| {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.max_resident = 2;
        cfg.max_batch = max_batch;
        let engine = ServiceEngine::new(pool(n, &[2]), cfg).unwrap();
        engine.run(&small_burst(12, n)).unwrap()
    };
    let off = run_with(1);
    let batched = run_with(4);
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
    let run_with = |max_batch: usize| {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.backend = BackendKind::SimVerified;
        cfg.max_resident = 1;
        cfg.max_batch = max_batch;
        let engine = ServiceEngine::new(pool(n, &[2]), cfg).unwrap();
        engine.run(&tiny_burst(6, n)).unwrap()
    };
    let off = run_with(1);
    let batched = run_with(3);
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
fn batching_survives_mid_batch_straggler_recovery() {
    // Uniform predictions on a straggler pool force the §4.3 cancel +
    // redo ladder on batch rounds; the whole batch recovers together
    // and every member still decodes and verifies.
    let n = 8;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::Uniform,
    });
    cfg.backend = BackendKind::Threaded;
    cfg.max_batch = 3;
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
    let mut cfg = ServeConfig::new(SchedulerMode::Uncoded);
    cfg.max_batch = 0;
    assert!(matches!(
        ServiceEngine::new(pool(4, &[]), cfg),
        Err(ServeError::InvalidConfig(_))
    ));
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

#[test]
fn tracing_changes_no_report_field() {
    // Tracing is observability only: with the trace taken out, the
    // traced report prints exactly as the untraced one — every field,
    // not a chosen few. Churn, uniform predictions on a straggler pool,
    // a pipeline window and batching drag the recovery ladder, parked
    // rounds and shared rounds into the comparison.
    let n = 12;
    let run_with = |telemetry: bool| {
        let mut cfg = pipelined_cfg(2, PredictorSource::Uniform);
        cfg.churn = Some(ChurnConfig {
            p_fail: 0.05,
            p_recover: 0.4,
            min_up: 10,
        });
        cfg.max_retries = 10;
        cfg.max_resident = 3;
        cfg.max_batch = 4;
        cfg.telemetry = telemetry;
        let engine = ServiceEngine::new(pool(n, &[2, 7]), cfg).unwrap();
        engine.run(&small_burst(24, n)).unwrap()
    };
    let plain = run_with(false);
    let mut traced = run_with(true);
    assert!(
        plain.recovery_rung_counts[2] > 0 && plain.recovery_rung_counts[3] > 0,
        "the scenario must reach rungs 3 and 4: {:?}",
        plain.recovery_rung_counts
    );
    assert!(plain.batches_admitted > 0, "the burst must form batches");
    assert!(plain.rounds_parked > 0, "the window must park a round");
    assert!(plain.telemetry.is_none());
    assert!(traced.telemetry.take().is_some());
    assert_eq!(format!("{traced:?}"), format!("{plain:?}"));
}

// ---- pipelined serving --------------------------------------------------

fn pipelined_cfg(depth: usize, predictor: PredictorSource) -> ServeConfig {
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 { predictor });
    cfg.pipeline_depth = depth;
    cfg
}

#[test]
fn zero_pipeline_depth_rejected_at_config() {
    let mut cfg = ServeConfig::new(SchedulerMode::ConventionalMds);
    cfg.pipeline_depth = 0;
    assert!(matches!(
        ServiceEngine::new(pool(8, &[]), cfg),
        Err(ServeError::InvalidConfig(_))
    ));
}

#[test]
fn depth_one_reproduces_the_barrier_engine_exactly() {
    // Depth 1, the default, routes through the window machinery but must
    // be the barrier engine: no round ever parks or overlaps its
    // predecessor, and no pipeline-only trace event is emitted. Uniform
    // predictions on a straggler pool drag the recovery ladder (and its
    // re-armed timeouts) into the run.
    let n = 12;
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::Uniform,
    });
    cfg.telemetry = true;
    assert_eq!(cfg.pipeline_depth, 1);
    let engine = ServiceEngine::new(pool(n, &[2, 7]), cfg).unwrap();
    let one = engine.run(&workload(15, 1.2, n, 11)).unwrap();
    assert!(one.timeouts > 0, "the scenario must exercise recovery");
    assert_eq!(one.rounds_parked, 0);
    assert_eq!(one.pipeline_overlap_time, 0.0);
    assert_eq!(one.pipeline_stall_time, 0.0);
    let trace = one.telemetry.unwrap().trace;
    assert!(
        !trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::RoundRetired { .. })),
        "RoundRetired is pipeline-only"
    );
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

use super::round::{Agenda, RunningIteration, Sinks, Tasks, SCRATCH_POOL_CAP};

/// The engine state a round writes to, standing alone.
struct Rig {
    busy: Vec<f64>,
    agenda: Agenda,
    backend: Box<dyn ExecutionBackend>,
    telemetry: Option<Telemetry>,
}

impl Rig {
    fn new(n: usize) -> Self {
        Rig {
            busy: vec![0.0; n],
            agenda: Agenda::new(),
            backend: backend::make_backend(BackendKind::Sim, n),
            telemetry: Some(Telemetry::new()),
        }
    }

    /// The sinks at real instant `now`, on a clock at unit mass that
    /// reads `now` too: V-instants and real instants coincide.
    fn sinks(&mut self, now: f64) -> Sinks<'_> {
        Sinks {
            clock: Clock::anchored(now, now, 1.0),
            busy_time: &mut self.busy,
            agenda: &mut self.agenda,
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

/// An undispatched round of weight 0.5 (share 0.5 at the rig's unit
/// mass) over the given per-worker chunk lists, `chunks` chunks per
/// partition, `k` responses needed.
fn blank_round(lists: Vec<Vec<usize>>, chunks: usize, k: usize, rhs: usize) -> RunningIteration {
    let mut tasks = Tasks::default();
    tasks.reset(lists.len(), chunks, k);
    RunningIteration {
        job: 7,
        generation: 1,
        handle: 1,
        round_index: 0,
        weight: 0.5,
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
        round.dispatch(w, 0.0, finish, 1.0, &mut sinks);
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
    let lists = round.assignment.clone();
    let mut pool = Vec::new();
    round.reclaim(&mut pool, &mut rig.agenda);
    let (mut tasks, assignment) = pool.pop().unwrap();
    assert_eq!(assignment, lists, "the assignment is pooled with its table");
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
    // A full pool drops what it cannot hold.
    for _ in 0..SCRATCH_POOL_CAP + 3 {
        blank_round(vec![vec![0]], 1, 1, 1).reclaim(&mut pool, &mut rig.agenda);
    }
    assert_eq!(pool.len(), SCRATCH_POOL_CAP);
}

#[test]
fn dispatch_refills_the_reclaimed_assignment() {
    // One job at depth 1 keeps one round in flight, so a single pooled
    // pair of buffers circulates: every dispatch pops it and refills
    // the assignment's lists in place, every retirement hands it back.
    let n = 8;
    let spec = JobPreset::small().instantiate(0, 0, n);
    let iterations = spec.iterations;
    let mut engine = ServiceEngine::new(
        pool(n, &[2]),
        ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        }),
    )
    .unwrap();
    let seeded = s2c2_core::ChunkAssignment {
        chunks: (0..n).map(|_| Vec::with_capacity(64)).collect(),
        chunks_per_partition: 0,
        k: 0,
    };
    let held = |a: &s2c2_core::ChunkAssignment| -> Vec<(*const usize, usize)> {
        a.chunks
            .iter()
            .map(|l| (l.as_ptr(), l.capacity()))
            .collect()
    };
    let (outer, lists) = (seeded.chunks.as_ptr(), held(&seeded));
    engine.scratch.push((Tasks::default(), seeded));
    engine.drive(&[(0.0, spec)]).unwrap();
    assert_eq!(engine.report.completed(), 1);
    assert_eq!(engine.report.scratch_reuses, iterations as u64);
    let [(_, assignment)] = engine.scratch.as_slice() else {
        panic!("one pooled pair, got {}", engine.scratch.len());
    };
    assert_eq!(assignment.chunks.as_ptr(), outer);
    assert_eq!(held(assignment), lists, "no list was reallocated");
    assert!(assignment.is_decodable(), "it holds the last round's plan");
    assert!(assignment.total_slots() > 0);
}

#[test]
fn coverage_tally_equals_the_definitional_scan_after_every_op() {
    let (n, chunks) = (6, 5);
    let mut scratch = super::round::DecodeScratch::default();
    // What the sequences reached, over all seeds: the tally is only
    // tested where the ops actually went.
    let (mut completed, mut reopened, mut merged_open, mut doomed) = (0, 0, 0, 0);
    let mut decided = 0;
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
            match rng.gen_range(0..8) {
                0 | 1 if !dispatched[w] => {
                    dispatched[w] = true;
                    let finish = now + rng.gen_range(0.1..3.0);
                    round.dispatch(w, now, finish, 1.0, &mut sinks);
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
            let scanned = (0..n)
                .map(|w| round.latest_open_finish(w))
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(
                round.latest_open().to_bits(),
                scanned.to_bits(),
                "seed {seed}"
            );
            // The agenda entries: the next decision and the next
            // completion, by their definitions.
            round.schedule(&mut rig.agenda);
            let entry = |q: &crate::event::KeyedQueue| q.peek().map(|(v, seq, _)| (v, seq));
            let decision = round.decision_by_scan();
            assert_eq!(entry(&rig.agenda.decisions), decision, "seed {seed}");
            assert_eq!(
                entry(&rig.agenda.backlog),
                round.next_by_scan(),
                "seed {seed}"
            );
            decided += usize::from(decision.is_some());
            completed += usize::from(round.complete());
            doomed += usize::from(round.doomed());
        }
    }
    assert!(completed > 0 && doomed > 0, "{completed} {doomed}");
    assert!(decided > 0, "a decision must be pending somewhere");
    assert!(reopened > 0, "a redo must merge onto a done one");
    assert!(merged_open > 0, "and onto a pending one");
}

// ---- the virtual clock ---------------------------------------------------

#[test]
fn a_resident_set_change_pushes_nothing_unless_it_rearms() {
    // One MDS round in flight on a homogeneous pool; its deadline sits
    // 1.25× its span out. Neighbours join without rounds of their own,
    // so every change below would come from the rebalance itself.
    let n = 4;
    let pool = ClusterSpec::builder(n).compute_bound().build();
    let cfg = ServeConfig::new(SchedulerMode::ConventionalMds);
    let mut engine = ServiceEngine::new(pool, cfg).unwrap();
    let spec = JobPreset::small().instantiate(0, 0, n);
    engine.drive(&[]).unwrap();
    engine.arrivals_remaining = 1;
    engine.on_arrival(&spec).unwrap();
    // `(decisions, next completions, timed)`: lengths and heads.
    let state = |e: &ServiceEngine| {
        let a = &e.agenda;
        let lens = (a.decisions.len(), a.backlog.len(), a.timed.len());
        (lens, a.decisions.peek(), a.backlog.peek(), a.timed.peek())
    };
    let dispatched = state(&engine);
    assert_eq!(dispatched.0, (1, 1, 1), "one round entry and one deadline");
    let mut join = |id: JobId, weight: f64| {
        let member = QueuedJob {
            spec: JobPreset::small().with_weight(weight).instantiate(id, 0, n),
            arrival: 0.0,
        };
        let neighbour = ResidentJob {
            weight,
            members: vec![member],
            admitted: 0.0,
            iterations_done: 0,
            window: Vec::new(),
            stalled_rounds: Vec::new(),
            iterations_dispatched: 0,
            last_retire_end: 0.0,
            iter_retries: 0,
            total_retries: 0,
        };
        engine.resident.insert(id, neighbour);
        engine.rebalance_shares();
        state(&engine)
    };
    // Mass 1 → 1.1: every open task stretches 1.1×, inside the margin.
    assert_eq!(join(1, 0.1), dispatched);
    // Mass 1.1 → 2.1: past the deadline, which alone moves, in place.
    let rearmed = join(2, 1.0);
    assert_eq!(rearmed.0, (1, 1, 1));
    assert_eq!((rearmed.1, rearmed.2), (dispatched.1, dispatched.2));
    let deadline = |s: &(_, _, _, Option<(f64, u64, usize)>)| s.3.unwrap().0;
    assert!(deadline(&rearmed) > deadline(&dispatched));
    assert_eq!(engine.report.rebalances, 2);
}

#[test]
fn a_completed_round_leaves_nothing_queued() {
    // One job of one round. Run the loop under a growing event budget
    // until the budget first lets the round complete: the run then stops
    // at the next event, with the state the round's completion left.
    let n = 8;
    let spec = JobPreset {
        iterations: 1,
        ..JobPreset::small()
    }
    .instantiate(0, 0, n);
    let cfg = |max_events| {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.max_events = max_events;
        cfg
    };
    for budget in 1..100 {
        let mut engine = ServiceEngine::new(pool(n, &[2]), cfg(budget)).unwrap();
        let outcome = engine.drive(&[(0.0, spec.clone())]);
        assert!(matches!(outcome, Err(ServeError::Runaway { .. })));
        if engine.report.jobs.is_empty() {
            continue;
        }
        // The round's decision, deadline and open tasks are gone; only
        // the tick the run was stopped at is left.
        let agenda = &engine.agenda;
        assert!(agenda.decisions.is_empty(), "budget {budget}");
        assert!(agenda.backlog.is_empty(), "budget {budget}");
        assert_eq!(agenda.timed.len(), 1, "budget {budget}");
        assert_eq!(agenda.timed.peek().map(|(.., h)| h), Some(TICK));
        return;
    }
    panic!("the round never completed");
}

#[test]
fn an_arrival_between_two_completions_plans_on_the_earlier_only() {
    // Job B arrives between two task completions of job A's first round.
    // Every completion before B's arrival must have reached the shared
    // speed tracker before B is planned, and none after it.
    let n = 8;
    let pool = || {
        ClusterSpec::builder(n)
            .compute_bound()
            .seed(0xFEED)
            .straggler_slowdown(3.0)
            .stragglers(&[1, 5], 0.3)
            .build()
    };
    let cfg = || {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.telemetry = true;
        cfg
    };
    let a = JobPreset::large().instantiate(0, 0, n);
    let (k, chunks, cols) = (a.k, a.chunks_per_partition, a.cols);
    let rpc = a.rows.div_ceil(k).div_ceil(chunks);
    // A's own run: what its first round dispatched and when each task
    // completed. A alone at weight 1 runs the clock at unit mass from 0,
    // so a task's completion instant is also its V-instant and its
    // dedicated time.
    let solo = ServiceEngine::new(pool(), cfg())
        .unwrap()
        .run(&[(0.0, a.clone())])
        .unwrap();
    let trace = solo.telemetry.as_ref().unwrap().trace.events();
    let mut held = vec![0; n];
    let mut done: Vec<(f64, usize)> = Vec::new();
    for e in trace {
        match e.kind {
            TraceEventKind::TaskDispatch {
                generation: 1,
                worker,
                chunks,
                redo: false,
                ..
            } => held[worker] = chunks,
            TraceEventKind::TaskComplete {
                generation: 1,
                worker,
                redo: false,
                ..
            } => done.push((e.time, worker)),
            _ => {}
        }
    }
    // Algorithm 1 on the predictions after A's first `m` completions.
    let plan = |m: usize| -> Vec<usize> {
        let mut tracker = SpeedTracker::new(&PredictorSource::LastValue, n);
        for &(t, w) in &done[..m] {
            tracker.observe_one(w, ((held[w] * rpc) * cols) as f64 / t);
        }
        let speeds = tracker.predictions_for(&vec![1.0; n]).to_vec();
        let assignment = s2c2_core::allocate_chunks(&speeds, k, chunks).unwrap();
        assignment.chunks.iter().map(Vec::len).collect()
    };
    // A gap between completions `m` and `m + 1` that no epoch tick
    // falls in, where the two plans differ: B's arrival is what must
    // apply completion `m`.
    let m = (1..done.len() - 1)
        .find(|&m| {
            let (early, late) = (done[m - 1].0, done[m].0);
            let tick_between = (early / EPOCH).floor() != (late / EPOCH).floor();
            early < late && !tick_between && plan(m) != plan(m - 1) && plan(m) != plan(m + 1)
        })
        .expect("a gap where one completion changes the plan");
    let at = 0.5 * (done[m - 1].0 + done[m].0);
    let b = JobPreset::large().instantiate(1, 0, n);
    let both = ServiceEngine::new(pool(), cfg())
        .unwrap()
        .run(&[(0.0, a), (at, b)])
        .unwrap();
    let mut planned = vec![0; n];
    for e in both.telemetry.as_ref().unwrap().trace.events() {
        if let TraceEventKind::TaskDispatch {
            job: 1,
            generation: 2,
            worker,
            chunks,
            ..
        } = e.kind
        {
            assert_eq!(e.time, at, "B's first round is planned at its arrival");
            planned[worker] = chunks;
        }
    }
    assert_eq!(planned, plan(m));
}

#[test]
fn a_departure_halfway_through_a_task_finishes_it_in_closed_form() {
    // Uncoded one-round jobs on a homogeneous pool with free transfers
    // (no decode time, and every span is compute, which the share
    // stretches): A alone takes x_a, B alone x_b = 2 x_a. Together from
    // t = 0 each holds half the pool, so A finishes at 2 x_a, when B has
    // done x_a of its x_b, half; alone again, B needs x_b − x_a more.
    // So B finishes at x_a + x_b, and A's departure moves no event.
    let n = 4;
    let one_round = |rows: usize| JobPreset {
        rows,
        iterations: 1,
        ..JobPreset::small()
    };
    let (a, b) = (one_round(600), one_round(1_200));
    let run = |jobs: &[JobPreset]| {
        let pool = ClusterSpec::builder(n)
            .compute_bound()
            .comm(CommModel::new(f64::INFINITY, 0.0))
            .build();
        let engine = ServiceEngine::new(pool, ServeConfig::new(SchedulerMode::Uncoded)).unwrap();
        let workload: Vec<(f64, JobSpec)> = (0..)
            .zip(jobs)
            .map(|(id, preset)| (0.0, preset.instantiate(id, 0, n)))
            .collect();
        let report = engine.run(&workload).unwrap();
        report
            .jobs
            .iter()
            .map(|j| (j.id, j.finished))
            .collect::<Vec<_>>()
    };
    let (x_a, x_b) = (run(&[a])[0].1, run(&[b])[0].1);
    assert_eq!(x_b, 2.0 * x_a);
    let both = run(&[a, b]);
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want;
    assert_eq!(both[0].0, 0);
    assert!(
        close(both[0].1, 2.0 * x_a),
        "A at {} vs {}",
        both[0].1,
        2.0 * x_a
    );
    assert_eq!(both[1].0, 1);
    assert!(
        close(both[1].1, x_a + x_b),
        "B at {} vs {}",
        both[1].1,
        x_a + x_b
    );
}
