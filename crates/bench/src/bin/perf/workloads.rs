//! The four workloads: set-up, the timed section, the traced pass and
//! the correctness gates of each.
//!
//! Every input — pool, arrival stream, dataset, speed traces — is
//! generated here from the run's seed; the program under test receives
//! only generated inputs. The serve workloads are open-loop Poisson
//! streams in *virtual* time, generated up front by this single thread;
//! in host time the engine runs the whole stream to completion, so the
//! host metrics are work completed per second at the stated input size.

use crate::catalog::{LOGREG, SIM_STEADY, SIM_VOLATILE, THREADED};
use crate::replay::Replays;
use crate::spans::Recorder;
use crate::stats::{highest_percentile, peak_rss_mb, sorted, timed, Fnv, Summary};
use s2c2_cluster::ClusterSpec;
use s2c2_coding::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_predict::lstm::{train, LstmConfig};
use s2c2_serve::{
    generate_workload, percentile, ArrivalPattern, BackendKind, ChurnConfig, JobPreset, JobSpec,
    SchedulerMode, ServeConfig, ServeError, ServiceEngine, ServiceReport, TraceEventKind,
};
use s2c2_telemetry::export;
use s2c2_trace::{CloudTraceConfig, TraceSet};
use s2c2_workloads::datasets::gisette_like;
use s2c2_workloads::exec::ExecConfig;
use s2c2_workloads::logreg::DistributedLogReg;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Its bit in [`crate::catalog::MetricDef::on`].
    pub bit: u8,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim-steady",
        why: "Sim backend, controlled 16-worker pool, 40k Poisson jobs: the event loop, \
              Algorithm 1 and admission on the happy path; no numerics, recovery idle",
        bit: SIM_STEADY,
    },
    Workload {
        name: "sim-volatile",
        why: "Sim backend, volatile cloud pool with churn, 30k jobs: the same engine spending \
              its time in timeout, redo, wait-out, restart and share rebalancing",
        bit: SIM_VOLATILE,
    },
    Workload {
        name: "threaded-numeric",
        why: "Threaded backend, 8 OS-thread workers, 3k jobs on real matrices: in-cache kernels, \
              per-round decode, encode-cache hits, submit/collect; event loop a minority",
        bit: THREADED,
    },
    Workload {
        name: "paper-logreg",
        why: "The paper's experiment on the single-job path: (50,40)-coded logistic regression, \
              MDS then S2C2 with an LSTM predictor, 80 MB matrix; bypasses s2c2-serve",
        bit: LOGREG,
    },
];

/// How one `measure` invocation was asked to run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Seconds to keep taking repetitions for (after the warm-up).
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the untraced runs.
    pub trace: bool,
    /// Smoke mode: 1/20 sizes, one repetition, replays at 0.02 s.
    pub quick: bool,
}

/// What one `measure` invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics that apply to the workload, in report order.
    pub metrics: Vec<(&'static str, Summary)>,
    /// FNV-1a over the run's virtual results; equal seeds must give
    /// equal digests whatever the host's speed. `None` if no run ended.
    pub digest: Option<u64>,
    /// Units of work submitted in the timed sections.
    pub attempted: u64,
    /// Units that failed, were rejected or could not be verified.
    pub failed: u64,
    /// Correctness gates that did not hold (empty = correct).
    pub gate_failures: Vec<String>,
    /// One-line description of the sizes that ran.
    pub sizes: String,
}

impl Outcome {
    fn put(&mut self, name: &'static str, s: Summary) {
        self.metrics.push((name, s));
    }

    /// The end-to-end metrics, from the repetitions' samples.
    fn put_end_to_end(&mut self, setup_s: &[f64], wall_s: &[f64], units_per_s: &[f64]) {
        self.put("setup_s", Summary::of(setup_s));
        self.put("wall_s", Summary::of(wall_s));
        self.put("units_per_s", Summary::of(units_per_s));
        if let Some(mb) = peak_rss_mb() {
            self.put("peak_rss_mb", Summary::single(mb));
        }
    }

    fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.gate_failures.push(what());
        }
    }

    /// Records one run's digest; the runs of one process must agree.
    fn put_digest(&mut self, digest: u64) {
        let first = *self.digest.get_or_insert(digest);
        self.gate(first == digest, || {
            format!("runs disagree: digest {digest:#x} after {first:#x}")
        });
    }
}

/// A distinct seed per purpose, all derived from the run's `--seed`.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Takes repetitions until at least `min` were taken and `seconds`
/// have passed since the first began.
fn repeat(opts: &Opts, mut rep: impl FnMut()) {
    let min = if opts.quick { 1 } else { 3 };
    let start = Instant::now();
    let mut taken = 0;
    while taken < min || start.elapsed().as_secs_f64() < opts.seconds {
        rep();
        taken += 1;
    }
}

pub fn measure(w: &Workload, opts: &Opts, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    if w.bit == LOGREG {
        let size = LogregSize::of(opts.quick);
        if opts.trace {
            logreg_traced(size, opts, rec, &mut out);
        } else {
            logreg_untraced(size, opts, rec, &mut out);
        }
    } else {
        let case = ServeCase::of(w.bit, opts.quick);
        if opts.trace {
            serve_traced(&case, opts, rec, &mut out);
        } else {
            serve_untraced(&case, opts, rec, &mut out);
        }
    }
    if opts.trace {
        Replays {
            bit: w.bit,
            seed: opts.seed,
            budget_s: if opts.quick { 0.02 } else { 0.2 },
            logreg: LogregSize::of(opts.quick),
            rec,
            out: &mut out.metrics,
        }
        .run();
    }
    out
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

enum Pool {
    /// §7.1 controlled cluster: `stragglers` workers 5× slow, the rest
    /// spread over 20 % static heterogeneity.
    Controlled { stragglers: usize },
    /// §7.2 cloud cluster on the volatile trace preset.
    VolatileCloud,
}

struct ServeCase {
    workers: usize,
    pool: Pool,
    churn: Option<ChurnConfig>,
    backend: BackendKind,
    /// Poisson arrival rate in jobs per virtual second.
    rate: f64,
    jobs: usize,
}

impl ServeCase {
    fn of(bit: u8, quick: bool) -> ServeCase {
        let mut case = match bit {
            SIM_STEADY => ServeCase {
                workers: 16,
                pool: Pool::Controlled { stragglers: 3 },
                churn: None,
                backend: BackendKind::Sim,
                rate: 2.0,
                jobs: 40_000,
            },
            SIM_VOLATILE => ServeCase {
                workers: 16,
                pool: Pool::VolatileCloud,
                churn: Some(ChurnConfig {
                    p_fail: 0.02,
                    p_recover: 0.5,
                    min_up: 13,
                }),
                backend: BackendKind::Sim,
                rate: 1.0,
                jobs: 30_000,
            },
            THREADED => ServeCase {
                workers: 8,
                pool: Pool::Controlled { stragglers: 1 },
                churn: None,
                backend: BackendKind::Threaded,
                rate: 1.0,
                jobs: 3_000,
            },
            other => unreachable!("no serve workload has bit {other}"),
        };
        if quick {
            case.jobs /= 20;
        }
        case
    }

    fn pool(&self, seed: u64) -> ClusterSpec {
        let builder = ClusterSpec::builder(self.workers)
            .compute_bound()
            .seed(sub_seed(seed, 1));
        match self.pool {
            Pool::Controlled { stragglers } => {
                // Spread, not clustered at 0, as random placement would.
                let ids: Vec<usize> = (0..stragglers)
                    .map(|i| (i * 5 + 2) % self.workers)
                    .collect();
                builder
                    .straggler_slowdown(5.0)
                    .stragglers(&ids, 0.2)
                    .build()
            }
            Pool::VolatileCloud => builder.cloud(&CloudTraceConfig::volatile()).build(),
        }
    }

    fn stream(&self, jobs: usize, seed: u64) -> Vec<(f64, JobSpec)> {
        generate_workload(
            &ArrivalPattern::Poisson { rate: self.rate },
            &JobPreset::standard_mix(),
            jobs,
            4,
            self.workers,
            sub_seed(seed, 2),
        )
    }

    fn config(&self, jobs: usize, backend: BackendKind, telemetry: bool) -> ServeConfig {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.backend = backend;
        cfg.churn = self.churn;
        cfg.telemetry = telemetry;
        // The default budget of 2 M events is below what an honest
        // 10 000-job stream needs (≈ 250 events per job measured), and
        // would end every workload here in `ServeError::Runaway`.
        cfg.max_events = 400 * jobs as u64;
        // With the default of 3 restarts, about one job in 10^5 on the
        // volatile pool meets a fourth churn storm in one round and
        // fails; which seeds have one is luck. No operation of a
        // benchmark workload should fail for luck.
        cfg.max_retries = 16;
        cfg
    }
}

/// Set-up samples behind `setup_s` on the serve workloads.
const SETUP_SAMPLES: usize = 30;

/// One set-up plus run-to-completion of a stream.
struct ServeRun {
    setup_s: f64,
    wall_s: f64,
    jobs: usize,
    /// Σ iterations over the submitted jobs.
    rounds: usize,
    result: Result<ServiceReport, ServeError>,
}

/// Builds the pool, the arrival stream and the engine; returns the
/// seconds that took.
fn serve_setup(
    case: &ServeCase,
    seed: u64,
    jobs: usize,
    backend: BackendKind,
    telemetry: bool,
    rec: &mut Recorder,
) -> (f64, Result<ServiceEngine, ServeError>, Vec<(f64, JobSpec)>) {
    let (setup_s, (engine, stream)) = timed(|| {
        rec.span("setup", |rec| {
            let pool = rec.span("setup.pool", |_| case.pool(seed));
            let stream = rec.span("setup.workload", |_| case.stream(jobs, seed));
            let engine = rec.span("setup.engine_new", |_| {
                ServiceEngine::new(pool, case.config(jobs, backend, telemetry))
            });
            (engine, stream)
        })
    });
    (setup_s, engine, stream)
}

fn serve_run(
    case: &ServeCase,
    seed: u64,
    jobs: usize,
    backend: BackendKind,
    telemetry: bool,
    rec: &mut Recorder,
) -> ServeRun {
    let (setup_s, engine, stream) = serve_setup(case, seed, jobs, backend, telemetry, rec);
    let rounds = stream.iter().map(|(_, spec)| spec.iterations).sum();
    let (wall_s, result) = match engine {
        Ok(engine) => timed(|| rec.span("engine.run", |_| engine.run(&stream))),
        Err(e) => (0.0, Err(e)),
    };
    ServeRun {
        setup_s,
        wall_s,
        jobs,
        rounds,
        result,
    }
}

/// FNV-1a over every job's completion instant, in completion order.
fn serve_digest(report: &ServiceReport) -> u64 {
    let mut h = Fnv::new();
    for job in &report.jobs {
        h.word(job.finished.to_bits());
    }
    h.finish()
}

/// Applies the per-run gates and returns the run's failed-job count.
fn serve_gates(case: &ServeCase, run: &ServeRun, out: &mut Outcome) -> u64 {
    let report = match &run.result {
        Ok(report) => report,
        // A typed engine error (`Runaway`, `Backend`, ...) fails every
        // job of the run rather than the harness.
        Err(e) => {
            out.gate(false, || format!("engine error: {e}"));
            return run.jobs as u64;
        }
    };
    let completed = report.completed();
    out.gate(completed == run.jobs, || {
        format!("{completed} of {} submitted jobs completed", run.jobs)
    });
    if case.backend != BackendKind::Sim {
        out.gate(report.verified_iterations == run.rounds, || {
            format!(
                "{} of {} iterations verified",
                report.verified_iterations, run.rounds
            )
        });
        out.gate(report.max_decode_error <= 1e-9, || {
            format!("max decode error {:e} > 1e-9", report.max_decode_error)
        });
    }
    (run.jobs - completed) as u64
}

fn serve_untraced(case: &ServeCase, opts: &Opts, rec: &mut Recorder, out: &mut Outcome) {
    out.sizes = format!(
        "{} jobs at {} /vs on {} workers, backend {}",
        case.jobs, case.rate, case.workers, case.backend
    );
    // Discarded warm-up at a quarter of the size: first-touch page
    // faults and lazy allocator growth are not what a repetition costs.
    let warm = serve_run(
        case,
        opts.seed,
        (case.jobs / 4).max(1),
        case.backend,
        false,
        rec,
    );
    out.gate(warm.result.is_ok(), || "warm-up run failed".to_string());

    let (mut setup, mut wall, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    repeat(opts, || {
        let run = serve_run(case, opts.seed, case.jobs, case.backend, false, rec);
        out.attempted += run.jobs as u64;
        out.failed += serve_gates(case, &run, out);
        setup.push(run.setup_s);
        wall.push(run.wall_s);
        if let Ok(report) = &run.result {
            rate.push(report.completed() as f64 / run.wall_s);
            out.put_digest(serve_digest(report));
        }
    });

    let Some(digest) = out.digest else {
        return;
    };
    // Set-up takes milliseconds here, too little for the median of a
    // handful of repetitions to be steady, and little enough to repeat.
    for _ in setup.len()..SETUP_SAMPLES {
        let (setup_s, engine, _stream) =
            serve_setup(case, opts.seed, case.jobs, case.backend, false, rec);
        setup.push(setup_s);
        if let Ok(engine) = engine {
            // An empty run returns at once and joins the backend's threads.
            let _ = engine.run(&[]);
        }
    }
    if case.backend != BackendKind::Sim {
        // The cross-backend invariant: the timing-only backend decides
        // the same schedule for the same stream, to the last bit.
        let sim = serve_run(case, opts.seed, case.jobs, BackendKind::Sim, false, rec);
        let sim_digest = sim.result.as_ref().map(serve_digest).ok();
        out.gate(sim_digest == Some(digest), || {
            format!("Sim replay digest {sim_digest:x?} differs from {digest:#x}")
        });
    }
    out.put_end_to_end(&setup, &wall, &rate);
}

fn serve_traced(case: &ServeCase, opts: &Opts, rec: &mut Recorder, out: &mut Outcome) {
    out.sizes = format!(
        "{} jobs, then {} jobs with engine telemetry off and on",
        case.jobs,
        (case.jobs / 4).max(1)
    );
    let run = serve_run(case, opts.seed, case.jobs, case.backend, false, rec);
    out.attempted = run.jobs as u64;
    out.failed = serve_gates(case, &run, out);
    out.put(
        "failed_ratio",
        Summary::single(out.failed as f64 / run.jobs as f64),
    );
    out.put("harness.traced_wall_s", Summary::single(run.wall_s));
    let Ok(r) = &run.result else {
        return;
    };
    out.put_digest(serve_digest(r));
    let one = Summary::single;
    let events = r.events_processed as f64;
    out.gate(
        opts.quick || highest_percentile(r.completed()) >= Some(99.0),
        || format!("{} jobs are too few to report a p99", r.completed()),
    );
    out.put("sojourn_p50_vs", one(r.latency_percentile(50.0)));
    out.put("sojourn_p99_vs", one(r.latency_percentile(99.0)));
    out.put("events_per_s", one(events / run.wall_s));
    out.put("serve.engine.events", one(events));
    out.put("serve.engine.events_per_job", one(events / run.jobs as f64));
    out.put("serve.engine.ns_per_event", one(run.wall_s * 1e9 / events));
    // The run span minus the numeric phases the report already times:
    // what is left is the event loop plus the hand-off to the backend.
    // (`compute` is worker-thread busy time, which on a multi-core host
    // overlaps the loop, so on `threaded-numeric` this is a floor.)
    let pw = &r.phase_wall;
    let numeric = [pw.encode, pw.compute, pw.decode, pw.verify];
    out.put(
        "serve.engine.self_s",
        one(run.wall_s - numeric.iter().sum::<f64>()),
    );
    for (name, s) in [
        "serve.backend.encode_s",
        "serve.backend.compute_s",
        "serve.backend.decode_s",
        "serve.backend.verify_s",
    ]
    .into_iter()
    .zip(numeric)
    {
        out.put(name, one(s));
    }
    out.put(
        "serve.backend.verified_iterations",
        one(r.verified_iterations as f64),
    );
    out.put("serve.backend.max_decode_err", one(r.max_decode_error));
    out.put("serve.recovery.timeouts", one(r.timeouts as f64));
    let rungs = r.recovery_rung_counts;
    for (name, count) in [
        "serve.recovery.rung_1",
        "serve.recovery.rung_2",
        "serve.recovery.rung_3",
        "serve.recovery.rung_4",
        "serve.recovery.rung_5",
    ]
    .into_iter()
    .zip(rungs)
    {
        out.put(name, one(count as f64));
    }
    // Rounds that needed no recovery over rounds attempted.
    let attempts: u64 = rungs.iter().sum();
    out.put(
        "serve.recovery.useful_ratio",
        one(rungs[0] as f64 / attempts.max(1) as f64),
    );
    out.put("serve.rebalance.count", one(r.rebalances as f64));
    out.put(
        "serve.engine.degraded_iterations",
        one(r.degraded_iterations as f64),
    );
    out.put("serve.engine.scratch_reuses", one(r.scratch_reuses as f64));
    out.put("serve.engine.utilization_v", one(r.utilization()));
    out.put("serve.engine.mean_queue_depth_v", one(r.mean_queue_depth()));
    out.put(
        "serve.engine.max_queue_depth",
        one(r.max_queue_depth() as f64),
    );
    if case.backend == BackendKind::Threaded {
        out.put("coding.cache.hits", one(r.encode_cache_hits as f64));
        out.put("coding.cache.misses", one(r.encode_cache_misses as f64));
        out.put("coding.cache.hit_ratio", one(r.encode_cache_hit_rate()));
        // Measured worker-busy seconds per modelled compute second. The
        // model has never been validated against hardware, so this is
        // reported, not bounded.
        out.put(
            "cluster.threaded.model_wall_ratio",
            one(pw.compute / r.phase_virtual.compute),
        );
    }
    serve_telemetry_cost(case, opts, rec, out);
}

/// The cost of watching: the same quarter-size stream with engine
/// telemetry off and on, twice. (2.5 M trace events per 10 000 jobs sit
/// in an unbounded `Vec`, so the full size does not fit.)
fn serve_telemetry_cost(case: &ServeCase, opts: &Opts, rec: &mut Recorder, out: &mut Outcome) {
    let jobs = (case.jobs / 4).max(1);
    let mut run = |telemetry: bool| serve_run(case, opts.seed, jobs, case.backend, telemetry, rec);
    // Two alternating pairs, so a drift of the host's speed during the
    // comparison does not read as a cost of telemetry. Only the first
    // pair's reports are kept: a traced report is hundreds of MB.
    let (off, on) = (run(false), run(true));
    let (off2_s, on2_s) = (run(false).wall_s, run(true).wall_s);
    let wall_ratio = (on.wall_s + on2_s) / (off.wall_s + off2_s);
    let (Ok(off_report), Ok(on_report)) = (&off.result, &on.result) else {
        out.gate(false, || "telemetry comparison run failed".to_string());
        return;
    };
    out.gate(serve_digest(off_report) == serve_digest(on_report), || {
        "engine telemetry changed the schedule".to_string()
    });
    let Some(telemetry) = &on_report.telemetry else {
        out.gate(false, || {
            "telemetry was on but the report carries none".to_string()
        });
        return;
    };
    let events = telemetry.trace.events();
    let count = |pred: fn(&TraceEventKind) -> bool| -> f64 {
        events.iter().filter(|e| pred(&e.kind)).count() as f64
    };
    let dispatched = count(|k| matches!(k, TraceEventKind::TaskDispatch { .. }));
    let cancelled = count(|k| matches!(k, TraceEventKind::TaskCancel { .. }));
    let one = Summary::single;
    out.put(
        "serve.engine.cancel_ratio",
        one(cancelled / dispatched.max(1.0)),
    );
    out.put("telemetry.wall_ratio", one(wall_ratio));
    out.put("telemetry.trace_events", one(events.len() as f64));
    out.put(
        "telemetry.events_per_job",
        one(events.len() as f64 / jobs as f64),
    );
    out.put("telemetry.task_dispatch", one(dispatched));
    out.put(
        "telemetry.task_complete",
        one(count(|k| matches!(k, TraceEventKind::TaskComplete { .. }))),
    );
    out.put("telemetry.task_cancel", one(cancelled));
    // A bounded prefix: the export rate does not depend on the length,
    // and the whole stream as one string would not fit beside it.
    let prefix = &events[..events.len().min(200_000)];
    let (export_s, text) = rec.span("telemetry.export_jsonl", |_| {
        timed(|| export::jsonl(prefix))
    });
    out.put(
        "telemetry.jsonl_mb_per_s",
        one(text.len() as f64 / 1e6 / export_s),
    );
}

// ---------------------------------------------------------------------
// paper-logreg
// ---------------------------------------------------------------------

/// Sizes of the paper experiment.
#[derive(Debug, Clone, Copy)]
pub struct LogregSize {
    pub rows: usize,
    pub cols: usize,
    /// Gradient-descent steps per strategy.
    pub steps: usize,
}

impl LogregSize {
    pub fn of(quick: bool) -> LogregSize {
        if quick {
            LogregSize {
                rows: 2_000,
                cols: 200,
                steps: 4,
            }
        } else {
            // 80 MB of features, far beyond the last-level cache.
            LogregSize {
                rows: 10_000,
                cols: 1_000,
                steps: 35,
            }
        }
    }

    fn quarter(self) -> LogregSize {
        LogregSize {
            rows: self.rows / 4,
            cols: self.cols,
            steps: (self.steps / 4).max(1),
        }
    }
}

/// The speed series the paper's LSTM is trained on: 20 nodes, 160
/// samples each, drawn from the deployment's trace preset.
pub fn lstm_training_series(preset: &CloudTraceConfig, seed: u64) -> Vec<Vec<f64>> {
    TraceSet::generate(preset, 20, 160, sub_seed(seed, 3))
        .traces()
        .iter()
        .map(|t| t.samples().to_vec())
        .collect()
}

/// Both trainers of one repetition, ready to step.
struct LogregSetup {
    mds: DistributedLogReg,
    s2c2: DistributedLogReg,
}

fn logreg_setup(
    size: LogregSize,
    seed: u64,
    rec: &mut Recorder,
) -> Result<LogregSetup, s2c2_core::S2c2Error> {
    rec.span("setup", |rec| {
        let volatile = CloudTraceConfig::volatile();
        let data = rec.span("setup.dataset", |_| {
            gisette_like(size.rows, size.cols, sub_seed(seed, 4))
        });
        let lstm = rec.span("setup.lstm_train", |_| {
            let series = lstm_training_series(&volatile, seed);
            let refs: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
            let cfg = LstmConfig {
                epochs: 20,
                ..LstmConfig::default()
            };
            PredictorSource::Prototype(Box::new(train(&cfg, &refs).online()))
        });
        let mut trainer = |kind: StrategyKind, predictor: PredictorSource| {
            let pool = ClusterSpec::builder(50)
                .compute_bound()
                .seed(sub_seed(seed, 5))
                .cloud(&volatile)
                .build();
            let cfg = ExecConfig::new(MdsParams::new(50, 40), pool)
                .strategy(kind)
                .predictor(predictor)
                .chunks_per_worker(12);
            // Encodes A and Aᵀ under the (50, 40) code.
            rec.span("logreg.new", |_| {
                DistributedLogReg::new(&data, &cfg, 0.5, 1e-4)
            })
        };
        Ok(LogregSetup {
            mds: trainer(StrategyKind::MdsCoded, PredictorSource::LastValue)?,
            s2c2: trainer(StrategyKind::S2c2General, lstm)?,
        })
    })
}

/// What one strategy's trainer did over its steps.
#[derive(Debug, Default)]
struct Training {
    initial_loss: f64,
    /// Virtual latency of each step (both coded rounds).
    latencies: Vec<f64>,
    losses: Vec<f64>,
    errors: u64,
}

impl Training {
    fn virtual_total(&self) -> f64 {
        self.latencies.iter().sum()
    }
}

fn train_steps(lr: &mut DistributedLogReg, steps: usize, rec: &mut Recorder, t: &mut Training) {
    for _ in 0..steps {
        match rec.span("logreg.step", |_| lr.step()) {
            Ok(report) => {
                t.latencies.push(report.latency);
                t.losses.push(report.loss);
            }
            Err(_) => t.errors += 1,
        }
    }
}

fn new_training(lr: &DistributedLogReg) -> Training {
    Training {
        initial_loss: lr.loss(),
        ..Training::default()
    }
}

fn logreg_digest(mds: &Training, s2c2: &Training) -> u64 {
    let mut h = Fnv::new();
    for series in [&mds.latencies, &mds.losses, &s2c2.latencies, &s2c2.losses] {
        series.iter().for_each(|v| h.word(v.to_bits()));
    }
    h.finish()
}

/// The two strategies decode the same products from different worker
/// subsets; the model they train must not depend on which.
fn logreg_gates(mds: &Training, s2c2: &Training, out: &mut Outcome) {
    out.gate(mds.errors + s2c2.errors == 0, || {
        format!("{} steps returned an error", mds.errors + s2c2.errors)
    });
    // Not bit-equal: each decode solves for the systematic blocks its
    // responders lacked, so round-off differs in the last places.
    let apart = mds
        .losses
        .iter()
        .zip(&s2c2.losses)
        .map(|(a, b)| (a - b).abs() / a.abs())
        .fold(0.0, f64::max);
    out.gate(
        mds.losses.len() == s2c2.losses.len() && apart <= 1e-9,
        || format!("MDS and S2C2 losses differ by {apart:e} (relative)"),
    );
    for (name, t) in [("MDS", mds), ("S2C2", s2c2)] {
        let last = t.losses.last().copied().unwrap_or(f64::INFINITY);
        out.gate(last < t.initial_loss, || {
            format!(
                "{name} loss {last} did not fall below the initial {}",
                t.initial_loss
            )
        });
    }
}

fn logreg_sizes(size: LogregSize) -> String {
    format!(
        "{} x {} features ({} MB), (50, 40) code, {} steps under MDS then {} under S2C2",
        size.rows,
        size.cols,
        size.rows * size.cols * 8 / 1_000_000,
        size.steps,
        size.steps
    )
}

/// One repetition: set-up, the steps under both strategies, the gates.
struct LogregRep {
    setup_s: f64,
    wall_s: f64,
    trainers: LogregSetup,
    mds: Training,
    s2c2: Training,
}

/// Takes one repetition and counts it into `out`; `None` if set-up failed.
fn logreg_rep(
    size: LogregSize,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<LogregRep> {
    let units = 2 * size.steps as u64;
    out.attempted += units;
    let (setup_s, built) = timed(|| logreg_setup(size, seed, rec));
    let mut trainers = match built {
        Ok(t) => t,
        Err(e) => {
            out.gate(false, || format!("set-up failed: {e}"));
            out.failed += units;
            return None;
        }
    };
    let (mut mds, mut s2c2) = (new_training(&trainers.mds), new_training(&trainers.s2c2));
    let (wall_s, ()) = timed(|| {
        train_steps(&mut trainers.mds, size.steps, rec, &mut mds);
        train_steps(&mut trainers.s2c2, size.steps, rec, &mut s2c2);
    });
    out.failed += mds.errors + s2c2.errors;
    logreg_gates(&mds, &s2c2, out);
    out.put_digest(logreg_digest(&mds, &s2c2));
    Some(LogregRep {
        setup_s,
        wall_s,
        trainers,
        mds,
        s2c2,
    })
}

fn logreg_untraced(size: LogregSize, opts: &Opts, rec: &mut Recorder, out: &mut Outcome) {
    out.sizes = logreg_sizes(size);
    let warm_size = size.quarter();
    match logreg_setup(warm_size, opts.seed, rec) {
        Ok(mut warm) => {
            let mut sink = Training::default();
            train_steps(&mut warm.mds, warm_size.steps, rec, &mut sink);
            train_steps(&mut warm.s2c2, warm_size.steps, rec, &mut sink);
        }
        Err(e) => out.gate(false, || format!("warm-up set-up failed: {e}")),
    }

    let (mut setup, mut wall, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    repeat(opts, || {
        if let Some(rep) = logreg_rep(size, opts.seed, rec, out) {
            setup.push(rep.setup_s);
            wall.push(rep.wall_s);
            rate.push(2.0 * size.steps as f64 / rep.wall_s);
        }
    });
    if !wall.is_empty() {
        out.put_end_to_end(&setup, &wall, &rate);
    }
}

/// The (C) figures of one repetition; being virtual-side, they are the
/// same in every repetition.
fn logreg_counts(size: LogregSize, rep: &LogregRep, out: &mut Outcome) {
    let one = Summary::single;
    let steps = size.steps as f64;
    let (mds, s2c2) = (rep.mds.virtual_total(), rep.s2c2.virtual_total());
    out.put("virtual_latency_s", one(s2c2));
    out.put("latency_reduction_vs_mds", one(1.0 - s2c2 / mds));
    let wasted = |lr: &DistributedLogReg| {
        (lr.forward_metrics().total_wasted_rows() + lr.backward_metrics().total_wasted_rows())
            as f64
    };
    out.put(
        "core.strategy.wasted_rows.mds",
        one(wasted(&rep.trainers.mds)),
    );
    out.put(
        "core.strategy.wasted_rows.s2c2",
        one(wasted(&rep.trainers.s2c2)),
    );
    out.put("core.strategy.virtual_per_iter_vs.mds", one(mds / steps));
    out.put("core.strategy.virtual_per_iter_vs.s2c2", one(s2c2 / steps));
}

fn logreg_traced(size: LogregSize, opts: &Opts, rec: &mut Recorder, out: &mut Outcome) {
    out.sizes = logreg_sizes(size);
    // The three timed repetitions of the untraced mode, recorder on:
    // 3 x 70 = 210 steps are the fewest that leave ten samples beyond
    // the 95th percentile of step time.
    let reps = if opts.quick { 1 } else { 3 };
    let mut wall = Vec::new();
    for _ in 0..reps {
        if let Some(rep) = logreg_rep(size, opts.seed, rec, out) {
            if wall.is_empty() {
                logreg_counts(size, &rep, out);
            }
            wall.push(rep.wall_s);
        }
    }
    out.put(
        "failed_ratio",
        Summary::single(out.failed as f64 / out.attempted as f64),
    );
    if wall.is_empty() {
        return;
    }
    out.put("harness.traced_wall_s", Summary::of(&wall));

    let step_ms: Vec<f64> = rec
        .durations_s("logreg.step")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    out.gate(
        opts.quick || highest_percentile(step_ms.len()) >= Some(95.0),
        || format!("{} steps are too few to report a p95", step_ms.len()),
    );
    let step_ms = sorted(&step_ms);
    let tail = |p: f64| Summary {
        value: percentile(&step_ms, p),
        min: step_ms[0],
        max: step_ms[step_ms.len() - 1],
        n: step_ms.len(),
    };
    out.put("step_p50_ms", tail(50.0));
    out.put("step_p95_ms", tail(95.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sim_steady(seed: u64) -> Outcome {
        let opts = Opts {
            seed,
            seconds: 0.0,
            trace: false,
            quick: true,
        };
        measure(&WORKLOADS[0], &opts, &mut Recorder::new(false))
    }

    #[test]
    fn virtual_results_follow_the_seed_and_nothing_else() {
        let (a, b, c) = (
            quick_sim_steady(42),
            quick_sim_steady(42),
            quick_sim_steady(7),
        );
        for run in [&a, &b, &c] {
            assert!(run.gate_failures.is_empty(), "{:?}", run.gate_failures);
            assert_eq!(run.failed, 0);
            assert_eq!(run.attempted, 2_000);
        }
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn untraced_runs_report_every_end_to_end_metric() {
        let run = quick_sim_steady(1);
        let names: Vec<&str> = run.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = crate::catalog::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        assert!(run.metrics.iter().all(|(_, s)| s.value > 0.0));
    }

    #[test]
    fn event_budget_scales_with_the_stream() {
        let case = ServeCase::of(SIM_STEADY, false);
        let cfg = case.config(case.jobs, case.backend, false);
        assert_eq!(cfg.max_events, 16_000_000);
        assert!(cfg.max_events > ServeConfig::new(SchedulerMode::Uncoded).max_events);
    }
}
