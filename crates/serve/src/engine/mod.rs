//! The event-driven multi-job service engine.
//!
//! [`ServiceEngine`] multiplexes many concurrent coded jobs onto one
//! shared worker pool, driven entirely by the typed events of
//! [`crate::event`] and the workload's arrival stream: arrivals join the
//! admission queue, admitted jobs run iterations whose per-worker tasks
//! are scheduled from the shared-cluster S²C² allocation, epoch ticks
//! resample worker speeds and churn, and §4.3-style timeouts recover
//! from mis-predictions and departed workers.
//!
//! The engine is split into focused submodules, all driven by one event
//! loop (this module), which merges the time-ordered arrival stream
//! with the event queue — arrivals win ties, so the order is exactly
//! what pre-pushing every arrival would give, without the heap ever
//! holding a future arrival:
//!
//! * `core` — resident-job state and the event handlers (arrival,
//!   admission, iteration start/completion, churn, epoch ticks);
//! * `round` — the per-round task model: one `TaskSlot` type for a
//!   worker's original and redo task, and the only code that touches
//!   them — dispatch, completion, the single cancel/refund site, share
//!   rescaling, deadline arming — plus the coverage questions (is the
//!   round decodable, how far short is a chunk, what is credited),
//!   answered from a per-chunk response tally the transitions keep, so
//!   a task completion costs what its own chunk list costs;
//! * [`backend`] — the pluggable `ExecutionBackend` seam: timing-only
//!   simulation, master-side verified numerics, or real OS-thread
//!   workers (selected via [`BackendKind`]);
//! * `recovery` — the §4.3 robustness ladder (cancel-and-reassign,
//!   wait-out, retry);
//! * `rebalance` — work-conserving share rebalancing;
//! * `pipeline` — the cross-round in-flight window policy
//!   ([`PipelinePolicy`]).
//!
//! # Timing model
//!
//! The engine is a *timing* simulator in the same spirit as
//! [`s2c2_cluster::ClusterSim`]: a task of `E` elements on worker `w`
//! serving job `j` takes `E / (speed_w · share_j · throughput ·
//! thread_speedup)` seconds, plus transfer times from the
//! [`s2c2_cluster::CommModel`]. `share_j` is the fraction of every
//! worker's capacity the shared allocator granted job `j`: the job's
//! capacity weight normalized over the live resident set
//! (`weight_j / Σ weights`, the [`s2c2_core::normalized_shares`] rule),
//! so a weight-2 tenant runs at twice a weight-1 tenant's fractional
//! rate. Speeds are piecewise constant: each task runs at the speed
//! sampled when it was issued, and epoch ticks only affect tasks issued
//! afterwards — the same once-per-iteration granularity the paper
//! measures and predicts at.
//!
//! # Execution backends
//!
//! Timing is always simulated; *numerics* are pluggable. Under
//! [`BackendKind::Sim`] (the default) jobs carry no data and nothing is
//! computed — the historical behavior, bit-identical event streams and
//! reports. Under [`BackendKind::SimVerified`] every job carries a real
//! model matrix (deterministic in [`crate::workload::JobSpec::matrix_id`]),
//! encoded once through a shared [`s2c2_coding::EncodeCache`], and every
//! completed iteration is decoded from exactly the worker coverage the
//! timing model produced and checked against a sequential reference.
//! [`BackendKind::Threaded`] does the same but dispatches the encoded
//! chunk work to real [`s2c2_cluster::threaded::ThreadedCluster`]
//! OS-thread workers (with cooperative cancellation mirroring the
//! recovery ladder), so the schedule the engine decides is the schedule
//! real threads execute. Cache hits/misses, verified-iteration counts,
//! and decoded outputs land in the [`ServiceReport`].
//!
//! # Work conservation
//!
//! Shares are *not* frozen at iteration boundaries: whenever the
//! resident set changes (admission, completion, failure), every running
//! iteration's share is recomputed from the live weight mass and its
//! in-flight tasks are rescaled at that instant. Capacity freed by a
//! finishing job flows to its neighbours immediately instead of idling
//! until their iteration boundaries, and a newly admitted job squeezes
//! its neighbours immediately instead of over-subscribing the pool
//! (stale share snapshots were precisely the bug that let reported
//! utilization exceed 1). The rescale stretches a task's whole
//! remaining span — a deliberate approximation: the transfer tail is a
//! few control/row messages, negligible beside compute in the clusters
//! this models.
//!
//! # Batching
//!
//! [`ServeConfig::batch`] ([`BatchPolicy`]) coalesces queued jobs that
//! share a batch key (model identity, shape, code geometry, iteration
//! count) into one *batch round*: a single cache-backed encode, one
//! stacked multi-RHS dispatch per worker, one decode LU factorization
//! per chunk, and one residency slot for the whole group. QoS always
//! sees the member jobs — per-member weights, deadlines, rejections,
//! and records — and the recovery ladder degrades or redoes a
//! straggling round *per batch*, so every member decodes from the
//! identical coverage. With [`BatchPolicy::Off`] (the default) the
//! engine is byte-identical to the pre-batching behavior.
//!
//! # Deadlines and QoS
//!
//! Jobs may carry a relative SLO ([`crate::workload::JobSpec::deadline`]).
//! [`QueuePolicy::EarliestDeadline`] admits by least slack, and with
//! [`ServeConfig::reject_infeasible_deadlines`] the engine refuses, at
//! admission time, jobs whose deadline cannot be met even by the whole
//! pool running the job alone (an optimistic lower bound, so only
//! provably-hopeless jobs are turned away). Tenant entitlements come
//! from [`QueuePolicy::WeightedFairShare`] admission and from the
//! weight-proportional capacity split; a resident job's share is its
//! members' nominal weight over the resident mass, whatever its slack.
//!
//! # Robustness ladder (per iteration)
//!
//! 1. Predictions feasible → shared-cluster S²C² (exactly-`k` coverage).
//! 2. Predictions infeasible (< `k` workers believed alive) → that job
//!    degrades to conventional coded computing over available workers.
//! 3. Deadline miss (mis-prediction, churn) → finished workers recompute
//!    the missing chunks (they already hold the coded partitions — no
//!    data movement, ever).
//! 4. Not enough finished workers → wait out the in-flight stragglers
//!    (conventional semantics).
//! 5. Nobody left (churn storm) → restart the iteration, up to
//!    `max_retries`, then fail the job.

pub mod backend;
mod core;
mod pipeline;
mod rebalance;
mod recovery;
mod round;
#[cfg(test)]
mod tests;

pub use backend::BackendKind;
pub use pipeline::PipelinePolicy;

use crate::admission::{BatchKey, BatchPolicy, QueuePolicy, QueuedJob};
use crate::event::{EventKind, EventQueue, JobId};
use crate::metrics::ServiceReport;
use crate::workload::JobSpec;
use backend::ExecutionBackend;
use core::ResidentJob;
use s2c2_cluster::{ChurnProcess, ClusterSpec, CommModel, ComputeModel};
use s2c2_core::speed_tracker::{PredictorSource, SpeedTracker};
use s2c2_telemetry::{Telemetry, TraceEvent, TraceEventKind, TraceSink};
use s2c2_trace::BoxedSpeedModel;
use std::collections::BTreeMap;

/// Records the event built by `f` into an enabled telemetry bundle.
///
/// A free function over the `Option` field (rather than a method on the
/// engine) so emission sites can run while other engine fields are
/// borrowed; the closure is never evaluated when telemetry is off, which
/// is the zero-cost-when-disabled guarantee.
#[inline]
pub(crate) fn trace_into(
    telemetry: &mut Option<Telemetry>,
    time: f64,
    f: impl FnOnce() -> TraceEventKind,
) {
    if let Some(tel) = telemetry.as_mut() {
        tel.trace.record(TraceEvent { time, kind: f() });
    }
}

/// How the engine schedules coded work onto the pool.
pub enum SchedulerMode {
    /// Even uncoded split over available workers; every task must finish.
    Uncoded,
    /// Conventional `(n, k)` MDS: every available worker computes its full
    /// partition; the master takes the fastest `k` per chunk.
    ConventionalMds,
    /// Shared-cluster S²C²: capacity split across resident jobs, Algorithm
    /// 1 per job on predicted speeds, timeout-and-reassign on mis-
    /// prediction.
    SharedS2c2 {
        /// Where next-iteration speed estimates come from.
        predictor: PredictorSource,
    },
}

impl std::fmt::Display for SchedulerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerMode::Uncoded => "uncoded",
            SchedulerMode::ConventionalMds => "mds",
            SchedulerMode::SharedS2c2 { .. } => "s2c2",
        };
        f.write_str(s)
    }
}

impl std::fmt::Debug for SchedulerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SchedulerMode::{self}")
    }
}

/// Worker churn parameters (see [`ChurnProcess`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Per-epoch probability an up worker departs.
    pub p_fail: f64,
    /// Per-epoch probability a departed worker rejoins.
    pub p_recover: f64,
    /// Availability floor (keep ≥ the largest job `k`, or coded jobs can
    /// wait indefinitely for capacity).
    pub min_up: usize,
}

/// Engine configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// Scheduling mode.
    pub scheduler: SchedulerMode,
    /// Execution backend: timing-only simulation (default), master-side
    /// verified numerics, or real OS-thread workers.
    pub backend: BackendKind,
    /// Admission-queue policy.
    pub policy: QueuePolicy,
    /// Maximum concurrently-resident jobs (the multiprogramming level).
    pub max_resident: usize,
    /// §4.3 timeout margin over the planned iteration span.
    pub timeout_margin: f64,
    /// Seconds between speed/churn resampling epochs.
    pub epoch: f64,
    /// Threads each worker devotes to its matvec. The timing model charges
    /// the near-linear scaling measured for row-partitioned
    /// [`s2c2_linalg::parallel::par_matvec`]: `1 + 0.9 · (threads − 1)`.
    pub worker_threads: usize,
    /// Optional worker churn.
    pub churn: Option<ChurnConfig>,
    /// Iteration restarts tolerated before a job is failed.
    pub max_retries: usize,
    /// Hard event budget (guards against configuration-induced livelock).
    pub max_events: u64,
    /// Deadline admission control: refuse jobs whose SLO cannot be met
    /// even by the whole pool serving them alone (optimistic bound —
    /// only provably-hopeless jobs are rejected). Rejected jobs resolve
    /// immediately as failed with the `rejected` flag set.
    pub reject_infeasible_deadlines: bool,
    /// Batching/coalescing of queued jobs sharing a model matrix and
    /// code geometry onto one encode/dispatch round (see
    /// [`BatchPolicy`]). Off by default — the unbatched engine is
    /// byte-identical to the pre-batching behavior.
    pub batch: BatchPolicy,
    /// Cross-round pipelining: how many of a job's iterations may be in
    /// flight concurrently (see [`PipelinePolicy`]). Results always
    /// commit in round order. Off by default — `Off` and `Depth(1)` are
    /// byte-identical to the barrier engine.
    pub pipeline: PipelinePolicy,
    /// Record structured trace events and a metrics registry during the
    /// run, surfaced as [`ServiceReport::telemetry`]. Off by default;
    /// the disabled path never constructs an event (emission sites take
    /// closures that are simply not evaluated), so existing outputs stay
    /// byte-identical.
    pub telemetry: bool,
}

impl ServeConfig {
    /// Sensible defaults around the given scheduling mode.
    #[must_use]
    pub fn new(scheduler: SchedulerMode) -> Self {
        ServeConfig {
            scheduler,
            backend: BackendKind::Sim,
            policy: QueuePolicy::Fifo,
            max_resident: 4,
            timeout_margin: 0.25,
            epoch: 0.25,
            worker_threads: 1,
            churn: None,
            max_retries: 3,
            max_events: 2_000_000,
            reject_infeasible_deadlines: false,
            batch: BatchPolicy::Off,
            pipeline: PipelinePolicy::Off,
            telemetry: false,
        }
    }
}

/// Engine failure modes.
#[derive(Debug)]
pub enum ServeError {
    /// Rejected configuration.
    InvalidConfig(String),
    /// The event queue drained while jobs were still queued or resident.
    Stalled {
        /// Jobs still in the admission queue.
        pending: usize,
        /// Jobs still resident.
        resident: usize,
    },
    /// The event budget was exhausted (livelock guard).
    Runaway {
        /// Events processed before giving up.
        events: u64,
    },
    /// A numeric execution backend failed (encode/decode error, a
    /// decoded iteration diverging from the sequential reference, or a
    /// threaded worker failing to reply).
    Backend(String),
    /// A submitted [`JobSpec`] carried an invalid QoS field — a NaN,
    /// infinite, zero, or negative `weight`, or a non-positive or
    /// non-finite `deadline`. Rejected with a typed error at arrival,
    /// before the value can reach the weight-normalization and
    /// queue-ordering comparators.
    InvalidJob {
        /// The offending job.
        job: crate::event::JobId,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::Stalled { pending, resident } => write!(
                f,
                "engine stalled with {pending} queued and {resident} resident jobs"
            ),
            ServeError::Runaway { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
            ServeError::Backend(msg) => write!(f, "execution backend failed: {msg}"),
            ServeError::InvalidJob { job, reason } => {
                write!(f, "invalid job {job}: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The pool's speeds as schedulable right now: a departed worker's is 0.
pub(crate) fn avail_speeds<'a>(
    speeds: &'a [f64],
    up: &'a [bool],
) -> impl Iterator<Item = f64> + 'a {
    speeds
        .iter()
        .zip(up)
        .map(|(&s, &u)| if u { s } else { 0.0 })
}

/// Effective speedup of `threads`-way row-partitioned matvec.
pub(crate) fn thread_speedup(threads: usize) -> f64 {
    1.0 + 0.9 * threads.saturating_sub(1) as f64
}

/// The event-driven multi-job service engine.
pub struct ServiceEngine {
    cfg: ServeConfig,
    models: Vec<BoxedSpeedModel>,
    comm: CommModel,
    compute: ComputeModel,
    decode_flops_per_sec: f64,
    churn: ChurnProcess,
    tracker: SpeedTracker,
    speeds: Vec<f64>,
    up: Vec<bool>,
    now: f64,
    queue: EventQueue,
    pending: Vec<QueuedJob>,
    resident: BTreeMap<JobId, ResidentJob>,
    arrivals_remaining: usize,
    next_generation: u64,
    report: ServiceReport,
    backend: Box<dyn ExecutionBackend>,
    /// Trace buffer + metrics registry, present only when
    /// [`ServeConfig::telemetry`] is on. Every emission site goes
    /// through [`trace_into`], so the `None` path costs one branch.
    telemetry: Option<Telemetry>,
    /// Batch-flush events already scheduled, by `(key, instant)` —
    /// admission re-plans a held group on every arrival during its
    /// window, and without this dedup each re-plan would enqueue
    /// another identical no-op flush.
    pending_flushes: Vec<(BatchKey, f64)>,
    /// Retired rounds' task tables, pooled for reuse by the next
    /// dispatch (see [`round::Tasks`]).
    scratch: Vec<round::Tasks>,
    /// Per-dispatch buffers: the pool's available speeds, and the
    /// speeds the round being dispatched is planned at.
    avail: Vec<f64>,
    plan_speeds: Vec<f64>,
    /// Per-retire buffers of the decode-cost model.
    decode_scratch: round::DecodeScratch,
}

impl std::fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("workers", &self.models.len())
            .field("backend", &self.cfg.backend)
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("resident", &self.resident.len())
            .finish()
    }
}

impl ServiceEngine {
    /// Builds the engine over a cluster specification.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] on degenerate knobs.
    pub fn new(spec: ClusterSpec, cfg: ServeConfig) -> Result<Self, ServeError> {
        let n = spec.n();
        // Checked before the churn process or the threaded pool is
        // built: both refuse an empty pool with a panic.
        if n == 0 {
            return Err(ServeError::InvalidConfig(
                "the cluster needs at least one worker".into(),
            ));
        }
        if cfg.max_resident == 0 {
            return Err(ServeError::InvalidConfig("max_resident must be ≥ 1".into()));
        }
        if !(cfg.epoch.is_finite() && cfg.epoch > 0.0) {
            return Err(ServeError::InvalidConfig("epoch must be positive".into()));
        }
        if !(cfg.timeout_margin.is_finite() && cfg.timeout_margin >= 0.0) {
            return Err(ServeError::InvalidConfig(
                "timeout margin must be non-negative".into(),
            ));
        }
        if cfg.worker_threads == 0 {
            return Err(ServeError::InvalidConfig(
                "worker_threads must be ≥ 1".into(),
            ));
        }
        match cfg.batch {
            BatchPolicy::Off => {}
            BatchPolicy::SizeThreshold { max_batch } => {
                if max_batch < 2 {
                    return Err(ServeError::InvalidConfig(
                        "batch size threshold must be ≥ 2 (use BatchPolicy::Off to disable)".into(),
                    ));
                }
            }
            BatchPolicy::TimeWindow { window, max_batch } => {
                if !(window.is_finite() && window > 0.0) {
                    return Err(ServeError::InvalidConfig(
                        "batch time window must be finite and positive".into(),
                    ));
                }
                if max_batch < 2 {
                    return Err(ServeError::InvalidConfig(
                        "batch size cap must be ≥ 2 (use BatchPolicy::Off to disable)".into(),
                    ));
                }
            }
        }
        if cfg.pipeline == PipelinePolicy::Depth(0) {
            return Err(ServeError::InvalidConfig(
                "pipeline depth must be ≥ 1 (use PipelinePolicy::Off to disable)".into(),
            ));
        }
        let churn = match &cfg.churn {
            Some(c) => {
                if c.min_up > n {
                    return Err(ServeError::InvalidConfig(
                        "churn min_up exceeds pool size".into(),
                    ));
                }
                // `contains` is false for NaN, so a NaN probability is
                // refused here rather than panicking in `ChurnProcess`.
                if !((0.0..=1.0).contains(&c.p_fail) && (0.0..=1.0).contains(&c.p_recover)) {
                    return Err(ServeError::InvalidConfig(
                        "churn p_fail and p_recover must be in [0, 1]".into(),
                    ));
                }
                ChurnProcess::new(n, c.p_fail, c.p_recover, c.min_up, 0x5EEC)
            }
            None => ChurnProcess::none(n),
        };
        let predictor = match &cfg.scheduler {
            SchedulerMode::SharedS2c2 { predictor } => predictor.clone(),
            SchedulerMode::Uncoded | SchedulerMode::ConventionalMds => PredictorSource::Uniform,
        };
        Ok(ServiceEngine {
            tracker: SpeedTracker::new(&predictor, n),
            backend: backend::make_backend(cfg.backend, n),
            telemetry: cfg.telemetry.then(Telemetry::new),
            cfg,
            models: spec.workers,
            comm: spec.comm,
            compute: spec.compute,
            decode_flops_per_sec: spec.decode_flops_per_sec,
            churn,
            speeds: vec![1.0; n],
            up: vec![true; n],
            now: 0.0,
            queue: EventQueue::new(),
            pending: Vec::new(),
            resident: BTreeMap::new(),
            arrivals_remaining: 0,
            next_generation: 1,
            report: ServiceReport {
                busy_time: vec![0.0; n],
                ..ServiceReport::default()
            },
            pending_flushes: Vec::new(),
            scratch: Vec::new(),
            avail: Vec::new(),
            plan_speeds: Vec::new(),
            decode_scratch: round::DecodeScratch::default(),
        })
    }

    /// Number of pool workers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.models.len()
    }

    /// Runs the workload (`(arrival_time, spec)` pairs) to completion and
    /// returns the service report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stalled`] if the event queue drains with jobs left
    /// (configuration error — e.g. churn floor below every job's `k`);
    /// [`ServeError::Runaway`] if the event budget is exhausted;
    /// [`ServeError::Backend`] if a numeric backend fails (decode error,
    /// verification divergence, or an unresponsive threaded worker).
    pub fn run(mut self, workload: &[(f64, JobSpec)]) -> Result<ServiceReport, ServeError> {
        let outcome = self.drive(workload);
        // Always dismantle the backend (joins worker threads, merges
        // cache/verification counters into the report) — including on
        // the error paths, or a failed run would leak OS threads.
        self.backend.finish(&mut self.report);
        outcome?;

        // Makespan is the time the last job resolved, not the time the
        // last (possibly stale-straggler) event drained — throughput
        // should not be diluted by work nobody waited for.
        self.report.makespan = self
            .report
            .jobs
            .iter()
            .map(|j| j.finished)
            .fold(0.0, f64::max);
        if !self.pending.is_empty() || !self.resident.is_empty() {
            return Err(ServeError::Stalled {
                pending: self.pending.len(),
                resident: self.resident.len(),
            });
        }
        self.finalize_telemetry();
        Ok(self.report)
    }

    /// Rolls run-level summary counters and gauges into the metrics
    /// registry and hands the whole telemetry bundle to the report.
    fn finalize_telemetry(&mut self) {
        let Some(mut tel) = self.telemetry.take() else {
            return;
        };
        let trace_events = tel.trace.len() as u64;
        let m = &mut tel.metrics;
        m.inc_by("events_processed", self.report.events_processed);
        m.inc_by("trace_events", trace_events);
        m.inc_by("jobs_completed", self.report.completed() as u64);
        m.inc_by("jobs_failed", self.report.failed() as u64);
        m.inc_by("jobs_rejected", self.report.rejected() as u64);
        m.inc_by("timeouts", self.report.timeouts as u64);
        m.inc_by(
            "degraded_iterations",
            self.report.degraded_iterations as u64,
        );
        m.inc_by("rebalances", self.report.rebalances as u64);
        m.inc_by("batch_rounds", self.report.batch_rounds as u64);
        m.inc_by("rounds_parked", self.report.rounds_parked);
        m.inc_by("scratch_reuses", self.report.scratch_reuses);
        const RUNGS: [&str; 5] = [
            "rung_1_normal",
            "rung_2_degraded",
            "rung_3_redo",
            "rung_4_wait_out",
            "rung_5_restart",
        ];
        for (name, &count) in RUNGS.iter().zip(self.report.recovery_rung_counts.iter()) {
            m.inc_by(name, count);
        }
        m.set_gauge("makespan", self.report.makespan);
        m.set_gauge("utilization", self.report.utilization());
        m.set_gauge("throughput", self.report.throughput());
        m.set_gauge("pipeline_stall_seconds", self.report.pipeline_stall_time);
        self.report.telemetry = Some(tel);
    }

    /// The event loop proper. Arrivals are streamed from the workload
    /// in arrival order and merged with the event queue, so the heap
    /// holds live engine events only — its size tracks the work in
    /// flight, not the length of the stream. An arrival is taken when
    /// its time is `total_cmp`-≤ the queue head's: arrivals win ties
    /// against engine events, and equal-time arrivals keep slice order.
    fn drive(&mut self, workload: &[(f64, JobSpec)]) -> Result<(), ServeError> {
        for (t, spec) in workload {
            if !(t.is_finite() && *t >= 0.0) {
                return Err(ServeError::InvalidJob {
                    job: spec.id,
                    reason: format!("arrival time must be finite and non-negative, got {t}"),
                });
            }
        }
        // Stable, so equal instants stay in slice order.
        let mut order: Vec<&(f64, JobSpec)> = workload.iter().collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut arrivals = order.into_iter().peekable();

        // Initial samples: epoch 0.
        for (w, m) in self.models.iter_mut().enumerate() {
            self.speeds[w] = m.speed_at(0);
        }
        self.up.copy_from_slice(self.churn.advance_to(0));
        self.arrivals_remaining = workload.len();
        if self.work_remains() {
            self.queue
                .push(self.cfg.epoch, EventKind::EpochTick { epoch: 1 });
        }

        loop {
            let head = self.queue.peek_time();
            let due = arrivals.next_if(|(at, _)| head.map_or(true, |h| at.total_cmp(&h).is_le()));
            if let Some((at, spec)) = due {
                self.begin_event(*at)?;
                self.on_arrival(spec)?;
            } else if let Some((t, kind)) = self.queue.pop() {
                self.begin_event(t)?;
                self.on_event(t, kind)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Advances the clock to the next event and charges it to the event
    /// budget.
    fn begin_event(&mut self, t: f64) -> Result<(), ServeError> {
        self.now = t;
        self.report.events_processed += 1;
        if self.report.events_processed > self.cfg.max_events {
            return Err(ServeError::Runaway {
                events: self.report.events_processed,
            });
        }
        Ok(())
    }

    /// Reacts to one popped queue event.
    fn on_event(&mut self, t: f64, kind: EventKind) -> Result<(), ServeError> {
        match kind {
            EventKind::TaskComplete {
                job,
                worker,
                generation,
                redo,
            } => self.on_task_complete(job, worker, generation, redo, t),
            EventKind::WorkerSpeedChange { worker, speed } => {
                self.speeds[worker] = speed;
                Ok(())
            }
            EventKind::Timeout {
                job,
                generation,
                arm,
            } => self.on_timeout(job, generation, arm),
            EventKind::WorkerChurn { worker, up } => self.on_churn(worker, up),
            EventKind::EpochTick { epoch } => {
                self.on_epoch_tick(epoch);
                Ok(())
            }
            // A batch window expired: drop the spent flush markers,
            // then re-run admission so the held group (plus whatever
            // mates accumulated) is flushed.
            EventKind::BatchFlush => {
                self.pending_flushes.retain(|&(_, at)| at > t);
                let pending = self.pending.len();
                trace_into(&mut self.telemetry, t, || TraceEventKind::BatchFlush {
                    pending,
                });
                self.try_admit()
            }
        }
    }

    fn work_remains(&self) -> bool {
        self.arrivals_remaining > 0 || !self.pending.is_empty() || !self.resident.is_empty()
    }

    fn sample_queue_depth(&mut self) {
        self.report.queue_depth.push((self.now, self.pending.len()));
        let in_flight: usize = self.resident.values().map(|j| j.window.len()).sum();
        if let Some(tel) = self.telemetry.as_mut() {
            tel.metrics
                .sample("queue_depth", self.now, self.pending.len() as f64);
            tel.metrics
                .sample("resident_jobs", self.now, self.resident.len() as f64);
            tel.metrics
                .sample("pipeline_depth", self.now, in_flight as f64);
        }
    }
}
