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
//! with the `round::Agenda`: per in-flight round, the completion that
//! makes it decodable, on the virtual clock of *Timing model*, and its
//! deadline in real time, beside the next epoch tick. A task completion
//! that decides nothing costs no event: it is applied, in completion
//! order, at the start of the turn of the event that follows it. A tick
//! applies its speed samples and churn flips in place rather than
//! queueing them. Arrivals win ties, so the order is what pre-pushing
//! every arrival would give:
//!
//! * `core` — resident-job state and the event handlers (arrival,
//!   admission, iteration start/completion, churn, epoch ticks);
//! * `round` — the per-round task model: one `TaskSlot` type for a
//!   worker's original and redo task, and the only code that touches
//!   them — dispatch, completion, the single cancel/refund site,
//!   deadline arming — plus the coverage questions (is the round
//!   decodable, how far short is a chunk, what is credited), answered
//!   from a per-chunk response tally the transitions keep, so a task
//!   completion costs what its own chunk list costs;
//! * [`backend`] — the pluggable `ExecutionBackend` seam: timing-only
//!   simulation, master-side verified numerics, or real OS-thread
//!   workers (selected via [`BackendKind`]);
//! * `recovery` — the §4.3 robustness ladder (cancel-and-reassign,
//!   wait-out, retry);
//! * `rebalance` — the resident weight mass the virtual clock runs at,
//!   and the deadline re-arms a change of it calls for.
//!
//! # Timing model
//!
//! The engine is a *timing* simulator in the same spirit as
//! [`s2c2_cluster::ClusterSim`]: a task of `E` elements on worker `w`
//! serving job `j` takes `E / (speed_w · share_j · throughput ·
//! thread_speedup)` seconds, plus transfer times from the
//! [`s2c2_cluster::CommModel`]. `share_j` is the fraction of every
//! worker's capacity job `j` holds: its capacity weight over the
//! resident weight mass `W` (`weight_j / W`, computed in one place), so
//! a weight-2 tenant runs at twice a weight-1 tenant's fractional rate.
//! Algorithm 1 runs on the pool's speeds: the share sets how fast a
//! job's tasks run, not which chunks it gets. Speeds are piecewise
//! constant: each task runs at the speed sampled when it was issued,
//! and epoch ticks only affect tasks issued afterwards — the same
//! once-per-iteration granularity the paper measures and predicts at.
//!
//! Shares move whenever `W` does, so the pool keeps generalized
//! processor sharing's virtual time: one clock `V` with `dV/dt = 1 / W`
//! (`W` in units of the stream's lightest weight). A task dispatched
//! with real span `S` at mass `W` finishes at `V_start + S / W` whatever
//! `W` does meanwhile, so its completion is queued once, by that
//! V-instant. The clock converts through its anchor `(t0, v0)`, the
//! reading at which `W` last changed: `V(t) = v0 + (t − t0) / W` and
//! `real(v) = t0 + (v − v0) · W`, so an event's reading depends on its
//! own instant (or key) and the anchor, not on the events before it.
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
//! resident set changes (admission, completion, failure), every
//! in-flight task runs at its new share from that instant, at no cost
//! per task on the virtual clock. Capacity freed by a finishing job
//! flows to its neighbours immediately instead of idling until their
//! iteration boundaries, and a newly admitted job squeezes its
//! neighbours immediately instead of over-subscribing the pool (stale
//! share snapshots were precisely the bug that let reported utilization
//! exceed 1). A task's whole remaining span stretches — a deliberate
//! approximation: the transfer tail is a few control/row messages,
//! negligible beside compute in the clusters this models.
//!
//! # Batching
//!
//! S²C²'s advantage comes from amortizing coding work across the
//! computation it protects; at high arrival rates a stream of small jobs
//! gives that advantage back, because every job pays its own encode
//! lookup, dispatch round-trip, decode, and residency slot. With
//! [`ServeConfig::max_batch`] above 1, admission coalesces queued jobs
//! that share a [batch key](crate::admission::batch_key) (model
//! identity, shape, code geometry, iteration count) into one *batch
//! round*: a single cache-backed encode, one stacked multi-RHS dispatch
//! per worker, one decode LU factorization per chunk, and one residency
//! slot for the whole group. The admission policy's pick is never
//! delayed or displaced; queued mates ride along behind it, in policy
//! order, up to the cap. QoS always sees the member jobs — per-member
//! weights, deadlines, and records — and the recovery ladder degrades
//! or redoes a straggling round *per batch*, so every member decodes
//! from the identical coverage. At 1 (the default) every job runs its
//! own rounds.
//!
//! # Pipelining
//!
//! The paper's serving loop is a hard barrier: round `i + 1` of a job
//! cannot dispatch until round `i` has collected, decoded, and verified,
//! so one straggled round stalls the whole job even when most of its
//! workers are idle. [`ServeConfig::pipeline_depth`] bounds a window of
//! concurrently running iterations per resident job: round `i + 1`
//! dispatches as soon as round `i`'s tasks are issued (a worker computes
//! one job's rounds in dispatch order at the job's capacity share), and
//! decode/verify results commit strictly in round order — a completion
//! for round `i + 1` parks until round `i` retires. The §4.3 recovery
//! ladder operates per in-flight round. Pipeline-only trace events and
//! accounting are gated on a depth above 1, so depth 1 (the default) is
//! the barrier engine.
//!
//! # Deadlines and QoS
//!
//! Jobs may carry a relative SLO ([`crate::workload::JobSpec::deadline`]).
//! [`QueuePolicy::EarliestDeadline`] admits by least slack; a deadline
//! never turns a job away, it only orders the queue and scores the
//! job's record as on time or late. Tenant entitlements come
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
mod rebalance;
mod recovery;
mod round;
#[cfg(test)]
mod tests;

pub use backend::BackendKind;

use crate::admission::{QueuePolicy, QueuedJob};
use crate::event::JobId;
use crate::metrics::ServiceReport;
use crate::workload::JobSpec;
use backend::ExecutionBackend;
use core::ResidentJob;
use round::{Agenda, TICK};
use s2c2_cluster::{ChurnProcess, ClusterSpec, CommModel, ComputeModel};
use s2c2_core::speed_tracker::{PredictorSource, SpeedTracker};
use s2c2_core::AllocScratch;
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
    /// Shared-cluster S²C²: capacity shared across resident jobs by
    /// weight, Algorithm 1 per job on the pool's predicted speeds,
    /// timeout-and-reassign on mis-prediction.
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

/// §4.3 timeout margin: a round's deadline sits this fraction past its
/// planned span.
pub(crate) const TIMEOUT_MARGIN: f64 = 0.25;

/// Seconds between speed/churn resampling epochs.
pub const EPOCH: f64 = 0.25;

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
    /// Threads each worker devotes to its matvec. The timing model charges
    /// the near-linear scaling measured for row-partitioned
    /// [`s2c2_linalg::parallel::par_matvec`]: `1 + 0.9 · (threads − 1)`.
    pub worker_threads: usize,
    /// Optional worker churn.
    pub churn: Option<ChurnConfig>,
    /// Iteration restarts tolerated before a job is failed.
    pub max_retries: usize,
    /// Hard event budget (guards against configuration-induced
    /// livelock). Events are the loop's decisions: arrivals, epoch ticks,
    /// deadlines and round completions; a task completion that completes
    /// no round is not one.
    pub max_events: u64,
    /// Most member jobs one round may carry: queued jobs sharing a model
    /// matrix and code geometry are coalesced onto one encode/dispatch
    /// round (see the module docs' *Batching*). 1 by default, which is
    /// no batching; 0 is rejected.
    pub max_batch: usize,
    /// Most iterations of one job in flight at once, committed in round
    /// order (see the module docs' *Pipelining*). 1 by default, which is
    /// the barrier engine; 0 is rejected.
    pub pipeline_depth: usize,
    /// Record structured trace events during the run, surfaced as
    /// [`ServiceReport::telemetry`]. Off by default; the disabled path
    /// never constructs an event (emission sites take closures that are
    /// simply not evaluated), so existing outputs stay byte-identical.
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
            worker_threads: 1,
            churn: None,
            max_retries: 3,
            max_events: 2_000_000,
            max_batch: 1,
            pipeline_depth: 1,
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

/// Worker `worker`'s speed at `epoch`, held to the
/// [`s2c2_trace::SpeedModel`] contract (finite and positive): a zero
/// would schedule a task at infinity, a NaN would never register as a
/// change, and a negative speed would charge negative compute time.
pub(crate) fn sample_speed(
    model: &mut BoxedSpeedModel,
    worker: usize,
    epoch: usize,
) -> Result<f64, ServeError> {
    let speed = model.speed_at(epoch);
    if speed.is_finite() && speed > 0.0 {
        Ok(speed)
    } else {
        Err(ServeError::InvalidConfig(format!(
            "worker {worker}'s speed model returned {speed} at epoch {epoch}; \
             speeds must be finite and positive"
        )))
    }
}

/// Effective speedup of `threads`-way row-partitioned matvec.
pub(crate) fn thread_speedup(threads: usize) -> f64 {
    1.0 + 0.9 * threads.saturating_sub(1) as f64
}

/// The pool's virtual clock (module docs, *Timing model*). `V` runs at
/// `1 / mass` from the anchor `(t0, v0)`, the reading at which the
/// resident weight mass last changed (an empty pool keeps the last):
/// `V(t) = v0 + (t − t0) / mass` and `real(v) = t0 + (v − v0) · mass`.
/// So every reading is a function of its own instant or key and the
/// anchor, never of the events read before it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    /// The current reading: a real instant and `V` there.
    pub(crate) now: f64,
    pub(crate) v: f64,
    pub(crate) mass: f64,
    /// The reading at which `mass` last changed.
    pub(crate) t0: f64,
    pub(crate) v0: f64,
}

impl Clock {
    /// A clock reading `v` at `now`, anchored there.
    pub(crate) fn anchored(now: f64, v: f64, mass: f64) -> Clock {
        Clock {
            now,
            v,
            mass,
            t0: now,
            v0: v,
        }
    }

    /// The reading at real instant `t`, from the anchor.
    pub(crate) fn read(self, t: f64) -> Clock {
        let v = self.v0 + (t - self.t0) / self.mass;
        Clock { now: t, v, ..self }
    }

    /// The clock at real instant `t ≥ now`: the current reading if `t`
    /// is now, so a handler re-reading its own instant gets its own `V`
    /// back, else [`Self::read`].
    pub(crate) fn at(self, t: f64) -> Clock {
        if t.to_bits() == self.now.to_bits() {
            self
        } else {
            self.read(t)
        }
    }

    /// The real instant `V` reaches `v` (the anchor's if it has).
    pub(crate) fn real(self, v: f64) -> f64 {
        self.t0 + (v - self.v0).max(0.0) * self.mass
    }

    /// The mass becomes `mass` at the current reading, which anchors it.
    pub(crate) fn set_mass(&mut self, mass: f64) {
        *self = Clock::anchored(self.now, self.v, mass);
    }
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
    clock: Clock,
    /// The stream's lightest valid weight, the clock's unit of mass.
    weight_unit: f64,
    /// What the loop pops next: per in-flight round its decision and
    /// its next completion by `V`, its deadline by real time, and the
    /// epoch tick.
    agenda: Agenda,
    pending: Vec<QueuedJob>,
    resident: BTreeMap<JobId, ResidentJob>,
    arrivals_remaining: usize,
    next_generation: u64,
    report: ServiceReport,
    backend: Box<dyn ExecutionBackend>,
    /// Trace buffer, present only when [`ServeConfig::telemetry`] is on.
    /// Every emission site goes through [`trace_into`], so the `None`
    /// path costs one branch.
    telemetry: Option<Telemetry>,
    /// Retired rounds' task tables and chunk assignments, pooled for
    /// reuse by the next dispatch (see [`round::Tasks`]).
    scratch: Vec<round::RoundScratch>,
    /// Per-dispatch buffers: the pool's available speeds, the speeds
    /// the round being dispatched is planned at, and Algorithm 1's
    /// working state.
    avail: Vec<f64>,
    plan_speeds: Vec<f64>,
    alloc: AllocScratch,
    /// Per-retire buffers of the decode-cost model.
    decode_scratch: round::DecodeScratch,
}

impl std::fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("workers", &self.models.len())
            .field("backend", &self.cfg.backend)
            .field("now", &self.clock.now)
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
        if cfg.worker_threads == 0 {
            return Err(ServeError::InvalidConfig(
                "worker_threads must be ≥ 1".into(),
            ));
        }
        if cfg.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be ≥ 1".into()));
        }
        if cfg.pipeline_depth == 0 {
            return Err(ServeError::InvalidConfig(
                "pipeline_depth must be ≥ 1".into(),
            ));
        }
        // `ClusterSpec`'s fields are public, so the builder's asserts do
        // not bind them: a zero or NaN throughput, or a negative or NaN
        // latency, would time an event at an infinite, NaN or past
        // instant.
        for (field, value) in [
            ("compute.elements_per_sec", spec.compute.elements_per_sec),
            ("comm.bandwidth", spec.comm.bandwidth),
            ("decode_flops_per_sec", spec.decode_flops_per_sec),
        ] {
            if value.is_nan() || value <= 0.0 {
                return Err(ServeError::InvalidConfig(format!(
                    "cluster {field} must be > 0, not {value}"
                )));
            }
        }
        let latency = spec.comm.latency;
        if !latency.is_finite() || latency < 0.0 {
            return Err(ServeError::InvalidConfig(format!(
                "cluster comm.latency must be finite and ≥ 0, not {latency}"
            )));
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
            clock: Clock::anchored(0.0, 0.0, 1.0),
            weight_unit: 1.0,
            agenda: Agenda::new(),
            pending: Vec::new(),
            resident: BTreeMap::new(),
            arrivals_remaining: 0,
            next_generation: 1,
            report: ServiceReport {
                busy_time: vec![0.0; n],
                ..ServiceReport::default()
            },
            scratch: Vec::new(),
            avail: Vec::new(),
            plan_speeds: Vec::new(),
            alloc: AllocScratch::default(),
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
        self.report.telemetry = self.telemetry.take();
        Ok(self.report)
    }

    /// The event loop proper. Arrivals are streamed in arrival order and
    /// merged with the agenda, which holds live entries only. Each turn
    /// takes the earliest of the next arrival, the earliest round
    /// decision mapped to real time, and the earliest deadline or tick,
    /// ties (`total_cmp`) in that order and in slice order. Before it
    /// handles the event it applies every task completion that comes
    /// first, in `(V, launch seq)` order across rounds: one at the same
    /// real instant as an arrival comes after it, one at the same
    /// instant as a deadline or tick before it. None of them completes a
    /// round — the earliest that does is the decision itself — so each
    /// changes only its task's slot, the coverage tally, the speed
    /// tracker and the trace, exactly as it would have as its own event.
    fn drive(&mut self, workload: &[(f64, JobSpec)]) -> Result<(), ServeError> {
        for (t, spec) in workload {
            if !(t.is_finite() && *t >= 0.0) {
                return Err(ServeError::InvalidJob {
                    job: spec.id,
                    reason: format!("arrival time must be finite and non-negative, got {t}"),
                });
            }
        }
        // The clock's unit; invalid weights are refused at their arrival.
        self.weight_unit = workload
            .iter()
            .map(|(_, spec)| spec.weight)
            .filter(|w| w.is_finite() && *w > 0.0)
            .min_by(f64::total_cmp)
            .unwrap_or(1.0);
        // Stable, so equal instants stay in slice order.
        let mut order: Vec<&(f64, JobSpec)> = workload.iter().collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut arrivals = order.into_iter().peekable();

        // Initial samples: epoch 0.
        for (w, m) in self.models.iter_mut().enumerate() {
            self.speeds[w] = sample_speed(m, w, 0)?;
        }
        self.up.copy_from_slice(self.churn.advance_to(0));
        self.arrivals_remaining = workload.len();
        if self.work_remains() {
            self.agenda.tick(EPOCH, 1);
        }

        loop {
            let decision = self.agenda.decisions.peek();
            let done = decision.map(|(v, ..)| self.clock.real(v));
            let timed = self.agenda.timed.peek();
            let completion = done.filter(|d| timed.map_or(true, |(t, ..)| d.total_cmp(&t).is_le()));
            let head = completion.or(timed.map(|(t, ..)| t));
            let due = arrivals.next_if(|(at, _)| head.map_or(true, |h| at.total_cmp(&h).is_le()));
            let clock = self.clock;
            if let Some((at, spec)) = due {
                self.settle(|v, _| clock.real(v).total_cmp(at).is_lt())?;
                self.begin_event(*at)?;
                self.on_arrival(spec)?;
            } else if let (Some(_), Some((v, seq, _))) = (completion, decision) {
                self.settle(|u, s| u.total_cmp(&v).then(s.cmp(&seq)).is_lt())?;
                // A completion reads `V` at its key exactly.
                self.begin_event(clock.real(v))?;
                self.clock.v = v;
                if let Some((id, generation)) = self.apply_next_completion()? {
                    self.on_round_complete(id, generation)?;
                }
            } else if let Some((t, _, handle)) = timed {
                self.settle(|v, _| clock.real(v).total_cmp(&t).is_le())?;
                self.begin_event(t)?;
                self.agenda.timed.remove(handle);
                if handle == TICK {
                    self.on_epoch_tick(self.agenda.epoch)?;
                } else {
                    let (id, generation) = self.agenda.round(handle);
                    self.recover(id, generation, true)?;
                }
            } else {
                // Nothing left to decide; apply what is still open.
                return self.settle(|_, _| true);
            }
        }
    }

    /// Applies, in `(V, launch seq)` order, every task completion whose
    /// key `due` accepts.
    fn settle(&mut self, due: impl Fn(f64, u64) -> bool) -> Result<(), ServeError> {
        while let Some((v, seq, _)) = self.agenda.backlog.peek() {
            if !due(v, seq) {
                break;
            }
            let decided = self.apply_next_completion()?;
            debug_assert!(decided.is_none(), "only a decision completes a round");
        }
        Ok(())
    }

    /// Reads the clock at the next event's instant and charges the event
    /// to the event budget.
    fn begin_event(&mut self, t: f64) -> Result<(), ServeError> {
        self.clock = self.clock.read(t);
        self.report.events_processed += 1;
        if self.report.events_processed > self.cfg.max_events {
            return Err(ServeError::Runaway {
                events: self.report.events_processed,
            });
        }
        Ok(())
    }

    fn work_remains(&self) -> bool {
        self.arrivals_remaining > 0 || !self.pending.is_empty() || !self.resident.is_empty()
    }

    fn sample_queue_depth(&mut self) {
        let now = self.clock.now;
        self.report.queue_depth.record(now, self.pending.len());
    }
}
