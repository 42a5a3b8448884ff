//! Resident-job state and the engine's event handlers.
//!
//! Everything here reacts to one popped event: arrivals feed the
//! admission queue ([`ServiceEngine::on_arrival`]), admission fills a
//! job's in-flight round window whose per-worker tasks are scheduled
//! from the shared allocation
//! ([`ServiceEngine::dispatch_round`]), task completions mark coverage
//! and feed the speed predictor
//! ([`ServiceEngine::apply_next_completion`]), and completed rounds decode (via the
//! execution backend) strictly in round order — a round that finishes
//! ahead of an earlier sibling parks until the window head retires
//! ([`ServiceEngine::retire_ready_rounds`]). A round's task state is
//! read and written only through [`super::round`]. Timeouts, and the
//! departures an epoch tick applies, are handed to [`super::recovery`];
//! the clock's weight mass lives in [`super::rebalance`]; the window
//! bound itself is
//! [`ServeConfig::pipeline_depth`](super::ServeConfig::pipeline_depth).

use super::round::{sinks, RunningIteration, Tasks};
use super::{
    avail_speeds, sample_speed, trace_into, Clock, ServeError, ServiceEngine, EPOCH, TIMEOUT_MARGIN,
};
use crate::admission::{QueuedJob, ResidentInfo};
use crate::event::JobId;
use crate::metrics::JobRecord;
use crate::shared_alloc::full_over_available_into;
use crate::workload::JobSpec;
use s2c2_core::{allocate_chunks_into, ChunkAssignment};
use s2c2_telemetry::TraceEventKind;

use super::thread_speedup;
use super::SchedulerMode;

/// A job (or coalesced batch of jobs) currently holding a residency
/// slot.
#[derive(Debug)]
pub(crate) struct ResidentJob {
    /// Member jobs sharing this slot and its rounds, each with its own
    /// spec (weight, SLO) and arrival — a solo job is a batch of one,
    /// and batching never collapses member identities. `members[0]` is
    /// the leader whose id keys the resident map and every scheduled
    /// event. All members share one [`crate::admission::batch_key`]
    /// (model identity, shape, code geometry, iteration count), so their
    /// rounds run in lockstep from admission to completion.
    pub(crate) members: Vec<QueuedJob>,
    /// Capacity weight of this residency slot, in the clock's units: the
    /// sum of its members' weights. Batching is capacity-neutral by
    /// construction — m coalesced weight-1 jobs hold exactly the
    /// capacity m resident weight-1 jobs would.
    pub(crate) weight: f64,
    pub(crate) admitted: f64,
    /// Rounds committed (decoded/verified) so far — the in-order commit
    /// cursor: the next retirable round is exactly `round_index ==
    /// iterations_done`.
    pub(crate) iterations_done: usize,
    /// In-flight rounds, sorted by `round_index`; at most
    /// `pipeline_depth` long. At depth 1 this is the classic barrier
    /// engine: zero or one round.
    pub(crate) window: Vec<RunningIteration>,
    /// Round indices dispatched but stalled on pool capacity
    /// (`alive < k_eff`), sorted; re-dispatched when a worker rejoins.
    pub(crate) stalled_rounds: Vec<usize>,
    /// Total rounds ever handed to [`ServiceEngine::dispatch_round`]
    /// (including currently stalled ones); the next fresh round index.
    pub(crate) iterations_dispatched: usize,
    /// Virtual instant the most recent round retired (decode end) —
    /// anchor for per-round pipeline-overlap accounting.
    pub(crate) last_retire_end: f64,
    pub(crate) iter_retries: usize,
    pub(crate) total_retries: usize,
}

impl ResidentJob {
    /// The leader's spec: the shared geometry every member agrees on.
    pub(crate) fn leader(&self) -> &JobSpec {
        &self.members[0].spec
    }

    /// Stacked right-hand sides a round of this residency carries.
    pub(crate) fn rhs(&self) -> usize {
        self.members.len()
    }
}

/// How a job left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    Malformed,
    Failed,
    Completed,
}

impl ServiceEngine {
    /// Writes a job's one [`JobRecord`] and its closing trace event,
    /// both stamped `finished`. A malformed job never becomes resident
    /// (`resident: None`): it counts as admitted at that instant, with
    /// no progress.
    fn record_fate(
        &mut self,
        spec: &JobSpec,
        arrival: f64,
        finished: f64,
        fate: Fate,
        resident: Option<&ResidentJob>,
    ) {
        let (job, tenant) = (spec.id, spec.tenant);
        trace_into(&mut self.telemetry, finished, || match fate {
            Fate::Malformed => TraceEventKind::Malformed { job },
            Fate::Failed => TraceEventKind::JobFailed { job, tenant },
            Fate::Completed => TraceEventKind::JobComplete { job, tenant },
        });
        self.report.jobs.push(JobRecord {
            id: job,
            tenant,
            preset: spec.preset,
            arrival,
            admitted: resident.map_or(finished, |j| j.admitted),
            finished,
            iterations: resident.map_or(0, |j| j.iterations_done),
            retries: resident.map_or(0, |j| j.total_retries),
            failed: fate != Fate::Completed,
            weight: spec.weight,
            deadline: spec.deadline,
            work: spec.total_work(),
        });
    }

    /// A resident job leaves the system, completed or failed. Every
    /// member of its batch resolves with its own record — its own
    /// arrival (and therefore sojourn), weight, SLO, and work: the
    /// batch is an execution detail, not a reporting unit.
    pub(crate) fn resolve_job(
        &mut self,
        id: JobId,
        finished: f64,
        fate: Fate,
    ) -> Result<(), ServeError> {
        let Some(job) = self.resident.remove(&id) else {
            return Ok(());
        };
        debug_assert!(job.window.is_empty(), "a resolved job has no round left");
        for m in &job.members {
            self.record_fate(&m.spec, m.arrival, finished, fate, Some(&job));
            self.backend.on_job_resolved(m.spec.id);
        }
        // Work conservation: the freed capacity flows to the survivors
        // now, not at their next iteration boundaries.
        self.rebalance_shares();
        self.try_admit()
    }

    pub(crate) fn on_arrival(&mut self, spec: &JobSpec) -> Result<(), ServeError> {
        self.arrivals_remaining -= 1;
        let n = self.n();
        // QoS fields are rejected with a *typed* error, not a silent
        // failure record: a NaN/zero/negative weight that slipped
        // through would flow into the normalized-share arithmetic and
        // the queue-ordering comparators, where the best case is a
        // mis-sorted queue and the worst a panicking `unwrap` deep in
        // the allocator. Same for non-positive or non-finite deadlines.
        // The clock counts weights in units of the stream's lightest.
        let (w, unit) = (spec.weight, self.weight_unit);
        if !(w.is_finite() && w > 0.0 && (w / unit).is_finite()) {
            return Err(ServeError::InvalidJob {
                job: spec.id,
                reason: format!("weight must be finite, positive and at most f64::MAX times the lightest ({unit}), got {w}"),
            });
        }
        if let Some(d) = spec.deadline {
            if !(d.is_finite() && d > 0.0) {
                return Err(ServeError::InvalidJob {
                    job: spec.id,
                    reason: format!("deadline must be finite and positive, got {d}"),
                });
            }
        }
        let (jid, tenant, preset, now) = (spec.id, spec.tenant, spec.preset, self.clock.now);
        trace_into(&mut self.telemetry, now, || TraceEventKind::JobArrival {
            job: jid,
            tenant,
            preset,
        });
        // Structural mismatches against *this* pool (k above the pool
        // size, empty shapes) resolve as failed records instead: the
        // spec may be serveable elsewhere, so the stream keeps flowing.
        let malformed = spec.k == 0
            || spec.k > n
            || spec.rows == 0
            || spec.cols == 0
            || spec.chunks_per_partition == 0
            || spec.iterations == 0;
        if malformed {
            self.record_fate(spec, now, now, Fate::Malformed, None);
            return Ok(());
        }
        self.pending.push(QueuedJob {
            spec: spec.clone(),
            arrival: self.clock.now,
        });
        self.sample_queue_depth();
        self.try_admit()
    }

    pub(crate) fn try_admit(&mut self) -> Result<(), ServeError> {
        // Most calls find nothing queued (every job resolution re-runs
        // admission): no resident snapshot for those.
        while !self.pending.is_empty() && self.resident.len() < self.cfg.max_resident {
            // The policy sees *member* jobs, never batches: a weight-2
            // member counts its full weight toward its tenant's resident
            // mass whether it rides a batch or runs alone.
            let residents: Vec<ResidentInfo> = self
                .resident
                .values()
                .flat_map(|j| {
                    j.members.iter().map(|m| ResidentInfo {
                        tenant: m.spec.tenant,
                        weight: m.spec.weight,
                    })
                })
                .collect();
            let Some(head) = self.cfg.policy.pick(&self.pending, &residents) else {
                break;
            };
            // Batch-aware admission: the policy's pick stays the head;
            // queued mates sharing its key ride along, in policy order,
            // up to the size cap (a group of one when batching is off).
            let group =
                self.cfg
                    .policy
                    .gather_batch(&self.pending, &residents, head, self.cfg.max_batch);
            // Remove the group from the queue (descending index order
            // keeps earlier indices valid) while preserving the
            // policy-ordered member sequence.
            let members: Vec<QueuedJob> = group.iter().map(|&i| self.pending[i].clone()).collect();
            let mut rm = group;
            rm.sort_unstable_by(|a, b| b.cmp(a));
            for i in rm {
                self.pending.remove(i);
            }
            let id = members[0].spec.id;
            let (k_eff, c_eff, _) = self.effective_shape(&members[0].spec);
            // One shared encode serves the whole batch; every member
            // after the first is a cache hit by construction.
            for m in &members {
                self.backend
                    .on_admit(&m.spec, k_eff, c_eff)
                    .map_err(ServeError::Backend)?;
            }
            if members.len() > 1 {
                self.report.batches_admitted += 1;
                self.report.batched_jobs += members.len();
                let (count, now) = (members.len(), self.clock.now);
                trace_into(&mut self.telemetry, now, || TraceEventKind::BatchFormed {
                    leader: id,
                    members: count,
                });
            }
            if self.telemetry.is_some() {
                let now = self.clock.now;
                for m in &members {
                    let jid = m.spec.id;
                    trace_into(&mut self.telemetry, now, || TraceEventKind::Admitted {
                        job: jid,
                        leader: id,
                    });
                }
            }
            self.resident.insert(
                id,
                ResidentJob {
                    weight: members.iter().map(|m| m.spec.weight).sum::<f64>() / self.weight_unit,
                    members,
                    admitted: self.clock.now,
                    iterations_done: 0,
                    window: Vec::new(),
                    stalled_rounds: Vec::new(),
                    iterations_dispatched: 0,
                    last_retire_end: self.clock.now,
                    iter_retries: 0,
                    total_retries: 0,
                },
            );
            // The newcomer contends immediately: squeeze the neighbours
            // now, or the pool would be over-subscribed until their next
            // iteration boundaries.
            self.rebalance_shares();
            self.sample_queue_depth();
            let at = self.clock.now;
            self.fill_window(id, at)?;
        }
        Ok(())
    }

    /// Effective `(k, chunks, rows_per_chunk)` of a job under the current
    /// scheduling mode. Uncoded jobs run as `k = 1` over a finer split
    /// (each chunk computed by exactly one worker — even-split,
    /// wait-for-all).
    pub(crate) fn effective_shape(&self, spec: &JobSpec) -> (usize, usize, usize) {
        match self.cfg.scheduler {
            SchedulerMode::Uncoded => {
                let c = spec.chunks_per_partition * self.n();
                (1, c, spec.rows.div_ceil(c))
            }
            SchedulerMode::ConventionalMds | SchedulerMode::SharedS2c2 { .. } => {
                let c = spec.chunks_per_partition;
                let partition_rows = spec.rows.div_ceil(spec.k);
                (spec.k, c, partition_rows.div_ceil(c))
            }
        }
    }

    /// Dispatches fresh rounds for `id` until its in-flight window is
    /// full (the pipeline depth), a round stalls on capacity, or the
    /// job runs out of iterations. At depth 1 this is exactly the
    /// barrier engine's "start the next iteration".
    pub(crate) fn fill_window(&mut self, id: JobId, at: f64) -> Result<(), ServeError> {
        let depth = self.cfg.pipeline_depth;
        loop {
            let Some(job) = self.resident.get_mut(&id) else {
                return Ok(());
            };
            // A capacity-stalled round blocks the window: later indices
            // would stall on the same `k_eff` anyway, and dispatch order
            // must stay the commit order.
            if !job.stalled_rounds.is_empty()
                || job.iterations_dispatched >= job.leader().iterations
                || job.window.len() >= depth
            {
                return Ok(());
            }
            let round_index = job.iterations_dispatched;
            job.iterations_dispatched += 1;
            self.dispatch_round(id, round_index, at)?;
        }
    }

    /// Schedules one iteration round's per-worker tasks from the shared
    /// allocation. A pipelined round (depth ≥ 2) queues behind the job's
    /// earlier in-flight rounds on each shared worker — the job's
    /// capacity share is constant regardless of depth; the window only
    /// overlaps a round's dispatch/collect/decode with its siblings'
    /// compute.
    pub(crate) fn dispatch_round(
        &mut self,
        id: JobId,
        round_index: usize,
        at: f64,
    ) -> Result<(), ServeError> {
        let alive = avail_speeds(&self.speeds, &self.up)
            .filter(|&s| s > 0.0)
            .count();
        let job = &self.resident[&id];
        let (cols, rhs) = (job.leader().cols, job.rhs());
        let (k_eff, c_eff, rpc) = self.effective_shape(job.leader());

        if alive < k_eff {
            #[expect(
                clippy::expect_used,
                reason = "engine invariant: round dispatches are only scheduled for ids the event loop keeps resident"
            )]
            let job = self.resident.get_mut(&id).expect("resident job");
            if !job.stalled_rounds.contains(&round_index) {
                job.stalled_rounds.push(round_index);
                job.stalled_rounds.sort_unstable();
            }
            return Ok(());
        }

        // Every mode rates the job at its share of the resident mass; a
        // batch weighs the sum of its members.
        let (share, weight) = (self.share(id), job.weight);
        // The task table and the assignment come from the scratch pool
        // when a retired round left them (refilled in place — contents
        // identical to fresh allocation).
        let (tasks, mut assignment) = self.take_scratch(self.n(), c_eff, k_eff);
        // The available speeds, the speeds the round is planned at and
        // Algorithm 1's buffers are engine-owned, refilled per round.
        let (avail, plan_speeds) = (&mut self.avail, &mut self.plan_speeds);
        avail.clear();
        avail.extend(avail_speeds(&self.speeds, &self.up));
        plan_speeds.clear();
        let uniform = |&s: &f64| if s > 0.0 { 1.0 } else { 0.0 };
        let degraded = match &self.cfg.scheduler {
            SchedulerMode::Uncoded => {
                plan_speeds.extend(avail.iter().map(uniform));
                #[expect(
                    clippy::expect_used,
                    reason = "engine invariant: the alive >= k_eff guard above makes k=1 allocation infallible"
                )]
                allocate_chunks_into(plan_speeds, 1, c_eff, &mut self.alloc, &mut assignment)
                    .expect("alive >= 1 guarantees feasibility");
                false
            }
            SchedulerMode::ConventionalMds => {
                plan_speeds.extend(avail.iter().map(uniform));
                full_over_available_into(avail, k_eff, c_eff, &mut assignment);
                false
            }
            SchedulerMode::SharedS2c2 { .. } => {
                let preds = self.tracker.predictions_for(avail).iter().zip(&self.up);
                plan_speeds.extend(preds.map(|(&p, &u)| if u { p.max(0.0) } else { 0.0 }));
                // Algorithm 1 on the pool's speeds (the share rates the
                // tasks, not the shape), or rung 2 when the predictions
                // cannot support `k`-coverage.
                let degraded = allocate_chunks_into(
                    plan_speeds,
                    k_eff,
                    c_eff,
                    &mut self.alloc,
                    &mut assignment,
                )
                .is_err();
                if degraded {
                    // Rung 2 runs over the workers that are actually up:
                    // fewer than `k` have a positive prediction, so the
                    // predictions cannot cover a chunk `k` times.
                    full_over_available_into(avail, k_eff, c_eff, &mut assignment);
                }
                degraded
            }
        };

        if degraded {
            self.report.degraded_iterations += 1;
        }

        let generation = self.next_generation;
        self.next_generation += 1;
        let handle = self.agenda.enter(id, generation);
        // Rungs 1 and 2 of the recovery ladder are decided right here at
        // planning time: a predict-feasible start is rung 1, a degraded
        // (reduced-redundancy) start is rung 2. Rungs 3-5 are counted at
        // their trigger points in `super::recovery`.
        let rung: u8 = if degraded { 2 } else { 1 };
        self.report.recovery_rung_counts[usize::from(rung - 1)] += 1;
        trace_into(&mut self.telemetry, at, || TraceEventKind::IterationStart {
            job: id,
            iteration: round_index,
            generation,
            rhs,
            share,
            degraded,
        });
        trace_into(&mut self.telemetry, at, || TraceEventKind::RecoveryRung {
            job: id,
            generation,
            rung,
        });
        let mut iter = RunningIteration {
            job: id,
            generation,
            handle,
            round_index,
            weight,
            k_eff,
            rows_per_chunk: rpc,
            rhs,
            assignment,
            tasks,
            parked_at: None,
            waited_out: false,
            armed_deadline: f64::INFINITY,
            started: at,
            t_input: 0.0,
            last_reply: 0.0,
        };

        // A batch round ships every member's input in one transfer and
        // every member's chunk results in one reply: the per-message
        // latency is paid once per round, not once per member — the
        // fixed cost batching exists to amortize. Compute still scales
        // with the stacked width (`rhs` matvecs per assigned row).
        let t_in = self.comm.transfer_time((cols * rhs * 8) as u64);
        iter.t_input = t_in;
        let speedup = thread_speedup(self.cfg.worker_threads);
        let mut max_planned_span: f64 = 0.0;
        let mut max_actual_span: f64 = 0.0;
        let window = &self.resident[&id].window;
        let mut sinks = sinks!(self, at);
        let Clock { v: v_at, mass, .. } = sinks.clock;
        for (w, &plan_speed) in self.plan_speeds.iter().enumerate() {
            let chunks = iter.assignment.chunks[w].len();
            if chunks == 0 {
                continue;
            }
            // Intra-job serialization: a worker computes one job's
            // rounds in dispatch order at the job's share, so this
            // round's task starts after the worker's live tasks from
            // earlier window rounds. With an empty window (depth 1)
            // `start == v_at` exactly.
            let start = window
                .iter()
                .fold(v_at, |acc, r| acc.max(r.latest_open_finish(w)));
            let offset = (start - v_at) * mass;
            let rows_w = chunks * rpc;
            let work = ((rows_w * cols) * rhs) as f64;
            let rate = self.speeds[w] * share * self.compute.elements_per_sec * speedup;
            let t_reply = self.comm.transfer_time(((rows_w * rhs) * 8) as u64);
            let span = t_in + work / rate + t_reply;
            max_actual_span = max_actual_span.max(offset + span);
            let plan_rate =
                plan_speed.max(f64::MIN_POSITIVE) * share * self.compute.elements_per_sec * speedup;
            max_planned_span = max_planned_span.max(offset + (t_in + work / plan_rate + t_reply));
            let charge = work / rate * share;
            iter.dispatch(w, start, start + span / mass, charge, &mut sinks);
        }

        // Adaptive scheduling arms the deadline from the *plan* (so
        // mis-predictions are caught); the non-adaptive baselines never
        // cancel, so their timeout is a pure churn-recovery safety net
        // armed past every scheduled finish. So is a degraded round's: a
        // zero planning speed plans no meaningful span.
        let span = match self.cfg.scheduler {
            SchedulerMode::SharedS2c2 { .. } if !degraded => max_planned_span,
            SchedulerMode::SharedS2c2 { .. }
            | SchedulerMode::Uncoded
            | SchedulerMode::ConventionalMds => max_actual_span,
        };
        iter.arm(at + (1.0 + TIMEOUT_MARGIN) * span, &mut sinks);
        iter.schedule(sinks.agenda);

        if rhs > 1 {
            self.report.batch_rounds += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: this runs inside a round dispatch for a job verified resident above"
        )]
        let job = self.resident.get_mut(&id).expect("resident job");
        self.backend
            .on_iteration_start(&job.members, &iter, round_index)
            .map_err(ServeError::Backend)?;
        job.stalled_rounds.retain(|&r| r != round_index);
        let pos = job.window.partition_point(|r| r.round_index < round_index);
        job.window.insert(pos, iter);
        Ok(())
    }

    /// Pops a pooled task table (reset in place) and chunk assignment
    /// (for the caller to refill), or builds fresh ones.
    fn take_scratch(&mut self, n: usize, chunks: usize, k: usize) -> (Tasks, ChunkAssignment) {
        let pooled = self.scratch.pop();
        self.report.scratch_reuses += u64::from(pooled.is_some());
        let (mut tasks, assignment) = pooled.unwrap_or_default();
        tasks.reset(n, chunks, k);
        (tasks, assignment)
    }

    /// Applies the earliest open task completion of all rounds, at its
    /// own real instant: the task's slot and coverage, the speed
    /// predictor and the trace. Returns the round, as `(job,
    /// generation)`, if this completion made it decodable, and then
    /// also records its reply time as the round's last.
    pub(crate) fn apply_next_completion(&mut self) -> Result<Option<(JobId, u64)>, ServeError> {
        let Some((v, _, handle)) = self.agenda.backlog.peek() else {
            return Ok(None);
        };
        let (id, generation) = self.agenda.round(handle);
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: the agenda holds rounds of resident jobs only; a round leaves it when it leaves its window"
        )]
        let job = self.resident.get_mut(&id).expect("resident job");
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: the agenda holds rounds of resident jobs only; a round leaves it when it leaves its window"
        )]
        let iter = job
            .window
            .iter_mut()
            .find(|r| r.generation == generation)
            .expect("round in its window");
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: a round is in the backlog exactly while it has an open task"
        )]
        let (worker, redo, chunks) = iter.complete_next(&mut self.agenda).expect("an open task");
        let rows_w = chunks * iter.rows_per_chunk;
        // Feed the predictor with the observed relative rate. Redo
        // tasks are excluded (their span includes master-side idle
        // time, which would skew the estimate — same rule as the
        // single-job engine). The denominator is the dedicated time
        // the task had, `weight · ΔV` from its start, not `duration ·
        // share`, which a rebalance mid-task would mis-scale.
        if !redo && matches!(self.cfg.scheduler, SchedulerMode::SharedS2c2 { .. }) {
            let (start, _) = iter.original_span(worker);
            let dedicated = (iter.weight * (v - start)).max(f64::MIN_POSITIVE);
            // The observed rate covers the whole stacked width the
            // worker actually computed, so batched and unbatched
            // rounds feed the predictor the same per-element speed.
            let observed = ((rows_w * job.members[0].spec.cols) * iter.rhs) as f64 / dedicated;
            self.tracker.observe_one(worker, observed);
        }
        let completed = iter.complete();
        if completed {
            iter.last_reply = self.comm.transfer_time(((rows_w * iter.rhs) * 8) as u64);
        }
        trace_into(&mut self.telemetry, self.clock.real(v), || {
            TraceEventKind::TaskComplete {
                job: id,
                worker,
                generation,
                redo,
            }
        });
        Ok(completed.then_some((id, generation)))
    }

    /// A round's coverage is complete: cancel the tasks nobody waits for
    /// and either retire it (window head) or park it behind its earlier
    /// siblings (in-order commit).
    pub(crate) fn on_round_complete(
        &mut self,
        id: JobId,
        generation: u64,
    ) -> Result<(), ServeError> {
        let now = self.clock.now;
        let Some(job) = self.resident.get_mut(&id) else {
            return Ok(());
        };
        let Some(pos) = job.window.iter().position(|r| r.generation == generation) else {
            return Ok(());
        };
        // Retirable only when every earlier round has already been
        // committed — a capacity-stalled earlier round is *not* in the
        // window, so head position alone is not enough.
        let head = pos == 0 && job.window[0].round_index == job.iterations_done;
        let iter = &mut job.window[pos];
        // The master stops caring about still-running tasks (conventional
        // stragglers, superfluous redo). Cancelling closes their slots,
        // so a later churn event finds nothing to refund while the round
        // sits parked, and with its deadline gone the round leaves
        // nothing on the agenda.
        let mut sinks = sinks!(self, now);
        iter.cancel_open(&mut sinks);
        iter.disarm(&mut sinks);
        iter.parked_at = Some(now);
        if head {
            return self.retire_ready_rounds(id);
        }
        // Parked: an earlier round is still running (or being
        // recovered). The decode/verify commit waits for it.
        self.report.rounds_parked += 1;
        let iteration = iter.round_index;
        trace_into(&mut self.telemetry, now, || TraceEventKind::RoundParked {
            job: id,
            iteration,
            generation,
        });
        Ok(())
    }

    /// Retires the job's window head and every parked successor behind
    /// it, committing decode/verify strictly in round order, then tops
    /// the window back up. At depth 1 this is exactly the barrier
    /// engine's iteration completion.
    pub(crate) fn retire_ready_rounds(&mut self, id: JobId) -> Result<(), ServeError> {
        let mut at = self.clock.now;
        // The head this call retires was the round blocking any parked
        // successors: account the in-order-commit stall it caused.
        if self.cfg.pipeline_depth > 1 {
            if let Some(job) = self.resident.get(&id) {
                let earliest_parked = job
                    .window
                    .iter()
                    .skip(1)
                    .filter_map(|r| r.parked_at)
                    .fold(f64::INFINITY, f64::min);
                if let Some(head) = job.window.first() {
                    if earliest_parked.is_finite() {
                        let head_gen = head.generation;
                        let seconds = (at - earliest_parked).max(0.0);
                        trace_into(&mut self.telemetry, at, || TraceEventKind::PipelineStall {
                            job: id,
                            generation: head_gen,
                            seconds,
                        });
                    }
                }
            }
        }
        loop {
            let Some(job) = self.resident.get_mut(&id) else {
                return Ok(());
            };
            let ready = job
                .window
                .first()
                .is_some_and(|r| r.parked_at.is_some() && r.round_index == job.iterations_done);
            if !ready {
                break;
            }
            let iter = job.window.remove(0);
            let completed_at = iter.parked_at.unwrap_or(at);
            let is_final = job.iterations_done + 1 >= job.leader().iterations;
            self.backend
                .on_iteration_complete(&job.members, &iter, job.iterations_done, is_final)
                .map_err(ServeError::Backend)?;
            let decode_time = match self.cfg.scheduler {
                SchedulerMode::Uncoded => 0.0,
                SchedulerMode::ConventionalMds | SchedulerMode::SharedS2c2 { .. } => {
                    iter.decode_flops(&mut self.decode_scratch) / self.decode_flops_per_sec
                }
            };
            let end = at + decode_time;
            // Virtual phase decomposition of the completed round: the span
            // from round dispatch to the last counted reply splits into the
            // input broadcast (dispatch), the straggler-bounded compute, and
            // the final reply transfer (collect); decode is appended after.
            // The pieces are carved out of the span itself, so they sum to
            // `iteration_time_total` exactly — no separate model to drift.
            let span = (completed_at - iter.started).max(0.0);
            let dispatch = iter.t_input.min(span);
            let rest = span - dispatch;
            let collect = iter.last_reply.min(rest);
            let compute = rest - collect;
            self.report.phase_virtual.dispatch += dispatch;
            self.report.phase_virtual.compute += compute;
            self.report.phase_virtual.collect += collect;
            self.report.phase_virtual.decode += decode_time;
            self.report.iteration_time_total += span + decode_time;
            let generation = iter.generation;
            let iteration_index = job.iterations_done;
            trace_into(&mut self.telemetry, at, || TraceEventKind::Decode {
                job: id,
                generation,
                seconds: decode_time,
            });
            trace_into(&mut self.telemetry, end, || TraceEventKind::Verify {
                job: id,
                generation,
            });
            trace_into(&mut self.telemetry, end, || {
                TraceEventKind::IterationComplete {
                    job: id,
                    iteration: iteration_index,
                    generation,
                }
            });
            // Pipeline accounting: how long this round sat parked behind
            // its predecessors, and how much of its span overlapped the
            // previous round's lifetime. Both are identically 0 at
            // depth 1.
            let parked_for = (at - completed_at).max(0.0);
            self.report.pipeline_stall_time += parked_for;
            self.report.pipeline_overlap_time += (job.last_retire_end - iter.started).max(0.0);
            if self.cfg.pipeline_depth > 1 {
                trace_into(&mut self.telemetry, end, || TraceEventKind::RoundRetired {
                    job: id,
                    iteration: iteration_index,
                    generation,
                    parked: parked_for,
                });
            }
            job.iterations_done += 1;
            job.iter_retries = 0;
            job.last_retire_end = end;
            iter.reclaim(&mut self.scratch, &mut self.agenda);
            if job.iterations_done >= job.leader().iterations {
                return self.resolve_job(id, end, Fate::Completed);
            }
            at = end;
        }
        // The commit cursor advanced and the window has room: dispatch
        // the next fresh rounds from the last decode's end.
        self.fill_window(id, at)
    }

    fn on_churn(&mut self, worker: usize, up: bool) -> Result<(), ServeError> {
        self.up[worker] = up;
        let now = self.clock.now;
        trace_into(&mut self.telemetry, now, || {
            if up {
                TraceEventKind::WorkerUp { worker }
            } else {
                TraceEventKind::WorkerDown { worker }
            }
        });
        if up {
            // Capacity returned: wake rounds stalled on feasibility, in
            // round order per job (a failed re-dispatch re-stalls them).
            let waiting: Vec<(JobId, Vec<usize>)> = self
                .resident
                .iter_mut()
                .filter(|(_, j)| !j.stalled_rounds.is_empty())
                .map(|(&id, j)| (id, std::mem::take(&mut j.stalled_rounds)))
                .collect();
            for (id, rounds) in waiting {
                for round_index in rounds {
                    self.dispatch_round(id, round_index, now)?;
                }
            }
            return Ok(());
        }
        // Departure: invalidate the worker's in-flight tasks across every
        // window round and check each affected round for lost coverage.
        let ids: Vec<JobId> = self.resident.keys().copied().collect();
        for id in ids {
            let Some(job) = self.resident.get_mut(&id) else {
                continue;
            };
            let mut doomed: Vec<u64> = Vec::new();
            let mut sinks = sinks!(self, now);
            for iter in &mut job.window {
                // Parked rounds have no live tasks (cancelled at park).
                if iter.parked_at.is_some() {
                    continue;
                }
                // `|`, not `||`: both of the worker's tasks go.
                let affected =
                    iter.cancel(worker, false, &mut sinks) | iter.cancel(worker, true, &mut sinks);
                if affected {
                    iter.schedule(sinks.agenda);
                    if iter.doomed() {
                        doomed.push(iter.generation);
                    }
                }
            }
            for generation in doomed {
                // A rung-5 restart inside an earlier recovery may have
                // failed the whole job; `recover` re-validates.
                self.recover(id, generation, false)?;
            }
        }
        Ok(())
    }

    /// Applies epoch `epoch`'s samples in place: every worker's new speed,
    /// then each availability flip, in worker order. The next tick is
    /// decided and queued *before* the flips, so a departure that fails
    /// the last job still leaves one trailing tick (and its trace).
    pub(crate) fn on_epoch_tick(&mut self, epoch: usize) -> Result<(), ServeError> {
        for (w, m) in self.models.iter_mut().enumerate() {
            self.speeds[w] = sample_speed(m, w, epoch)?;
        }
        if self.work_remains() {
            self.agenda.tick(self.clock.now + EPOCH, epoch + 1);
        }
        let mask = self.churn.advance_to(epoch).iter().zip(&self.up);
        let flips: Vec<(usize, bool)> = mask
            .enumerate()
            .filter(|(_, (now, was))| now != was)
            .map(|(w, (&up, _))| (w, up))
            .collect();
        for (w, up) in flips {
            self.on_churn(w, up)?;
        }
        Ok(())
    }
}
