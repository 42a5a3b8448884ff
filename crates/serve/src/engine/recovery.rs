//! The §4.3 robustness ladder's recovery rungs (3–5): cancel late
//! workers and hand their chunks to finished ones, wait out stragglers
//! when nobody has spare capacity, and restart the iteration when a
//! churn storm took everyone.
//!
//! Under pipelined serving every rung operates *per in-flight round*:
//! recovery is keyed by the round's generation, touches only that
//! round's tasks, and a rung-5 restart re-dispatches the same round
//! index while later window rounds keep running (their results park
//! until the restarted round commits).
//!
//! Every cancellation and reassignment is mirrored to the execution
//! backend, so a real-threads run cancels the same worker tasks (via
//! the [`s2c2_cluster::threaded::ThreadedCluster`] cooperative-cancel
//! hook) and dispatches the same redo work the timing model schedules.

use super::core::Fate;
use super::round::sinks;
use super::{thread_speedup, trace_into, SchedulerMode, ServeError, ServiceEngine};
use crate::event::JobId;
use s2c2_telemetry::TraceEventKind;

impl ServiceEngine {
    /// Deadline-miss / churn recovery for one in-flight round: the
    /// robustness ladder's rungs 3–5.
    pub(crate) fn recover(
        &mut self,
        id: JobId,
        generation: u64,
        from_timeout: bool,
    ) -> Result<(), ServeError> {
        let now = self.now;
        let speedup = thread_speedup(self.cfg.worker_threads);
        let cancel_late = matches!(self.cfg.scheduler, SchedulerMode::SharedS2c2 { .. });
        let margin = self.cfg.timeout_margin;
        let elements_per_sec = self.compute.elements_per_sec;
        let comm = self.comm;
        let mut sinks = sinks!(self, now);

        // Both lookups are graceful: a churn sweep may queue several
        // doomed generations for one job, and an earlier rung-5 restart
        // can have failed the whole job (or replaced the round) before a
        // later entry is processed.
        let Some(job) = self.resident.get_mut(&id) else {
            return Ok(());
        };
        let cols = job.members[0].spec.cols;
        let Some(pos) = job.window.iter().position(|r| r.generation == generation) else {
            return Ok(());
        };
        if job.window[pos].parked_at.is_some() {
            // Coverage already complete; the round is only waiting for an
            // earlier sibling to retire. Nothing to recover.
            return Ok(());
        }
        let iter = &mut job.window[pos];
        let n = iter.assignment.workers();
        let rpc = iter.rows_per_chunk;
        // A mid-batch straggler degrades or redoes *per batch*: the
        // whole stacked round is recovered at once, so per-member
        // coverage accounting (every member decodes from the identical
        // worker/chunk set) can never diverge inside one batch.
        let rhs = iter.rhs;

        // Outstanding need per chunk (adaptive mode has written the
        // in-flight originals off, the baselines still count on them).
        let need: Vec<usize> = (0..iter.assignment.chunks_per_partition)
            .map(|chunk| iter.shortfall(chunk, !cancel_late))
            .collect();
        if need.iter().all(|&short| short == 0) {
            // Everything outstanding is already being handled; re-arm the
            // safety net behind the open tasks.
            iter.arm_behind(iter.latest_open(), margin, &mut sinks);
            return Ok(());
        }

        // Rung 3: hand the missing chunks to finished, still-present
        // workers (they hold the coded partitions — no data movement).
        if let Some(extra) = iter.plan_redo(&need, &self.up) {
            if cancel_late {
                // Cancel the late workers AND feed the estimator what the
                // master actually learned: by the deadline each cancelled
                // worker had processed `rate · elapsed` elements (the
                // single-job engine's partial-observation rule). Without
                // this, a cold-start straggler is cancelled before it can
                // ever report a speed and stays mispredicted forever.
                let mut obs: Vec<Option<f64>> = vec![None; n];
                let t_in = comm.transfer_time((cols * rhs * 8) as u64);
                for (w, slot) in obs.iter_mut().enumerate() {
                    if !iter.cancel_late(w, &mut sinks) {
                        continue;
                    }
                    let rows_w = iter.assignment.chunks[w].len() * rpc;
                    let work = ((rows_w * cols) * rhs) as f64;
                    let t_reply = comm.transfer_time(((rows_w * rhs) * 8) as u64);
                    // Reconstruct progress in *dedicated* share-
                    // seconds (the share integral), not wall time —
                    // rebalances change the share mid-task, and wall
                    // spans would misattribute the mixed-share
                    // window. Comm legs are charged at the current
                    // share (exact when the share never changed).
                    // Pipelined rounds subtract the queueing offset
                    // spent waiting behind earlier window rounds
                    // (identically 0 at depth 1).
                    let ded_total = iter.task_dedicated_by(w, None);
                    let ded_elapsed = iter.task_dedicated_by(w, Some(now));
                    let ded_comm = (t_in + t_reply) * iter.share;
                    let compute_ded = (ded_total - ded_comm).max(f64::MIN_POSITIVE);
                    let rate = work / compute_ded;
                    let partial = (rate * (ded_elapsed - t_in * iter.share).max(0.0)).min(work);
                    *slot = Some(partial.max(1.0) / ded_elapsed);
                }
                if obs.iter().any(Option::is_some) {
                    self.tracker.observe(&obs);
                }
            }
            // Rung 3 of the ladder: chunks actually move to finished
            // workers this recovery pass.
            self.report.recovery_rung_counts[2] += 1;
            trace_into(sinks.telemetry, now, || TraceEventKind::RecoveryRung {
                job: id,
                generation,
                rung: 3,
            });
            let mut latest_redo = now;
            for (w, new_chunks) in extra.into_iter().enumerate() {
                if new_chunks.is_empty() {
                    continue;
                }
                // Dispatch the reassigned chunks for real before merging
                // them into the timing model's bookkeeping.
                sinks
                    .backend
                    .on_redo(id, generation, w, &new_chunks)
                    .map_err(ServeError::Backend)?;
                // Merge with any still-pending redo on the same worker:
                // the combined task finishes after both workloads.
                let base = iter.open_finish(w, true).unwrap_or(now);
                let rows_w = new_chunks.len() * rpc;
                let work = ((rows_w * cols) * rhs) as f64;
                let rate = self.speeds[w] * iter.share * elements_per_sec * speedup;
                // Coded hosts already hold the partitions, so the work
                // order is a 64-byte control message; uncoded hosts must
                // first receive the raw rows being reassigned.
                let order_bytes = if matches!(self.cfg.scheduler, SchedulerMode::Uncoded) {
                    64 + ((rows_w * cols) * rhs * 8) as u64
                } else {
                    64
                };
                let finish = base
                    + comm.transfer_time(order_bytes)
                    + work / rate
                    + comm.transfer_time(((rows_w * rhs) * 8) as u64);
                latest_redo = latest_redo.max(finish);
                let charge = work / rate * iter.share;
                iter.dispatch_redo(w, new_chunks, finish, charge, &mut sinks);
            }
            if from_timeout {
                self.report.timeouts += 1;
            }
            iter.arm_behind(latest_redo, margin, &mut sinks);
            return Ok(());
        }

        // Rung 4: not enough finished workers — wait out whatever is
        // still in flight (conventional semantics).
        if iter.has_open() {
            if !iter.waited_out {
                iter.waited_out = true;
                self.report.degraded_iterations += 1;
                // Rung 4: no spare finished workers — conventional
                // wait-out. Counted once per iteration (the flag), not
                // once per re-armed deadline.
                self.report.recovery_rung_counts[3] += 1;
                trace_into(sinks.telemetry, now, || TraceEventKind::RecoveryRung {
                    job: id,
                    generation,
                    rung: 4,
                });
            }
            iter.arm_behind(iter.latest_open(), margin, &mut sinks);
            return Ok(());
        }

        // Rung 5: churn storm took everyone — restart this round. Later
        // window rounds keep running: their completions park behind the
        // commit cursor until the restarted round retires.
        self.report.recovery_rung_counts[4] += 1;
        trace_into(sinks.telemetry, now, || TraceEventKind::RecoveryRung {
            job: id,
            generation,
            rung: 5,
        });
        let failed_round = job.window.remove(pos);
        let round_index = failed_round.round_index;
        failed_round.reclaim(&mut self.scratch);
        sinks.backend.on_iteration_abandoned(id, generation);
        job.iter_retries += 1;
        job.total_retries += 1;
        if job.iter_retries <= self.cfg.max_retries {
            return self.dispatch_round(id, round_index, now);
        }
        // The retry budget is a property of the residency: when it is
        // exhausted, every member of the batch fails together, each
        // with its own record. The rest of the window is torn down with
        // it — cancel every surviving in-flight task and abandon each
        // round at the backend.
        for mut round in job.window.drain(..) {
            round.cancel_open(&mut sinks);
            sinks.backend.on_iteration_abandoned(id, round.generation);
            round.reclaim(&mut self.scratch);
        }
        self.resolve_job(id, now, Fate::Failed)
    }
}
