//! The per-round task model: one in-flight iteration round, the two
//! task slots every worker has in it, and the only code that reads or
//! writes them.
//!
//! In the paper's §4.3 a reassigned chunk is the same kind of task as
//! an original one — a finished worker that already holds the coded
//! partition computes a few more chunks, no data moves. So a worker's
//! original task and its redo task are the same [`TaskSlot`], told
//! apart only by the `redo` flag every engine event already carries,
//! and every lifecycle step exists once, for both: dispatch, completion,
//! cancellation (the single refund + backend cancel + `TaskCancel`
//! site), share rescaling, and deadline (re)arming (the single
//! `Timeout` push). The coverage questions the recovery ladder, the
//! decode-cost model and the numeric backends ask — is the round
//! decodable, how far short is a chunk, is it doomed, which responses
//! are credited — are answered here too, so a code that counts
//! something other than chunks-per-worker (symbols collected, row
//! ranges) has one place to change.
//!
//! Those answers are *kept*, not recomputed: every transition of a
//! slot re-files its chunks in a per-chunk response tally
//! ([`ChunkCover`]), at a cost proportional to the task's own chunk
//! list, so a worker reply costs the master what the reply carries and
//! "is the round decodable" is one compare. The definitional
//! chunks × workers scans survive as `#[cfg(test)]` oracles the tally
//! is differentially tested against.
//!
//! `core`, `recovery`, `rebalance` and `backend` are clients: none of
//! them indexes task state by worker.

use super::backend::ExecutionBackend;
use super::trace_into;
use crate::event::{EventKind, EventQueue, JobId};
use s2c2_core::strategy::mds::chunk_decode_flops;
use s2c2_core::ChunkAssignment;
use s2c2_telemetry::{Telemetry, TraceEventKind};
use std::ops::Range;

/// Where a task is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No task the master counts on: never dispatched, or cancelled
    /// (deadline, churn, or abandoned when its round completes without
    /// it).
    Idle,
    /// Dispatched, not cancelled, not finished: the master is still
    /// waiting for this task.
    Open,
    /// Finished: its chunks are responses in hand.
    Done,
}

/// One task of one worker in one round — the original assignment or the
/// redo reassigned to it by rung 3.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TaskSlot {
    /// Scheduled finish instant (`INFINITY` until a task is dispatched).
    finish: f64,
    phase: Phase,
    /// Dedicated compute-seconds charged to `busy_time` for this task
    /// (refunded pro rata when it is cancelled).
    busy_charged: f64,
}

impl TaskSlot {
    const EMPTY: TaskSlot = TaskSlot {
        finish: f64::INFINITY,
        phase: Phase::Idle,
        busy_charged: 0.0,
    };

    /// A worker with no task is never open.
    fn open(&self) -> bool {
        self.phase == Phase::Open
    }
}

/// The responses one chunk has, tallied by the phase of the task that
/// carries them. Idle tasks carry none.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ChunkCover {
    /// Responses in hand: done tasks holding the chunk.
    done: usize,
    /// Responses still awaited, `[from originals, from redos]`.
    open: [usize; 2],
}

/// Everything a round tracks about one worker.
#[derive(Debug, Clone, PartialEq)]
struct WorkerTasks {
    /// `[original, redo]`, indexed by the `redo` flag.
    slots: [TaskSlot; 2],
    /// Chunks of the (possibly merged) redo task; the original's chunks
    /// are the round's `assignment`.
    redo_chunks: Vec<usize>,
    /// Dedicated share-seconds between this round's dispatch and the
    /// worker's actual task start. A pipelined round queues behind the
    /// job's earlier in-flight rounds on a shared worker, so speed
    /// observations must subtract this offset from the share integral
    /// or the queueing delay would be billed as slowness. Exactly 0 at
    /// pipeline depth 1.
    ded_offset: f64,
}

/// A round's per-worker task table. Retired rounds hand theirs back to
/// the engine's scratch pool and the next dispatch re-initializes it in
/// place — contents after [`Tasks::reset`] equal fresh construction, so
/// reuse is invisible to the timing model (and counted in
/// `ServiceReport::scratch_reuses`). Under pipelining a job touches
/// `depth ×` as many live rounds, which is what the pool is for.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Tasks {
    workers: Vec<WorkerTasks>,
    /// Per chunk of the partition, kept in step with the slots by
    /// [`RunningIteration::refile`].
    cover: Vec<ChunkCover>,
    /// Chunks whose responses in hand are still short of `k`.
    short: usize,
}

/// Upper bound on pooled task tables: enough for every resident job's
/// whole window in any realistic configuration, small enough that a
/// churn-heavy run cannot hoard memory.
const SCRATCH_POOL_CAP: usize = 64;

impl Tasks {
    /// Re-initializes the table for an `n`-worker round over `chunks`
    /// chunks per partition that each need `k` responses. Inner chunk
    /// lists keep their capacity — the per-round allocation the pool
    /// exists to avoid.
    pub(crate) fn reset(&mut self, n: usize, chunks: usize, k: usize) {
        self.workers.truncate(n);
        for t in &mut self.workers {
            t.slots = [TaskSlot::EMPTY; 2];
            t.redo_chunks.clear();
            t.ded_offset = 0.0;
        }
        self.workers.resize_with(n, || WorkerTasks {
            slots: [TaskSlot::EMPTY; 2],
            redo_chunks: Vec::new(),
            ded_offset: 0.0,
        });
        self.cover.clear();
        self.cover.resize(chunks, ChunkCover::default());
        self.short = if k > 0 { chunks } else { 0 };
    }

    #[cfg(test)]
    pub(crate) fn redo_capacity(&self, worker: usize) -> usize {
        self.workers[worker].redo_chunks.capacity()
    }
}

/// The engine state a task transition writes to, borrowed field by
/// field so the resident map (and the round inside it) stays borrowable
/// next to it. Built with [`sinks!`].
pub(crate) struct Sinks<'a> {
    pub(crate) now: f64,
    pub(crate) busy_time: &'a mut [f64],
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) backend: &'a mut dyn ExecutionBackend,
    pub(crate) telemetry: &'a mut Option<Telemetry>,
}

/// `sinks!(engine, now)`: the [`Sinks`] of a `ServiceEngine`. A macro,
/// not a method, because a method would borrow the whole engine.
macro_rules! sinks {
    ($engine:ident, $now:expr) => {
        $crate::engine::round::Sinks {
            now: $now,
            busy_time: &mut $engine.report.busy_time,
            queue: &mut $engine.queue,
            backend: $engine.backend.as_mut(),
            telemetry: &mut $engine.telemetry,
        }
    };
}
pub(crate) use sinks;

/// One credited response of a completed round.
pub(crate) struct Credit<'a> {
    pub(crate) worker: usize,
    pub(crate) chunks: &'a [usize],
}

/// Buffers [`RunningIteration::decode_flops`] works in, owned by the
/// engine and reused round after round.
#[derive(Debug, Default)]
pub(crate) struct DecodeScratch {
    /// The credited tasks as `(finish, worker, redo)`, fastest first.
    order: Vec<(f64, usize, bool)>,
    /// Per chunk: `(responses taken, of which non-systematic)`.
    taken: Vec<(usize, usize)>,
}

/// One in-flight iteration round of a resident job (or batch of jobs).
/// A job holds up to `pipeline.depth()` of these at once, committed in
/// `round_index` order.
#[derive(Debug)]
pub(crate) struct RunningIteration {
    /// Leader id of the residency this round belongs to (keys every
    /// event and backend call the round makes).
    pub(crate) job: JobId,
    pub(crate) generation: u64,
    /// Zero-based iteration index of this round within its job — the
    /// in-order commit key: a round retires only when every earlier
    /// index has.
    pub(crate) round_index: usize,
    pub(crate) share: f64,
    pub(crate) k_eff: usize,
    pub(crate) rows_per_chunk: usize,
    /// Stacked right-hand sides this round carries: 1 for a solo job,
    /// the member count for a batch round. Every compute charge,
    /// transfer size, and decode cost scales by it (the shared LU
    /// factorization does not — that is the decode amortization).
    pub(crate) rhs: usize,
    pub(crate) assignment: ChunkAssignment,
    pub(crate) tasks: Tasks,
    /// Set once this round's coverage completed and it is waiting for
    /// its earlier siblings to retire (in-order commit). The value is
    /// the completion instant; `None` while tasks are still in flight.
    pub(crate) parked_at: Option<f64>,
    /// Set once this iteration fell back to waiting out stragglers.
    pub(crate) waited_out: bool,
    /// The currently-armed §4.3 deadline. Kept for the rebalance
    /// re-arm condition (`latest >= armed_deadline`); staleness of
    /// timeout *events* is decided by [`Self::armed_seq`].
    pub(crate) armed_deadline: f64,
    /// Arming sequence number: bumped at every (re)arm of this round's
    /// deadline, carried in the scheduled timeout event. A timeout
    /// whose `arm` does not match was superseded (share rebalances
    /// stretch in-flight spans and re-arm) and is dropped — keyed per
    /// round, so a retired round's stale timeout can never fire against
    /// a successor round.
    pub(crate) armed_seq: u64,
    /// Dedicated share-seconds accumulated over completed share
    /// segments: `∫ share dt` from iteration start to [`Self::share_anchor`].
    /// With rebalancing, `duration · share` is wrong whenever the share
    /// changed mid-task; speed observations must use this integral or
    /// the predictor inherits a bias of up to `old_share / new_share`.
    pub(crate) share_integral: f64,
    /// Instant the current share segment began.
    pub(crate) share_anchor: f64,
    /// Instant this round was dispatched (phase-profiling anchor).
    pub(crate) started: f64,
    /// Input-broadcast transfer time of this round (the virtual
    /// "dispatch" phase).
    pub(crate) t_input: f64,
    /// Reply transfer time of the most recent task completion — by the
    /// time the iteration completes, the "collect" phase of the
    /// critical path.
    pub(crate) last_reply: f64,
}

/// Refunds the not-yet-performed remainder of an abandoned task's
/// compute charge: a task scheduled to finish at `slot.finish` and
/// abandoned at `now` still owes `(finish − now) · share` dedicated
/// compute-seconds (capped at what was charged).
fn refund_busy(busy_time: &mut f64, slot: &mut TaskSlot, now: f64, share: f64) {
    let refund = ((slot.finish - now) * share).clamp(0.0, slot.busy_charged);
    *busy_time -= refund;
    slot.busy_charged -= refund;
}

impl RunningIteration {
    fn slot(&self, worker: usize, redo: bool) -> &TaskSlot {
        &self.tasks.workers[worker].slots[usize::from(redo)]
    }

    /// Whether `worker`'s *original* assignment includes `chunk`.
    fn covers(&self, worker: usize, chunk: usize) -> bool {
        self.assignment.chunks[worker].binary_search(&chunk).is_ok()
    }

    /// The chunk list behind one of `worker`'s two tasks.
    fn chunks(&self, worker: usize, redo: bool) -> &[usize] {
        if redo {
            &self.tasks.workers[worker].redo_chunks
        } else {
            &self.assignment.chunks[worker]
        }
    }

    /// Returns a retired round's task table to the scratch pool for the
    /// next dispatch. A full pool simply drops it.
    pub(crate) fn reclaim(self, pool: &mut Vec<Tasks>) {
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(self.tasks);
        }
    }

    /// Dedicated share-seconds the iteration has accrued by instant `t`
    /// (`∫ share` over `[start, t]`, exact across share rebalances).
    fn dedicated_by(&self, t: f64) -> f64 {
        self.share_integral + (t - self.share_anchor).max(0.0) * self.share
    }

    /// Dedicated share-seconds `worker`'s original task has had by
    /// instant `t` (`None`: by its scheduled finish) — the share
    /// integral minus the queueing offset spent behind earlier window
    /// rounds.
    pub(crate) fn task_dedicated_by(&self, worker: usize, t: Option<f64>) -> f64 {
        let t = t.unwrap_or(self.slot(worker, false).finish);
        (self.dedicated_by(t) - self.tasks.workers[worker].ded_offset).max(f64::MIN_POSITIVE)
    }

    // ---- lifecycle ------------------------------------------------------

    fn completion(&self, worker: usize, redo: bool) -> EventKind {
        EventKind::TaskComplete {
            job: self.job,
            worker,
            generation: self.generation,
            redo,
        }
    }

    /// Moves the responses `worker`'s task carries — the chunks at
    /// `range` of its list — from one phase's tally to another's. The
    /// only writer of the coverage tally; every slot transition calls
    /// it, at a cost proportional to the task's own chunk list.
    fn refile(&mut self, worker: usize, redo: bool, range: Range<usize>, from: Phase, to: Phase) {
        let k = self.k_eff;
        let Tasks {
            workers,
            cover,
            short,
        } = &mut self.tasks;
        let chunks: &[usize] = if redo {
            &workers[worker].redo_chunks
        } else {
            &self.assignment.chunks[worker]
        };
        for &chunk in &chunks[range] {
            let tally = &mut cover[chunk];
            match from {
                Phase::Idle => {}
                Phase::Open => tally.open[usize::from(redo)] -= 1,
                Phase::Done => {
                    *short += usize::from(tally.done == k);
                    tally.done -= 1;
                }
            }
            match to {
                Phase::Idle => {}
                Phase::Open => tally.open[usize::from(redo)] += 1,
                Phase::Done => {
                    tally.done += 1;
                    *short -= usize::from(tally.done == k);
                }
            }
        }
    }

    /// Starts (or, for a redo merged onto an earlier one, restarts) one
    /// of `worker`'s tasks, whose chunk list is newly handed out from
    /// position `fresh` on: charges `charge` dedicated compute-seconds,
    /// traces the dispatch and schedules the completion. Utilization is
    /// accounted in dedicated compute-seconds (the share factor
    /// stretches wall time, not work done).
    fn launch(
        &mut self,
        worker: usize,
        redo: bool,
        fresh: usize,
        finish: f64,
        charge: f64,
        s: &mut Sinks,
    ) {
        let slot = &mut self.tasks.workers[worker].slots[usize::from(redo)];
        let was = slot.phase;
        *slot = TaskSlot {
            finish,
            phase: Phase::Open,
            busy_charged: slot.busy_charged + charge,
        };
        // A redo merged onto a *finished* one is credited as a whole,
        // only once it finishes again: what it had in hand goes back to
        // awaited (the one place a done task reopens). Merged onto a
        // pending one, the old chunks are awaited already; an idle slot
        // holds none.
        debug_assert!(
            was != Phase::Idle || fresh == 0,
            "idle slots hold no chunks"
        );
        if was == Phase::Done {
            self.refile(worker, redo, 0..fresh, Phase::Done, Phase::Open);
        }
        let held = self.chunks(worker, redo).len();
        self.refile(worker, redo, fresh..held, Phase::Idle, Phase::Open);
        s.busy_time[worker] += charge;
        let (job, generation) = (self.job, self.generation);
        trace_into(s.telemetry, s.now, || TraceEventKind::TaskDispatch {
            job,
            worker,
            generation,
            chunks: held,
            redo,
        });
        s.queue.push(finish, self.completion(worker, redo));
    }

    /// Dispatches `worker`'s original task. `ded_offset` freezes the
    /// queueing delay behind earlier window rounds in dedicated
    /// share-seconds so speed observations can subtract it (approximate
    /// across a later rebalance, exact otherwise; identically 0 at
    /// depth 1).
    pub(crate) fn dispatch(
        &mut self,
        worker: usize,
        finish: f64,
        charge: f64,
        ded_offset: f64,
        s: &mut Sinks,
    ) {
        debug_assert!(
            self.slot(worker, false).phase == Phase::Idle,
            "a round dispatches each original once"
        );
        self.tasks.workers[worker].ded_offset = ded_offset;
        self.launch(worker, false, 0, finish, charge, s);
    }

    /// Dispatches reassigned `chunks` — none of which `worker` already
    /// holds, the [`Self::plan_redo`] rule — to finished worker
    /// `worker`, merged with whatever redo it already holds: the merged
    /// task is credited as a whole, only once it finishes.
    pub(crate) fn dispatch_redo(
        &mut self,
        worker: usize,
        chunks: Vec<usize>,
        finish: f64,
        charge: f64,
        s: &mut Sinks,
    ) {
        let held = &mut self.tasks.workers[worker].redo_chunks;
        let fresh = held.len();
        held.extend(chunks);
        self.launch(worker, true, fresh, finish, charge, s);
    }

    /// A completion event fired at `t`: marks the task done and returns
    /// how many chunks it replied with, or `None` for a stale event.
    /// The finish-time match drops completions superseded by a share
    /// rebalance or a merged redo (the task was rescheduled); a
    /// cancelled task's completion is stale by its flag.
    pub(crate) fn complete_task(&mut self, worker: usize, redo: bool, t: f64) -> Option<usize> {
        let slot = &mut self.tasks.workers[worker].slots[usize::from(redo)];
        if !slot.open() || (t - slot.finish).abs() > 1e-9 {
            return None;
        }
        slot.phase = Phase::Done;
        let replied = self.chunks(worker, redo).len();
        self.refile(worker, redo, 0..replied, Phase::Open, Phase::Done);
        Some(replied)
    }

    /// The master stops caring about one task: refunds the compute it
    /// will not perform, tells the backend so real workers drop the
    /// work too, and traces the cancel. Returns whether there was an
    /// open task to cancel — on a task that is done, already cancelled
    /// or was never dispatched this is a no-op, so no caller can refund
    /// twice. A cancelled redo also drops its chunk list: the recompute
    /// never happens, and a later redo merged onto this worker must not
    /// credit coverage nobody computed.
    pub(crate) fn cancel(&mut self, worker: usize, redo: bool, s: &mut Sinks) -> bool {
        let slot = &mut self.tasks.workers[worker].slots[usize::from(redo)];
        if !slot.open() {
            return false;
        }
        slot.phase = Phase::Idle;
        refund_busy(&mut s.busy_time[worker], slot, s.now, self.share);
        let awaited = self.chunks(worker, redo).len();
        self.refile(worker, redo, 0..awaited, Phase::Open, Phase::Idle);
        if redo {
            self.tasks.workers[worker].redo_chunks.clear();
        }
        let (job, generation) = (self.job, self.generation);
        s.backend.on_cancel(job, generation, worker, redo);
        trace_into(s.telemetry, s.now, || TraceEventKind::TaskCancel {
            job,
            worker,
            generation,
            redo,
        });
        true
    }

    /// Rung 3's cancel of a late original: only a task still scheduled
    /// past `now`. A worker with no task this round is not open, so it
    /// can never be "cancelled" into a fabricated near-zero speed
    /// observation that would permanently exclude a healthy worker.
    pub(crate) fn cancel_late(&mut self, worker: usize, s: &mut Sinks) -> bool {
        self.slot(worker, false).finish > s.now && self.cancel(worker, false, s)
    }

    /// Cancels every task the round is still waiting for (conventional
    /// stragglers and superfluous redos at completion, everything when
    /// the round is torn down).
    pub(crate) fn cancel_open(&mut self, s: &mut Sinks) {
        for worker in 0..self.tasks.workers.len() {
            self.cancel(worker, false, s);
            self.cancel(worker, true, s);
        }
    }

    /// Moves the round to `new_share` at `s.now`: stretches every open
    /// task's remaining span by `old_share / new_share`, reschedules
    /// its completion (the superseded event is dropped by its stale
    /// finish time) and closes the old share segment so speed
    /// observations integrate the true dedicated time across the
    /// change. Returns the latest stretched finish, or `None` if no
    /// task moved. Busy accounting needs no adjustment: a task's
    /// dedicated compute-seconds are share-invariant, and the refund
    /// rule `(finish − now) · share` is preserved exactly.
    pub(crate) fn rescale(&mut self, new_share: f64, s: &mut Sinks) -> Option<f64> {
        let (old_share, now) = (self.share, s.now);
        if (new_share - old_share).abs() <= 1e-12 * new_share.max(old_share) {
            return None;
        }
        let stretch = old_share / new_share;
        let mut latest = None;
        for worker in 0..self.tasks.workers.len() {
            for redo in [false, true] {
                let slot = &mut self.tasks.workers[worker].slots[usize::from(redo)];
                if slot.open() && slot.finish > now {
                    let finish = now + (slot.finish - now) * stretch;
                    slot.finish = finish;
                    latest = Some(latest.map_or(finish, |l: f64| l.max(finish)));
                    s.queue.push(finish, self.completion(worker, redo));
                }
            }
        }
        self.share_integral += (now - self.share_anchor).max(0.0) * old_share;
        self.share_anchor = self.share_anchor.max(now);
        self.share = new_share;
        latest
    }

    /// (Re)arms the round's deadline: bumps the arming sequence so any
    /// earlier timeout event goes stale, and schedules the new one.
    pub(crate) fn arm(&mut self, deadline: f64, s: &mut Sinks) {
        self.armed_deadline = deadline;
        self.armed_seq += 1;
        s.queue.push(
            deadline,
            EventKind::Timeout {
                job: self.job,
                generation: self.generation,
                arm: self.armed_seq,
            },
        );
    }

    /// Re-arms the deadline a `margin` behind `latest`, the last finish
    /// the round is waiting for (anything not after `now` arms the
    /// smallest step ahead).
    pub(crate) fn arm_behind(&mut self, latest: f64, margin: f64, s: &mut Sinks) {
        let deadline = s.now + (1.0 + margin) * (latest - s.now).max(f64::MIN_POSITIVE);
        self.arm(deadline, s);
    }

    // ---- open tasks -----------------------------------------------------

    /// Scheduled finish of one of `worker`'s tasks, if it is open.
    pub(crate) fn open_finish(&self, worker: usize, redo: bool) -> Option<f64> {
        let slot = self.slot(worker, redo);
        slot.open().then_some(slot.finish)
    }

    /// When `worker` is free of this round: the later of its open
    /// tasks' finishes (`NEG_INFINITY` if it has none).
    pub(crate) fn latest_open_finish(&self, worker: usize) -> f64 {
        [false, true]
            .into_iter()
            .filter_map(|redo| self.open_finish(worker, redo))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The last finish the round is still waiting for (`NEG_INFINITY`
    /// if nothing is open).
    pub(crate) fn latest_open(&self) -> f64 {
        (0..self.tasks.workers.len())
            .map(|w| self.latest_open_finish(w))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    pub(crate) fn has_open(&self) -> bool {
        let mut slots = self.tasks.workers.iter().flat_map(|t| &t.slots);
        slots.any(TaskSlot::open)
    }

    pub(crate) fn task_done(&self, worker: usize, redo: bool) -> bool {
        self.slot(worker, redo).phase == Phase::Done
    }

    // ---- coverage -------------------------------------------------------

    /// Whether every chunk has its `k` responses: the round decodes.
    pub(crate) fn complete(&self) -> bool {
        self.tasks.short == 0
    }

    /// Responses `chunk` still lacks, counting finished tasks and
    /// pending redos, and in-flight originals only if `count_inflight`.
    /// Adaptive mode writes those off as cancelled (the §4.3 rule); the
    /// baselines keep counting on them (they only recover from churn).
    pub(crate) fn shortfall(&self, chunk: usize, count_inflight: bool) -> usize {
        let tally = &self.tasks.cover[chunk];
        let inflight = if count_inflight { tally.open[0] } else { 0 };
        self.k_eff
            .saturating_sub(tally.done + tally.open[1] + inflight)
    }

    /// Whether some chunk cannot reach `k` even if everything still
    /// open finishes.
    pub(crate) fn doomed(&self) -> bool {
        (0..self.assignment.chunks_per_partition).any(|c| self.shortfall(c, true) > 0)
    }

    /// The response set a completed round is credited with: every done
    /// task with a non-empty chunk list — the exact coverage
    /// [`Self::complete`] certified. Cancelled tasks are never credited.
    pub(crate) fn credited(&self) -> impl Iterator<Item = Credit<'_>> {
        self.credited_tasks().map(|(w, redo)| Credit {
            worker: w,
            chunks: self.chunks(w, redo),
        })
    }

    /// The `(worker, redo)` of every credited task.
    fn credited_tasks(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..self.tasks.workers.len())
            .flat_map(|w| [(w, false), (w, true)])
            .filter(|&(w, redo)| self.task_done(w, redo) && !self.chunks(w, redo).is_empty())
    }

    /// Rung 3's plan: hands every missing response (`need` per chunk)
    /// to a finished, still-present worker — they hold the coded
    /// partitions, no data movement — least-loaded first. `None` if
    /// some chunk has no eligible host left.
    pub(crate) fn plan_redo(&self, need: &[usize], up: &[bool]) -> Option<Vec<Vec<usize>>> {
        let n = self.tasks.workers.len();
        let hosts: Vec<usize> = (0..n)
            .filter(|&w| self.task_done(w, false) && up[w])
            .collect();
        let mut extra: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (chunk, &need_c) in need.iter().enumerate() {
            for _ in 0..need_c {
                let load = |w: usize| self.tasks.workers[w].redo_chunks.len() + extra[w].len();
                let pick = hosts
                    .iter()
                    .copied()
                    .filter(|&w| {
                        !self.covers(w, chunk)
                            && !self.tasks.workers[w].redo_chunks.contains(&chunk)
                            && !extra[w].contains(&chunk)
                    })
                    .min_by(|&a, &b| {
                        load(a)
                            .cmp(&load(b))
                            .then(
                                self.slot(a, false)
                                    .finish
                                    .total_cmp(&self.slot(b, false).finish),
                            )
                            .then(a.cmp(&b))
                    })?;
                extra[pick].push(chunk);
            }
        }
        Some(extra)
    }

    /// Master-side decode cost of a completed iteration (the single-job
    /// engine's [`chunk_decode_flops`]: per chunk, LU on the missing
    /// systematic rows among the fastest `k` credited responses). For a batch
    /// round the LU factorization is shared — every stacked right-hand
    /// side reuses it and pays only the per-column triangular solves
    /// and RHS adjustments. That factor-once term is the decode-side
    /// amortization batching buys.
    ///
    /// The credited tasks are ordered fastest first once, and each
    /// hands its chunks out until a chunk has its `k` — the same
    /// "fastest `k` per chunk" a per-chunk sort would pick, in one pass
    /// over the responses.
    pub(crate) fn decode_flops(&self, scratch: &mut DecodeScratch) -> f64 {
        let k = self.k_eff;
        let DecodeScratch { order, taken } = scratch;
        order.clear();
        order.extend(
            self.credited_tasks()
                .map(|(w, redo)| (self.slot(w, redo).finish, w, redo)),
        );
        // A worker's two tasks never share a chunk, so how an equal
        // `(finish, worker)` pair falls is immaterial.
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        taken.clear();
        taken.resize(self.assignment.chunks_per_partition, (0, 0));
        for &(_, worker, redo) in order.iter() {
            for &chunk in self.chunks(worker, redo) {
                let (have, missing) = &mut taken[chunk];
                if *have < k {
                    *have += 1;
                    *missing += usize::from(worker >= k);
                }
            }
        }
        let mut flops = 0.0;
        for &(_, missing) in taken.iter() {
            flops += chunk_decode_flops(missing, k, self.rows_per_chunk, self.rhs);
        }
        flops
    }
}

/// The definitional chunks × workers scans the coverage tally replaces,
/// kept as oracles for the differential tests.
#[cfg(test)]
impl RunningIteration {
    /// How many tasks whose chunk list holds `chunk` satisfy `counts`
    /// (called with the slot and its `redo` flag). Rung 3 never hands a
    /// worker a chunk it already holds, so tasks and workers coincide.
    fn scan(&self, chunk: usize, counts: impl Fn(&TaskSlot, bool) -> bool) -> usize {
        let per_worker = self.tasks.workers.iter().enumerate().map(|(w, t)| {
            usize::from(counts(&t.slots[0], false) && self.covers(w, chunk))
                + usize::from(counts(&t.slots[1], true) && t.redo_chunks.contains(&chunk))
        });
        per_worker.sum()
    }

    pub(crate) fn complete_by_scan(&self) -> bool {
        (0..self.assignment.chunks_per_partition)
            .all(|c| self.scan(c, |slot, _| slot.phase == Phase::Done) >= self.k_eff)
    }

    pub(crate) fn shortfall_by_scan(&self, chunk: usize, count_inflight: bool) -> usize {
        let have = self.scan(chunk, |slot, redo| {
            slot.phase == Phase::Done || (slot.open() && (redo || count_inflight))
        });
        self.k_eff.saturating_sub(have)
    }

    pub(crate) fn doomed_by_scan(&self) -> bool {
        (0..self.assignment.chunks_per_partition).any(|c| self.shortfall_by_scan(c, true) > 0)
    }

    /// The per-chunk "fastest `k`" decode cost, one sort per chunk.
    pub(crate) fn decode_flops_by_scan(&self) -> f64 {
        let k = self.k_eff;
        let rpc = self.rows_per_chunk as f64;
        let rhs = self.rhs as f64;
        let mut flops = 0.0;
        for chunk in 0..self.assignment.chunks_per_partition {
            let mut finishers: Vec<(f64, usize)> = self
                .credited_tasks()
                .filter(|&(w, redo)| self.chunks(w, redo).contains(&chunk))
                .map(|(w, redo)| (self.slot(w, redo).finish, w))
                .collect();
            finishers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let missing = finishers.iter().take(k).filter(|&&(_, w)| w >= k).count() as f64;
            flops += missing.powi(3) / 3.0
                + rhs * (rpc * missing.powi(2))
                + rhs * (missing * k as f64 * rpc);
        }
        flops
    }

    /// Whether `worker` holds `chunk` in either of its tasks' lists.
    pub(crate) fn holds(&self, worker: usize, chunk: usize) -> bool {
        self.covers(worker, chunk) || self.tasks.workers[worker].redo_chunks.contains(&chunk)
    }
}
