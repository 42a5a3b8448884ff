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
//! site), and deadline (re)arming (the single `Timeout` push). The
//! coverage questions the recovery ladder, the decode-cost model and
//! the numeric backends ask — is the round decodable, how far short is
//! a chunk, is it doomed, which responses are credited — are answered
//! here too, so a code that counts something other than
//! chunks-per-worker (symbols collected, row ranges) has one place to
//! change.
//!
//! Those answers are *kept*, not recomputed: every transition of a
//! slot re-files its chunks in a per-chunk response tally
//! ([`ChunkCover`]), at a cost proportional to the task's own chunk
//! list, so a worker reply costs the master what the reply carries and
//! "is the round decodable" is one compare. The definitional
//! chunks × workers scans survive as `#[cfg(test)]` oracles the tally
//! is differentially tested against.
//!
//! Task instants (starts, finishes) are on the pool's virtual clock `V`
//! (the engine's module docs, *Timing model*), which a rebalance does not
//! move; deadlines stay in real time, via [`Clock::real`].
//!
//! A round keeps its open tasks in completion order and files itself in
//! the engine's [`Agenda`] under one handle: by the completion that
//! makes it decodable (its next decision), by its earliest open
//! completion (the next to apply), and by its deadline. Every transition
//! that changes the open set re-keys those entries through
//! [`RunningIteration::schedule`], and a round that leaves takes them
//! with it.
//!
//! `core`, `recovery`, `rebalance` and `backend` are clients: none of
//! them indexes task state by worker.

use super::backend::ExecutionBackend;
use super::{trace_into, Clock, TIMEOUT_MARGIN};
use crate::event::{JobId, KeyedQueue};
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
    /// Scheduled finish, a V-instant (`INFINITY` until a task is dispatched).
    finish: f64,
    /// Launch sequence number: orders completions at equal `finish`.
    seq: u64,
    phase: Phase,
    /// Dedicated compute-seconds charged to `busy_time` for this task
    /// (refunded pro rata when it is cancelled).
    busy_charged: f64,
}

impl TaskSlot {
    const EMPTY: TaskSlot = TaskSlot {
        finish: f64::INFINITY,
        seq: 0,
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

/// An open task, as its round orders its completions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Awaited {
    finish: f64,
    seq: u64,
    worker: usize,
    redo: bool,
}

impl Awaited {
    /// Whether `self` completes after `other`: later finish, then
    /// later launch.
    fn after(&self, other: &Awaited) -> bool {
        self.finish
            .total_cmp(&other.finish)
            .then(self.seq.cmp(&other.seq))
            .is_gt()
    }
}

/// Everything a round tracks about one worker.
#[derive(Debug, Clone, PartialEq)]
struct WorkerTasks {
    /// `[original, redo]`, indexed by the `redo` flag.
    slots: [TaskSlot; 2],
    /// Chunks of the (possibly merged) redo task; the original's chunks
    /// are the round's `assignment`.
    redo_chunks: Vec<usize>,
    /// V-instant the original task starts computing, after queueing
    /// behind earlier window rounds (not to be billed as slowness).
    start: f64,
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
    /// Every open task. Latest completion first, so the next one to
    /// complete is the last, from each [`RunningIteration::schedule`]
    /// until the next launch.
    awaited: Vec<Awaited>,
    /// Per chunk, responses in hand if the open tasks complete in order
    /// ([`RunningIteration::decision`]'s working copy of the tally).
    projected: Vec<usize>,
    /// Every done task as `(finish, worker, redo)`, in the order they
    /// completed.
    replied: Vec<(f64, usize, bool)>,
}

/// Upper bound on pooled round buffers: enough for every resident job's
/// whole window in any realistic configuration, small enough that a
/// churn-heavy run cannot hoard memory.
pub(crate) const SCRATCH_POOL_CAP: usize = 64;

/// A retired round's reusable buffers: its task table and its chunk
/// assignment, which the next dispatch refills in place (Algorithm 1
/// writes into the assignment's per-worker lists without reallocating
/// them).
pub(crate) type RoundScratch = (Tasks, ChunkAssignment);

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
            t.start = 0.0;
        }
        self.workers.resize_with(n, || WorkerTasks {
            slots: [TaskSlot::EMPTY; 2],
            redo_chunks: Vec::new(),
            start: 0.0,
        });
        self.cover.clear();
        self.cover.resize(chunks, ChunkCover::default());
        self.short = if k > 0 { chunks } else { 0 };
        self.awaited.clear();
        self.projected.clear();
        self.replied.clear();
    }

    /// Unfiles the open task launched as `seq`.
    fn unfile(&mut self, seq: u64) {
        if let Some(at) = self.awaited.iter().rposition(|a| a.seq == seq) {
            self.awaited.remove(at);
        }
    }

    #[cfg(test)]
    pub(crate) fn redo_capacity(&self, worker: usize) -> usize {
        self.workers[worker].redo_chunks.capacity()
    }
}

/// The handle of the epoch tick in [`Agenda::timed`].
pub(crate) const TICK: usize = 0;

/// What the event loop pops, one entry per in-flight round in each
/// queue, filed under the round's handle (plus the epoch tick).
#[derive(Debug)]
pub(crate) struct Agenda {
    /// Per round, the completion that makes it decodable if its open
    /// tasks complete in order, by `(V, launch seq)`: its next decision.
    pub(crate) decisions: KeyedQueue,
    /// Per round, its earliest open completion, by `(V, launch seq)`:
    /// the next to apply.
    pub(crate) backlog: KeyedQueue,
    /// Per round its armed deadline, and the next epoch tick under
    /// [`TICK`], in real time, equal instants in arming order.
    pub(crate) timed: KeyedQueue,
    launches: u64,
    arms: u64,
    /// The epoch of the queued tick.
    pub(crate) epoch: usize,
    /// The round each handle names, `(job, generation)`; [`TICK`]'s
    /// entry is a placeholder.
    rounds: Vec<(JobId, u64)>,
    /// Handles of rounds that left, for the next to enter.
    free: Vec<usize>,
}

impl Agenda {
    pub(crate) fn new() -> Agenda {
        Agenda {
            decisions: KeyedQueue::default(),
            backlog: KeyedQueue::default(),
            timed: KeyedQueue::default(),
            launches: 0,
            arms: 0,
            epoch: 0,
            rounds: vec![(0, 0)],
            free: Vec::new(),
        }
    }

    /// A handle for the round `(job, generation)`.
    pub(crate) fn enter(&mut self, job: JobId, generation: u64) -> usize {
        if let Some(handle) = self.free.pop() {
            self.rounds[handle] = (job, generation);
            handle
        } else {
            self.rounds.push((job, generation));
            self.rounds.len() - 1
        }
    }

    /// The round under `handle`, as `(job, generation)`.
    pub(crate) fn round(&self, handle: usize) -> (JobId, u64) {
        self.rounds[handle]
    }

    /// The round under `handle` left: its entries go, and so does the
    /// handle.
    fn leave(&mut self, handle: usize) {
        self.decisions.remove(handle);
        self.backlog.remove(handle);
        self.timed.remove(handle);
        self.free.push(handle);
    }

    /// Queues `epoch`'s tick at real instant `at`.
    pub(crate) fn tick(&mut self, at: f64, epoch: usize) {
        self.epoch = epoch;
        self.arm(TICK, at);
    }

    /// Files `handle` in the timed queue at `at`, after every equal
    /// instant armed before it.
    fn arm(&mut self, handle: usize, at: f64) {
        self.arms += 1;
        self.timed.set(handle, at, self.arms);
    }
}

/// The engine state a task transition writes to, borrowed field by
/// field so the resident map (and the round inside it) stays borrowable
/// next to it. Built with [`sinks!`].
pub(crate) struct Sinks<'a> {
    /// The clock read at the instant the transitions are stamped with.
    pub(crate) clock: Clock,
    pub(crate) busy_time: &'a mut [f64],
    pub(crate) agenda: &'a mut Agenda,
    pub(crate) backend: &'a mut dyn ExecutionBackend,
    pub(crate) telemetry: &'a mut Option<Telemetry>,
}

/// `sinks!(engine, now)`: the [`Sinks`] of a `ServiceEngine` at `now`.
/// A macro, not a method, because a method would borrow the whole engine.
macro_rules! sinks {
    ($engine:ident, $now:expr) => {
        $crate::engine::round::Sinks {
            clock: $engine.clock.at($now),
            busy_time: &mut $engine.report.busy_time,
            agenda: &mut $engine.agenda,
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
/// A job holds up to `pipeline_depth` of these at once, committed in
/// `round_index` order.
#[derive(Debug)]
pub(crate) struct RunningIteration {
    /// Leader id of the residency this round belongs to (keys every
    /// event and backend call the round makes).
    pub(crate) job: JobId,
    pub(crate) generation: u64,
    /// The round's handle in the engine's [`Agenda`].
    pub(crate) handle: usize,
    /// Zero-based iteration index of this round within its job — the
    /// in-order commit key: a round retires only when every earlier
    /// index has.
    pub(crate) round_index: usize,
    /// The residency's weight in clock units: `weight · ΔV` is a task's
    /// dedicated compute over `ΔV`.
    pub(crate) weight: f64,
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
    /// The currently-armed §4.3 deadline (real time), for the
    /// rebalance re-arm condition.
    pub(crate) armed_deadline: f64,
    /// Real instant this round was dispatched (phase-profiling anchor).
    pub(crate) started: f64,
    /// Input-broadcast transfer time of this round (the virtual
    /// "dispatch" phase).
    pub(crate) t_input: f64,
    /// Reply transfer time of the completion that made the round
    /// decodable: the "collect" phase of the critical path.
    pub(crate) last_reply: f64,
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

    /// Takes a retired or abandoned round off the agenda and returns its
    /// task table and chunk assignment to the scratch pool for the next
    /// dispatch to refill. A full pool simply drops them.
    pub(crate) fn reclaim(self, pool: &mut Vec<RoundScratch>, agenda: &mut Agenda) {
        agenda.leave(self.handle);
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push((self.tasks, self.assignment));
        }
    }

    /// `(start, finish)` of `worker`'s original task, kept once closed.
    pub(crate) fn original_span(&self, worker: usize) -> (f64, f64) {
        let t = &self.tasks.workers[worker];
        (t.start, t.slots[0].finish)
    }

    // ---- lifecycle ------------------------------------------------------

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
            ..
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
    /// traces the dispatch and files the task to complete at `finish`.
    /// Utilization is accounted in dedicated compute-seconds (the share
    /// factor stretches wall time, not work done). The caller re-keys the
    /// round ([`Self::schedule`]) once its launches are done.
    fn launch(
        &mut self,
        worker: usize,
        redo: bool,
        fresh: usize,
        finish: f64,
        charge: f64,
        s: &mut Sinks,
    ) {
        s.agenda.launches += 1;
        let seq = s.agenda.launches;
        let slot = &mut self.tasks.workers[worker].slots[usize::from(redo)];
        let (was, replaced) = (slot.phase, *slot);
        *slot = TaskSlot {
            finish,
            seq,
            phase: Phase::Open,
            busy_charged: slot.busy_charged + charge,
        };
        if was == Phase::Open {
            self.tasks.unfile(replaced.seq);
        }
        self.tasks.awaited.push(Awaited {
            finish,
            seq,
            worker,
            redo,
        });
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
            let replied = &mut self.tasks.replied;
            replied.retain(|&(_, w, r)| (w, r) != (worker, redo));
        }
        let held = self.chunks(worker, redo).len();
        self.refile(worker, redo, fresh..held, Phase::Idle, Phase::Open);
        s.busy_time[worker] += charge;
        let (job, generation) = (self.job, self.generation);
        trace_into(s.telemetry, s.clock.now, || TraceEventKind::TaskDispatch {
            job,
            worker,
            generation,
            chunks: held,
            redo,
        });
    }

    /// Dispatches `worker`'s original task, computing `start..finish`.
    pub(crate) fn dispatch(
        &mut self,
        worker: usize,
        start: f64,
        finish: f64,
        charge: f64,
        s: &mut Sinks,
    ) {
        debug_assert!(
            self.slot(worker, false).phase == Phase::Idle,
            "a round dispatches each original once"
        );
        self.tasks.workers[worker].start = start;
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

    /// The completion of one of `worker`'s tasks at `v`: marks the task
    /// done and returns how many chunks it replied with, or `None` if no
    /// open task of that slot finishes at `v` — a merged redo's
    /// superseded finish (no longer the slot's, bit for bit) or a
    /// cancelled task's (by its phase).
    pub(crate) fn complete_task(&mut self, worker: usize, redo: bool, v: f64) -> Option<usize> {
        let slot = &mut self.tasks.workers[worker].slots[usize::from(redo)];
        if !slot.open() || slot.finish.to_bits() != v.to_bits() {
            return None;
        }
        slot.phase = Phase::Done;
        let seq = slot.seq;
        self.tasks.unfile(seq);
        self.tasks.replied.push((v, worker, redo));
        let replied = self.chunks(worker, redo).len();
        self.refile(worker, redo, 0..replied, Phase::Open, Phase::Done);
        Some(replied)
    }

    /// Completes the round's earliest open task and re-keys the round's
    /// backlog entry: returns `(worker, redo, chunks replied)`,
    /// or `None` if nothing is open. Its decision stands: completions in
    /// order are what it was computed from.
    pub(crate) fn complete_next(&mut self, agenda: &mut Agenda) -> Option<(usize, bool, usize)> {
        let awaited = &self.tasks.awaited;
        debug_assert!(awaited.windows(2).all(|w| w[0].after(&w[1])), "scheduled");
        let next = *awaited.last()?;
        let replied = self.complete_task(next.worker, next.redo, next.finish)?;
        match self.tasks.awaited.last() {
            Some(a) => agenda.backlog.set(self.handle, a.finish, a.seq),
            None => agenda.backlog.remove(self.handle),
        }
        Some((next.worker, next.redo, replied))
    }

    /// The open task whose completion makes the round decodable if the
    /// open tasks complete in order, as `(finish, seq)`; `None` if the
    /// round is complete already or its open tasks cannot complete it.
    fn decision(&mut self) -> Option<(f64, u64)> {
        let k = self.k_eff;
        let Tasks {
            workers,
            cover,
            short,
            awaited,
            projected,
            ..
        } = &mut self.tasks;
        if *short == 0 {
            return None;
        }
        let chunks = |task: &Awaited| -> &[usize] {
            if task.redo {
                &workers[task.worker].redo_chunks
            } else {
                &self.assignment.chunks[task.worker]
            }
        };
        // No chunk has a response to spare (Algorithm 1's exact-`k`
        // plans, uncoded rounds): the round waits for every open task
        // that carries a chunk.
        if cover.iter().all(|c| c.done + c.open[0] + c.open[1] == k) {
            let last = awaited.iter().find(|a| !chunks(a).is_empty());
            return last.map(|a| (a.finish, a.seq));
        }
        projected.clear();
        projected.extend(cover.iter().map(|c| c.done));
        let mut short = *short;
        for task in awaited.iter().rev() {
            for &chunk in chunks(task) {
                projected[chunk] += 1;
                short -= usize::from(projected[chunk] == k);
            }
            if short == 0 {
                return Some((task.finish, task.seq));
            }
        }
        None
    }

    /// Re-files the round's decision and backlog entries after its open
    /// set changed (launches, cancels).
    pub(crate) fn schedule(&mut self, agenda: &mut Agenda) {
        self.tasks
            .awaited
            .sort_unstable_by(|a, b| b.finish.total_cmp(&a.finish).then(b.seq.cmp(&a.seq)));
        match self.decision() {
            Some((v, seq)) => agenda.decisions.set(self.handle, v, seq),
            None => agenda.decisions.remove(self.handle),
        }
        match self.tasks.awaited.last() {
            Some(a) => agenda.backlog.set(self.handle, a.finish, a.seq),
            None => agenda.backlog.remove(self.handle),
        }
    }

    /// The master stops caring about one task: refunds the compute it
    /// will not perform (`weight · (finish − V)` dedicated seconds,
    /// capped at its charge), tells the backend so real workers drop the
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
        let finish = slot.finish;
        let refund = (self.weight * (finish - s.clock.v)).clamp(0.0, slot.busy_charged);
        s.busy_time[worker] -= refund;
        slot.busy_charged -= refund;
        let seq = slot.seq;
        self.tasks.unfile(seq);
        let awaited = self.chunks(worker, redo).len();
        self.refile(worker, redo, 0..awaited, Phase::Open, Phase::Idle);
        if redo {
            self.tasks.workers[worker].redo_chunks.clear();
        }
        let (job, generation) = (self.job, self.generation);
        s.backend.on_cancel(job, generation, worker, redo);
        trace_into(s.telemetry, s.clock.now, || TraceEventKind::TaskCancel {
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
        self.slot(worker, false).finish > s.clock.v && self.cancel(worker, false, s)
    }

    /// Cancels every task the round is still waiting for (conventional
    /// stragglers and superfluous redos at completion, everything when
    /// the round is torn down), which takes it out of the completion
    /// queues.
    pub(crate) fn cancel_open(&mut self, s: &mut Sinks) {
        // In worker order, each worker's original before its redo.
        let mut open = std::mem::take(&mut self.tasks.awaited);
        open.sort_unstable_by_key(|a| (a.worker, a.redo));
        for a in &open {
            self.cancel(a.worker, a.redo, s);
        }
        open.clear();
        self.tasks.awaited = open;
        self.schedule(s.agenda);
    }

    /// (Re)arms the round's deadline, moving its one timed entry.
    pub(crate) fn arm(&mut self, deadline: f64, s: &mut Sinks) {
        self.armed_deadline = deadline;
        s.agenda.arm(self.handle, deadline);
    }

    /// Drops the round's deadline: it completed.
    pub(crate) fn disarm(&mut self, s: &mut Sinks) {
        self.armed_deadline = f64::INFINITY;
        s.agenda.timed.remove(self.handle);
    }

    /// Re-arms the deadline [`TIMEOUT_MARGIN`] behind the V-instant
    /// `latest`, the last finish the round is waiting for, mapped to real
    /// time (anything V has passed arms the smallest step ahead).
    pub(crate) fn arm_behind(&mut self, latest: f64, s: &mut Sinks) {
        let ahead = (s.clock.real(latest) - s.clock.now).max(f64::MIN_POSITIVE);
        self.arm(s.clock.now + (1.0 + TIMEOUT_MARGIN) * ahead, s);
    }

    // ---- open tasks -----------------------------------------------------

    /// Scheduled finish (V) of one of `worker`'s tasks, if it is open.
    pub(crate) fn open_finish(&self, worker: usize, redo: bool) -> Option<f64> {
        let slot = self.slot(worker, redo);
        slot.open().then_some(slot.finish)
    }

    /// When `worker` is free of this round: the later of its open
    /// tasks' finishes, in V (`NEG_INFINITY` if it has none).
    pub(crate) fn latest_open_finish(&self, worker: usize) -> f64 {
        [false, true]
            .into_iter()
            .filter_map(|redo| self.open_finish(worker, redo))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The last finish the round is still waiting for (`NEG_INFINITY`
    /// if nothing is open).
    pub(crate) fn latest_open(&self) -> f64 {
        let awaited = self.tasks.awaited.iter();
        awaited.fold(f64::NEG_INFINITY, |latest, a| latest.max(a.finish))
    }

    pub(crate) fn has_open(&self) -> bool {
        !self.tasks.awaited.is_empty()
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
        // The credited tasks in the order they completed, which is
        // finish order already but for ties.
        let replied = self.tasks.replied.iter();
        order.extend(replied.filter(|&&(_, w, redo)| !self.chunks(w, redo).is_empty()));
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

    /// The definitional decision: the first open task, in `(finish,
    /// seq)` order, after whose completion (with every earlier one's)
    /// each chunk has `k` responses.
    pub(crate) fn decision_by_scan(&self) -> Option<(f64, u64)> {
        if self.complete_by_scan() {
            return None;
        }
        let mut open: Vec<(f64, u64, usize, bool)> = (0..self.tasks.workers.len())
            .flat_map(|w| [(w, false), (w, true)])
            .filter(|&(w, redo)| self.slot(w, redo).open())
            .map(|(w, redo)| (self.slot(w, redo).finish, self.slot(w, redo).seq, w, redo))
            .collect();
        open.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        (1..=open.len()).find_map(|n| {
            let counted = &open[..n];
            let covered = (0..self.assignment.chunks_per_partition).all(|c| {
                let done = self.scan(c, |slot, _| slot.phase == Phase::Done);
                let more = counted
                    .iter()
                    .filter(|&&(_, _, w, redo)| self.chunks(w, redo).contains(&c))
                    .count();
                done + more >= self.k_eff
            });
            covered.then_some((open[n - 1].0, open[n - 1].1))
        })
    }

    /// The earliest open task, as `(finish, seq)`.
    pub(crate) fn next_by_scan(&self) -> Option<(f64, u64)> {
        let open = (0..self.tasks.workers.len())
            .flat_map(|w| [(w, false), (w, true)])
            .filter(|&(w, redo)| self.slot(w, redo).open())
            .map(|(w, redo)| (self.slot(w, redo).finish, self.slot(w, redo).seq));
        open.min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Whether `worker` holds `chunk` in either of its tasks' lists.
    pub(crate) fn holds(&self, worker: usize, chunk: usize) -> bool {
        self.covers(worker, chunk) || self.tasks.workers[worker].redo_chunks.contains(&chunk)
    }
}
