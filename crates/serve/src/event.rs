//! The typed discrete-event core: a binary-heap event queue with
//! deterministic FIFO tie-breaking.
//!
//! Everything the service engine schedules for itself is one of the
//! [`EventKind`] variants. (Job arrivals are not: the engine streams
//! them straight from the workload slice and merges that cursor with
//! the queue, so the heap only ever holds live engine events.)
//! Determinism matters more here than in the
//! single-job simulator: many jobs' events interleave at identical
//! timestamps (iteration boundaries, epoch ticks), and the pop order
//! decides admission order, share computation, and therefore every
//! latency percentile the experiments report. The queue guarantees
//! nondecreasing pop times and, among equal times, insertion (FIFO)
//! order — both properties are proptested in `tests/proptest_serve.rs`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a job across its whole service lifetime.
pub type JobId = u64;

/// Every event the service engine schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// One worker finished its assigned task for one job iteration.
    TaskComplete {
        /// Job the task belongs to.
        job: JobId,
        /// Worker that finished.
        worker: usize,
        /// Iteration generation the task was scheduled under; stale
        /// generations (completed/retried iterations) are ignored.
        generation: u64,
        /// Whether this was a reassigned (redo) task rather than part of
        /// the original allocation.
        redo: bool,
    },
    /// A worker's sampled speed changed at an epoch boundary.
    WorkerSpeedChange {
        /// Affected worker.
        worker: usize,
        /// New relative speed (> 0).
        speed: f64,
    },
    /// A job iteration hit its §4.3-style deadline before completing.
    Timeout {
        /// Affected job.
        job: JobId,
        /// Iteration generation the deadline was armed for.
        generation: u64,
        /// Arming sequence number within the generation. Every (re)arm
        /// of a round's deadline bumps the round's counter; a timeout
        /// whose `arm` no longer matches is stale and ignored. This
        /// keys the guard by round rather than by job-level deadline
        /// value, so a timeout raced against its own re-arm at the same
        /// virtual instant can never fire against a successor round.
        arm: u64,
    },
    /// A worker left (`up == false`) or rejoined (`up == true`) the pool.
    WorkerChurn {
        /// Affected worker.
        worker: usize,
        /// New availability.
        up: bool,
    },
    /// Internal clock tick driving speed resampling and churn advances.
    EpochTick {
        /// Epoch index (multiples of the configured epoch length).
        epoch: usize,
    },
    /// A batch-assembly time window expired: re-run admission so the
    /// deferred batch (and whatever mates accumulated behind it) is
    /// flushed onto the pool. Only scheduled under
    /// [`crate::admission::BatchPolicy::TimeWindow`]; a spurious flush
    /// (the batch was already admitted early on reaching its size cap)
    /// is a harmless no-op.
    BatchFlush,
}

#[derive(Debug)]
struct QueuedEvent {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first,
        // with the *lowest* sequence number winning ties (FIFO).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-time event queue with FIFO tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    next_seq: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative times — a NaN in the heap would
    /// silently corrupt the ordering invariant.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative, got {time}"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent { time, seq, kind });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pops the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(f64, EventKind)> {
        self.heap.pop().map(|e| (e.time, e.kind))
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most events ever pending at once — a host-speed-independent
    /// measure of how much the queue holds beyond live work.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::EpochTick { epoch: 3 });
        q.push(1.0, EventKind::EpochTick { epoch: 1 });
        q.push(2.0, EventKind::EpochTick { epoch: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for epoch in 0..16 {
            q.push(5.0, EventKind::EpochTick { epoch });
        }
        let mut seen = Vec::new();
        while let Some((_, EventKind::EpochTick { epoch })) = q.pop() {
            seen.push(epoch);
        }
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::EpochTick { epoch: 0 });
        q.push(1.0, EventKind::EpochTick { epoch: 1 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(1.0));
        q.push(1.5, EventKind::EpochTick { epoch: 2 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(1.5));
        assert_eq!(q.pop().map(|(t, _)| t), Some(2.0));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::EpochTick { epoch: 0 });
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(4.0, EventKind::EpochTick { epoch: 0 });
        q.push(2.5, EventKind::EpochTick { epoch: 1 });
        assert_eq!(q.peek_time(), Some(2.5));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(t, _)| t), Some(2.5));
    }

    #[test]
    fn peak_len_is_the_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for epoch in 0..3 {
            q.push(1.0, EventKind::EpochTick { epoch });
        }
        q.pop();
        q.pop();
        q.push(2.0, EventKind::EpochTick { epoch: 3 });
        assert_eq!((q.len(), q.peak_len()), (2, 3));
    }
}
