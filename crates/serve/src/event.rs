//! The discrete-event core: min-queues with deterministic FIFO
//! tie-breaking.
//!
//! The service engine's agenda is three `KeyedQueue`s, each holding
//! at most one entry per in-flight round: the completion that makes the
//! round decodable (its next *decision*, on the pool's virtual clock),
//! its earliest open task's completion (the next one to apply), and its
//! armed deadline, beside the next epoch tick, in real time. A cancel,
//! redo, re-arm or restart moves a round's entries in place and a round
//! that completes or is torn down takes them with it, so the queues
//! hold live entries only and nothing stale is ever popped. (Job
//! arrivals are not queued: the engine streams them straight from the
//! workload slice and merges that cursor with the queues. Nor are an
//! epoch's speed samples and churn flips: the tick applies them in
//! place.)
//!
//! Determinism matters more here than in the single-job simulator: many
//! jobs' events interleave at identical timestamps (iteration
//! boundaries, epoch ticks), and the pop order decides admission order,
//! share computation, and therefore every latency percentile the
//! experiments report. Both queue types pop in nondecreasing key order
//! and, among equal keys, in sequence (FIFO) order.
//!
//! [`EventQueue`] is the plain push/pop heap over typed [`EventKind`]
//! payloads. The engine no longer schedules through it; it remains the
//! subject of `perf`'s event-queue hold benchmark.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a job across its whole service lifetime.
pub type JobId = u64;

/// The events of an [`EventQueue`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A worker's speed becomes `speed`. The engine never schedules
    /// it (an epoch tick writes its samples in place); it remains as the
    /// payload of `perf`'s event queue hold benchmark.
    WorkerSpeedChange {
        /// Affected worker.
        worker: usize,
        /// New relative speed (> 0).
        speed: f64,
    },
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

/// One entry of a [`KeyedQueue`].
#[derive(Debug, Clone, Copy)]
struct Keyed {
    key: f64,
    seq: u64,
    handle: usize,
}

impl Keyed {
    /// Whether `self` pops before `other`: earlier key, then lower
    /// sequence number.
    fn before(&self, other: &Keyed) -> bool {
        self.key
            .total_cmp(&other.key)
            .then(self.seq.cmp(&other.seq))
            .is_lt()
    }
}

/// `KeyedQueue::pos` of a handle with no entry.
const ABSENT: usize = usize::MAX;

/// A min-queue holding at most one entry per *handle*, a small dense
/// index its owner allocates, ordered by `(key, seq)`. An entry is
/// moved or removed in O(log n) wherever it sits, so an owner whose next
/// instant changes re-keys its entry in place instead of leaving a stale
/// one behind. The sequence numbers are the owner's: equal keys pop in
/// their order.
#[derive(Debug, Default)]
pub(crate) struct KeyedQueue {
    /// A binary min-heap of the entries.
    heap: Vec<Keyed>,
    /// Per handle, its entry's index in `heap`, or [`ABSENT`].
    pos: Vec<usize>,
    peak_len: usize,
}

impl KeyedQueue {
    /// Sets `handle`'s entry to `(key, seq)`, adding it if absent.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative key — a NaN in the heap would
    /// silently corrupt the ordering invariant.
    pub(crate) fn set(&mut self, handle: usize, key: f64, seq: u64) {
        assert!(
            key.is_finite() && key >= 0.0,
            "event time must be finite and non-negative, got {key}"
        );
        if handle >= self.pos.len() {
            self.pos.resize(handle + 1, ABSENT);
        }
        let entry = Keyed { key, seq, handle };
        let at = self.pos[handle];
        if at == ABSENT {
            self.heap.push(entry);
            self.peak_len = self.peak_len.max(self.heap.len());
            self.place(self.heap.len() - 1, entry);
        } else {
            self.place(at, entry);
        }
    }

    /// Drops `handle`'s entry, if it has one.
    pub(crate) fn remove(&mut self, handle: usize) {
        let Some(&at) = self.pos.get(handle) else {
            return;
        };
        if at == ABSENT {
            return;
        }
        self.pos[handle] = ABSENT;
        if let Some(last) = self.heap.pop() {
            if at < self.heap.len() {
                self.place(at, last);
            }
        }
    }

    /// The earliest entry as `(key, seq, handle)`, without removing it.
    pub(crate) fn peek(&self) -> Option<(f64, u64, usize)> {
        self.heap.first().map(|e| (e.key, e.seq, e.handle))
    }

    /// Number of entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when there are no entries.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most entries ever held at once.
    #[cfg(test)]
    pub(crate) fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Writes `entry` into slot `at` of the heap and sifts it to where
    /// it belongs, up or down.
    fn place(&mut self, mut at: usize, entry: Keyed) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.put(at, self.heap[parent]);
            at = parent;
        }
        loop {
            let left = 2 * at + 1;
            let Some(first) = self.heap.get(left) else {
                break;
            };
            let mut child = left;
            if self
                .heap
                .get(left + 1)
                .is_some_and(|right| right.before(first))
            {
                child = left + 1;
            }
            if !self.heap[child].before(&entry) {
                break;
            }
            self.put(at, self.heap[child]);
            at = child;
        }
        self.put(at, entry);
    }

    fn put(&mut self, at: usize, entry: Keyed) {
        self.heap[at] = entry;
        self.pos[entry.handle] = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(worker: usize) -> EventKind {
        EventKind::WorkerSpeedChange { worker, speed: 1.0 }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, ev(3));
        q.push(1.0, ev(1));
        q.push(2.0, ev(2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for worker in 0..16 {
            q.push(5.0, ev(worker));
        }
        let mut seen = Vec::new();
        while let Some((_, EventKind::WorkerSpeedChange { worker, .. })) = q.pop() {
            seen.push(worker);
        }
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(2.0, ev(0));
        q.push(1.0, ev(1));
        assert_eq!(q.pop().map(|(t, _)| t), Some(1.0));
        q.push(1.5, ev(2));
        assert_eq!(q.pop().map(|(t, _)| t), Some(1.5));
        assert_eq!(q.pop().map(|(t, _)| t), Some(2.0));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ev(0));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(4.0, ev(0));
        q.push(2.5, ev(1));
        assert_eq!(q.peek_time(), Some(2.5));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(t, _)| t), Some(2.5));
    }

    #[test]
    fn peak_len_is_the_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for worker in 0..3 {
            q.push(1.0, ev(worker));
        }
        q.pop();
        q.pop();
        q.push(2.0, ev(3));
        assert_eq!((q.len(), q.peak_len()), (2, 3));
    }

    /// Pops a keyed queue empty: `(key, seq, handle)` in pop order.
    fn drain(q: &mut KeyedQueue) -> Vec<(f64, u64, usize)> {
        std::iter::from_fn(|| {
            let head = q.peek()?;
            q.remove(head.2);
            Some(head)
        })
        .collect()
    }

    #[test]
    fn keyed_queue_pops_by_key_then_seq() {
        let mut q = KeyedQueue::default();
        q.set(4, 2.0, 9);
        q.set(1, 1.0, 5);
        q.set(7, 2.0, 3);
        q.set(2, 0.5, 8);
        assert_eq!(q.len(), 4);
        let order: Vec<usize> = drain(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(order, [2, 1, 7, 4]);
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    fn keyed_queue_moves_and_removes_in_place() {
        let mut q = KeyedQueue::default();
        for h in 0..6 {
            q.set(h, h as f64, 0);
        }
        q.set(0, 10.0, 1); // the head moves to the back
        q.set(5, 0.5, 2); // the back moves to the front
        q.remove(3);
        q.remove(3); // a second removal is a no-op
        q.remove(99); // as is a handle never seen
        let order: Vec<usize> = drain(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(order, [5, 1, 2, 4, 0]);
        assert_eq!(q.peak_len(), 6, "moving an entry adds none");
    }

    #[test]
    fn keyed_queue_agrees_with_a_sorted_scan() {
        // Random sets and removals over 40 handles, checked after every op
        // against the minimum of a plain table.
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut q = KeyedQueue::default();
        let mut table: Vec<Option<(f64, u64)>> = vec![None; 40];
        for seq in 0..4_000 {
            let h = next(40) as usize;
            if next(3) == 0 {
                q.remove(h);
                table[h] = None;
            } else {
                // Few distinct keys, so ties are common.
                let key = next(8) as f64 * 0.25;
                q.set(h, key, seq);
                table[h] = Some((key, seq));
            }
            let want = (0..40)
                .filter_map(|h| table[h].map(|(k, s)| (k, s, h)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(q.peek(), want);
            assert_eq!(q.len(), table.iter().flatten().count());
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn keyed_queue_rejects_nan() {
        KeyedQueue::default().set(0, f64::NAN, 0);
    }
}
