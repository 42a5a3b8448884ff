//! Real multi-threaded master/worker executor.
//!
//! One OS thread per worker, `std::sync::mpsc` channels for task
//! dispatch and result collection. The scheduling layer uses this engine
//! to validate the concurrency path — out-of-order completion, fastest-k
//! collection, straggler results arriving after the master has moved on,
//! clean shutdown — with the *same* strategy code it runs against the
//! timing simulator.
//!
//! Per-worker slowdowns are injected by busy-wait delays proportional to
//! task size, so the "who finishes first" structure of a straggler
//! scenario is reproduced with real threads.
#![expect(
    clippy::disallowed_types,
    reason = "measurement site: `Instant` times worker closures, bounds blocking waits and paces spin delays; no scheduling decision reads it"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A task envelope addressed to one worker.
#[derive(Debug)]
struct Envelope<T> {
    task_id: u64,
    cancel: Arc<AtomicBool>,
    payload: T,
}

/// Cooperative cancellation handle passed to cancellable workers.
///
/// The master flips the flag with [`ThreadedCluster::cancel`]; a worker
/// checks [`CancelToken::is_cancelled`] at its own safe points (e.g.
/// between chunks of a multi-chunk task), abandons the remaining work,
/// and replies with whatever partial progress it made — the hook the
/// recovery ladder's "cancel the late workers, learn their partial
/// speed" rule needs from a real executor.
#[derive(Debug)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Whether the master has cancelled this task.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A worker's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReply<R> {
    /// Worker that produced the result.
    pub worker: usize,
    /// Task id the result answers.
    pub task_id: u64,
    /// The computed payload.
    pub result: R,
}

/// A running pool of worker threads.
///
/// `T` is the task payload, `R` the result payload. Workers execute a
/// user-supplied closure per task; replies arrive on a shared channel in
/// completion order (not submission order).
pub struct ThreadedCluster<T, R> {
    senders: Vec<Sender<Envelope<T>>>,
    results: Receiver<WorkerReply<R>>,
    handles: Vec<JoinHandle<()>>,
    next_task: u64,
    /// Cancel flags of tasks not yet seen back by the master; pruned as
    /// replies are received and on explicit cancellation. Master-side
    /// only: each worker gets its task's flag inside the envelope.
    cancels: BTreeMap<u64, Arc<AtomicBool>>,
    /// Wall-clock nanoseconds each worker thread has spent inside its
    /// task closure (queue/channel wait time excluded).
    busy_nanos: Arc<Vec<AtomicU64>>,
}

impl<T, R> ThreadedCluster<T, R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    /// Spawns `n` workers. `make_worker(i)` builds the closure executed by
    /// worker `i` for each task. Tasks submitted to this pool ignore
    /// cancellation (see [`Self::spawn_cancellable`] for the cooperative
    /// variant).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn spawn<F>(n: usize, mut make_worker: impl FnMut(usize) -> F) -> Self
    where
        F: FnMut(T) -> R + Send + 'static,
    {
        Self::spawn_cancellable(n, move |worker| {
            let mut work = make_worker(worker);
            move |payload: T, _token: &CancelToken| work(payload)
        })
    }

    /// Spawns `n` workers whose closures receive a [`CancelToken`] next
    /// to each task payload, enabling cooperative mid-task cancellation
    /// with partial-progress replies.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn spawn_cancellable<F>(n: usize, mut make_worker: impl FnMut(usize) -> F) -> Self
    where
        F: FnMut(T, &CancelToken) -> R + Send + 'static,
    {
        assert!(n > 0, "need at least one worker");
        let (result_tx, result_rx) = channel::<WorkerReply<R>>();
        let busy_nanos: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for worker in 0..n {
            // Unbounded mailbox: the serve engine's residency already
            // bounds a worker's queue at one original and one redo per
            // in-flight round, 2 × `max_resident` × pipeline depth (8 at
            // the defaults), and std's bounded channel would allocate
            // every slot of a cap up front.
            let (tx, rx) = channel::<Envelope<T>>();
            let results = result_tx.clone();
            let mut work = make_worker(worker);
            let busy = Arc::clone(&busy_nanos);
            #[expect(
                clippy::expect_used,
                reason = "OS thread-spawn failure at startup has no recovery path"
            )]
            handles.push(
                std::thread::Builder::new()
                    .name(format!("s2c2-worker-{worker}"))
                    .spawn(move || {
                        while let Ok(env) = rx.recv() {
                            let token = CancelToken(Arc::clone(&env.cancel));
                            let t0 = Instant::now();
                            let result = work(env.payload, &token);
                            let spent = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            busy[worker].fetch_add(spent, Ordering::Relaxed);
                            // The master may have shut down early (it got
                            // its k results); a send failure is then fine.
                            if results
                                .send(WorkerReply {
                                    worker,
                                    task_id: env.task_id,
                                    result,
                                })
                                .is_err()
                            {
                                break;
                            }
                        }
                    })
                    .expect("failed to spawn worker thread"),
            );
            senders.push(tx);
        }
        ThreadedCluster {
            senders,
            results: result_rx,
            handles,
            next_task: 0,
            cancels: BTreeMap::new(),
            busy_nanos,
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.senders.len()
    }

    /// Wall-clock seconds each worker has spent executing task closures
    /// so far (channel/queue wait excluded). Read while tasks are in
    /// flight this is a live snapshot; read after the replies are in it
    /// is the pool's real per-worker compute time.
    #[must_use]
    pub fn busy_seconds(&self) -> Vec<f64> {
        self.busy_nanos
            .iter()
            .map(|b| b.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect()
    }

    /// Sends a task to `worker`; returns the task id.
    ///
    /// # Panics
    ///
    /// Panics if the worker's thread has died (its mailbox is closed) or
    /// `worker` is out of range.
    pub fn submit(&mut self, worker: usize, payload: T) -> u64 {
        let task_id = self.next_task;
        self.next_task += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        self.cancels.insert(task_id, Arc::clone(&cancel));
        #[expect(
            clippy::expect_used,
            reason = "workers only exit after their sender is dropped at shutdown"
        )]
        self.senders[worker]
            .send(Envelope {
                task_id,
                cancel,
                payload,
            })
            .expect("worker thread has terminated");
        task_id
    }

    /// Requests cooperative cancellation of an in-flight task. The worker
    /// still replies (with partial progress, if its closure honours the
    /// [`CancelToken`]); cancellation only asks it to stop early.
    ///
    /// Returns `false` if the task already replied (or never existed) —
    /// cancelling it is then a no-op.
    pub fn cancel(&mut self, task_id: u64) -> bool {
        match self.cancels.remove(&task_id) {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Receives the next completed result, waiting up to `timeout`.
    ///
    /// Returns `None` on timeout, or once every worker has terminated
    /// and the channel is drained.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<WorkerReply<R>> {
        let r = self.results.recv_timeout(timeout).ok()?;
        self.cancels.remove(&r.task_id);
        Some(r)
    }

    /// Blocks for the next completed result.
    ///
    /// # Panics
    ///
    /// Panics if all workers have terminated and the channel drained.
    #[must_use]
    pub fn recv(&mut self) -> WorkerReply<R> {
        #[expect(
            clippy::expect_used,
            reason = "documented Panics contract: callers hold live workers"
        )]
        let r = self.results.recv().expect("all workers terminated");
        self.cancels.remove(&r.task_id);
        r
    }

    /// Collects results until `pred` says the round is complete or
    /// `timeout` elapses. Results arriving after completion remain queued
    /// (they belong to cancelled stragglers and are drained next round —
    /// exactly the paper's "ignore the slow nodes" semantics).
    pub fn collect_until(
        &mut self,
        timeout: Duration,
        mut pred: impl FnMut(&[WorkerReply<R>]) -> bool,
    ) -> Vec<WorkerReply<R>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut got = Vec::new();
        while !pred(&got) {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            match self.recv_timeout(deadline - now) {
                Some(r) => got.push(r),
                None => break,
            }
        }
        got
    }

    /// Drains any stale results without blocking (start-of-round hygiene).
    pub fn drain_stale(&mut self) -> usize {
        let mut n = 0;
        while let Ok(r) = self.results.try_recv() {
            self.cancels.remove(&r.task_id);
            n += 1;
        }
        n
    }

    /// Stops all workers and joins their threads.
    pub fn shutdown(self) {
        drop(self.senders); // closing mailboxes ends the worker loops
        drop(self.results);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Busy-wait for approximately `micros` microseconds — the slowdown
/// injection primitive. A busy-wait (rather than `sleep`) keeps timing
/// meaningful at tens-of-microsecond scale where OS sleep granularity
/// would swamp the signal.
pub fn spin_delay_micros(micros: u64) {
    let start = std::time::Instant::now();
    let dur = Duration::from_micros(micros);
    while start.elapsed() < dur {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_tasks() {
        let mut cluster: ThreadedCluster<u64, u64> = ThreadedCluster::spawn(4, |_| |x: u64| x * 2);
        for w in 0..4 {
            cluster.submit(w, w as u64 + 10);
        }
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(cluster.recv());
        }
        got.sort_by_key(|r| r.worker);
        for (w, r) in got.iter().enumerate() {
            assert_eq!(r.worker, w);
            assert_eq!(r.result, (w as u64 + 10) * 2);
        }
        cluster.shutdown();
    }

    #[test]
    fn results_arrive_in_completion_order() {
        // Worker 0 is slow: its result should arrive after worker 1's.
        let mut cluster: ThreadedCluster<(), usize> = ThreadedCluster::spawn(2, |w| {
            move |()| {
                if w == 0 {
                    spin_delay_micros(20_000);
                }
                w
            }
        });
        cluster.submit(0, ());
        cluster.submit(1, ());
        let first = cluster.recv();
        let second = cluster.recv();
        assert_eq!(first.result, 1, "fast worker first");
        assert_eq!(second.result, 0);
        cluster.shutdown();
    }

    #[test]
    fn collect_until_k_of_n() {
        let mut cluster: ThreadedCluster<(), usize> = ThreadedCluster::spawn(4, |w| {
            move |()| {
                if w == 3 {
                    spin_delay_micros(50_000); // straggler
                }
                w
            }
        });
        for w in 0..4 {
            cluster.submit(w, ());
        }
        let got = cluster.collect_until(Duration::from_secs(5), |rs| rs.len() >= 3);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|r| r.worker != 3), "straggler not awaited");
        // The straggler's late reply is stale for the next round.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(cluster.drain_stale(), 1);
        cluster.shutdown();
    }

    #[test]
    fn timeout_returns_partial_results() {
        let mut cluster: ThreadedCluster<(), usize> = ThreadedCluster::spawn(2, |w| {
            move |()| {
                if w == 1 {
                    std::thread::sleep(Duration::from_secs(2));
                }
                w
            }
        });
        cluster.submit(0, ());
        cluster.submit(1, ());
        let got = cluster.collect_until(Duration::from_millis(300), |rs| rs.len() >= 2);
        assert_eq!(got.len(), 1, "only the fast worker inside the timeout");
        cluster.shutdown();
    }

    #[test]
    fn busy_time_accrues_only_on_working_threads() {
        let mut cluster: ThreadedCluster<(), ()> =
            ThreadedCluster::spawn(2, |_| |()| spin_delay_micros(2_000));
        cluster.submit(0, ());
        let _ = cluster.recv();
        let busy = cluster.busy_seconds();
        assert!(busy[0] >= 1e-3, "worker 0 spun ~2ms, measured {}", busy[0]);
        assert_eq!(busy[1], 0.0, "idle worker accrues nothing");
        cluster.shutdown();
    }

    #[test]
    fn task_ids_are_unique_and_monotonic() {
        let mut cluster: ThreadedCluster<(), ()> = ThreadedCluster::spawn(2, |_| |()| ());
        let a = cluster.submit(0, ());
        let b = cluster.submit(1, ());
        let c = cluster.submit(0, ());
        assert!(a < b && b < c);
        cluster.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_pending_results() {
        let mut cluster: ThreadedCluster<u32, u32> = ThreadedCluster::spawn(3, |_| |x: u32| x + 1);
        for w in 0..3 {
            cluster.submit(w, 7);
        }
        // Never read the results; shutdown must still join.
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _: ThreadedCluster<(), ()> = ThreadedCluster::spawn(0, |_| |()| ());
    }

    #[test]
    fn cancel_yields_partial_progress() {
        // The worker chews through a deliberately huge chunk budget
        // (~50s uncancelled), checking the token between chunks, so a
        // 10ms-in cancellation is guaranteed to land mid-task even on a
        // heavily loaded runner — no wall-clock race against the task
        // finishing first.
        let chunks = 100_000usize;
        let mut cluster: ThreadedCluster<usize, (usize, bool)> =
            ThreadedCluster::spawn_cancellable(1, |_| {
                |chunks: usize, token: &CancelToken| {
                    let mut done = 0;
                    for _ in 0..chunks {
                        if token.is_cancelled() {
                            return (done, true);
                        }
                        spin_delay_micros(500);
                        done += 1;
                    }
                    (done, false)
                }
            });
        let id = cluster.submit(0, chunks);
        // Let it chew a few chunks, then cancel.
        std::thread::sleep(Duration::from_millis(10));
        assert!(cluster.cancel(id), "task should still be in flight");
        let reply = cluster.recv();
        assert_eq!(reply.task_id, id);
        let (done, cancelled) = reply.result;
        assert!(cancelled, "worker must observe the cancellation");
        assert!(done < chunks, "partial progress, not the full task");
    }

    #[test]
    fn cancel_after_reply_is_a_noop() {
        type Pool = ThreadedCluster<u32, u32>;
        // A receive path returns how many replies it took in.
        type Receive = fn(&mut Pool) -> usize;
        let paths: [(&str, Receive); 4] = [
            ("recv", |c| usize::from(c.recv().result == 7)),
            ("recv_timeout", |c| {
                c.recv_timeout(Duration::from_secs(10)).into_iter().count()
            }),
            ("collect_until", |c| {
                c.collect_until(Duration::from_secs(10), |rs| !rs.is_empty())
                    .len()
            }),
            ("drain_stale", |c| loop {
                match c.drain_stale() {
                    0 => std::thread::sleep(Duration::from_millis(1)),
                    n => break n,
                }
            }),
        ];
        let mut cluster: Pool = ThreadedCluster::spawn(1, |_| |x: u32| x);
        let mut last = 0;
        for (path, receive) in paths {
            last = cluster.submit(0, 7);
            assert_eq!(receive(&mut cluster), 1, "{path} takes in the reply");
            // The reply retired the cancel flag; cancelling now is a no-op.
            assert!(!cluster.cancel(last), "{path} left the cancel flag behind");
        }
        assert!(!cluster.cancel(last + 1), "unknown ids are no-ops too");
        cluster.shutdown();
    }

    #[test]
    fn uncancelled_cancellable_tasks_run_to_completion() {
        let mut cluster: ThreadedCluster<usize, usize> =
            ThreadedCluster::spawn_cancellable(2, |_| {
                |chunks: usize, token: &CancelToken| {
                    let mut done = 0;
                    for _ in 0..chunks {
                        if token.is_cancelled() {
                            break;
                        }
                        done += 1;
                    }
                    done
                }
            });
        cluster.submit(0, 10);
        cluster.submit(1, 20);
        let mut got = [cluster.recv(), cluster.recv()];
        got.sort_by_key(|r| r.worker);
        assert_eq!(got[0].result, 10);
        assert_eq!(got[1].result, 20);
        cluster.shutdown();
    }
}
