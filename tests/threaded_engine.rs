//! End-to-end coded computing on the *real* threaded executor: OS-thread
//! workers, `std::sync::mpsc` message passing, injected slowdowns, fastest-k
//! collection, decode — validating that the strategy logic survives true
//! concurrency (out-of-order completion, late straggler replies).

use s2c2_cluster::threaded::{spin_delay_micros, ThreadedCluster};
use s2c2_coding::chunks::WorkerChunkResult;
use s2c2_coding::mds::{MdsCode, MdsParams};
use s2c2_linalg::{Matrix, Vector};
use std::sync::Arc;
use std::time::Duration;

/// Task: compute the given chunks of the worker's own coded partition.
#[derive(Debug)]
struct ChunkTask {
    chunks: Vec<usize>,
    x: Arc<Vector>,
}

/// Intra-worker data parallelism: each simulated worker splits its rows
/// over this many OS threads via `s2c2_linalg::parallel` (the same knob
/// the serve engine's compute model charges for).
const WORKER_THREADS: usize = 2;

fn spawn_coded_cluster(
    enc: Arc<s2c2_coding::mds::EncodedMatrix>,
    slow_workers: &[usize],
) -> ThreadedCluster<ChunkTask, Vec<WorkerChunkResult>> {
    let slow: Vec<usize> = slow_workers.to_vec();
    let n = enc.params().n;
    ThreadedCluster::spawn(n, move |worker| {
        let enc = Arc::clone(&enc);
        let is_slow = slow.contains(&worker);
        move |task: ChunkTask| {
            if is_slow {
                // 5x-ish slowdown via busy wait per chunk.
                spin_delay_micros(4_000 * task.chunks.len() as u64);
            }
            enc.worker_compute_chunks_par(worker, &task.chunks, &task.x, WORKER_THREADS)
        }
    })
}

#[test]
fn fastest_k_of_n_decode_on_real_threads() {
    let (n, k, chunks) = (8usize, 5usize, 4usize);
    let a = Matrix::from_fn(400, 12, |r, c| ((r * 3 + c * 5) % 13) as f64 - 6.0);
    let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
    let enc = Arc::new(code.encode(&a, chunks).unwrap());
    let x = Arc::new(Vector::from_fn(12, |i| 0.5 + i as f64 * 0.25));
    let expect = a.matvec(&x);

    // Workers 6 and 7 are slow; the master should never need them.
    let mut cluster = spawn_coded_cluster(Arc::clone(&enc), &[6, 7]);
    let all_chunks: Vec<usize> = (0..chunks).collect();
    for w in 0..n {
        cluster.submit(
            w,
            ChunkTask {
                chunks: all_chunks.clone(),
                x: Arc::clone(&x),
            },
        );
    }
    // Fastest-k collection.
    let got = cluster.collect_until(Duration::from_secs(10), |rs| rs.len() >= k);
    assert!(got.len() >= k, "collected {} responses", got.len());
    let responses: Vec<WorkerChunkResult> = got.into_iter().flat_map(|r| r.result).collect();
    let y = code.decode_matvec(enc.layout(), &responses).unwrap();
    s2c2_linalg::assert_slices_close(y.as_slice(), expect.as_slice(), 1e-6);
    cluster.shutdown();
}

#[test]
fn s2c2_style_partial_assignments_on_real_threads() {
    // Each worker gets only part of its partition (exact-k coverage), as
    // the S2C2 allocator would assign; the master needs every response.
    let (n, k, chunks) = (6usize, 4usize, 6usize);
    let a = Matrix::from_fn(288, 10, |r, c| ((r + 2 * c) % 11) as f64);
    let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
    let enc = Arc::new(code.encode(&a, chunks).unwrap());
    let x = Arc::new(Vector::filled(10, 1.5));
    let expect = a.matvec(&x);

    let assignment =
        s2c2_core::allocate_chunks(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], k, chunks).unwrap();
    let mut cluster = spawn_coded_cluster(Arc::clone(&enc), &[]);
    let mut submitted = 0;
    for w in 0..n {
        if !assignment.chunks[w].is_empty() {
            cluster.submit(
                w,
                ChunkTask {
                    chunks: assignment.chunks[w].clone(),
                    x: Arc::clone(&x),
                },
            );
            submitted += 1;
        }
    }
    let got = cluster.collect_until(Duration::from_secs(10), |rs| rs.len() >= submitted);
    let responses: Vec<WorkerChunkResult> = got.into_iter().flat_map(|r| r.result).collect();
    let y = code.decode_matvec(enc.layout(), &responses).unwrap();
    s2c2_linalg::assert_slices_close(y.as_slice(), expect.as_slice(), 1e-6);
    cluster.shutdown();
}

#[test]
fn late_straggler_replies_are_ignored_across_rounds() {
    let (n, k, chunks) = (5usize, 3usize, 2usize);
    let a = Matrix::from_fn(120, 6, |r, c| (r + c) as f64);
    let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
    let enc = Arc::new(code.encode(&a, chunks).unwrap());
    let x = Arc::new(Vector::filled(6, 2.0));
    let expect = a.matvec(&x);

    let mut cluster = spawn_coded_cluster(Arc::clone(&enc), &[4]);
    let all_chunks: Vec<usize> = (0..chunks).collect();
    for round in 0..3 {
        cluster.drain_stale();
        // Track this round's task ids: stale replies from earlier rounds
        // (or the straggler's late replies) must be filtered by identity,
        // not just by worker — a fast worker's *previous-round* reply can
        // also linger in the queue.
        let mut fresh_ids = std::collections::BTreeSet::new();
        for w in 0..n {
            let id = cluster.submit(
                w,
                ChunkTask {
                    chunks: all_chunks.clone(),
                    x: Arc::clone(&x),
                },
            );
            fresh_ids.insert(id);
        }
        let got = cluster.collect_until(Duration::from_secs(10), |rs| {
            rs.iter()
                .filter(|r| r.worker != 4 && fresh_ids.contains(&r.task_id))
                .count()
                >= k
        });
        let responses: Vec<WorkerChunkResult> = got
            .into_iter()
            .filter(|r| r.worker != 4 && fresh_ids.contains(&r.task_id))
            .flat_map(|r| r.result)
            .collect();
        let y = code.decode_matvec(enc.layout(), &responses).unwrap();
        s2c2_linalg::assert_slices_close(y.as_slice(), expect.as_slice(), 1e-6);
        let _ = round;
    }
    cluster.shutdown();
}
