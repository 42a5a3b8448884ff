//! Property-based tests for the service engine's load-bearing
//! invariants:
//!
//! 1. the event loop pops events in nondecreasing time order with FIFO
//!    tie-breaking (every scheduling decision sits on this),
//! 2. shared-cluster allocation conserves exactly-`k` chunk coverage for
//!    every resident job, under arbitrary job mixes, *weights*, and
//!    worker churn — or degrades that job (and only that job) to
//!    conventional full assignment when the pool's speeds cannot support
//!    it,
//! 3. the shares are weight-proportional and sum to 1 (no capacity
//!    invented or lost),
//! 4. end-to-end engine runs under earliest-deadline admission record
//!    every job consistently: `finished − arrival` agrees with its
//!    on-time classification, and utilization stays in `[0, 1]`,
//!
//! then, numbered in the order they were added, backend, batching,
//! trace and pipelining parity (5–8), work-conserving admission (9),
//! Little's law on the admission queue (10) and task completions that
//! close open tasks in time order (11).

use proptest::prelude::*;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::event::{EventKind, EventQueue};
use s2c2_serve::prelude::*;
use s2c2_serve::shared_alloc::{allocate_shared, JobDemand};
use std::collections::{BTreeMap, BTreeSet};

/// A pool's worth of worker speeds with churn: some workers up at
/// various speeds, some churned out (zero).
fn churned_speeds(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            4 => 0.05f64..1.2,   // up
            1 => Just(0.0),      // churned out / dead
        ],
        n,
    )
}

/// A random mix of resident jobs. Weights span three orders of
/// magnitude so extreme skew is exercised, not just near-equal splits.
fn job_mix(max_jobs: usize, max_k: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((1usize..=max_k, 1usize..=16, 0.01f64..100.0), 1..=max_jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_loop_pops_in_nondecreasing_fifo_order(
        // Coarse-grained times force plenty of exact ties.
        times in proptest::collection::vec(0usize..8, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t as f64, EventKind::WorkerSpeedChange { worker: i, speed: 1.0 });
        }
        let mut popped: Vec<(f64, usize)> = Vec::new();
        while let Some((t, EventKind::WorkerSpeedChange { worker, .. })) = q.pop() {
            popped.push((t, worker));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
            if w[0].0 == w[1].0 {
                // FIFO among ties: insertion order (the worker payload
                // encodes push order) must be preserved.
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at {w:?}");
            }
        }
    }

    #[test]
    fn event_loop_interleaved_pushes_stay_ordered(
        batches in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..8),
            1..8,
        ),
    ) {
        // Push a batch, pop one, push the next batch, ... — the stream of
        // popped times must still be nondecreasing *per remaining queue*:
        // i.e. every pop returns the minimum of what is queued.
        let mut q = EventQueue::new();
        let mut seq = 0usize;
        let mut last_popped = 0.0f64;
        for batch in &batches {
            for &t in batch {
                // Only push at or after the last popped time, as the
                // engine does (no scheduling into the past).
                let t = (t as f64).max(last_popped);
                q.push(t, EventKind::WorkerSpeedChange { worker: seq, speed: 1.0 });
                seq += 1;
            }
            if let Some((t, _)) = q.pop() {
                prop_assert!(t >= last_popped, "pop went backwards");
                last_popped = t;
            }
        }
        let mut rest = Vec::new();
        while let Some((t, _)) = q.pop() {
            rest.push(t);
        }
        for w in rest.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn shared_allocation_conserves_exact_coverage_per_job(
        n in 3usize..=20,
        seedspeeds in churned_speeds(20),
        mix in job_mix(5, 20),
    ) {
        let speeds = &seedspeeds[..n];
        let alive = speeds.iter().filter(|&&s| s > 0.0).count();
        let demands: Vec<JobDemand> = mix
            .iter()
            .map(|&(k, chunks, weight)| JobDemand {
                k: k.min(n),
                chunks_per_partition: chunks,
                weight,
            })
            .collect();
        let out = allocate_shared(speeds, &demands);
        prop_assert_eq!(out.len(), demands.len());

        let share_sum: f64 = out.iter().map(|s| s.share).sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-9, "shares must sum to 1");
        // Shares are weight-proportional: share_j · Σw == w_j.
        let total_weight: f64 = demands.iter().map(|d| d.weight).sum();
        for (d, s) in demands.iter().zip(out.iter()) {
            prop_assert!(
                (s.share * total_weight - d.weight).abs() < 1e-9 * total_weight,
                "share {} disagrees with weight {} / {total_weight}",
                s.share,
                d.weight
            );
        }

        for (d, s) in demands.iter().zip(out.iter()) {
            if d.k <= alive {
                // Feasible job: exactly-k coverage survives sharing + churn.
                prop_assert!(!s.degraded, "k={} alive={alive} needlessly degraded", d.k);
                prop_assert!(s.assignment.is_decodable(), "coverage broken for k={}", d.k);
                let cov = s.assignment.coverage();
                prop_assert!(cov.iter().all(|&c| c == d.k));
                // Churned-out workers never receive chunks.
                for (w, &sp) in speeds.iter().enumerate() {
                    if sp == 0.0 {
                        prop_assert!(s.assignment.chunks[w].is_empty());
                    }
                }
            } else {
                // Infeasible job: degrades to conventional full assignment
                // over the available workers, alone.
                prop_assert!(s.degraded, "k={} alive={alive} must degrade", d.k);
                for (w, &sp) in speeds.iter().enumerate() {
                    let expect = if sp > 0.0 { d.chunks_per_partition } else { 0 };
                    prop_assert_eq!(s.assignment.chunks[w].len(), expect);
                }
            }
        }
    }

    #[test]
    fn degrading_one_job_never_degrades_its_neighbours(
        n in 4usize..=16,
        seedspeeds in churned_speeds(16),
        chunks in 2usize..=12,
    ) {
        let speeds = &seedspeeds[..n];
        let alive = speeds.iter().filter(|&&s| s > 0.0).count();
        prop_assume!(alive >= 2);
        // One certainly-infeasible job next to one certainly-feasible job.
        let demands = [
            JobDemand { k: n, chunks_per_partition: chunks, weight: 1.0 },
            JobDemand { k: 1, chunks_per_partition: chunks, weight: 1.0 },
        ];
        let out = allocate_shared(speeds, &demands);
        if alive < n {
            prop_assert!(out[0].degraded);
        }
        prop_assert!(!out[1].degraded, "feasible neighbour must not degrade");
        prop_assert!(out[1].assignment.is_decodable());
    }
}

proptest! {
    // Full engine runs are much heavier than allocator calls: fewer
    // cases, smaller workloads.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn edf_records_are_consistent_end_to_end(
        jobs in 2usize..=10,
        rate in 0.5f64..4.0,
        // Relative SLOs from clearly-feasible to clearly-hopeless; some
        // jobs carry none at all.
        slack in proptest::collection::vec(
            prop_oneof![
                3 => 0.5f64..30.0,
                1 => Just(f64::INFINITY), // marker: no deadline
            ],
            10,
        ),
        weights in proptest::collection::vec(0.5f64..4.0, 10),
        seed in 0u64..256,
    ) {
        let n = 8;
        let mut workload = generate_workload(
            &ArrivalPattern::Poisson { rate },
            &JobPreset::standard_mix(),
            jobs,
            3,
            n,
            seed,
        );
        for (i, (_, spec)) in workload.iter_mut().enumerate() {
            spec.weight = weights[i % weights.len()];
            let s = slack[i % slack.len()];
            if s.is_finite() {
                spec.deadline = Some(s);
            }
        }
        let pool = s2c2_cluster::ClusterSpec::builder(n)
            .compute_bound()
            .seed(seed ^ 0xABCD)
            .straggler_slowdown(5.0)
            .stragglers(&[1], 0.2)
            .build();
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.policy = QueuePolicy::EarliestDeadline;
        let report = ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap();

        prop_assert_eq!(report.jobs.len(), jobs, "every job resolves exactly once");
        for j in &report.jobs {
            prop_assert!(j.finished >= j.arrival, "job {} finished before arriving", j.id);
            prop_assert!(j.admitted >= j.arrival);
            // The recorded sojourn must agree with the on-time
            // classification derived from it.
            if let Some(d) = j.deadline {
                let met = !j.failed && j.finished - j.arrival <= d + 1e-12;
                prop_assert_eq!(
                    j.on_time(), met,
                    "job {}: latency {} vs deadline {}", j.id, j.latency(), d
                );
            } else {
                prop_assert_eq!(j.on_time(), !j.failed);
            }
        }
        let util = report.utilization();
        prop_assert!((0.0..=1.0).contains(&util), "utilization {util}");
        let ratio = report.on_time_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio));
    }

    /// Property 9: admission is work-conserving. A job waits in the
    /// queue only while every residency slot is held, and a slot freed
    /// while jobs are queued is refilled before the engine handles
    /// anything else. Slot occupancy is rebuilt from the trace alone: a
    /// slot is held from its leader's `Admitted` event until the first
    /// `JobComplete` / `JobFailed` of any of its members. Trace order is
    /// emission order; a completed job's record is stamped at its final
    /// decode's end, which the refill (stamped at the engine clock)
    /// never comes after.
    #[test]
    fn admission_is_work_conserving(
        jobs in 4usize..=16,
        rate in 1.0f64..16.0,
        max_resident in 1usize..=4,
        max_batch in prop_oneof![Just(1usize), 2usize..=4],
        policy in prop_oneof![
            Just(QueuePolicy::Fifo),
            Just(QueuePolicy::EarliestDeadline),
            Just(QueuePolicy::WeightedFairShare),
        ],
        seed in 0u64..256,
    ) {
        let n = 8;
        let workload = generate_workload(
            &ArrivalPattern::Poisson { rate },
            &JobPreset::standard_mix(),
            jobs,
            3,
            n,
            seed,
        );
        let pool = s2c2_cluster::ClusterSpec::builder(n)
            .compute_bound()
            .seed(seed ^ 0x5107)
            .straggler_slowdown(5.0)
            .stragglers(&[1], 0.2)
            .build();
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.policy = policy;
        cfg.max_resident = max_resident;
        cfg.max_batch = max_batch;
        cfg.telemetry = true;
        let report = ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap();
        prop_assert_eq!(report.jobs.len(), jobs, "every job resolves exactly once");
        let waited: BTreeSet<u64> = report
            .jobs
            .iter()
            .filter(|j| j.admitted > j.arrival)
            .map(|j| j.id)
            .collect();

        let trace = &report.telemetry.as_ref().expect("telemetry enabled").trace;
        let mut leader_of: BTreeMap<u64, u64> = BTreeMap::new();
        let mut held: BTreeSet<u64> = BTreeSet::new();
        let mut queued: BTreeSet<u64> = BTreeSet::new();
        // A freed slot awaiting its refill: the resolved leader and the
        // resolution's stamp.
        let mut refill: Option<(u64, f64)> = None;
        for e in trace.events() {
            if let Some((resolved, at)) = refill {
                // Only the batch's other resolutions, the share
                // rebalance, and the refill itself may come between.
                let allowed = match e.kind {
                    TraceEventKind::JobComplete { job, .. }
                    | TraceEventKind::JobFailed { job, .. } => leader_of[&job] == resolved,
                    TraceEventKind::Rebalance { .. } | TraceEventKind::BatchFormed { .. } => true,
                    TraceEventKind::Admitted { job, leader } => {
                        job == leader && e.time <= at
                    }
                    _ => false,
                };
                prop_assert!(
                    allowed,
                    "slot of job {} freed at t = {} with jobs queued, then {:?} at t = {}",
                    resolved, at, e.kind, e.time
                );
            }
            match e.kind {
                TraceEventKind::JobArrival { job, .. } => {
                    if waited.contains(&job) {
                        prop_assert_eq!(
                            held.len(), max_resident,
                            "job {} queued at t = {} with a free slot", job, e.time
                        );
                    }
                    queued.insert(job);
                }
                TraceEventKind::Malformed { job } => {
                    queued.remove(&job);
                }
                TraceEventKind::Admitted { job, leader } => {
                    queued.remove(&job);
                    leader_of.insert(job, leader);
                    if held.insert(leader) {
                        refill = None;
                    }
                }
                TraceEventKind::JobComplete { job, .. } | TraceEventKind::JobFailed { job, .. } => {
                    let leader = leader_of[&job];
                    if held.remove(&leader) && !queued.is_empty() {
                        refill = Some((leader, e.time));
                    }
                }
                _ => {}
            }
        }
        prop_assert!(refill.is_none(), "the last freed slot was never refilled");
        prop_assert!(queued.is_empty() && held.is_empty());
    }

    /// Property 10: Little's law on the admission queue. The
    /// time-average queue depth over the run, times the makespan, is the
    /// area under the depth curve; every queued job adds exactly its own
    /// wait to that area, so it must equal Σ `queueing_delay()`. The two
    /// sides come from different bookkeeping (depth samples against the
    /// per-job records), so a job that leaves the queue without a record,
    /// or a sample taken at the wrong instant, breaks the equality.
    #[test]
    fn littles_law_holds_on_the_admission_queue(
        jobs in 4usize..=16,
        rate in 1.0f64..16.0,
        max_resident in 1usize..=4,
        max_batch in prop_oneof![Just(1usize), 2usize..=4],
        pipeline_depth in 1usize..=3,
        policy in prop_oneof![
            Just(QueuePolicy::Fifo),
            Just(QueuePolicy::EarliestDeadline),
            Just(QueuePolicy::WeightedFairShare),
        ],
        seed in 0u64..256,
    ) {
        let n = 8;
        let workload = generate_workload(
            &ArrivalPattern::Poisson { rate },
            &JobPreset::standard_mix(),
            jobs,
            3,
            n,
            seed,
        );
        let pool = s2c2_cluster::ClusterSpec::builder(n)
            .compute_bound()
            .seed(seed ^ 0x1177)
            .straggler_slowdown(5.0)
            .stragglers(&[1], 0.2)
            .build();
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::LastValue,
        });
        cfg.policy = policy;
        cfg.max_resident = max_resident;
        cfg.max_batch = max_batch;
        cfg.pipeline_depth = pipeline_depth;
        let report = ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap();
        prop_assume!(report.makespan > 0.0);
        let area = report.mean_queue_depth() * report.makespan;
        let waits: f64 = report.jobs.iter().map(|j| j.queueing_delay()).sum();
        prop_assert!(
            (area - waits).abs() <= 1e-9 * area.abs().max(waits.abs()),
            "mean depth × makespan {} vs Σ queueing delay {}", area, waits
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 11: task completions are applied in time order, each to
    /// a task the master is waiting for. Over the whole trace,
    /// `TaskComplete` instants never decrease, and each one closes a
    /// task that is open: dispatched, and neither completed nor
    /// cancelled since. A dispatch onto an open or done task reopens it
    /// (rung 3 merges a redo onto the worker's previous one), and a
    /// cancel, too, closes an open task only. The runs mispredict from
    /// uniform predictions, so deadlines cancel and reassign, and some
    /// churn and pipeline.
    #[test]
    fn task_completions_close_open_tasks_in_time_order(
        jobs in 2usize..=10,
        rate in 0.5f64..8.0,
        pipeline_depth in 1usize..=2,
        max_batch in prop_oneof![Just(1usize), 2usize..=3],
        churn in prop_oneof![Just(0.0f64), 0.02f64..0.08],
        uniform in prop_oneof![Just(true), Just(false)],
        seed in 0u64..256,
    ) {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Task {
            Open,
            Done,
            Cancelled,
        }
        let n = 8;
        let workload = generate_workload(
            &ArrivalPattern::Poisson { rate },
            &JobPreset::standard_mix(),
            jobs,
            3,
            n,
            seed,
        );
        let pool = s2c2_cluster::ClusterSpec::builder(n)
            .compute_bound()
            .seed(seed ^ 0x7A5C)
            .straggler_slowdown(5.0)
            .stragglers(&[1, 4], 0.2)
            .build();
        let predictor = if uniform {
            PredictorSource::Uniform
        } else {
            PredictorSource::LastValue
        };
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 { predictor });
        cfg.pipeline_depth = pipeline_depth;
        cfg.max_batch = max_batch;
        if churn > 0.0 {
            cfg.churn = Some(ChurnConfig { p_fail: churn, p_recover: 0.5, min_up: 6 });
            cfg.max_retries = 10;
        }
        cfg.telemetry = true;
        let report = ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap();
        prop_assert_eq!(report.jobs.len(), jobs, "every job resolves exactly once");
        let trace = &report.telemetry.as_ref().expect("telemetry enabled").trace;
        let mut tasks: BTreeMap<(u64, u64, usize, bool), Task> = BTreeMap::new();
        let mut last = f64::NEG_INFINITY;
        for e in trace.events() {
            match e.kind {
                TraceEventKind::TaskDispatch { job, generation, worker, redo, .. } => {
                    tasks.insert((job, generation, worker, redo), Task::Open);
                }
                TraceEventKind::TaskComplete { job, generation, worker, redo } => {
                    prop_assert!(e.time >= last, "completion at {} after one at {}", e.time, last);
                    last = e.time;
                    let task = tasks.get_mut(&(job, generation, worker, redo));
                    prop_assert_eq!(
                        task.as_deref(), Some(&Task::Open),
                        "job {} gen {} worker {} redo {} completed at {}",
                        job, generation, worker, redo, e.time
                    );
                    tasks.insert((job, generation, worker, redo), Task::Done);
                }
                TraceEventKind::TaskCancel { job, generation, worker, redo } => {
                    let task = tasks.get_mut(&(job, generation, worker, redo));
                    prop_assert_eq!(
                        task.as_deref(), Some(&Task::Open),
                        "job {} gen {} worker {} redo {} cancelled at {}",
                        job, generation, worker, redo, e.time
                    );
                    tasks.insert((job, generation, worker, redo), Task::Cancelled);
                }
                _ => {}
            }
        }
        prop_assert!(last > f64::NEG_INFINITY, "some task completed");
    }
}

// Numerics parity between execution backends needs fewer, heavier cases
// than the allocation properties above: each case spawns a real
// OS-thread pool and computes actual matvecs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 5: for any small job stream, the master-side verified
    /// backend and the real-threads backend produce identical timing
    /// *and* identical decoded outputs — the coverage the timing model
    /// credits is the coverage both decode from, and chunk arithmetic
    /// is thread-placement-independent.
    #[test]
    fn sim_and_threaded_backends_decode_identically(
        jobs in 2usize..5,
        rows in 40usize..160,
        cols in 4usize..10,
        chunks in 2usize..5,
        seed in 0u64..64,
        mispredict in any::<bool>(),
    ) {
        let n = 6;
        let preset = JobPreset {
            name: "parity",
            rows,
            cols,
            k_frac: 0.67,
            chunks_per_partition: chunks,
            iterations: 2,
            weight: 1.0,
            deadline: None,
            matrix_id: Some(seed),
        };
        let workload: Vec<(f64, JobSpec)> = (0..jobs as u64)
            .map(|i| (0.03 * i as f64, preset.instantiate(i, 0, n)))
            .collect();
        let run = |backend: BackendKind| {
            let pool = s2c2_cluster::ClusterSpec::builder(n)
                .compute_bound()
                .seed(seed ^ 0xF00D)
                .straggler_slowdown(4.0)
                .stragglers(&[2], 0.2)
                .build();
            let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
                // Uniform predictions on a straggler pool exercise the
                // cancel/redo path through both backends.
                predictor: if mispredict {
                    PredictorSource::Uniform
                } else {
                    PredictorSource::LastValue
                },
            });
            cfg.backend = backend;
            ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap()
        };
        let sim = run(BackendKind::SimVerified);
        let threaded = run(BackendKind::Threaded);

        prop_assert_eq!(&sim.jobs, &threaded.jobs, "timing must be backend-independent");
        prop_assert_eq!(sim.verified_iterations, threaded.verified_iterations);
        prop_assert_eq!(sim.encode_cache_hits, threaded.encode_cache_hits);
        prop_assert_eq!(sim.encode_cache_misses, threaded.encode_cache_misses);
        prop_assert!(sim.verified_iterations >= jobs, "every iteration verified");
        prop_assert_eq!(sim.job_outputs.len(), threaded.job_outputs.len());
        for ((ia, a), (ib, b)) in sim.job_outputs.iter().zip(threaded.job_outputs.iter()) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x - y).abs() <= 1e-12, "job {}: {} vs {}", ia, x, y);
            }
        }
        // One shared matrix identity across the stream: the cache must
        // have amortized every encode after the first.
        prop_assert_eq!(sim.encode_cache_misses, 1);
        prop_assert_eq!(sim.encode_cache_hits as usize, jobs - 1);
    }

    /// Property 6: batching is output-invariant. For any burst of small
    /// jobs sharing one model, a batched run (size-threshold coalescing)
    /// completes exactly the job set the unbatched run completes, with
    /// per-job decoded outputs identical to 1e-12 — under the timing-only
    /// backend (record parity), the master-side verified backend, and the
    /// real-threads backend, including mispredicted rounds that force the
    /// §4.3 recovery ladder on a mid-flight batch.
    #[test]
    fn batched_and_unbatched_runs_complete_identically(
        jobs in 3usize..6,
        rows in 40usize..160,
        cols in 4usize..10,
        chunks in 2usize..5,
        max_batch in 2usize..4,
        seed in 0u64..64,
        mispredict in any::<bool>(),
    ) {
        let n = 6;
        let preset = JobPreset {
            name: "batchprop",
            rows,
            cols,
            k_frac: 0.67,
            chunks_per_partition: chunks,
            iterations: 2,
            weight: 1.0,
            deadline: None,
            matrix_id: Some(seed ^ 0xBA7C),
        };
        // A simultaneous burst behind a single residency slot: the
        // queue is deep whenever a slot frees, so coalescing happens on
        // every admission after the first.
        let workload: Vec<(f64, JobSpec)> = (0..jobs as u64)
            .map(|i| (0.0, preset.instantiate(i, (i % 2) as u32, n)))
            .collect();
        let run = |backend: BackendKind, max_batch: usize| {
            let pool = s2c2_cluster::ClusterSpec::builder(n)
                .compute_bound()
                .seed(seed ^ 0xBEEF)
                .straggler_slowdown(4.0)
                .stragglers(&[2], 0.2)
                .build();
            let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
                // Uniform predictions on a straggler pool force the
                // cancel/redo ladder mid-batch.
                predictor: if mispredict {
                    PredictorSource::Uniform
                } else {
                    PredictorSource::LastValue
                },
            });
            cfg.backend = backend;
            cfg.max_batch = max_batch;
            cfg.max_resident = 1;
            ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap()
        };
        let sorted_ids = |r: &ServiceReport| {
            let mut v: Vec<u64> = r.jobs.iter().filter(|j| !j.failed).map(|j| j.id).collect();
            v.sort_unstable();
            v
        };
        let sorted_outputs = |r: &ServiceReport| {
            let mut v = r.job_outputs.clone();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        let mut batched_by_backend: Vec<ServiceReport> = Vec::new();
        for backend in [BackendKind::Sim, BackendKind::SimVerified, BackendKind::Threaded] {
            let off = run(backend, 1);
            let batched = run(backend, max_batch);
            prop_assert_eq!(off.completed(), jobs, "{} unbatched must serve all", backend);
            prop_assert_eq!(batched.completed(), jobs, "{} batched must serve all", backend);
            prop_assert_eq!(sorted_ids(&off), sorted_ids(&batched));
            prop_assert!(batched.batches_admitted > 0, "{}: burst must coalesce", backend);
            prop_assert_eq!(off.batches_admitted, 0);
            if backend != BackendKind::Sim {
                // Identical decoded outputs (≤ 1e-12) whether or not a
                // job rode a batch: inputs are a function of (job,
                // iteration), and both coverages decode the same A·x.
                let a = sorted_outputs(&off);
                let b = sorted_outputs(&batched);
                prop_assert_eq!(a.len(), jobs);
                prop_assert_eq!(b.len(), jobs);
                for ((ia, ya), (ib, yb)) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(ia, ib);
                    prop_assert_eq!(ya.len(), yb.len());
                    for (x, y) in ya.iter().zip(yb.iter()) {
                        prop_assert!((x - y).abs() <= 1e-12, "job {}: {} vs {}", ia, x, y);
                    }
                }
            }
            batched_by_backend.push(batched);
        }
        // Backend parity holds *under batching* too: identical timing
        // records across all three backends, identical stacked-decode
        // outputs between the two numeric backends.
        let (sim, verified, threaded) = (
            &batched_by_backend[0],
            &batched_by_backend[1],
            &batched_by_backend[2],
        );
        prop_assert_eq!(&sim.jobs, &verified.jobs);
        prop_assert_eq!(&sim.jobs, &threaded.jobs);
        prop_assert_eq!(verified.verified_iterations, threaded.verified_iterations);
        let a = sorted_outputs(verified);
        let b = sorted_outputs(threaded);
        for ((ia, ya), (ib, yb)) in a.iter().zip(b.iter()) {
            prop_assert_eq!(ia, ib);
            for (x, y) in ya.iter().zip(yb.iter()) {
                prop_assert!((x - y).abs() <= 1e-12, "job {}: {} vs {}", ia, x, y);
            }
        }
    }

    /// Property 7: the structured trace is part of the deterministic
    /// surface. For any small job stream, all three execution backends
    /// emit the *identical* virtual-time event sequence (trace events
    /// carry only virtual clocks — wall time never leaks in), and the
    /// trace's recovery-rung events agree with the report's aggregate
    /// rung counters.
    #[test]
    fn trace_event_streams_are_backend_identical(
        jobs in 2usize..5,
        rows in 40usize..160,
        cols in 4usize..10,
        chunks in 2usize..5,
        seed in 0u64..64,
        mispredict in any::<bool>(),
    ) {
        let n = 6;
        let preset = JobPreset {
            name: "traceprop",
            rows,
            cols,
            k_frac: 0.67,
            chunks_per_partition: chunks,
            iterations: 2,
            weight: 1.0,
            deadline: None,
            matrix_id: Some(seed ^ 0x7124),
        };
        let workload: Vec<(f64, JobSpec)> = (0..jobs as u64)
            .map(|i| (0.03 * i as f64, preset.instantiate(i, (i % 2) as u32, n)))
            .collect();
        let run = |backend: BackendKind| {
            let pool = s2c2_cluster::ClusterSpec::builder(n)
                .compute_bound()
                .seed(seed ^ 0xF00D)
                .straggler_slowdown(4.0)
                .stragglers(&[2], 0.2)
                .build();
            let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
                // Uniform predictions on a straggler pool exercise the
                // cancel/redo rungs through the trace as well.
                predictor: if mispredict {
                    PredictorSource::Uniform
                } else {
                    PredictorSource::LastValue
                },
            });
            cfg.backend = backend;
            cfg.telemetry = true;
            ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap()
        };
        let sim = run(BackendKind::Sim);
        let verified = run(BackendKind::SimVerified);
        let threaded = run(BackendKind::Threaded);
        let trace_of = |r: &ServiceReport| {
            r.telemetry.as_ref().expect("telemetry enabled").trace.clone()
        };
        let base = trace_of(&sim);
        prop_assert!(!base.is_empty(), "a served workload must leave a trace");
        prop_assert_eq!(&base, &trace_of(&verified), "sim-verified trace diverged");
        prop_assert_eq!(&base, &trace_of(&threaded), "threaded trace diverged");
        prop_assert_eq!(
            sim.recovery_rung_counts, base.rung_counts(),
            "aggregate rung counters must match the event log"
        );
    }

    /// Property 8: pipelining is output-invariant. For any small job
    /// stream, a window of depth 2 or 4 completes the same job set as
    /// the depth-1 barrier run with per-job decoded outputs identical
    /// to 1e-12 — on the master-side verified backend and the
    /// real-threads backend, including mispredicted rounds that climb
    /// the recovery ladder while later window rounds are in flight.
    #[test]
    fn pipelined_runs_match_depth_one_outputs(
        jobs in 2usize..5,
        rows in 40usize..160,
        cols in 4usize..10,
        chunks in 2usize..5,
        deep in prop_oneof![Just(2usize), Just(4usize)],
        seed in 0u64..64,
        mispredict in any::<bool>(),
    ) {
        let n = 6;
        let preset = JobPreset {
            name: "pipeprop",
            rows,
            cols,
            k_frac: 0.67,
            chunks_per_partition: chunks,
            // Three rounds: enough for the window to actually pipeline.
            iterations: 3,
            weight: 1.0,
            deadline: None,
            matrix_id: Some(seed ^ 0x919E),
        };
        let workload: Vec<(f64, JobSpec)> = (0..jobs as u64)
            .map(|i| (0.03 * i as f64, preset.instantiate(i, (i % 2) as u32, n)))
            .collect();
        let run = |backend: BackendKind, depth: usize| {
            let pool = s2c2_cluster::ClusterSpec::builder(n)
                .compute_bound()
                .seed(seed ^ 0xF1FE)
                .straggler_slowdown(4.0)
                .stragglers(&[2], 0.2)
                .build();
            let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
                predictor: if mispredict {
                    PredictorSource::Uniform
                } else {
                    PredictorSource::LastValue
                },
            });
            cfg.backend = backend;
            cfg.pipeline_depth = depth;
            ServiceEngine::new(pool, cfg).unwrap().run(&workload).unwrap()
        };
        for backend in [BackendKind::SimVerified, BackendKind::Threaded] {
            let base = run(backend, 1);
            let piped = run(backend, deep);
            prop_assert_eq!(base.completed(), jobs, "{}: depth-1 run serves all", backend);
            prop_assert_eq!(piped.completed(), jobs, "{}: depth-{} run serves all", backend, deep);
            prop_assert_eq!(
                base.verified_iterations, piped.verified_iterations,
                "{}: every round decoded and checked at both depths", backend
            );
            prop_assert!(piped.max_decode_error < 1e-6);
            prop_assert_eq!(base.job_outputs.len(), piped.job_outputs.len());
            for ((ia, a), (ib, b)) in base.job_outputs.iter().zip(piped.job_outputs.iter()) {
                prop_assert_eq!(ia, ib);
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert!(
                        (x - y).abs() <= 1e-12,
                        "{}: job {} output drifted across depths: {} vs {}",
                        backend, ia, x, y
                    );
                }
            }
        }
    }
}
