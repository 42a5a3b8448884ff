//! (R) per-layer replays: the harness times calls into one layer's
//! public functions, at exactly the shapes the workloads use, from
//! outside the program. Inputs derive from the run's seed.

use crate::catalog;
use crate::spans::Recorder;
use crate::stats::{timed, Summary};
use crate::workloads::{lstm_training_series, sub_seed, LogregSize};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2c2_cluster::threaded::ThreadedCluster;
use s2c2_coding::{EncodeCache, EncodeKey, MdsCode, MdsParams, MultiChunkResult};
use s2c2_core::allocate_chunks;
use s2c2_core::speed_tracker::{PredictorSource, SpeedTracker};
use s2c2_linalg::{LuFactors, Matrix, MultiVector, Vector};
use s2c2_predict::lstm::{train, LstmConfig};
use s2c2_predict::SpeedPredictor;
use s2c2_serve::{
    allocate_shared, generate_workload, ArrivalPattern, EventKind, EventQueue, JobDemand,
    JobPreset, QueuePolicy, QueuedJob, ResidentInfo,
};
use s2c2_trace::CloudTraceConfig;
use s2c2_workloads::datasets::gisette_like;
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per call of `op` over at least `budget_s` seconds
/// of calls, in batches long enough for the clock to resolve.
fn ns_per_op(budget_s: f64, mut op: impl FnMut()) -> Summary {
    let (first_s, ()) = timed(&mut op);
    let batch = ((0.002 / first_s.max(1e-9)) as usize).clamp(1, 1_000_000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let (s, ()) = timed(|| (0..batch).for_each(|_| op()));
        samples.push(s * 1e9 / batch as f64);
    }
    Summary::of(&samples)
}

/// Runs the replays that apply to one workload.
pub struct Replays<'a> {
    /// The workload's bit in [`catalog::MetricDef::on`].
    pub bit: u8,
    pub seed: u64,
    /// Seconds of calls per replay (0.2 s; 0.02 s under `--quick`).
    pub budget_s: f64,
    pub logreg: LogregSize,
    pub rec: &'a mut Recorder,
    pub out: &'a mut Vec<(&'static str, Summary)>,
}

impl Replays<'_> {
    fn applies(&self, name: &str) -> bool {
        catalog::find(name).is_some_and(|d| d.on & self.bit != 0)
    }

    /// Times `op` under `replay.<name>` if the metric applies here;
    /// `unit` converts nanoseconds per call into the metric's unit.
    fn timed_as(&mut self, name: &'static str, unit: impl Fn(f64) -> f64, op: impl FnMut()) {
        if !self.applies(name) {
            return;
        }
        let budget = self.budget_s;
        let ns = self
            .rec
            .span(&format!("replay.{name}"), |_| ns_per_op(budget, op));
        // A rate inverts the order, so the extremes are sorted again.
        let (a, b) = (unit(ns.min), unit(ns.max));
        self.out.push((
            name,
            Summary {
                value: unit(ns.value),
                min: a.min(b),
                max: a.max(b),
                n: ns.n,
            },
        ));
    }

    /// [`Self::timed_as`] for a metric that is a time: `factor` scales
    /// nanoseconds into its unit.
    fn ns(&mut self, name: &'static str, factor: f64, op: impl FnMut()) {
        self.timed_as(name, |ns| ns * factor, op);
    }

    fn rng(&self, purpose: u64) -> StdRng {
        StdRng::seed_from_u64(sub_seed(self.seed, 0x100 + purpose))
    }

    pub fn run(&mut self) {
        self.serve_numeric();
        self.paper_numeric();
        self.lu_solve();
        self.core_and_serve_layers();
        self.threaded_cluster();
        self.lstm();
    }

    /// One worker partition and the whole code path of the `medium`
    /// preset on the 8-worker pool: (8, 6), 10 chunks per partition.
    fn serve_numeric(&mut self) {
        if self.bit & catalog::THREADED == 0 {
            return;
        }
        let mut rng = self.rng(1);
        let preset = JobPreset::medium();
        let spec = preset.instantiate(0, 0, 8);
        let a = Matrix::from_fn(spec.rows, spec.cols, |_, _| rng.gen_range(-1.0..1.0));
        let x = Vector::from_fn(spec.cols, |_| rng.gen_range(-1.0..1.0));
        let x4 = MultiVector::from_fn(4, spec.cols, |_, _| rng.gen_range(-1.0..1.0));
        let code = MdsCode::new(MdsParams::new(8, spec.k)).expect("(8, 6) is a valid code");
        let chunks = spec.chunks_per_partition;

        self.ns("coding.encode.serve_medium_ms", 1e-6, || {
            black_box(code.encode(black_box(&a), chunks).expect("encode"));
        });
        let encoded = code.encode(&a, chunks).expect("encode");
        let part = encoded.partition(0);
        let rows = part.rows();
        self.ns("linalg.matvec_rows.serve_ns", 1.0, || {
            black_box(part.matvec_rows(black_box(&x), 0, rows));
        });
        self.ns("linalg.matvec_multi.serve_m4_ns", 1.0, || {
            black_box(part.matvec_multi_rows(black_box(&x4), 0, rows));
        });
        let all_chunks: Vec<usize> = (0..chunks).collect();
        let xs = MultiVector::single(&x);
        self.ns("coding.worker_compute.serve_ns", 1.0, || {
            black_box(encoded.worker_compute_chunks_multi(0, &all_chunks, black_box(&xs)));
        });
        let responses = parity_heavy_responses(&code, &encoded, &xs);
        self.ns("coding.decode.serve_us", 1e-3, || {
            black_box(
                code.decode_matvec_multi(encoded.layout(), black_box(&responses))
                    .expect("decode"),
            );
        });

        let key = EncodeKey {
            matrix_id: spec.matrix_id,
            rows: spec.rows,
            cols: spec.cols,
            n: 8,
            k: spec.k,
            chunks_per_partition: chunks,
        };
        let mut cache = EncodeCache::new();
        cache
            .get_or_encode(key, || a.clone())
            .expect("first lookup encodes");
        self.ns("coding.cache.hit_ns", 1.0, || {
            black_box(
                cache
                    .get_or_encode(black_box(key), || unreachable!("resident key"))
                    .expect("hit"),
            );
        });
    }

    /// The paper experiment's shapes: the (50, 40) code with 12 chunks
    /// per worker over the full dataset, far larger than the last-level
    /// cache.
    fn paper_numeric(&mut self) {
        if self.bit & catalog::LOGREG == 0 {
            return;
        }
        let mut rng = self.rng(2);
        let LogregSize { rows, cols, .. } = self.logreg;
        let a = gisette_like(rows, cols, sub_seed(self.seed, 0x110)).features;
        let x = Vector::from_fn(cols, |_| rng.gen_range(-1.0..1.0));
        let code = MdsCode::new(MdsParams::new(50, 40)).expect("(50, 40) is a valid code");

        // Computed, not measured, traffic: one pass over A. Bytes per
        // nanosecond are GB/s.
        let bytes = (rows * cols * 8) as f64;
        self.timed_as(
            "linalg.matvec.paper_gb_per_s",
            |ns| bytes / ns,
            || {
                black_box(a.matvec(black_box(&x)));
            },
        );
        self.ns("coding.encode.paper_ms", 1e-6, || {
            black_box(code.encode(black_box(&a), 12).expect("encode"));
        });
        let encoded = code.encode(&a, 12).expect("encode");
        let part = encoded.partition(0);
        let part_rows = part.rows();
        self.ns("linalg.matvec_rows.paper_ns", 1.0, || {
            black_box(part.matvec_rows(black_box(&x), 0, part_rows));
        });
        let responses = parity_heavy_responses(&code, &encoded, &MultiVector::single(&x));
        self.ns("coding.decode.paper_us", 1e-3, || {
            black_box(
                code.decode_matvec_multi(encoded.layout(), black_box(&responses))
                    .expect("decode"),
            );
        });
    }

    fn lu_solve(&mut self) {
        let mut rng = self.rng(3);
        // Diagonally dominant, so the factorization cannot hit a zero pivot.
        let a = Matrix::from_fn(10, 10, |r, c| {
            rng.gen_range(-1.0..1.0) + if r == c { 10.0 } else { 0.0 }
        });
        let b = Matrix::from_fn(10, 20, |_, _| rng.gen_range(-1.0..1.0));
        self.ns("linalg.lu_solve.m10_ns", 1.0, || {
            let lu = LuFactors::factor(black_box(&a)).expect("non-singular");
            black_box(lu.solve_matrix(black_box(&b)));
        });
    }

    fn core_and_serve_layers(&mut self) {
        let mut rng = self.rng(4);
        let mut speeds =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(0.2..1.0)).collect() };
        let speeds16 = speeds(16);
        let speeds50 = speeds(50);
        self.ns("core.alloc.n16_ns", 1.0, || {
            black_box(allocate_chunks(black_box(&speeds16), 12, 10).expect("feasible"));
        });
        self.ns("core.alloc.n50_ns", 1.0, || {
            black_box(allocate_chunks(black_box(&speeds50), 40, 12).expect("feasible"));
        });
        if self.bit & (catalog::SIM_STEADY | catalog::SIM_VOLATILE) == 0 {
            return;
        }
        let mut tracker = SpeedTracker::new(&PredictorSource::LastValue, 16);
        let observed: Vec<Option<f64>> = speeds16.iter().map(|&s| Some(s)).collect();
        self.ns("core.speed_tracker.observe_n16_ns", 1.0, || {
            tracker.observe(black_box(&observed));
        });

        for (name, size) in [
            ("serve.event.hold_1k_ns", 1_000usize),
            ("serve.event.hold_100k_ns", 100_000),
        ] {
            let mut rng = self.rng(5);
            let mut queue = EventQueue::new();
            let event = |worker: usize| EventKind::WorkerSpeedChange { worker, speed: 1.0 };
            for i in 0..size {
                queue.push(rng.gen_range(0.0..1.0), event(i % 16));
            }
            // Hold model: pop the earliest event, schedule one a random
            // delay later, so the heap stays at its steady size.
            self.ns(name, 1.0, || {
                let (t, kind) = queue.pop().expect("queue holds its size");
                black_box(kind);
                queue.push(t + rng.gen_range(0.0..1.0), event(3));
            });
        }

        let stream = generate_workload(
            &ArrivalPattern::Poisson { rate: 2.0 },
            &JobPreset::standard_mix(),
            1024,
            4,
            16,
            sub_seed(self.seed, 0x120),
        );
        let queued: Vec<QueuedJob> = stream
            .into_iter()
            .map(|(arrival, spec)| QueuedJob { spec, arrival })
            .collect();
        let residents: Vec<ResidentInfo> = (0..4)
            .map(|tenant| ResidentInfo {
                tenant,
                weight: 1.0,
            })
            .collect();
        for (name, policy) in [
            ("serve.admission.pick_fifo_q1024_ns", QueuePolicy::Fifo),
            (
                "serve.admission.pick_wfs_q1024_ns",
                QueuePolicy::WeightedFairShare,
            ),
        ] {
            self.ns(name, 1.0, || {
                black_box(policy.pick(black_box(&queued), &residents));
            });
        }

        let demand = JobDemand {
            k: 12,
            chunks_per_partition: 10,
            weight: 1.0,
        };
        for (name, residents) in [
            ("serve.shared_alloc.r1_ns", 1),
            ("serve.shared_alloc.r4_ns", 4),
        ] {
            let demands = vec![demand; residents];
            self.ns(name, 1.0, || {
                black_box(allocate_shared(black_box(&speeds16), &demands));
            });
        }

        let seed = sub_seed(self.seed, 0x121);
        self.ns("serve.workload.generate_ns_per_job", 1e-3, || {
            black_box(generate_workload(
                &ArrivalPattern::Poisson { rate: 2.0 },
                &JobPreset::standard_mix(),
                1_000,
                4,
                16,
                black_box(seed),
            ));
        });
    }

    fn threaded_cluster(&mut self) {
        if self.bit & catalog::THREADED == 0 {
            return;
        }
        let mut pool: ThreadedCluster<u64, u64> = ThreadedCluster::spawn(8, |_| |x: u64| x);
        self.ns("cluster.threaded.round_trip_us", 1e-3, || {
            pool.submit(0, 1);
            black_box(pool.recv());
        });
        self.ns("cluster.threaded.fanout8_us", 1e-3, || {
            for w in 0..8 {
                pool.submit(w, 1);
            }
            for _ in 0..8 {
                black_box(pool.recv());
            }
        });
        pool.shutdown();
    }

    fn lstm(&mut self) {
        if self.bit & catalog::LOGREG == 0 {
            return;
        }
        let series = lstm_training_series(&CloudTraceConfig::volatile(), self.seed);
        let refs: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
        let cfg = LstmConfig {
            epochs: 20,
            ..LstmConfig::default()
        };
        let (train_s, model) = self.rec.span("replay.predict.lstm.train_s", |_| {
            timed(|| train(&cfg, &refs))
        });
        self.out
            .push(("predict.lstm.train_s", Summary::single(train_s)));
        let mut predictor = model.online();
        self.ns("predict.lstm.step_ns", 1.0, || {
            black_box(predictor.observe_and_predict(black_box(0.8)));
        });
    }
}

/// Worker replies for every chunk from the last `k` workers of the
/// code: the first `n − k` systematic partitions are missing and every
/// parity partition takes part, the decoder's most expensive case.
fn parity_heavy_responses(
    code: &MdsCode,
    encoded: &s2c2_coding::EncodedMatrix,
    xs: &MultiVector,
) -> Vec<MultiChunkResult> {
    let MdsParams { n, k } = code.params();
    let chunks: Vec<usize> = (0..encoded.layout().chunks_per_partition).collect();
    (n - k..n)
        .flat_map(|w| encoded.worker_compute_chunks_multi(w, &chunks, xs))
        .collect()
}
