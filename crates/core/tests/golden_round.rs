//! Golden pins of the single-job §4.3 round.
//!
//! Seeded runs of all seven schedulers on `ClusterSim`, each pinned by
//! an FNV-1a digest of everything a round produces: per iteration the
//! `latency` / `decode_time` / `response_times` bits, the
//! `assigned_rows` / `computed_rows` / `useful_rows` tables,
//! `rebalance_bytes`, the decoded result's bits and — for the adaptive
//! schedulers — the tracker's forecasts after the round, which is how
//! the observed speeds the round fed back are pinned.
//!
//! The cases are chosen so that together they walk every path of the
//! round: deadline cancel + reassignment, the §4.4 abort back to
//! conventional coded computing, the `allocate_full` fallback run with
//! reassignment enabled (a worker cancelled with no deficit to rebuild),
//! the cold-start margin round, a cancelled polynomial worker, and an
//! over-decomposition rescue. Each test asserts that its run reached the
//! path it is there for before comparing the pin.
//!
//! The constants were generated on the three hand-written copies of the
//! round (`strategy/coded_common.rs::run_coded_round`,
//! `strategy/poly.rs::PolyShared::run_round` and the deadline block of
//! `strategy/overdecomp.rs`) as they stood before the single round
//! planner replaced them; a refactor must reproduce them unedited. A
//! change that *means* to alter behaviour regenerates them (the failure
//! message prints the observed value) and says why in CHANGES.md.

use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::{ClusterSim, ClusterSpec};
use s2c2_coding::mds::MdsParams;
use s2c2_coding::polynomial::PolyParams;
use s2c2_core::job::CodedJobBuilder;
use s2c2_core::speed_tracker::{PredictorSource, SpeedTracker};
use s2c2_core::strategy::poly::{BilinearStrategy, PolyConventional, PolyS2c2};
use s2c2_core::strategy::s2c2::S2c2Mode;
use s2c2_core::strategy::{MatvecStrategy, OverDecompositionStrategy, S2c2Strategy, StrategyKind};
use s2c2_linalg::{Matrix, Vector};
use s2c2_trace::CloudTraceConfig;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn fnv_f64s(h: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

fn fnv_usizes(h: u64, values: &[usize]) -> u64 {
    values
        .iter()
        .fold(h, |h, &v| fnv1a(h, &(v as u64).to_le_bytes()))
}

/// A seeded run: the digest it is pinned by and the per-round records
/// the reached-path assertions read.
struct Run {
    digest: u64,
    rounds: Vec<RoundMetrics>,
}

impl Run {
    fn new() -> Self {
        Run {
            digest: FNV_OFFSET,
            rounds: Vec::new(),
        }
    }

    /// Folds one iteration into the digest. `forecasts` are the tracker's
    /// predictions *after* the round (empty for the static schedulers).
    fn push(&mut self, metrics: RoundMetrics, result: &[f64], forecasts: &[f64]) {
        let mut h = fnv_usizes(self.digest, &[metrics.iteration]);
        h = fnv_f64s(h, &[metrics.latency, metrics.decode_time]);
        for t in &metrics.response_times {
            h = match t {
                Some(t) => fnv_f64s(fnv1a(h, &[1]), &[*t]),
                None => fnv1a(h, &[0]),
            };
        }
        h = fnv_usizes(h, &metrics.assigned_rows);
        h = fnv_usizes(h, &metrics.computed_rows);
        h = fnv_usizes(h, &metrics.useful_rows);
        h = fnv1a(h, &metrics.rebalance_bytes.to_le_bytes());
        h = fnv_f64s(h, result);
        h = fnv_f64s(h, forecasts);
        self.digest = h;
        self.rounds.push(metrics);
    }

    /// Workers cancelled in round `r`: they stopped short of their
    /// assignment and nothing of theirs was used.
    fn cancelled(&self, r: usize) -> Vec<usize> {
        let m = &self.rounds[r];
        (0..m.workers())
            .filter(|&w| m.computed_rows[w] < m.assigned_rows[w])
            .collect()
    }

    fn assigned_total(&self, r: usize) -> usize {
        self.rounds[r].assigned_rows.iter().sum()
    }

    /// Rounds matching `f`.
    fn rounds_where(&self, f: impl Fn(&Run, usize) -> bool) -> Vec<usize> {
        (0..self.rounds.len()).filter(|&r| f(self, r)).collect()
    }
}

fn matvec_data(rows: usize) -> Matrix {
    Matrix::from_fn(rows, 6, |r, c| ((r * 13 + c * 7) % 17) as f64 - 8.0)
}

fn x_for(iteration: usize) -> Vector {
    Vector::from_fn(6, |i| 1.0 + i as f64 * 0.25 + iteration as f64 * 0.125)
}

fn controlled(
    n: usize,
    seed: u64,
    slowdown: f64,
    stragglers: &[usize],
    jitter: f64,
) -> ClusterSpec {
    ClusterSpec::builder(n)
        .compute_bound()
        .seed(seed)
        .straggler_slowdown(slowdown)
        .stragglers(stragglers, jitter)
        .build()
}

fn volatile(n: usize, seed: u64) -> ClusterSpec {
    ClusterSpec::builder(n)
        .compute_bound()
        .seed(seed)
        .cloud(&CloudTraceConfig::volatile())
        .build()
}

/// Drives a matvec strategy the test owns (so its tracker is visible).
fn run_matvec<S: MatvecStrategy>(
    strategy: &mut S,
    cluster: ClusterSpec,
    iterations: usize,
    tracker: impl Fn(&S) -> &SpeedTracker,
) -> Run {
    let mut sim = ClusterSim::new(cluster);
    let mut run = Run::new();
    for iteration in 0..iterations {
        let out = strategy
            .run_iteration(&mut sim, iteration, &x_for(iteration))
            .expect("round decodes");
        let forecasts = tracker(strategy).predictions(&sim);
        run.push(out.metrics, out.result.as_slice(), &forecasts);
    }
    run
}

/// Drives one of the static schedulers through the job facade.
fn run_job(
    kind: StrategyKind,
    a: Matrix,
    params: MdsParams,
    chunks: usize,
    cluster: ClusterSpec,
    iterations: usize,
) -> Run {
    let mut job = CodedJobBuilder::new(a, params)
        .chunks_per_worker(chunks)
        .strategy(kind)
        .build(cluster)
        .expect("job builds");
    let mut run = Run::new();
    for iteration in 0..iterations {
        let out = job.run_iteration(&x_for(iteration)).expect("round decodes");
        run.push(out.metrics, out.result.as_slice(), &[]);
    }
    run
}

fn s2c2(
    rows: usize,
    params: MdsParams,
    chunks: usize,
    mode: S2c2Mode,
    predictor: &PredictorSource,
) -> S2c2Strategy {
    S2c2Strategy::new(
        &matvec_data(rows),
        params,
        chunks,
        mode,
        predictor,
        params.n,
    )
    .expect("strategy builds")
}

/// `Aᵀ·diag(w)·A` inputs: `A` is 30 × 18.
fn hessian_inputs() -> (Matrix, Matrix) {
    let a = Matrix::from_fn(30, 18, |r, c| (((r * 7 + c * 3) % 10) as f64 - 4.5) / 3.0);
    (a.transpose(), a)
}

fn w_for(iteration: usize) -> Vector {
    Vector::from_fn(30, |i| {
        0.5 + (i % 4) as f64 * 0.25 + iteration as f64 * 0.0625
    })
}

fn run_bilinear<S: BilinearStrategy>(
    strategy: &mut S,
    cluster: ClusterSpec,
    iterations: usize,
    tracker: impl Fn(&S) -> Option<&SpeedTracker>,
) -> Run {
    let mut sim = ClusterSim::new(cluster);
    let mut run = Run::new();
    for iteration in 0..iterations {
        let out = strategy
            .run_iteration(&mut sim, iteration, &w_for(iteration))
            .expect("round decodes");
        let forecasts = tracker(strategy).map_or_else(Vec::new, |t| t.predictions(&sim));
        run.push(out.metrics, out.result.as_slice(), &forecasts);
    }
    run
}

/// Compares every `(case, observed digest, pinned digest)` of a test at
/// once, so a failure prints all the observed values.
fn assert_pins(pins: &[(&str, u64, u64)]) {
    let moved: Vec<String> = pins
        .iter()
        .filter(|(_, observed, pinned)| observed != pinned)
        .map(|(case, observed, pinned)| {
            format!("{case}: observed {observed:#018x}, pinned {pinned:#018x}")
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

#[test]
fn golden_static_schedulers() {
    // Uncoded: one 5x straggler gates every round.
    let uncoded = run_job(
        StrategyKind::Uncoded,
        matvec_data(720),
        MdsParams::new(12, 6),
        4,
        controlled(12, 7, 5.0, &[3], 0.2),
        3,
    );
    assert!(uncoded.rounds.iter().all(|m| m.total_wasted_rows() == 0));

    // Conventional MDS inside its tolerance (systematic worker 0
    // straggles, so the decode needs parity) and past it (three
    // stragglers on a (12,10) code).
    let mds = |stragglers: &[usize]| {
        run_job(
            StrategyKind::MdsCoded,
            matvec_data(600),
            MdsParams::new(12, 10),
            5,
            controlled(12, 7, 5.0, stragglers, 0.2),
            3,
        )
    };
    let within = mds(&[0, 11]);
    assert!(within.rounds.iter().all(|m| m.decode_time > 0.0));
    let past = mds(&[0, 4, 11]);
    assert!(past.rounds[0].latency > 3.0 * within.rounds[0].latency);

    // Conventional polynomial code: the fastest 9 of 12 win.
    let (a_t, a) = hessian_inputs();
    let mut poly =
        PolyConventional::new(&a_t, &a, PolyParams::new(12, 3, 3), 2).expect("strategy builds");
    let poly = run_bilinear(&mut poly, controlled(12, 7, 5.0, &[4, 8], 0.2), 3, |_| None);
    assert!(poly.rounds.iter().all(|m| m.total_wasted_rows() > 0));

    assert_pins(&[
        ("uncoded", uncoded.digest, 0x1BE0_2CA8_C398_DA28),
        ("mds within tolerance", within.digest, 0x6DE0_719B_5BA7_AF71),
        ("mds past tolerance", past.digest, 0x2879_2A5E_0711_A4F5),
        ("poly conventional", poly.digest, 0x549F_5177_0784_45B9),
    ]);
}

#[test]
fn golden_cancel_and_reassign() {
    // A Uniform predictor never learns that workers 0 and 1 are 5x slow:
    // every round cancels them and rebuilds their chunks on finished
    // workers.
    let mut s = s2c2(
        720,
        MdsParams::new(12, 6),
        12,
        S2c2Mode::General,
        &PredictorSource::Uniform,
    );
    let run = run_matvec(
        &mut s,
        controlled(12, 11, 5.0, &[0, 1], 0.2),
        4,
        S2c2Strategy::tracker,
    );
    for r in 0..4 {
        assert_eq!(run.cancelled(r), [0, 1], "round {r}");
        assert!(
            run.assigned_total(r) > 720,
            "round {r}: redo rows handed out"
        );
        assert_eq!(run.rounds[r].useful_rows.iter().sum::<usize>(), 720);
    }
    assert_eq!(s.misprediction_rate(), 1.0);
    assert_pins(&[("cancel and reassign", run.digest, 0x6FBE_5FCB_9A60_9E66)]);
}

#[test]
fn golden_volatile_cloud() {
    // The §4.4 robustness setting: (10,7) on the volatile cloud preset.
    // LastValue forecasts chase regime switches, so clean exact-coverage
    // rounds alternate with cancellations whose redo work is stacked on
    // the finished workers. (The abort back to conventional coded
    // computing is not reached here or anywhere: a worker is cancelled
    // only past the k-th finish, so at least k finished workers are
    // always there to host the redo.)
    let mut s = s2c2(
        700,
        MdsParams::new(10, 7),
        10,
        S2c2Mode::General,
        &PredictorSource::LastValue,
    );
    let run = run_matvec(&mut s, volatile(10, 3), 24, S2c2Strategy::tracker);
    let cancels = run.rounds_where(|r, i| !r.cancelled(i).is_empty());
    assert!(
        (3..=21).contains(&cancels.len()),
        "cancel rounds {cancels:?}"
    );
    assert!(cancels.iter().all(|&r| run.assigned_total(r) > 700));
    assert_pins(&[("volatile general", run.digest, 0x2366_884F_A440_0A14)]);
}

#[test]
fn golden_full_fallback_with_reassignment() {
    // Basic mode on the volatile preset: when fewer than k = 7 workers
    // sit above half the median forecast the allocation falls back to
    // the conventional full assignment, but the round still runs with
    // reassignment enabled, so late workers are cancelled although no
    // chunk needs rebuilding. Such a round is not counted as a
    // mis-prediction.
    let mut s = s2c2(
        700,
        MdsParams::new(10, 7),
        10,
        S2c2Mode::Basic,
        &PredictorSource::LastValue,
    );
    let run = run_matvec(&mut s, volatile(10, 24), 12, S2c2Strategy::tracker);
    let fallback =
        run.rounds_where(|r, i| r.assigned_total(i) == 1000 && !r.cancelled(i).is_empty());
    assert_eq!(fallback, [1, 2, 3]);
    let rebuilt = run.rounds_where(|r, i| r.assigned_total(i) < 1000 && !r.cancelled(i).is_empty());
    assert_eq!(s.misprediction_rate(), rebuilt.len() as f64 / 12.0);
    assert_pins(&[(
        "full fallback with reassignment",
        run.digest,
        0x7615_1948_C3F3_60A3,
    )]);
}

#[test]
fn golden_cold_start_margin() {
    // Worker 5 is 1.25x slow and the Uniform predictor never notices.
    // Round 0 judges it against the widened cold-start margin (0.35) and
    // lets it finish; from round 1 the 0.15 margin cancels it.
    let mut s = s2c2(
        720,
        MdsParams::new(12, 6),
        12,
        S2c2Mode::General,
        &PredictorSource::Uniform,
    );
    let run = run_matvec(
        &mut s,
        controlled(12, 5, 1.25, &[5], 0.0),
        3,
        S2c2Strategy::tracker,
    );
    assert!(run.cancelled(0).is_empty());
    assert_eq!(run.cancelled(1), [5]);
    assert_eq!(run.cancelled(2), [5]);
    assert_pins(&[("cold start margin", run.digest, 0x08B4_D41F_D80B_C54C)]);
}

#[test]
fn golden_polynomial_cancelled_worker() {
    let (a_t, a) = hessian_inputs();
    let build = |predictor: &PredictorSource| {
        PolyS2c2::new(&a_t, &a, PolyParams::new(12, 3, 3), 6, predictor).expect("strategy builds")
    };
    // Uniform forecasts, 5x stragglers: cancelled every round.
    let mut blind = build(&PredictorSource::Uniform);
    let uniform = run_bilinear(&mut blind, controlled(12, 13, 5.0, &[2, 9], 0.2), 3, |s| {
        Some(s.tracker())
    });
    for r in 0..3 {
        assert_eq!(uniform.cancelled(r), [2, 9], "round {r}");
    }
    assert!(blind.misprediction_rate() > 0.0);

    // LastValue forecasts learn the stragglers in round 0 and leave
    // them idle from then on (the fixed diag(w) pass alone would make
    // them the bottleneck).
    let learned = run_bilinear(
        &mut build(&PredictorSource::LastValue),
        controlled(12, 13, 5.0, &[2, 9], 0.2),
        4,
        |s| Some(s.tracker()),
    );
    assert_eq!(learned.cancelled(0), [2, 9]);
    for r in 1..4 {
        assert_eq!(learned.rounds[r].assigned_rows[2], 0, "round {r}");
        assert_eq!(learned.rounds[r].response_times[9], None, "round {r}");
    }

    // LastValue forecasts on the volatile preset: a cancelled worker's
    // observed speed feeds the next allocation.
    let cloud = run_bilinear(
        &mut build(&PredictorSource::LastValue),
        volatile(12, 4),
        16,
        |s| Some(s.tracker()),
    );
    let cancels = cloud.rounds_where(|r, i| !r.cancelled(i).is_empty());
    assert!(
        (2..=14).contains(&cancels.len()),
        "cancel rounds {cancels:?}"
    );

    assert_pins(&[
        ("poly s2c2 uniform", uniform.digest, 0x970D_4649_29CE_95C0),
        ("poly s2c2 learned", learned.digest, 0x6673_4685_AC9F_2F5D),
        ("poly s2c2 volatile", cloud.digest, 0xFBF0_A1FC_ABBE_575B),
    ]);
}

#[test]
fn golden_overdecomposition_rescue() {
    let build = || {
        OverDecompositionStrategy::new(
            &matvec_data(560),
            10,
            4,
            1.42,
            &PredictorSource::LastValue,
            3,
        )
        .expect("strategy builds")
    };
    // Round 0 knows nothing about the 5x stragglers: their partitions
    // are moved to finished workers.
    let controlled = run_matvec(
        &mut build(),
        controlled(10, 9, 5.0, &[1, 6], 0.2),
        4,
        OverDecompositionStrategy::tracker,
    );
    assert_eq!(controlled.cancelled(0), [1, 6]);
    assert!(controlled.rounds[0].rebalance_bytes > 0);

    let cloud = run_matvec(
        &mut build(),
        volatile(10, 3),
        16,
        OverDecompositionStrategy::tracker,
    );
    let rescues = cloud.rounds_where(|r, i| !r.cancelled(i).is_empty());
    assert!(
        (2..=14).contains(&rescues.len()),
        "rescue rounds {rescues:?}"
    );

    assert_pins(&[
        (
            "over-decomposition controlled",
            controlled.digest,
            0xB133_E5CF_AA12_4261,
        ),
        (
            "over-decomposition volatile",
            cloud.digest,
            0x4EBA_0FFF_3DAC_06F6,
        ),
    ]);
}
