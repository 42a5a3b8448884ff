//! Ablations of this reproduction's own design choices.
//!
//! * chunk granularity vs latency/decode cost,
//! * timeout margin vs latency/wasted work,
//! * random vs Cauchy vs Vandermonde parity conditioning,
//! * predictor choice end-to-end.

use crate::experiments::{common, Scale};
use crate::report::Table;
use s2c2_cluster::{ClusterSim, ClusterSpec};
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::s2c2::{S2c2Mode, S2c2Strategy};
use s2c2_core::strategy::MatvecStrategy;
use s2c2_linalg::solve::condition_number_1;
use s2c2_linalg::structured::{cauchy, cauchy_parity_nodes, vandermonde};
use s2c2_linalg::{Matrix, Vector};
use s2c2_predict::arima::{ArimaModel, ArimaOrder};
use s2c2_trace::{CloudTraceConfig, TraceSet};

fn run_s2c2(
    a: &Matrix,
    params: MdsParams,
    chunks: usize,
    predictor: &PredictorSource,
    cluster: ClusterSpec,
    iters: usize,
    margin: f64,
) -> (f64, usize, f64) {
    let mut strategy = S2c2Strategy::new(a, params, chunks, S2c2Mode::General, predictor, params.n)
        .expect("valid configuration");
    strategy.set_timeout_margin(margin);
    let mut sim = ClusterSim::new(cluster);
    let x = Vector::filled(a.cols(), 1.0);
    let mut latency = 0.0;
    let mut wasted = 0usize;
    for iter in 0..iters {
        let out = strategy
            .run_iteration(&mut sim, iter, &x)
            .expect("iteration succeeds");
        latency += out.metrics.latency;
        wasted += out.metrics.total_wasted_rows();
    }
    (latency, wasted, strategy.misprediction_rate())
}

/// Chunk-granularity ablation: more chunks ⇒ finer allocation (less
/// quantization waste) but more decode systems.
#[must_use]
pub fn chunk_granularity(scale: Scale) -> Table {
    let rows = scale.pick(576, 2880);
    let cols = scale.pick(48, 192);
    let iters = scale.pick(6, 15);
    let a = Matrix::from_fn(rows, cols, |r, c| ((r * 3 + c * 7) % 17) as f64 - 8.0);
    let mut table = Table::new(
        "Ablation — chunks per partition (s2c2-general(12,6), 2 stragglers)",
        vec![
            "total latency".into(),
            "wasted rows".into(),
            "misprediction rate".into(),
        ],
    );
    for chunks in [1usize, 2, 4, 8, 16, 32] {
        let cluster = common::controlled_cluster(12, 2, 0xAB1);
        let (latency, wasted, mispred) = run_s2c2(
            &a,
            MdsParams::new(12, 6),
            chunks,
            &PredictorSource::LastValue,
            cluster,
            iters,
            0.15,
        );
        table.push_row(
            format!("{chunks} chunks"),
            vec![latency, wasted as f64, mispred],
        );
    }
    table
}

/// Timeout-margin ablation on a volatile cloud.
#[must_use]
pub fn timeout_margin(scale: Scale) -> Table {
    let rows = scale.pick(560, 2100);
    let cols = scale.pick(56, 210);
    let iters = scale.pick(8, 20);
    let a = Matrix::from_fn(rows, cols, |r, c| ((r + c * 3) % 13) as f64 - 6.0);
    let mut table = Table::new(
        "Ablation — timeout margin (s2c2-general(10,7), volatile cloud)",
        vec![
            "total latency".into(),
            "wasted rows".into(),
            "misprediction rate".into(),
        ],
    );
    for margin in [0.05, 0.10, 0.15, 0.30, 0.50] {
        let cluster = common::cloud_cluster(10, &CloudTraceConfig::volatile(), 0xAB2);
        let (latency, wasted, mispred) = run_s2c2(
            &a,
            MdsParams::new(10, 7),
            14,
            &PredictorSource::LastValue,
            cluster,
            iters,
            margin,
        );
        table.push_row(
            format!("margin {margin:.2}"),
            vec![latency, wasted as f64, mispred],
        );
    }
    table
}

/// Parity-construction conditioning ablation: worst observed condition
/// number of full-size decode submatrices for each construction.
#[must_use]
pub fn parity_conditioning(_scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation — decode-system conditioning (worst κ₁ over leading submatrices)",
        vec!["random".into(), "cauchy".into(), "vandermonde".into()],
    );
    for (n, k) in [(12usize, 10usize), (12, 6), (10, 7), (50, 40)] {
        let m = n - k;
        // Random parity: same construction as MdsCode.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xAB3);
        let random = Matrix::from_fn(m, k, |_, _| loop {
            let v: f64 = rng.gen_range(-1.0..=1.0);
            if v.abs() > 1e-3 {
                break v;
            }
        });
        let (x, y) = cauchy_parity_nodes(n, k);
        let cauchy_parity = cauchy(&x, &y);
        let vander_points: Vec<f64> = (0..m).map(|i| 1.0 + i as f64).collect();
        let vander = vandermonde(&vander_points, k);

        // Worst case over a few m×m column selections (leading, trailing,
        // strided) — the shapes decode actually inverts.
        let kappa = |p: &Matrix| -> f64 {
            let mut worst: f64 = 0.0;
            let selections: Vec<Vec<usize>> = vec![
                (0..m).collect(),
                (k - m..k).collect(),
                (0..m).map(|i| i * (k / m).max(1)).collect(),
            ];
            for sel in selections {
                let sub = Matrix::from_fn(m, m, |r, c| p.get(r, sel[c].min(k - 1)));
                if let Ok(cnum) = condition_number_1(&sub) {
                    worst = worst.max(cnum);
                }
            }
            worst
        };
        table.push_row(
            format!("({n},{k})"),
            vec![kappa(&random), kappa(&cauchy_parity), kappa(&vander)],
        );
    }
    table
}

/// Predictor-choice ablation: end-to-end S²C² latency under each source.
#[must_use]
pub fn predictor_choice(scale: Scale) -> Table {
    let rows = scale.pick(560, 2100);
    let cols = scale.pick(56, 210);
    let iters = scale.pick(8, 20);
    let a = Matrix::from_fn(rows, cols, |r, c| ((r * 5 + c) % 11) as f64 - 5.0);
    let preset = CloudTraceConfig::volatile();

    // Trained models.
    let traces = TraceSet::generate(&preset, 20, 160, 0xAB4);
    let series: Vec<Vec<f64>> = traces
        .traces()
        .iter()
        .map(|t| t.samples().to_vec())
        .collect();
    let refs: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
    let ar1 = ArimaModel::fit(ArimaOrder::Ar1, &refs);
    let lstm = common::lstm_predictor(&preset, 0xAB4);

    let sources: Vec<(&str, PredictorSource)> = vec![
        ("uniform", PredictorSource::Uniform),
        ("last-value", PredictorSource::LastValue),
        (
            "arima(1,0,0)",
            PredictorSource::Prototype(Box::new(ar1.online())),
        ),
        ("lstm", lstm),
        ("oracle", PredictorSource::Oracle),
    ];

    let mut table = Table::new(
        "Ablation — predictor choice (s2c2-general(10,7), volatile cloud)",
        vec!["total latency".into(), "misprediction rate".into()],
    );
    for (label, source) in sources {
        let cluster = common::cloud_cluster(10, &preset, 0xAB5);
        let (latency, _wasted, mispred) =
            run_s2c2(&a, MdsParams::new(10, 7), 14, &source, cluster, iters, 0.15);
        table.push_row(label, vec![latency, mispred]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finer_chunks_reduce_latency() {
        // Coarse chunking cannot adapt (a cancelled worker's chunk has no
        // alternative host), so the scheduler ends up waiting out
        // stragglers; finer chunking shortens the rounds.
        let t = chunk_granularity(Scale::Quick);
        let coarse = t.value("1 chunks", "total latency");
        let fine = t.value("32 chunks", "total latency");
        assert!(
            fine < coarse,
            "finer chunks should cut latency: {coarse} vs {fine}"
        );
    }

    #[test]
    fn random_parity_is_best_conditioned_at_scale() {
        let t = parity_conditioning(Scale::Quick);
        let rand_k = t.value("(50,40)", "random");
        let cauchy_k = t.value("(50,40)", "cauchy");
        assert!(
            rand_k * 1e3 < cauchy_k,
            "random κ {rand_k:.3e} should beat Cauchy κ {cauchy_k:.3e} by orders of magnitude"
        );
    }

    #[test]
    fn oracle_is_lower_bound_among_predictors() {
        let t = predictor_choice(Scale::Quick);
        let oracle = t.value("oracle", "total latency");
        for rival in ["uniform", "last-value", "lstm"] {
            let v = t.value(rival, "total latency");
            assert!(oracle <= v * 1.02, "oracle {oracle} vs {rival} {v}");
        }
    }

    #[test]
    fn tight_margins_mispredict_more() {
        let t = timeout_margin(Scale::Quick);
        let tight = t.value("margin 0.05", "misprediction rate");
        let loose = t.value("margin 0.50", "misprediction rate");
        assert!(tight >= loose, "tight {tight} vs loose {loose}");
    }
}
