//! A conventional schedule never touches a predictor.
//!
//! Uncoded, conventional MDS and the conventional polynomial schedule
//! assign every worker its full partition and wait out their coverage:
//! no speed tracker is built, consulted or fed. Built with the oracle,
//! the uniform guess or a predictor whose every method panics, their
//! rounds are the same bit for bit — an oracle that reached the
//! allocation would move work off the stragglers, and a tracker built
//! from the panicking prototype would clone it.

use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::ClusterSpec;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_core::CodedJobBuilder;
use s2c2_linalg::{Matrix, Vector};
use s2c2_predict::{BoxedPredictor, SpeedPredictor};
use s2c2_workloads::exec::ExecConfig;
use s2c2_workloads::hessian::{DistributedHessian, PolyStrategyKind};

/// A predictor no conventional schedule may call, clone or reset.
struct Untouchable;

impl SpeedPredictor for Untouchable {
    fn observe_and_predict(&mut self, _observed: f64) -> f64 {
        panic!("a conventional schedule fed a predictor")
    }
    fn predict_cold(&self) -> f64 {
        panic!("a conventional schedule consulted a predictor")
    }
    fn clone_box(&self) -> BoxedPredictor {
        panic!("a conventional schedule built a tracker")
    }
    fn reset(&mut self) {
        panic!("a conventional schedule reset a predictor")
    }
}

fn sources() -> [PredictorSource; 3] {
    [
        PredictorSource::Oracle,
        PredictorSource::Uniform,
        PredictorSource::Prototype(Box::new(Untouchable)),
    ]
}

/// Workers 1 and 7 are 5x slow: the oracle sees them, the uniform
/// guess does not.
fn cluster() -> ClusterSpec {
    ClusterSpec::builder(12)
        .compute_bound()
        .straggler_slowdown(5.0)
        .stragglers(&[1, 7], 0.2)
        .build()
}

/// Every bit of a round: the decoded values and the accounting.
fn round_bits(values: &[f64], m: &RoundMetrics) -> Vec<u64> {
    let mut bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    bits.extend([m.latency.to_bits(), m.decode_time.to_bits()]);
    bits.extend(m.response_times.iter().map(|t| t.map_or(0, f64::to_bits)));
    for rows in [&m.assigned_rows, &m.computed_rows, &m.useful_rows] {
        bits.extend(rows.iter().map(|&r| r as u64));
    }
    bits
}

fn assert_all_equal(runs: &[Vec<u64>], what: &str) {
    assert!(!runs[0].is_empty());
    for (source, run) in sources().iter().zip(runs) {
        assert_eq!(run, &runs[0], "{what} under {source:?}");
    }
}

#[test]
fn a_conventional_schedule_never_touches_a_predictor() {
    let a = Matrix::from_fn(720, 6, |r, c| ((r * 5 + c * 11) % 13) as f64 - 6.0);
    for kind in [StrategyKind::Uncoded, StrategyKind::MdsCoded] {
        let runs: Vec<Vec<u64>> = sources()
            .into_iter()
            .map(|predictor| {
                let mut job = CodedJobBuilder::new(a.clone(), MdsParams::new(12, 6))
                    .chunks_per_worker(12)
                    .strategy(kind)
                    .predictor(predictor)
                    .build(cluster())
                    .unwrap();
                (0..3)
                    .flat_map(|i| {
                        let x = Vector::from_fn(6, |c| 1.0 + 0.25 * c as f64 + i as f64);
                        let out = job.run_iteration(&x).unwrap();
                        round_bits(out.result.as_slice(), &out.metrics)
                    })
                    .collect()
            })
            .collect();
        assert_all_equal(&runs, &kind.to_string());
    }

    // The polynomial code's conventional schedule, on a 3 × 3 grid.
    let features = Matrix::from_fn(30, 18, |r, c| (((r * 7 + c * 3) % 10) as f64 - 4.5) / 3.0);
    let runs: Vec<Vec<u64>> = sources()
        .into_iter()
        .map(|predictor| {
            let config = ExecConfig::new(MdsParams::new(12, 9), cluster())
                .predictor(predictor)
                .chunks_per_worker(6);
            let mut hessian =
                DistributedHessian::new(&features, &config, 3, PolyStrategyKind::Conventional)
                    .unwrap();
            let mut bits = Vec::new();
            for i in 0..3 {
                let w = Vector::from_fn(30, |r| 0.5 + (r % 4) as f64 * 0.25 + i as f64 * 0.0625);
                bits.extend(
                    hessian
                        .compute(&w)
                        .unwrap()
                        .hessian
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits()),
                );
            }
            for m in hessian.metrics().rounds() {
                bits.extend(round_bits(&[], m));
            }
            bits
        })
        .collect();
    assert_all_equal(&runs, "poly conventional");
}
