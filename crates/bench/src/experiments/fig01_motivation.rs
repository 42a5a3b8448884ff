//! Figure 1 — the motivation experiment: logistic regression on 12
//! workers under 0–3 stragglers, comparing uncoded 3-replication against
//! optimistic (12,10) and conservative (12,9) MDS coding.
//!
//! Expected shape: replication degrades sharply at 3 stragglers (= the
//! replication factor); (12,10) is flat to 2 stragglers then jumps ~5×;
//! (12,9) is flat throughout but pays a higher healthy-cluster baseline.

use crate::experiments::common::{self, Scheme};
use crate::experiments::Scale;
use crate::report::Table;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_workloads::datasets::gisette_like;

/// Runs the experiment; values are total LR latencies normalized to
/// uncoded-3-replication with zero stragglers.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let rows = scale.pick(480, 2400);
    let cols = scale.pick(48, 240);
    let iters = scale.pick(5, 15);
    let data = gisette_like(rows, cols, 0xF1);

    let scheme = |label, k, kind| Scheme {
        label,
        params: MdsParams::new(12, k),
        kind,
        predictor: PredictorSource::LastValue,
    };
    let schemes = [
        scheme("uncoded-3rep", 12, StrategyKind::Replication),
        scheme("mds(12,10)", 10, StrategyKind::MdsCoded),
        scheme("mds(12,9)", 9, StrategyKind::MdsCoded),
    ];
    common::sweep(
        "Fig 1 — LR latency vs stragglers (normalized to uncoded-3rep @ 0)",
        &schemes,
        3,
        |stragglers, si, scheme| {
            let cfg = scheme.controlled(stragglers, 0xF1 + si as u64, 10);
            common::logreg_latency(&data, &cfg, iters)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_core::job::CodedJobBuilder;
    use s2c2_linalg::{assert_slices_close, Matrix, Vector, ROUND_TRIP_TOL};
    use s2c2_serve::percentile;

    /// The motivating scenario as a bare coded matvec: 1200×60 on 12
    /// workers, two of them 5× slow. Returns one scheme's per-iteration
    /// latencies over 8 iterations after a warmup, sorted ascending.
    fn straggler_rounds(params: MdsParams, kind: StrategyKind) -> Vec<f64> {
        let a = Matrix::from_fn(1200, 60, |r, c| (((r * 31 + c * 17) % 13) as f64) * 0.25);
        let x = Vector::from_fn(60, |i| 1.0 + 0.01 * i as f64);
        let mut job = CodedJobBuilder::new(a.clone(), params)
            .chunks_per_worker(12)
            .strategy(kind)
            .predictor(PredictorSource::LastValue)
            .build(common::controlled_cluster(12, 2, 0xBA5E))
            .unwrap();
        // The warmup lets prediction-driven schemes observe speeds.
        let warm = job.run_iteration(&x).unwrap();
        assert_slices_close(
            warm.result.as_slice(),
            a.matvec(&x).as_slice(),
            ROUND_TRIP_TOL,
        );
        let skip = job.metrics().len();
        for _ in 0..8 {
            job.run_iteration(&x).unwrap();
        }
        let mut latencies: Vec<f64> = job.metrics().rounds()[skip..]
            .iter()
            .map(|r| r.latency)
            .collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }

    fn schemes() -> [(&'static str, MdsParams, StrategyKind); 3] {
        [
            ("uncoded", MdsParams::new(12, 12), StrategyKind::Uncoded),
            ("mds(12,9)", MdsParams::new(12, 9), StrategyKind::MdsCoded),
            (
                "s2c2(12,9)",
                MdsParams::new(12, 9),
                StrategyKind::S2c2General,
            ),
        ]
    }

    #[test]
    fn s2c2_beats_conventional_mds_under_stragglers() {
        let [uncoded, mds, s2c2] = schemes().map(|(_, params, kind)| {
            let rounds = straggler_rounds(params, kind);
            rounds.iter().sum::<f64>() / rounds.len() as f64
        });
        // Uncoded waits for the 5×-slow stragglers every iteration.
        assert!(
            uncoded > mds,
            "uncoded {uncoded} should trail mds {mds} with stragglers"
        );
        // S²C² squeezes the (12,9) slack instead of always paying it.
        assert!(
            s2c2 < mds * 1.02,
            "s2c2 {s2c2} should not trail conventional mds {mds}"
        );
    }

    #[test]
    fn tail_latencies_are_ordered() {
        for (name, params, kind) in schemes() {
            let rounds = straggler_rounds(params, kind);
            let (p50, p99) = (percentile(&rounds, 50.0), percentile(&rounds, 99.0));
            assert!(p50 > 0.0, "{name}: p50 {p50}");
            assert!(p50 <= p99, "{name}: p50 {p50} above p99 {p99}");
        }
    }

    #[test]
    fn shape_matches_paper() {
        let t = run(Scale::Quick);
        // (12,10) flat through 2 stragglers, then blows up.
        let m10_0 = t.value("0 stragglers", "mds(12,10)");
        let m10_2 = t.value("2 stragglers", "mds(12,10)");
        let m10_3 = t.value("3 stragglers", "mds(12,10)");
        assert!(
            (m10_2 / m10_0 - 1.0).abs() < 0.15,
            "flat to 2: {m10_0} vs {m10_2}"
        );
        assert!(m10_3 / m10_0 > 2.5, "jump at 3: {m10_3} vs {m10_0}");
        // (12,9) stays flat through 3 stragglers.
        let m9_0 = t.value("0 stragglers", "mds(12,9)");
        let m9_3 = t.value("3 stragglers", "mds(12,9)");
        assert!(
            (m9_3 / m9_0 - 1.0).abs() < 0.15,
            "conservative flat: {m9_0} vs {m9_3}"
        );
        // Replication degrades with 3 stragglers.
        let r0 = t.value("0 stragglers", "uncoded-3rep");
        let r3 = t.value("3 stragglers", "uncoded-3rep");
        assert!(r3 / r0 > 1.3, "replication degrades: {r0} vs {r3}");
    }
}
