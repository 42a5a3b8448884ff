//! Figures 8–11 — the cloud deployment experiments (SVM, 10 workers).
//!
//! * Fig 8: execution time under *low* mis-prediction (calm traces) for
//!   over-decomposition, MDS(8/9/10,7), S²C²(8/9/10,7) — normalized to
//!   S²C²(10,7). Expected: S²C²(10,7) ≈ over-dec ≈ 1.0; all MDS ≈ 10/7;
//!   S²C²(8,7) ≈ 1.23; S²C²(9,7) ≈ 1.09.
//! * Fig 9: per-worker wasted computation for (10,7) MDS vs S²C² in that
//!   environment (S²C² ≈ 0 everywhere).
//! * Fig 10/11: the same two tables under *high* mis-prediction
//!   (volatile traces) — ordering preserved, gaps shrink, S²C² now wastes
//!   some work but far less than MDS.

use crate::experiments::common::{self, Scheme};
use crate::experiments::Scale;
use crate::report::Table;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_trace::CloudTraceConfig;
use s2c2_workloads::datasets::gisette_like;

/// All four tables of the cloud experiment family.
#[derive(Debug, Clone)]
pub struct CloudFigures {
    /// Fig 8 — normalized execution time, low mis-prediction.
    pub fig8: Table,
    /// Fig 9 — wasted computation per worker, low mis-prediction.
    pub fig9: Table,
    /// Fig 10 — normalized execution time, high mis-prediction.
    pub fig10: Table,
    /// Fig 11 — wasted computation per worker, high mis-prediction.
    pub fig11: Table,
}

fn environment(preset: &CloudTraceConfig, name: &str, scale: Scale, seed: u64) -> (Table, Table) {
    let rows = scale.pick(560, 2100);
    let cols = scale.pick(56, 210);
    let iters = scale.pick(5, 15);
    let data = gisette_like(rows, cols, seed);
    let lstm = common::lstm_predictor(preset, seed);

    let scheme = |label, n, kind, predictor| Scheme {
        label,
        params: MdsParams::new(n, 7),
        kind,
        predictor,
    };
    let mut schemes = vec![scheme(
        "over-decomposition",
        10,
        StrategyKind::OverDecomposition,
        lstm.clone(),
    )];
    for (n, label) in [(8usize, "mds(8,7)"), (9, "mds(9,7)"), (10, "mds(10,7)")] {
        schemes.push(scheme(
            label,
            n,
            StrategyKind::MdsCoded,
            PredictorSource::LastValue,
        ));
    }
    for (n, label) in [(8usize, "s2c2(8,7)"), (9, "s2c2(9,7)"), (10, "s2c2(10,7)")] {
        schemes.push(scheme(label, n, StrategyKind::S2c2General, lstm.clone()));
    }
    // Each scheme's measured latency and its forward job's accounting:
    // the wasted-computation figures use the forward job (the backward
    // job behaves identically; using one keeps the bars readable).
    let results: Vec<_> = schemes
        .iter()
        .map(|s| {
            let (latency, svm) = common::svm_window(&data, &s.cloud(preset, seed, 14), iters);
            (latency, svm.forward_metrics().clone())
        })
        .collect();
    let result = |label| {
        let at = schemes.iter().position(|s| s.label == label);
        &results[at.expect("scheme present")]
    };

    let base = result("s2c2(10,7)").0;
    let mut exec_table = Table::new(
        format!("Execution time comparison, {name} (normalized to s2c2(10,7))"),
        vec!["relative execution time".into()],
    );
    for (s, (latency, _)) in schemes.iter().zip(&results) {
        exec_table.push_row(s.label, vec![latency / base]);
    }

    // Wasted computation per worker: (10,7) MDS vs (10,7) S2C2.
    let mds_waste = result("mds(10,7)").1.wasted_fraction_per_worker();
    let s2c2_waste = result("s2c2(10,7)").1.wasted_fraction_per_worker();
    let mut waste_table = Table::new(
        format!("Wasted computation per worker (%), {name}"),
        vec!["mds(10,7)".into(), "s2c2(10,7)".into()],
    );
    for w in 0..10 {
        waste_table.push_row(
            format!("worker{}", w + 1),
            vec![100.0 * mds_waste[w], 100.0 * s2c2_waste[w]],
        );
    }
    (exec_table, waste_table)
}

/// Runs all four cloud figures.
#[must_use]
pub fn run(scale: Scale) -> CloudFigures {
    let (fig8, fig9) = environment(&CloudTraceConfig::calm(), "low mis-prediction", scale, 0xF8);
    let (fig10, fig11) = environment(
        &CloudTraceConfig::volatile(),
        "high mis-prediction",
        scale,
        0xFA,
    );
    CloudFigures {
        fig8,
        fig9,
        fig10,
        fig11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_misprediction_shape() {
        let figs = run(Scale::Quick);
        let t = &figs.fig8;
        let col = "relative execution time";
        // All MDS variants well above the S2C2(10,7) baseline.
        for mds in ["mds(8,7)", "mds(9,7)", "mds(10,7)"] {
            let v = t.value(mds, col);
            assert!(v > 1.2, "{mds} should cost ~10/7, got {v}");
        }
        // Redundancy ordering within S2C2.
        let s8 = t.value("s2c2(8,7)", col);
        let s9 = t.value("s2c2(9,7)", col);
        assert!(s8 > s9 && s9 > 0.99, "s2c2 ordering: {s8} vs {s9} vs 1.0");
        // S2C2(10,7) wastes ~nothing; MDS wastes heavily on some workers.
        let max_s2c2_waste = figs
            .fig9
            .rows
            .iter()
            .map(|(_, v)| v[1])
            .fold(0.0_f64, f64::max);
        let max_mds_waste = figs
            .fig9
            .rows
            .iter()
            .map(|(_, v)| v[0])
            .fold(0.0_f64, f64::max);
        assert!(max_s2c2_waste < 20.0, "s2c2 waste {max_s2c2_waste}%");
        assert!(max_mds_waste > 50.0, "mds waste {max_mds_waste}%");
    }

    #[test]
    fn high_misprediction_keeps_ordering() {
        let figs = run(Scale::Quick);
        let col = "relative execution time";
        let mds = figs.fig10.value("mds(10,7)", col);
        assert!(mds > 1.0, "mds(10,7) still behind s2c2(10,7): {mds}");
        // Aggregate MDS waste exceeds aggregate S2C2 waste.
        let sum = |t: &Table, c: usize| t.rows.iter().map(|(_, v)| v[c]).sum::<f64>();
        assert!(sum(&figs.fig11, 0) > sum(&figs.fig11, 1));
    }
}
