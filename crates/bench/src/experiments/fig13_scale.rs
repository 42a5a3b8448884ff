//! Figure 13 — scalability: SVM under (50,40)-MDS on a 51-node cluster,
//! MDS vs S²C², low and high mis-prediction.
//!
//! Expected shape: MDS ≈ 1.25× S²C² at low mis-prediction (the exact
//! `(50−40)/40` bound when all 50 workers stay fast), ≈ 1.12× at high.

use crate::experiments::common::{self, Scheme};
use crate::experiments::Scale;
use crate::report::Table;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_trace::CloudTraceConfig;
use s2c2_workloads::datasets::gisette_like;

fn environment(preset: &CloudTraceConfig, scale: Scale, seed: u64) -> Vec<f64> {
    let rows = scale.pick(2000, 6400);
    let cols = scale.pick(200, 640);
    let iters = scale.pick(4, 15);
    let data = gisette_like(rows, cols, seed);
    let params = MdsParams::new(50, 40);
    let lstm = common::lstm_predictor(preset, seed);

    let schemes = [
        Scheme {
            label: "mds(50,40)",
            params,
            kind: StrategyKind::MdsCoded,
            predictor: PredictorSource::LastValue,
        },
        Scheme {
            label: "s2c2(50,40)",
            params,
            kind: StrategyKind::S2c2General,
            predictor: lstm,
        },
    ];
    let latencies: Vec<f64> = schemes
        .iter()
        .map(|s| common::svm_window(&data, &s.cloud(preset, seed, 10), iters).0)
        .collect();
    let base = latencies[1];
    latencies.iter().map(|l| l / base).collect()
}

/// Runs Figure 13.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 13 — (50,40) on 51 nodes (normalized to s2c2)",
        vec!["mds(50,40)".into(), "s2c2(50,40)".into()],
    );
    table.push_row(
        "low mis-prediction",
        environment(&CloudTraceConfig::calm(), scale, 0xF14),
    );
    table.push_row(
        "high mis-prediction",
        environment(&CloudTraceConfig::volatile(), scale, 0xF15),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mds_trails_s2c2_within_bound() {
        let t = run(Scale::Quick);
        let low = t.value("low mis-prediction", "mds(50,40)");
        assert!(
            low > 1.05 && low < 1.40,
            "low mis-prediction gap should approach 50/40: got {low}"
        );
        let high = t.value("high mis-prediction", "mds(50,40)");
        assert!(high > 1.0, "s2c2 still ahead under volatility: {high}");
    }
}
