//! Figure 6 — logistic regression on the controlled cluster: 0–6
//! stragglers × five strategies.
//!
//! Expected shape (all normalized to replication @ 0 stragglers):
//! replication degrades sharply past 2 stragglers; (12,10)-MDS flat to 2
//! then ~5×; (12,6)-MDS flat at ~2× baseline; basic S²C² tracks
//! `12/(12−s)`; general S²C² (knowing exact speeds) is lowest everywhere.

use crate::experiments::common::{self, Scheme};
use crate::experiments::Scale;
use crate::report::Table;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_workloads::datasets::gisette_like;

/// The figure's five columns, shared with Fig 7.
pub(crate) fn schemes() -> Vec<Scheme> {
    let scheme = |label, k, kind, predictor| Scheme {
        label,
        params: MdsParams::new(12, k),
        kind,
        predictor,
    };
    let last = || PredictorSource::LastValue;
    vec![
        scheme("uncoded-3rep+spec", 12, StrategyKind::Replication, last()),
        scheme("mds(12,10)", 10, StrategyKind::MdsCoded, last()),
        scheme("mds(12,6)", 6, StrategyKind::MdsCoded, last()),
        scheme("s2c2-basic(12,6)", 6, StrategyKind::S2c2Basic, last()),
        // "knowing the exact speeds" — the oracle variant of Fig 6.
        scheme(
            "s2c2-general(12,6)",
            6,
            StrategyKind::S2c2General,
            PredictorSource::Oracle,
        ),
    ]
}

/// Runs Figure 6 (logistic regression).
#[must_use]
pub fn run(scale: Scale) -> Table {
    let rows = scale.pick(480, 2400);
    let cols = scale.pick(48, 240);
    let iters = scale.pick(5, 15);
    let data = gisette_like(rows, cols, 0xF6);
    common::sweep(
        "Fig 6 — LR relative execution time (normalized to replication @ 0)",
        &schemes(),
        scale.pick(4, 6),
        |stragglers, _, scheme| {
            common::logreg_latency(&data, &scheme.controlled(stragglers, 0xF6, 12), iters)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let t = run(Scale::Quick);
        // Conservative MDS flat but expensive.
        let c0 = t.value("0 stragglers", "mds(12,6)");
        let c4 = t.value("4 stragglers", "mds(12,6)");
        assert!((c4 / c0 - 1.0).abs() < 0.2, "mds(12,6) flat: {c0} vs {c4}");
        // S2C2 at 0 stragglers beats conservative MDS by ~10/6.
        let s0 = t.value("0 stragglers", "s2c2-general(12,6)");
        assert!(
            c0 / s0 > 1.3,
            "s2c2 squeezes the slack: mds {c0} vs s2c2 {s0}"
        );
        // S2C2 general <= basic everywhere.
        for row in ["0 stragglers", "2 stragglers", "4 stragglers"] {
            let b = t.value(row, "s2c2-basic(12,6)");
            let g = t.value(row, "s2c2-general(12,6)");
            assert!(g <= b * 1.05, "{row}: general {g} vs basic {b}");
        }
        // (12,10) collapses at 3+.
        let m0 = t.value("0 stragglers", "mds(12,10)");
        let m3 = t.value("3 stragglers", "mds(12,10)");
        assert!(m3 / m0 > 2.5, "mds(12,10) collapse: {m0} vs {m3}");
        // S2C2 keeps working at 4 stragglers, well below the collapsed
        // (12,10).
        let s4 = t.value("4 stragglers", "s2c2-general(12,6)");
        let m4 = t.value("4 stragglers", "mds(12,10)");
        assert!(s4 < m4 * 0.6, "s2c2 {s4} vs collapsed mds {m4}");
    }
}
