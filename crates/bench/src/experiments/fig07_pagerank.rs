//! Figure 7 — PageRank on the controlled cluster (same sweep as Fig 6).

use crate::experiments::{common, fig06_logreg, Scale};
use crate::report::Table;
use s2c2_workloads::datasets::power_law_graph;
use s2c2_workloads::pagerank::DistributedPageRank;

/// Runs Figure 7.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let nodes = scale.pick(480, 2400);
    let iters = scale.pick(5, 15);
    let graph = power_law_graph(nodes, 3, 0xF7);
    common::sweep(
        "Fig 7 — PageRank relative execution time (normalized to replication @ 0)",
        &fig06_logreg::schemes(),
        scale.pick(4, 6),
        |stragglers, _, scheme| {
            let cfg = scheme.controlled(stragglers, 0xF7, 12);
            let mut pr = DistributedPageRank::new(&graph, &cfg, 0.85)
                .expect("experiment configuration is valid");
            for _ in 0..iters {
                pr.step().expect("iteration succeeds");
            }
            pr.total_latency()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s2c2_wins_and_mds_collapses() {
        let t = run(Scale::Quick);
        let s0 = t.value("0 stragglers", "s2c2-general(12,6)");
        let c0 = t.value("0 stragglers", "mds(12,6)");
        assert!(c0 / s0 > 1.3, "s2c2 {s0} vs conservative mds {c0}");
        let m0 = t.value("0 stragglers", "mds(12,10)");
        let m3 = t.value("3 stragglers", "mds(12,10)");
        assert!(m3 / m0 > 2.5, "(12,10) collapse: {m0} -> {m3}");
        // General <= basic at every straggler count.
        for row in ["0 stragglers", "2 stragglers", "4 stragglers"] {
            let b = t.value(row, "s2c2-basic(12,6)");
            let g = t.value(row, "s2c2-general(12,6)");
            assert!(g <= b * 1.05, "{row}: general {g} vs basic {b}");
        }
    }
}
