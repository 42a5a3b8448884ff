//! Property-based tests for the §4.3 round planner.
//!
//! Whatever the cluster does and however wrong the predictions are, a
//! planned round must be decodable and its books must balance: every
//! chunk is decoded from exactly `need` distinct, non-cancelled workers
//! that actually computed it; redo work never lands on a worker that
//! already covers the chunk; conventional rounds (`reassign: false`)
//! never cancel or reassign; work is conserved; and nothing is decoded
//! before the `need`-th phase-1 response is in.

use proptest::prelude::*;
use s2c2_cluster::sim::{kth_completion, round_completion_times};
use s2c2_cluster::{ClusterSim, ClusterSpec};
use s2c2_core::alloc::{allocate_chunks, allocate_full};
use s2c2_core::strategy::round::{plan_round, RoundCost, WorkUnit};
use s2c2_trace::model::ConstantSpeed;

const MAX_N: usize = 14;

/// Predicted speeds: mostly live, some presumed dead (those sit idle
/// under an exact-coverage assignment).
fn predictions() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            4 => 0.05f64..1.5,
            1 => Just(0.0),
        ],
        MAX_N,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn planned_round_is_decodable_and_conserves_work(
        n in 3usize..=MAX_N,
        need_frac in 0.2f64..0.95,
        chunks in 1usize..=10,
        rows_per_chunk in 1usize..=4,
        actual in proptest::collection::vec(0.1f64..1.5, MAX_N),
        predicted in predictions(),
        margin in 0.0f64..0.5,
        reassign in any::<bool>(),
        full in any::<bool>(),
        polynomial in any::<bool>(),
        planned_on_predictions in any::<bool>(),
    ) {
        let need = ((n as f64 * need_frac) as usize).clamp(1, n);
        let predicted = &predicted[..n];
        // Exact coverage from Algorithm 1 where the predictions allow
        // it, the conventional full assignment otherwise (the §4.4
        // fallback) or when asked for.
        let assignment = match allocate_chunks(predicted, need, chunks) {
            Ok(a) if !full => a,
            _ => allocate_full(n, need, chunks),
        };
        let cost = if polynomial {
            RoundCost {
                broadcast_bytes: 30 * 8,
                fixed_elems: 30 * 6,
                rows_per_chunk,
                elems_per_row: 30 * 6,
                reply_bytes_per_row: 6 * 8,
                unit: WorkUnit::Elements,
            }
        } else {
            RoundCost {
                broadcast_bytes: 40 * 8,
                fixed_elems: 0,
                rows_per_chunk,
                elems_per_row: 40,
                reply_bytes_per_row: 8,
                unit: WorkUnit::Rows,
            }
        };
        let mut spec = ClusterSpec::builder(n).compute_bound();
        for (w, &speed) in actual[..n].iter().enumerate() {
            spec = spec.worker_model(w, Box::new(ConstantSpeed::new(speed)));
        }
        let mut sim = ClusterSim::new(spec.build());
        sim.begin_iteration(0);

        let expected = planned_on_predictions.then_some(predicted);
        let plan = plan_round(&assignment, need, &sim, &cost, margin, reassign, expected);
        prop_assert!(plan.is_ok(), "a valid assignment always plans: {:?}", plan.err());
        let plan = plan.unwrap();
        let covers = |w: usize, chunk: usize| assignment.chunks[w].contains(&chunk);

        // Every chunk: exactly `need` distinct results, none from a
        // cancelled worker, each from a worker that computed the chunk.
        prop_assert_eq!(plan.chosen.len(), chunks);
        for (chunk, workers) in plan.chosen.iter().enumerate() {
            prop_assert_eq!(workers.len(), need, "chunk {}", chunk);
            let mut distinct = workers.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), need, "chunk {} repeats a worker", chunk);
            for &w in workers {
                prop_assert!(!plan.cancelled.contains(&w), "chunk {} uses cancelled {}", chunk, w);
                prop_assert!(
                    covers(w, chunk) ^ plan.redo[w].contains(&chunk),
                    "chunk {} decoded from {} which never computed it (or did twice)", chunk, w
                );
            }
        }

        // Redo work: only for finished workers, never a chunk the host
        // already covers, never the same chunk twice.
        for (w, redo) in plan.redo.iter().enumerate() {
            if redo.is_empty() {
                continue;
            }
            prop_assert!(!plan.cancelled.contains(&w) && !assignment.chunks[w].is_empty());
            let mut distinct = redo.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), redo.len(), "worker {} redoes a chunk twice", w);
            prop_assert!(redo.iter().all(|&chunk| !covers(w, chunk)));
        }
        let redone = plan.redo.iter().any(|r| !r.is_empty());
        prop_assert_eq!(plan.feedback.reassigned, redone);
        if !reassign {
            prop_assert!(plan.cancelled.is_empty() && !redone);
        }

        // The books balance.
        let m = &plan.metrics;
        prop_assert!(m.conserves_work());
        prop_assert_eq!(m.useful_rows.iter().sum::<usize>(), need * chunks * rows_per_chunk);
        for w in 0..n {
            let idle = assignment.chunks[w].is_empty();
            prop_assert_eq!(plan.feedback.observed_speeds[w].is_none(), idle);
            prop_assert_eq!(m.response_times[w].is_none(), idle);
            prop_assert!(plan.feedback.observed_speeds[w].map_or(true, |s| s > 0.0 && s.is_finite()));
            if plan.cancelled.contains(&w) {
                prop_assert_eq!(m.useful_rows[w], 0);
            }
        }

        // Nothing decodes before the `need`-th phase-1 response (the
        // fixed pass only pushes responses later).
        let rows = assignment.rows_per_worker(rows_per_chunk);
        let phase1 = round_completion_times(
            &sim,
            cost.broadcast_bytes,
            &rows,
            cost.elems_per_row,
            cost.reply_bytes_per_row,
        );
        prop_assert!(m.latency >= kth_completion(&phase1, need) * (1.0 - 1e-12));
        prop_assert_eq!(m.decode_time, 0.0);
    }
}
