//! The §4.3 scheduling round, written once.
//!
//! Uncoded, conventional MDS, both S²C² variants and both schedules of
//! the polynomial code all run the same round — broadcast the input,
//! workers compute the assigned chunks of their own coded partitions,
//! the master waits for the first `need` responders, cancels whoever
//! runs past the timeout margin, hands the cancelled chunks to finished
//! workers (who already hold the coded data), and decodes each chunk
//! from its `need` earliest results. The round does not care what the
//! code computes: [`plan_round`] owns every scheduling step and the
//! accounting (Figs 9/11 are computed from it), and what differs
//! between codes arrives as a [`RoundCost`] value. The strategies keep
//! only their numeric tail — compute the chosen responses, decode,
//! charge the decode.
//!
//! Collection rule: for every chunk index the master uses the `need`
//! earliest-arriving results among workers that computed that chunk; any
//! further copies of the chunk are wasted work. For an exact-coverage
//! S²C² assignment the rule degenerates to "use everything"; for a
//! conventional full assignment it is precisely the fastest-`k`-of-`n`
//! rule of MDS coded computing.
//!
//! Robustness (§4.4): a worker is only ever cancelled *past* the
//! `need`-th finish, so at least `need` finished workers are always
//! there to host redo work and coverage can always be rebuilt — in the
//! worst case every cancelled chunk is recomputed and the round costs
//! what conventional coded computing would have. Correctness never
//! depends on prediction quality.

use crate::alloc::ChunkAssignment;
use crate::error::S2c2Error;
use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::ClusterSim;

/// The §4.3 timeout margin a round runs with unless a caller overrides
/// it: 15%, from the paper's observed 16.7% prediction error.
pub(crate) const TIMEOUT_MARGIN: f64 = 0.15;

/// The unit a worker's planned work and observed speed are expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// Rows (coded matvec): speed is `rows / response time`. A cancelled
    /// worker is credited the *whole* rows it finished by its deadline
    /// (at least one, so its speed estimate stays positive).
    Rows,
    /// Matrix elements, the fixed pass included (polynomial product):
    /// `rows / time` would report different "speeds" for equal-speed
    /// workers with different loads, because the fixed pass is part of
    /// every response time. A cancelled worker is credited the elements
    /// it got through by its deadline, un-rounded (at least one).
    Elements,
}

/// What one code charges for a round — everything [`plan_round`] needs
/// to know about the computation being scheduled.
#[derive(Debug, Clone, Copy)]
pub struct RoundCost {
    /// Bytes broadcast to every worker before it can start.
    pub broadcast_bytes: u64,
    /// Elements of the pass every assigned worker pays regardless of its
    /// share: 0 for matvec, the `diag(w)·B̃ᵢ` scaling for the Hessian
    /// (which S²C² cannot reduce — §7.2.3).
    pub fixed_elems: usize,
    /// Rows in one chunk.
    pub rows_per_chunk: usize,
    /// Elements touched per computed row.
    pub elems_per_row: usize,
    /// Reply payload per computed row.
    pub reply_bytes_per_row: u64,
    /// Unit of planned work and observed speeds.
    pub unit: WorkUnit,
}

/// The plan-normalized §4.3 deadline: the master projects each worker's
/// completion from its planned work (its share, divided by its
/// predicted speed when scheduling adaptively), calibrates the
/// projection against the first `need` observed finishers, and calls a
/// worker late only when it runs more than `margin` past its own
/// projection — and never before the `need`-th finish. In the paper's
/// equal-allocation, equal-speed setting this reduces verbatim to
/// "within 15% of the average response time of the first k"; the
/// normalization stops integer chunk rounding and *planned* slowness (a
/// correctly-predicted straggler with a small share) from masquerading
/// as mis-prediction.
pub(crate) struct Deadlines {
    /// Workers that respond (finite completion time), earliest first;
    /// equal times keep worker order.
    pub(crate) by_time: Vec<usize>,
    /// When the `need`-th response arrives.
    pub(crate) t_need: f64,
    per_worker: Vec<f64>,
}

impl Deadlines {
    /// Calibrates on the `need` earliest of `times`; callers guarantee
    /// `1 <= need <=` the number of finite entries.
    pub(crate) fn calibrate(times: &[f64], planned: &[f64], need: usize, margin: f64) -> Self {
        let mut by_time: Vec<usize> = (0..times.len()).filter(|&w| times[w].is_finite()).collect();
        by_time.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        let t_need = times[by_time[need - 1]];
        let mean_rate = by_time[..need]
            .iter()
            .map(|&w| times[w] / planned[w])
            .sum::<f64>()
            / need as f64;
        let per_worker = planned
            .iter()
            .map(|&p| t_need.max((1.0 + margin) * p * mean_rate))
            .collect();
        Deadlines {
            by_time,
            t_need,
            per_worker,
        }
    }

    /// Worker `w`'s own deadline.
    pub(crate) fn deadline_for(&self, w: usize) -> f64 {
        self.per_worker[w]
    }
}

/// A scheduled round: which results the decoder uses, and the full
/// accounting up to (not including) the master's decode.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// Per chunk, the `need` workers whose results are decoded, earliest
    /// arrival first.
    pub chosen: Vec<Vec<usize>>,
    /// Workers cancelled at their deadline (ascending).
    pub cancelled: Vec<usize>,
    /// Per worker, the cancelled chunks it recomputes after its own.
    pub redo: Vec<Vec<usize>>,
    /// Accounting for the round; `latency` is the arrival of the last
    /// result the decoder needs.
    pub metrics: RoundMetrics,
    /// What the round teaches an adaptive scheduler.
    pub feedback: Feedback,
}

/// What an adaptive scheduler learns from a round.
#[derive(Debug, Clone)]
pub struct Feedback {
    /// Observed per-worker speeds in the cost's [`WorkUnit`] per second
    /// — the §6.2 estimator input; `None` for idle workers.
    pub observed_speeds: Vec<Option<f64>>,
    /// Whether cancelled work had to be rebuilt on other workers (a
    /// mis-prediction was handled). A worker cancelled where the
    /// remaining coverage already suffices — the full-assignment
    /// fallback run with reassignment enabled — does not count: no
    /// recovery happened, and this is the figure `figures -- ablations`
    /// prints as the mis-prediction rate.
    pub reassigned: bool,
}

impl RoundPlan {
    /// Charges the master's decode and closes the accounting.
    #[must_use]
    pub fn finish(mut self, decode_time: f64) -> (RoundMetrics, Feedback) {
        self.metrics.latency += decode_time;
        self.metrics.decode_time = decode_time;
        debug_assert!(self.metrics.conserves_work());
        (self.metrics, self.feedback)
    }
}

/// Schedules one round of `assignment` on the simulator's current
/// iteration: phase-1 completion times, the plan-normalized deadline,
/// the cancel set, redo placement, redo completion times, the "`need`
/// earliest results per chunk" collection rule and the accounting.
///
/// `reassign` switches the §4.3 cancel-and-reassign machinery on
/// (S²C²) or off (conventional coded computing waits out its coverage);
/// `expected_speeds` are the predictions the assignment was planned on
/// (`None` = the equal-speed assumption).
///
/// # Errors
///
/// [`S2c2Error::InvalidConfig`] if no iteration is in progress, `need`
/// is zero, or the assignment / predictions are not for this cluster's
/// worker count; [`S2c2Error::NotEnoughWorkers`] if fewer than `need`
/// workers were given work; [`S2c2Error::IterationFailed`] if the
/// assignment leaves a chunk with fewer than `need` results.
pub fn plan_round(
    assignment: &ChunkAssignment,
    need: usize,
    sim: &ClusterSim,
    cost: &RoundCost,
    margin: f64,
    reassign: bool,
    expected_speeds: Option<&[f64]>,
) -> Result<RoundPlan, S2c2Error> {
    let n = sim.n();
    let Some(iteration) = sim.iteration() else {
        return Err(S2c2Error::InvalidConfig("no iteration in progress".into()));
    };
    if assignment.workers() != n || expected_speeds.is_some_and(|p| p.len() != n) {
        return Err(S2c2Error::InvalidConfig(format!(
            "assignment for {} workers (predictions for {:?}) on a {n}-worker cluster",
            assignment.workers(),
            expected_speeds.map(<[f64]>::len)
        )));
    }
    if need == 0 {
        return Err(S2c2Error::InvalidConfig("need must be positive".into()));
    }
    let rpc = cost.rows_per_chunk;

    // ---- Phase 1: everyone computes their assignment. ----
    let rows = assignment.rows_per_worker(rpc);
    let receive = sim.transfer_time(cost.broadcast_bytes);
    let times: Vec<f64> = (0..n)
        .map(|w| {
            if rows[w] == 0 {
                return f64::INFINITY; // idle: never responds
            }
            receive
                + sim.compute_time(w, cost.fixed_elems, 1)
                + sim.compute_time(w, rows[w], cost.elems_per_row)
                + sim.transfer_time(rows[w] as u64 * cost.reply_bytes_per_row)
        })
        .collect();
    let assigned = rows.iter().filter(|&&r| r > 0).count();
    if assigned < need {
        return Err(S2c2Error::NotEnoughWorkers {
            alive: assigned,
            need,
        });
    }

    let work_of = |w: usize| match cost.unit {
        WorkUnit::Rows => rows[w] as f64,
        WorkUnit::Elements => (cost.fixed_elems + rows[w] * cost.elems_per_row) as f64,
    };
    let planned: Vec<f64> = (0..n)
        .map(|w| match expected_speeds {
            Some(p) if p[w] > 0.0 => work_of(w) / p[w],
            _ => work_of(w),
        })
        .collect();
    let deadlines = Deadlines::calibrate(&times, &planned, need, margin);

    // ---- Cancel whoever runs past its deadline. ----
    let cancelled: Vec<usize> = (0..n)
        .filter(|&w| reassign && rows[w] > 0 && times[w] > deadlines.deadline_for(w))
        .collect();
    // The master launches all reassignments once the last deadline of a
    // cancelled worker has passed.
    let cancel_at = cancelled
        .iter()
        .map(|&w| deadlines.deadline_for(w))
        .fold(deadlines.t_need, f64::max);
    // Everyone whose own result still counts, earliest first.
    let live: Vec<usize> = deadlines
        .by_time
        .iter()
        .copied()
        .filter(|w| !cancelled.contains(w))
        .collect();

    // ---- Phase 2: rebuild coverage on finished workers. ----
    // Per short chunk, pick the least-loaded finished worker (ties to
    // the faster one) that does not already cover it; without load
    // spreading one fast worker would serialize the entire redo. A host
    // always exists: the first `need` finishers are never cancelled.
    let covers = |w: usize, chunk: usize| assignment.chunks[w].binary_search(&chunk).is_ok();
    let mut redo: Vec<Vec<usize>> = vec![Vec::new(); n];
    if !cancelled.is_empty() {
        for chunk in 0..assignment.chunks_per_partition {
            let have = live.iter().filter(|&&w| covers(w, chunk)).count();
            for _ in have..need {
                let host = live
                    .iter()
                    .copied()
                    .filter(|&h| !covers(h, chunk) && !redo[h].contains(&chunk))
                    .min_by_key(|&h| redo[h].len());
                if let Some(host) = host {
                    redo[host].push(chunk);
                }
            }
        }
    }
    // Redo completion: detected at `cancel_at`, the new work order costs
    // one message latency, then compute + reply.
    let redo_done = |w: usize| {
        let redo_rows = redo[w].len() * rpc;
        cancel_at
            + sim.transfer_time(64)
            + sim.compute_time(w, redo_rows, cost.elems_per_row)
            + sim.transfer_time(redo_rows as u64 * cost.reply_bytes_per_row)
    };

    // ---- Collection: per chunk, the `need` earliest results win. ----
    let mut metrics = RoundMetrics::new(iteration, n);
    let mut chosen: Vec<Vec<usize>> = Vec::with_capacity(assignment.chunks_per_partition);
    for chunk in 0..assignment.chunks_per_partition {
        let own = live.iter().filter(|&&w| covers(w, chunk));
        let redone = (0..n).filter(|&w| redo[w].contains(&chunk));
        let mut results: Vec<(f64, usize)> = own
            .map(|&w| (times[w], w))
            .chain(redone.map(|w| (redo_done(w), w)))
            .collect();
        results.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if results.len() < need {
            return Err(S2c2Error::IterationFailed(format!(
                "chunk {chunk} has only {} of {need} results",
                results.len()
            )));
        }
        results.truncate(need);
        metrics.latency = metrics.latency.max(results[need - 1].0);
        for &(_, w) in &results {
            metrics.useful_rows[w] += rpc;
        }
        chosen.push(results.into_iter().map(|(_, w)| w).collect());
    }

    // ---- Accounting. ----
    let mut observed_speeds: Vec<Option<f64>> = vec![None; n];
    for &w in &live {
        let redo_rows = redo[w].len() * rpc;
        metrics.assigned_rows[w] = rows[w] + redo_rows;
        metrics.computed_rows[w] = rows[w] + redo_rows;
        metrics.response_times[w] = Some(if redo_rows > 0 {
            redo_done(w)
        } else {
            times[w]
        });
        // Speed estimation uses the phase-1 response only: a redo host's
        // second response includes idle time between its own finish and
        // the cancellation deadline, which would halve the *fastest*
        // workers' estimates and destabilize the next allocation.
        observed_speeds[w] = Some(work_of(w) / times[w]);
    }
    for &w in &cancelled {
        let deadline = deadlines.deadline_for(w);
        let elems = sim.partial_compute_elements(w, (deadline - receive).max(0.0));
        let partial_rows = ((elems / cost.elems_per_row as f64) as usize).min(rows[w]);
        metrics.assigned_rows[w] = rows[w];
        metrics.computed_rows[w] = partial_rows;
        metrics.response_times[w] = Some(deadline);
        let credited = match cost.unit {
            WorkUnit::Rows => partial_rows.max(1) as f64,
            WorkUnit::Elements => elems.max(1.0),
        };
        observed_speeds[w] = Some(credited / deadline);
    }

    let reassigned = redo.iter().any(|r| !r.is_empty());
    Ok(RoundPlan {
        chosen,
        cancelled,
        redo,
        metrics,
        feedback: Feedback {
            observed_speeds,
            reassigned,
        },
    })
}

/// Every bit a finished round produces — decoded values, accounting and
/// feedback — flattened so two rounds compare with one `assert_eq!`.
#[cfg(test)]
pub(crate) fn round_bits(values: &[f64], metrics: &RoundMetrics, feedback: &Feedback) -> Vec<u64> {
    let opt = |v: &Option<f64>| v.map_or(u64::MAX, f64::to_bits);
    let rows = |v: &Vec<usize>| v.iter().map(|&r| r as u64).collect::<Vec<_>>();
    let mut bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    bits.extend([
        metrics.iteration as u64,
        metrics.latency.to_bits(),
        metrics.rebalance_bytes,
        metrics.decode_time.to_bits(),
        u64::from(feedback.reassigned),
    ]);
    bits.extend(rows(&metrics.assigned_rows));
    bits.extend(rows(&metrics.computed_rows));
    bits.extend(rows(&metrics.useful_rows));
    bits.extend(metrics.response_times.iter().map(opt));
    bits.extend(feedback.observed_speeds.iter().map(opt));
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{allocate_chunks, allocate_full};
    use crate::strategy::mds::CodedMatvec;
    use crate::strategy::IterationOutcome;
    use s2c2_cluster::ClusterSpec;
    use s2c2_coding::mds::MdsParams;
    use s2c2_linalg::{Matrix, Vector};

    fn setup(
        n: usize,
        k: usize,
        chunks: usize,
        stragglers: &[usize],
    ) -> (CodedMatvec, ClusterSim, Matrix, Vector) {
        let a = Matrix::from_fn(k * chunks * 10, 6, |r, c| {
            ((r * 13 + c * 7) % 17) as f64 - 8.0
        });
        let coded = CodedMatvec::new(&a, MdsParams::new(n, k), chunks).unwrap();
        let spec = ClusterSpec::builder(n)
            .compute_bound()
            .straggler_slowdown(5.0)
            .stragglers(stragglers, 0.0)
            .build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let x = Vector::from_fn(6, |i| 1.0 + i as f64 * 0.25);
        (coded, sim, a, x)
    }

    /// One coded-matvec round at the default 15% margin.
    fn run(
        coded: &CodedMatvec,
        assignment: &ChunkAssignment,
        sim: &ClusterSim,
        x: &Vector,
        reassign: bool,
    ) -> (IterationOutcome, Feedback) {
        coded
            .run_round(assignment, sim, x, 0.15, reassign, None)
            .unwrap()
    }

    #[test]
    fn full_assignment_matches_conventional_mds() {
        // 12 workers, k=10, 1 straggler: conventional MDS waits for the
        // fastest 10; the straggler and one healthy worker are wasted.
        let (coded, sim, a, x) = setup(12, 10, 4, &[5]);
        let assignment = allocate_full(12, 10, 4);
        let (round, feedback) = run(&coded, &assignment, &sim, &x, false);
        s2c2_linalg::assert_slices_close(round.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        assert!(!feedback.reassigned);
        // Straggler computed everything, none useful.
        let wf = round.metrics.wasted_fraction();
        assert!((wf[5] - 1.0).abs() < 1e-12, "straggler fully wasted");
        // Exactly n-k = 2 workers fully wasted.
        let fully_wasted = wf.iter().filter(|&&f| f >= 1.0 - 1e-12).count();
        assert_eq!(fully_wasted, 2);
        assert!(round.metrics.conserves_work());
    }

    #[test]
    fn exact_coverage_assignment_wastes_nothing_with_oracle_speeds() {
        let (coded, sim, a, x) = setup(12, 6, 12, &[2, 7]);
        // Oracle allocation: use the simulator's actual speeds.
        let assignment = allocate_chunks(sim.speeds(), 6, 12).unwrap();
        let (round, feedback) = run(&coded, &assignment, &sim, &x, true);
        s2c2_linalg::assert_slices_close(round.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        assert_eq!(
            round.metrics.total_wasted_rows(),
            0,
            "oracle S2C2 wastes nothing"
        );
        assert!(!feedback.reassigned);
    }

    #[test]
    fn misprediction_triggers_reassignment_and_still_decodes() {
        // Allocation assumes equal speeds but workers 0,1 are 5x slow:
        // the timeout must fire, their chunks must be recomputed, and the
        // result must still be exact.
        let (coded, sim, a, x) = setup(12, 6, 12, &[0, 1]);
        let assignment = allocate_chunks(&[1.0; 12], 6, 12).unwrap();
        let (round, feedback) = run(&coded, &assignment, &sim, &x, true);
        assert!(
            feedback.reassigned,
            "5x stragglers must miss the 15% deadline"
        );
        s2c2_linalg::assert_slices_close(round.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        // Cancelled stragglers: partial work, zero useful.
        assert_eq!(round.metrics.useful_rows[0], 0);
        assert_eq!(round.metrics.useful_rows[1], 0);
        assert!(round.metrics.computed_rows[0] < round.metrics.assigned_rows[0]);
        assert!(round.metrics.conserves_work());
    }

    #[test]
    fn reassignment_disabled_waits_for_stragglers() {
        let (coded, sim, _a, x) = setup(12, 6, 12, &[0, 1]);
        let assignment = allocate_chunks(&[1.0; 12], 6, 12).unwrap();
        let (round_wait, _) = run(&coded, &assignment, &sim, &x, false);
        let (round_cancel, _) = run(&coded, &assignment, &sim, &x, true);
        assert!(
            round_cancel.metrics.latency < round_wait.metrics.latency * 0.7,
            "reassignment should beat waiting: {} vs {}",
            round_cancel.metrics.latency,
            round_wait.metrics.latency
        );
    }

    #[test]
    fn observed_speeds_reflect_stragglers() {
        let (coded, sim, _a, x) = setup(12, 10, 4, &[3]);
        let assignment = allocate_full(12, 10, 4);
        let (_, feedback) = run(&coded, &assignment, &sim, &x, false);
        let speeds: Vec<f64> = feedback
            .observed_speeds
            .iter()
            .map(|s| s.unwrap())
            .collect();
        // Straggler's observed speed must be ~5x lower than the others.
        assert!(speeds[0] / speeds[3] > 4.0);
    }

    #[test]
    fn idle_workers_have_no_observation() {
        let (coded, sim, _a, x) = setup(6, 3, 6, &[]);
        // Worker 5 excluded from the allocation.
        let assignment = allocate_chunks(&[1.0, 1.0, 1.0, 1.0, 1.0, 0.0], 3, 6).unwrap();
        let (round, feedback) = run(&coded, &assignment, &sim, &x, true);
        assert!(feedback.observed_speeds[5].is_none());
        assert_eq!(round.metrics.assigned_rows[5], 0);
    }

    #[test]
    fn latency_includes_decode_time() {
        // Straggling systematic worker 0 forces a parity-based decode,
        // so master-side decode work is nonzero.
        let (coded, sim, _a, x) = setup(6, 4, 4, &[0]);
        let assignment = allocate_full(6, 4, 4);
        let (round, _) = run(&coded, &assignment, &sim, &x, false);
        assert!(round.metrics.decode_time > 0.0);
        assert!(round.metrics.latency > round.metrics.decode_time);
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let (_, mut sim, _a, _x) = setup(6, 3, 4, &[]);
        let cost = RoundCost {
            broadcast_bytes: 48,
            fixed_elems: 0,
            rows_per_chunk: 10,
            elems_per_row: 6,
            reply_bytes_per_row: 8,
            unit: WorkUnit::Rows,
        };
        let plan = |assignment: &ChunkAssignment, need, sim: &ClusterSim, expected| {
            plan_round(assignment, need, sim, &cost, 0.15, true, expected).unwrap_err()
        };
        let full = allocate_full(6, 3, 4);
        // Sized for another cluster.
        let err = plan(&allocate_full(5, 3, 4), 3, &sim, None);
        assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{err}");
        let err = plan(&full, 3, &sim, Some(&[1.0; 7]));
        assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{err}");
        let err = plan(&full, 0, &sim, None);
        assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{err}");
        // Fewer workers with work than results needed.
        let mut two = full.clone();
        two.chunks[2..].iter_mut().for_each(Vec::clear);
        let err = plan(&two, 3, &sim, None);
        assert_eq!(err, S2c2Error::NotEnoughWorkers { alive: 2, need: 3 });
        // A chunk nobody beyond two workers computes.
        let mut short = full.clone();
        short.chunks[2..]
            .iter_mut()
            .for_each(|c| c.retain(|&i| i != 1));
        let err = plan(&short, 3, &sim, None);
        assert!(matches!(err, S2c2Error::IterationFailed(_)), "{err}");
        // No iteration in flight.
        sim = ClusterSim::new(ClusterSpec::builder(6).build());
        let err = plan(&full, 3, &sim, None);
        assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{err}");
    }
}
