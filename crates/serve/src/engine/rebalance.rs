//! Work-conserving share rebalancing.
//!
//! Shares are a pure function of the live resident set's weight mass.
//! Whenever that mass changes — admission, completion, failure — every
//! running iteration's share is recomputed and its in-flight tasks
//! rescaled at the current instant, so capacity is never left idle
//! waiting for an iteration boundary and the pool is never
//! over-subscribed by stale snapshots. Under pipelined serving a
//! job's *whole in-flight window* rescales together: every window round
//! runs at the job's single share, so the job's capacity draw is
//! constant regardless of pipeline depth.

use super::core::ResidentJob;
use super::round::sinks;
use super::{trace_into, ServiceEngine};
use crate::event::JobId;
use s2c2_telemetry::TraceEventKind;

impl ServiceEngine {
    /// A residency's share of every worker's capacity: its weight over
    /// the resident weight mass. The one place the engine computes a
    /// share — round dispatch and rebalancing both read it. Weights are
    /// validated positive at arrival, so the mass is positive whenever
    /// `id` is resident.
    pub(crate) fn share(&self, id: JobId) -> f64 {
        let total: f64 = self.resident.values().map(ResidentJob::weight).sum();
        self.resident[&id].weight() / total
    }

    /// Work-conserving share rebalance: recomputes every running
    /// iteration's share from the live resident weight mass and rescales
    /// its in-flight tasks at the current instant. Called whenever the
    /// resident set changes (admission, completion, failure), so shares
    /// always sum to 1 across residents — which is also what keeps
    /// per-worker busy accounting within the service horizon.
    ///
    /// The per-round mechanics (stretch every open task, reschedule its
    /// completion, close the share segment) are
    /// [`super::round::RunningIteration::rescale`].
    pub(crate) fn rebalance_shares(&mut self) {
        let now = self.now;
        let ids: Vec<JobId> = self.resident.keys().copied().collect();
        let resident_count = ids.len();
        for id in ids {
            let new_share = self.share(id);
            let mut sinks = sinks!(self, now);
            let Some(job) = self.resident.get_mut(&id) else {
                continue;
            };
            let mut job_touched = false;
            // Deferred re-arms: (window position, latest stretched
            // finish). The Rebalance trace and any re-armed Timeout
            // events are emitted after the whole window rescaled, so the
            // per-job trace/event order matches the barrier engine
            // exactly at depth 1.
            let mut rearm: Vec<(usize, f64)> = Vec::new();
            for (pos, iter) in job.window.iter_mut().enumerate() {
                let Some(latest) = iter.rescale(new_share, &mut sinks) else {
                    continue;
                };
                job_touched = true;
                // Stretched spans can outrun the armed §4.3 deadline;
                // re-arm behind them so a squeezed (not straggling)
                // round is not spuriously cancelled.
                if latest >= iter.armed_deadline {
                    rearm.push((pos, latest));
                }
            }
            if !job_touched {
                continue;
            }
            self.report.rebalances += 1;
            trace_into(sinks.telemetry, now, || TraceEventKind::Rebalance {
                resident: resident_count,
            });
            for (pos, latest) in rearm {
                job.window[pos].arm_behind(latest, &mut sinks);
            }
        }
    }
}
