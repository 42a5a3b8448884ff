//! Work-conserving share rebalancing.
//!
//! Shares are a pure function of the live resident set's weight mass:
//! whenever it changes, every in-flight task — a pipelined job's whole
//! window at the job's single share — runs at its new share from that
//! instant. On the virtual clock that moves no task: a rebalance sets
//! the clock's mass and re-arms only a round whose latest open finish
//! now maps past its (real-time) deadline.

use super::round::sinks;
use super::{trace_into, ServiceEngine};
use crate::event::JobId;
use s2c2_telemetry::TraceEventKind;

impl ServiceEngine {
    /// A residency's share of every worker's capacity: its weight over
    /// the resident weight mass (rung 3 divides a round's copy of the
    /// weight by the same mass).
    pub(crate) fn share(&self, id: JobId) -> f64 {
        self.resident[&id].weight / self.clock.mass
    }

    /// Work-conserving share rebalance, called whenever the resident set
    /// changes: the clock runs at the live weight mass from now on, so
    /// shares always sum to 1 across residents — which is also what
    /// keeps per-worker busy accounting within the service horizon. A
    /// resident with a task running past now counts one rebalance.
    pub(crate) fn rebalance_shares(&mut self) {
        let mass: f64 = self.resident.values().map(|j| j.weight).sum();
        if mass == 0.0 || mass == self.clock.mass {
            return;
        }
        self.clock.set_mass(mass);
        let (now, resident) = (self.clock.now, self.resident.len());
        let mut sinks = sinks!(self, now);
        for job in self.resident.values_mut() {
            let mut touched = false;
            for iter in &mut job.window {
                let latest = iter.latest_open();
                if latest <= sinks.clock.v {
                    continue;
                }
                touched = true;
                if sinks.clock.real(latest) >= iter.armed_deadline {
                    iter.arm_behind(latest, &mut sinks);
                }
            }
            if touched {
                self.report.rebalances += 1;
                trace_into(sinks.telemetry, now, || TraceEventKind::Rebalance {
                    resident,
                });
            }
        }
    }
}
