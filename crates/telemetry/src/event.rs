//! Typed trace events and the sink they are recorded into.
//!
//! Events carry **virtual-clock** timestamps only. Wall-clock timings are
//! deliberately excluded so that (a) the three execution backends emit
//! byte-identical traces for the same seed and (b) exported logs are
//! reproducible across runs and machines. Wall time lives in
//! [`crate::phases::PhaseTotals`] instead.

/// One step of the serve engine, tagged with the virtual time it
/// happened at.
///
/// Ids are plain integers — `job` is the engine's `JobId`, `worker` a
/// pool index, `generation` the iteration-dispatch generation used for
/// stale-event filtering, `tenant` the owning tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A job arrived at the front door (before any admission decision).
    JobArrival {
        /// Job id.
        job: u64,
        /// Owning tenant.
        tenant: u32,
        /// Workload preset name (`"small"`, `"medium"`, ...).
        preset: &'static str,
    },
    /// The job failed front-door validation and was dropped.
    Malformed {
        /// Job id.
        job: u64,
    },
    /// The job was admitted to the resident set.
    Admitted {
        /// Job id.
        job: u64,
        /// Resident batch leader it rides with (== `job` when solo).
        leader: u64,
    },
    /// A multi-member batch formed around a leader at admission.
    BatchFormed {
        /// Leader job id.
        leader: u64,
        /// Number of member jobs coalesced into the round.
        members: usize,
    },
    /// An iteration round was dispatched.
    IterationStart {
        /// Leader job id.
        job: u64,
        /// Zero-based iteration index for the job.
        iteration: usize,
        /// Dispatch generation.
        generation: u64,
        /// Stacked right-hand sides in the round.
        rhs: usize,
        /// Capacity share the round was planned at.
        share: f64,
        /// Whether the round started degraded (rung 2).
        degraded: bool,
    },
    /// The recovery ladder moved: `rung` is 1-based (1 = normal
    /// predict-feasible start, 2 = degraded start, 3 = redo on finished
    /// workers, 4 = wait out stragglers, 5 = abandon and restart).
    RecoveryRung {
        /// Leader job id.
        job: u64,
        /// Dispatch generation the transition applies to.
        generation: u64,
        /// Ladder rung, `1..=5`.
        rung: u8,
    },
    /// Chunks were sent to one worker.
    TaskDispatch {
        /// Leader job id.
        job: u64,
        /// Worker index.
        worker: usize,
        /// Dispatch generation.
        generation: u64,
        /// Number of coded chunks assigned.
        chunks: usize,
        /// Whether this is a rung-3 redo task.
        redo: bool,
    },
    /// A worker's task finished and was credited.
    TaskComplete {
        /// Leader job id.
        job: u64,
        /// Worker index.
        worker: usize,
        /// Dispatch generation.
        generation: u64,
        /// Whether the credited task was a redo.
        redo: bool,
    },
    /// An in-flight task was cancelled (late original, churned worker,
    /// or round already satisfied).
    TaskCancel {
        /// Leader job id.
        job: u64,
        /// Worker index.
        worker: usize,
        /// Dispatch generation.
        generation: u64,
        /// Whether the cancelled task was a redo.
        redo: bool,
    },
    /// Master-side decode of the round's coverage.
    Decode {
        /// Leader job id.
        job: u64,
        /// Dispatch generation.
        generation: u64,
        /// Modeled decode time in virtual seconds.
        seconds: f64,
    },
    /// Verification point for the round (numeric backends check the
    /// decode against the reference here; emitted by the engine on every
    /// backend so traces stay backend-independent).
    Verify {
        /// Leader job id.
        job: u64,
        /// Dispatch generation.
        generation: u64,
    },
    /// The iteration round completed (decode included).
    IterationComplete {
        /// Leader job id.
        job: u64,
        /// Zero-based iteration index.
        iteration: usize,
        /// Dispatch generation.
        generation: u64,
    },
    /// A job finished all iterations.
    JobComplete {
        /// Job id.
        job: u64,
        /// Owning tenant.
        tenant: u32,
    },
    /// A job exhausted its retries and failed.
    JobFailed {
        /// Job id.
        job: u64,
        /// Owning tenant.
        tenant: u32,
    },
    /// A churned-out worker rejoined the pool.
    WorkerUp {
        /// Worker index.
        worker: usize,
    },
    /// A worker churned out of the pool.
    WorkerDown {
        /// Worker index.
        worker: usize,
    },
    /// Resident-set shares were rebalanced.
    Rebalance {
        /// Number of resident rounds after the rebalance.
        resident: usize,
    },
    /// A completed round parked because an earlier round of the same job
    /// had not retired yet (pipelined serving commits in order). Only
    /// emitted at pipeline depth ≥ 2.
    RoundParked {
        /// Leader job id.
        job: u64,
        /// Zero-based iteration index of the parked round.
        iteration: usize,
        /// Dispatch generation.
        generation: u64,
    },
    /// A round retired (decode/verify committed) under pipelined serving.
    /// Only emitted at pipeline depth ≥ 2; at depth 1 the plain
    /// `Decode`/`Verify`/`IterationComplete` sequence already tells the
    /// whole story.
    RoundRetired {
        /// Leader job id.
        job: u64,
        /// Zero-based iteration index of the retired round.
        iteration: usize,
        /// Dispatch generation.
        generation: u64,
        /// Virtual seconds the round spent parked behind its
        /// predecessors (0 when it retired immediately).
        parked: f64,
    },
    /// The head round of a job's pipeline window completed while later
    /// rounds sat parked behind it — the in-order-commit stall this
    /// window head was responsible for. Only emitted at depth ≥ 2.
    PipelineStall {
        /// Leader job id.
        job: u64,
        /// Dispatch generation of the head round that was blocking.
        generation: u64,
        /// Virtual seconds since the earliest parked successor finished.
        seconds: f64,
    },
}

/// A trace event: virtual timestamp plus typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time the event happened at, in seconds.
    pub time: f64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Destination for trace events.
///
/// The serve engine emits through [`TraceSink::record_with`], which takes
/// a closure so a disabled sink never pays for event construction.
pub trait TraceSink {
    /// Append one event.
    fn record(&mut self, event: TraceEvent);

    /// Whether recording is active; `record_with` short-circuits on
    /// `false`.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Record the event built by `f`, evaluating `f` only when the sink
    /// is enabled — the zero-cost-when-off emission path.
    fn record_with(&mut self, f: impl FnOnce() -> TraceEvent)
    where
        Self: Sized,
    {
        if self.is_enabled() {
            self.record(f());
        }
    }
}

/// A sink that drops everything without evaluating anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Growable append buffer of trace events — the default enabled sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of [`TraceEventKind::RecoveryRung`] events per rung,
    /// indexed `[rung-1]` — the trace-side mirror of
    /// `ServiceReport::recovery_rung_counts`.
    #[must_use]
    pub fn rung_counts(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for e in &self.events {
            if let TraceEventKind::RecoveryRung { rung, .. } = e.kind {
                let idx = usize::from(rung).saturating_sub(1).min(4);
                counts[idx] += 1;
            }
        }
        counts
    }
}

impl TraceSink for TraceBuffer {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_records_in_order() {
        let mut buf = TraceBuffer::new();
        buf.record(TraceEvent {
            time: 0.0,
            kind: TraceEventKind::JobArrival {
                job: 1,
                tenant: 0,
                preset: "small",
            },
        });
        buf.record(TraceEvent {
            time: 1.5,
            kind: TraceEventKind::JobComplete { job: 1, tenant: 0 },
        });
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.events()[1].time, 1.5);
    }

    #[test]
    fn null_sink_never_evaluates_the_closure() {
        let mut sink = NullSink;
        sink.record_with(|| unreachable!("disabled sink must not build events"));
        assert!(!sink.is_enabled());
    }

    #[test]
    fn enabled_buffer_evaluates_and_records() {
        let mut buf = TraceBuffer::new();
        buf.record_with(|| TraceEvent {
            time: 2.0,
            kind: TraceEventKind::WorkerDown { worker: 3 },
        });
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn rung_counts_tally_ladder_events() {
        let mut buf = TraceBuffer::new();
        for rung in [1u8, 1, 2, 3, 5] {
            buf.record(TraceEvent {
                time: 0.0,
                kind: TraceEventKind::RecoveryRung {
                    job: 9,
                    generation: 1,
                    rung,
                },
            });
        }
        assert_eq!(buf.rung_counts(), [2, 1, 1, 0, 1]);
    }
}
