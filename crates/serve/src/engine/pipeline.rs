//! Cross-round pipelined serving: the bounded in-flight window policy.
//!
//! The paper's serving loop is a hard barrier: round `i + 1` of a job
//! cannot dispatch until round `i` has collected, decoded, and
//! verified — so one straggled round stalls the whole job even when
//! most of its workers are idle. The sequential-gradient-coding line of
//! related work removes the barrier by coding *across* rounds: fast
//! workers stream ahead up to a window of `B` in-flight rounds while a
//! straggled round is re-served inside the window, trading a bounded
//! commit delay for near-zero per-round stalls.
//!
//! [`PipelinePolicy`] is that window bound. Each resident job may hold
//! up to `depth` concurrently running iterations; round `i + 1`
//! dispatches as soon as round `i`'s tasks are issued (serialized
//! per-worker — a worker computes one job's rounds in dispatch order at
//! the job's capacity share), and decode/verify results commit strictly
//! in round order: a completion for round `i + 1` parks until round `i`
//! retires. The §4.3 recovery ladder operates per in-flight round.
//!
//! [`PipelinePolicy::Off`] (and `Depth(1)`) reproduce the barrier
//! engine byte-for-byte: event streams, traces, and reports are pinned
//! against the pre-pipelining outputs in CI.

/// Bounded in-flight iteration window per resident job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PipelinePolicy {
    /// One iteration in flight at a time — the barrier engine, and the
    /// default. Byte-identical to `Depth(1)`.
    #[default]
    Off,
    /// Up to `d ≥ 1` concurrently running iterations per job, committed
    /// in order.
    Depth(usize),
}

impl PipelinePolicy {
    /// The window bound this policy allows (`Off` → 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        match *self {
            PipelinePolicy::Off => 1,
            PipelinePolicy::Depth(d) => d,
        }
    }

    /// Whether rounds can actually overlap (depth ≥ 2). Pipeline-only
    /// trace events and accounting are gated on this so `Off`/`Depth(1)`
    /// stay byte-identical to the barrier engine.
    #[must_use]
    pub fn overlapping(&self) -> bool {
        self.depth() > 1
    }
}

impl std::fmt::Display for PipelinePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PipelinePolicy::Off => f.write_str("off"),
            PipelinePolicy::Depth(d) => write!(f, "depth-{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_depth_and_overlap() {
        assert_eq!(PipelinePolicy::Off.depth(), 1);
        assert_eq!(PipelinePolicy::Depth(1).depth(), 1);
        assert_eq!(PipelinePolicy::Depth(4).depth(), 4);
        assert!(!PipelinePolicy::Off.overlapping());
        assert!(!PipelinePolicy::Depth(1).overlapping());
        assert!(PipelinePolicy::Depth(2).overlapping());
        assert_eq!(PipelinePolicy::default(), PipelinePolicy::Off);
        assert_eq!(PipelinePolicy::Off.to_string(), "off");
        assert_eq!(PipelinePolicy::Depth(3).to_string(), "depth-3");
    }
}
