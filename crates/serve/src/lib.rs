//! # s2c2-serve — event-driven multi-job service over a shared coded pool
//!
//! The paper schedules *one* coded job at a time; a production service
//! faces many concurrent jobs contending for one worker pool, bursty
//! arrivals, queueing, and tail-latency SLOs (the regime targeted by the
//! serverless and rateless-coding lines of related work). This crate
//! supplies that layer:
//!
//! * [`event`] — the discrete-event core: min-queues with
//!   deterministic FIFO tie-breaking. The engine's agenda holds one
//!   entry per in-flight round in each of its queues (the completion
//!   that decides the round, its next completion, its deadline) and
//!   the epoch tick, each moved in place, so nothing stale is queued.
//!   Job arrivals are not queue events: the engine streams them from
//!   the workload slice and merges that cursor with the agenda. An
//!   epoch tick applies its speed samples and churn flips in place.
//! * [`workload`] — Poisson and trace-driven arrival generators over
//!   heterogeneous job presets (matvec shapes, `(n, k)` parameters,
//!   iteration counts, per-job capacity weights and deadline SLOs).
//! * [`admission`] — pluggable queueing policies: FIFO,
//!   earliest-deadline, and weighted fair-share.
//! * [`shared_alloc`] — Algorithm 1 extended to a shared cluster: each
//!   resident job's share of every worker's capacity is
//!   `weight / Σ weights`, computed in one place; Algorithm 1 runs on the
//!   pool's speeds, so every job keeps its exactly-`k` chunk coverage;
//!   infeasible jobs degrade to conventional coded computing, alone.
//! * [`engine`] — the [`engine::ServiceEngine`] tying it together, with
//!   worker churn, §4.3-style timeout recovery, a retry ladder,
//!   work-conserving share rebalancing at every resident-set change,
//!   and optional batching of jobs that share a model. Execution is pluggable
//!   ([`engine::BackendKind`]): timing-only simulation,
//!   master-side verified numerics, or real OS-thread workers over
//!   [`s2c2_cluster::threaded::ThreadedCluster`] with an encode cache
//!   shared across recurring jobs.
//! * [`metrics`] — service-level reporting: sojourn-latency percentiles
//!   (p50/p95/p99), throughput, utilization, mean and peak queue depth, and
//!   per-tenant QoS summaries (on-time ratio, achieved vs entitled
//!   capacity share).
//!
//! # Quickstart
//!
//! ```
//! use s2c2_serve::prelude::*;
//! use s2c2_cluster::ClusterSpec;
//! use s2c2_core::speed_tracker::PredictorSource;
//!
//! # fn main() -> Result<(), s2c2_serve::engine::ServeError> {
//! // A 12-worker pool with two hidden 5x stragglers.
//! let pool = ClusterSpec::builder(12)
//!     .compute_bound()
//!     .stragglers(&[3, 8], 0.2)
//!     .build();
//!
//! // 20 jobs arriving at 1.5 jobs/s from the standard size mix.
//! let jobs = generate_workload(
//!     &ArrivalPattern::Poisson { rate: 1.5 },
//!     &JobPreset::standard_mix(),
//!     20, 3, 12, 42,
//! );
//!
//! let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
//!     predictor: PredictorSource::LastValue,
//! });
//! let report = ServiceEngine::new(pool, cfg)?.run(&jobs)?;
//! assert_eq!(report.completed(), 20);
//! println!("p99 sojourn: {:.3}s", report.latency_percentile(99.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Library code (tests excepted) does not panic and names every variant
// it matches; a justified exception carries
// `#[expect(lint, reason = "…")]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
    )
)]

pub mod admission;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod shared_alloc;
pub mod workload;

pub use admission::{batch_key, BatchKey, QueuePolicy, QueuedJob, ResidentInfo};
pub use engine::{BackendKind, ChurnConfig, SchedulerMode, ServeConfig, ServeError, ServiceEngine};
pub use event::{EventKind, EventQueue, JobId};
pub use metrics::{percentile, JobRecord, ServiceReport, TenantSummary};
pub use s2c2_telemetry::{PhaseTotals, Telemetry, TraceEvent, TraceEventKind};
pub use shared_alloc::{allocate_shared, full_over_available, JobDemand, SharedAssignment};
pub use workload::{generate_workload, ArrivalPattern, JobPreset, JobSpec};

/// One-stop imports for service-engine users.
pub mod prelude {
    pub use crate::admission::QueuePolicy;
    pub use crate::engine::{BackendKind, ChurnConfig, SchedulerMode, ServeConfig, ServiceEngine};
    pub use crate::metrics::{ServiceReport, TenantSummary};
    pub use crate::workload::{generate_workload, ArrivalPattern, JobPreset, JobSpec};
    pub use s2c2_telemetry::{PhaseTotals, Telemetry, TraceEvent, TraceEventKind};
}

/// Lint canary: one deliberately bad item per `clippy.toml` ban and per
/// denied lint, each under the `#[expect]` that must catch it. Deleting a
/// ban, or a `rust-version` below 1.81 (under which clippy skips
/// `allow_attributes`), leaves an expectation unfulfilled, and `-D
/// warnings` turns that into an error. This proves the configuration is
/// wired and each lint fires on this input, not that any crate denies
/// the lint: `#[expect]` sets the level locally, whatever `lib.rs` says.
#[cfg(clippy)]
mod lint_canary {
    #![expect(dead_code, reason = "canary: items exist to be linted, never used")]

    #[expect(clippy::disallowed_types, reason = "canary: HashMap is banned")]
    type Unordered = std::collections::HashMap<u8, u8>;

    #[expect(clippy::disallowed_types, reason = "canary: HashSet is banned")]
    type UnorderedSet = std::collections::HashSet<u8>;

    #[expect(clippy::disallowed_types, reason = "canary: Instant is banned")]
    type WallClock = std::time::Instant;

    #[expect(clippy::disallowed_types, reason = "canary: SystemTime is banned")]
    type Calendar = std::time::SystemTime;

    #[expect(clippy::disallowed_methods, reason = "canary: partial_cmp is banned")]
    fn partial_order(a: f64, b: f64) -> Option<std::cmp::Ordering> {
        a.partial_cmp(&b)
    }

    #[expect(clippy::unwrap_used, reason = "canary: unwrap is denied outside tests")]
    fn unwraps(x: Option<u8>) -> u8 {
        x.unwrap()
    }

    #[expect(clippy::expect_used, reason = "canary: expect is denied")]
    fn expects(x: Option<u8>) -> u8 {
        x.expect("canary")
    }

    #[expect(clippy::panic, reason = "canary: panic! is denied")]
    fn panics() {
        panic!("canary")
    }

    #[expect(clippy::unreachable, reason = "canary: unreachable! is denied")]
    fn unreachables() {
        unreachable!("canary")
    }

    #[expect(clippy::todo, reason = "canary: todo! is denied")]
    fn todos() {
        todo!("canary")
    }

    #[expect(clippy::unimplemented, reason = "canary: unimplemented! is denied")]
    fn unimplementeds() {
        unimplemented!("canary")
    }

    enum Three {
        A,
        B,
        C,
    }

    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "canary: catch-all arms are denied"
    )]
    fn catch_all(t: &Three) -> u8 {
        match t {
            Three::A => 0,
            _ => 1,
        }
    }

    #[expect(
        clippy::match_wildcard_for_single_variants,
        reason = "canary: a catch-all standing for one variant is denied"
    )]
    fn catch_one(t: &Three) -> u8 {
        match t {
            Three::A => 0,
            Three::B => 1,
            _ => 2,
        }
    }

    #[expect(clippy::allow_attributes, reason = "canary: #[allow] is denied")]
    #[allow(unused_mut, reason = "canary")]
    fn allows() {}

    #[expect(
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        reason = "canary: an #[allow] without a reason is denied twice over"
    )]
    #[allow(unused_mut)]
    fn allows_without_reason() {}
}
