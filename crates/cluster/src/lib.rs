//! Cluster execution engines for S²C².
//!
//! The paper evaluates on a 13-node Xeon/InfiniBand cluster and on
//! DigitalOcean droplets. This crate replaces both with two engines that
//! the scheduling layer (`s2c2-core`) drives interchangeably:
//!
//! * [`sim::ClusterSim`] — a deterministic analytic/discrete-event
//!   simulator. Worker speeds come from `s2c2-trace` models sampled once
//!   per iteration (the paper's measurement granularity); compute time is
//!   `elements / (relative_speed · throughput)`; transfers are
//!   `latency + bytes / bandwidth`; master-side decode is charged in
//!   flops. Strategies perform the *numeric* work themselves (via
//!   `s2c2-coding`) — the simulator is the *timing* oracle, which is what
//!   makes experiments reproducible and fast while remaining end-to-end
//!   verifiable numerically.
//! * [`threaded::ThreadedCluster`] — a real master/worker executor: one OS
//!   thread per worker, `std::sync::mpsc` channels for task/result
//!   message passing, injected per-worker slowdowns. Integration tests
//!   run the same strategies on this engine to validate the concurrency
//!   path (ordering, lost-straggler behaviour, shutdown).
//!
//! [`metrics`] defines the per-round and per-job accounting every figure
//! of the paper is computed from: completion latency, per-worker wasted
//! computation (Figs 9/11), bytes moved by rebalancing (Figs 3/8/10), and
//! effective storage. [`churn`] adds epoch-sampled worker availability
//! chains for long-lived shared pools (the `s2c2-serve` engine).

#![warn(missing_docs)]
// Library code (tests excepted) does not panic; a site that provably
// cannot carries `#[expect(lint, reason = "…")]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

pub mod churn;
pub mod comm;
pub mod metrics;
pub mod sim;
pub mod spec;
pub mod threaded;

pub use churn::ChurnProcess;
pub use comm::{CommModel, ComputeModel};
pub use metrics::{JobMetrics, RoundMetrics};
pub use sim::ClusterSim;
pub use spec::ClusterSpec;
