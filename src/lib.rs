//! # S²C² — Slack Squeeze Coded Computing
//!
//! Facade crate re-exporting the whole workspace: a production-quality Rust
//! reproduction of *"Slack Squeeze Coded Computing for Adaptive Straggler
//! Mitigation"* (Narra, Lin, Kiamari, Avestimehr, Annavaram — SC '19).
//!
//! The workspace layers are:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | numeric substrate | [`linalg`] | dense matrices/vectors, LU, structured generators |
//! | speed substrate | [`trace`] | worker speed models, cloud-like trace generation |
//! | coding substrate | [`coding`] | (n,k)-MDS and polynomial codecs over ℝ |
//! | forecasting | [`predict`] | from-scratch LSTM + ARIMA speed predictors |
//! | execution | [`cluster`] | discrete-event and threaded cluster engines |
//! | **the paper** | [`core`] | Algorithm 1 allocator, S²C² strategies, job driver |
//! | applications | [`workloads`] | LR, SVM, PageRank, graph filtering, Hessian |
//! | service | [`serve`] | event-driven multi-job engine, shared-cluster S²C² |
//! | observability | [`telemetry`] | trace spans, phase profiles, exporters |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete iterative coded matvec job;
//! the short version:
//!
//! ```
//! use s2c2::prelude::*;
//!
//! // Data: a 1200 x 40 matrix we want to repeatedly multiply with vectors.
//! let a = Matrix::from_fn(1200, 40, |r, c| ((r * 31 + c * 17) % 13) as f64);
//!
//! // A 12-worker cluster where 2 workers are 5x-slow stragglers.
//! let cluster = ClusterSpec::builder(12)
//!     .stragglers(&[3, 7], 0.2)
//!     .build();
//!
//! // Conservative (12, 6) MDS encoding, S2C2 general scheduling.
//! let mut job = CodedJobBuilder::new(a, MdsParams::new(12, 6))
//!     .chunks_per_worker(12)
//!     .strategy(StrategyKind::S2c2General)
//!     .build(cluster)
//!     .expect("valid configuration");
//!
//! let x = Vector::filled(40, 1.0);
//! let out = job.run_iteration(&x).expect("iteration succeeds");
//! assert_eq!(out.result.len(), 1200);
//! ```

pub use s2c2_cluster as cluster;
pub use s2c2_coding as coding;
pub use s2c2_core as core;
pub use s2c2_linalg as linalg;
pub use s2c2_predict as predict;
pub use s2c2_serve as serve;
pub use s2c2_telemetry as telemetry;
pub use s2c2_trace as trace;
pub use s2c2_workloads as workloads;

/// One-stop imports for applications built on S²C².
pub mod prelude {
    pub use s2c2_cluster::spec::ClusterSpec;
    pub use s2c2_coding::mds::MdsParams;
    pub use s2c2_core::job::{CodedJob, CodedJobBuilder};
    pub use s2c2_core::strategy::StrategyKind;
    pub use s2c2_linalg::{Matrix, Vector};
    pub use s2c2_serve::prelude::{
        generate_workload, ArrivalPattern, BackendKind, ChurnConfig, JobPreset, JobSpec,
        QueuePolicy, SchedulerMode, ServeConfig, ServiceEngine, ServiceReport, TenantSummary,
    };
}
