//! The paper's evaluation workloads, running on coded distributed matvec.
//!
//! §6.3: *"We evaluated S²C² on MDS using the following linear algebraic
//! algorithms: Logistic Regression, Support Vector Machine, Page Rank and
//! Graph Filtering … We further evaluate S²C² on polynomial coding for
//! computing the Hessian matrix."* This crate implements all five, each
//! parameterized over the scheduling strategy via `s2c2-core`'s job API:
//!
//! * [`logreg::DistributedLogReg`] — gradient descent on a gisette-like
//!   dataset; forward (`A·w`) and backward (`Aᵀ·g`) products both run as
//!   coded jobs.
//! * [`svm::DistributedSvm`] — hinge-loss subgradient descent, same
//!   structure.
//! * [`pagerank::DistributedPageRank`] — power iteration over a
//!   column-stochastic link matrix from a power-law graph.
//! * [`graph_filter::DistributedGraphFilter`] — n-hop combinatorial
//!   Laplacian filtering (repeated `L·x`).
//! * [`hessian::DistributedHessian`] — `Aᵀ·diag(w)·A` on polynomial
//!   codes (conventional vs S²C²-scheduled).
//!
//! [`datasets`] generates the data substitutes: the UCI gisette set and
//! the Toronto ranking graph are replaced by statistically similar
//! synthetic generators.

#![warn(missing_docs)]

pub mod datasets;
pub mod exec;
pub mod graph_filter;
pub mod hessian;
pub mod logreg;
pub mod pagerank;
pub mod svm;

pub use exec::ExecConfig;
