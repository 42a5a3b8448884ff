//! Workload-distribution strategies.
//!
//! Everything the paper compares lives here behind one trait:
//!
//! | Strategy | Paper role |
//! |---|---|
//! | [`MdsStrategy::uncoded`] | even split, wait for all (§2's strawman): the degenerate `(n, n)` code |
//! | [`ReplicationStrategy`] | uncoded r-replication + speculative re-execution (Hadoop/LATE-like, §7.1 baseline) |
//! | [`MdsStrategy`] | conventional (n,k)-MDS coded computation (Lee et al., §7.1/7.2 baseline) |
//! | [`S2c2Strategy`] | **the contribution**: basic & general S²C² (§4) |
//! | [`OverDecompositionStrategy`] | Charm++-style over-decomposition + prediction-driven rebalancing (§7.2 baseline) |
//! | [`poly`] | polynomial-coded Hessian, conventional vs S²C²-scheduled (§5, Fig 12) |
//!
//! The coded strategies (uncoded, MDS, both S²C² variants, both
//! polynomial schedulers) all schedule through the one §4.3 round planner
//! in [`round`]; [`mds`] and [`poly`] add only their numeric tails, and
//! [`s2c2`] the adaptive predict → allocate → observe loop around it.

pub mod mds;
pub mod overdecomp;
mod partitions;
pub mod poly;
pub mod replication;
pub mod round;
pub mod s2c2;

pub use mds::MdsStrategy;
pub use overdecomp::OverDecompositionStrategy;
pub use replication::ReplicationStrategy;
pub use s2c2::S2c2Strategy;

use crate::error::S2c2Error;
use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::ClusterSim;
use s2c2_coding::cache::CachedEncoding;
use s2c2_linalg::Vector;
use std::sync::Arc;

/// Result of one strategy iteration.
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// The computed `A·x` (exact, up to floating point round-off).
    pub result: Vector,
    /// Accounting for the round.
    pub metrics: RoundMetrics,
}

/// A workload-distribution strategy for iterative distributed matvec jobs.
///
/// The contract: `run_iteration` must call
/// [`ClusterSim::begin_iteration`] exactly once, produce the numerically
/// correct product, and fill a [`RoundMetrics`] that satisfies work
/// conservation.
pub trait MatvecStrategy: Send {
    /// Human-readable name (used by the bench harness's tables).
    fn name(&self) -> String;

    /// Executes iteration `iteration` with input vector `x`.
    ///
    /// # Errors
    ///
    /// Strategy-specific failures (not enough live workers, decode
    /// failures) surface as [`S2c2Error`].
    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        x: &Vector,
    ) -> Result<IterationOutcome, S2c2Error>;

    /// The exact product `A·x` from the data the strategy stores, on
    /// every host core once the matrix is large enough. It runs no round
    /// and never touches the cluster. The coded strategies (uncoded, MDS,
    /// S²C²) keep the systematic part of it: their next round on
    /// bit-identical `x` computes only the parity responses it chose.
    ///
    /// # Errors
    ///
    /// [`S2c2Error::InvalidConfig`] unless `x` has one entry per column
    /// of `A`.
    fn product(&self, x: &Vector) -> Result<Vector, S2c2Error>;

    /// Bytes of input data each worker must store up front.
    fn storage_bytes_per_worker(&self) -> u64;

    /// The MDS encoding the strategy computes against, for the
    /// strategies that run on one (conventional MDS, uncoded, S²C²);
    /// jobs built over a shared encoding return that very allocation.
    fn encoding(&self) -> Option<&Arc<CachedEncoding>> {
        None
    }
}

/// [`S2c2Error::InvalidConfig`] unless the input `x` has one entry per
/// column of a `cols`-column matrix: checked before anything computes,
/// so a wrong-length input is a typed error rather than a kernel panic.
pub(crate) fn check_input(x: &Vector, cols: usize) -> Result<(), S2c2Error> {
    if x.len() == cols {
        Ok(())
    } else {
        Err(S2c2Error::InvalidConfig(format!(
            "input has {} entries, the matrix {cols} columns",
            x.len()
        )))
    }
}

/// Selector used by the [`crate::job::CodedJobBuilder`] facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Even uncoded split, wait for every worker.
    Uncoded,
    /// Uncoded r-replication with speculative re-execution.
    Replication,
    /// Conventional (n,k)-MDS coded computation.
    MdsCoded,
    /// Basic S²C²: stragglers excluded, equal split among the rest.
    S2c2Basic,
    /// General S²C²: Algorithm 1 on predicted speeds.
    S2c2General,
    /// Charm++-style over-decomposition with prediction-driven rebalancing.
    OverDecomposition,
}

impl StrategyKind {
    /// All kinds, in the order the paper's figures list them.
    #[must_use]
    pub fn all() -> [StrategyKind; 6] {
        [
            StrategyKind::Uncoded,
            StrategyKind::Replication,
            StrategyKind::MdsCoded,
            StrategyKind::S2c2Basic,
            StrategyKind::S2c2General,
            StrategyKind::OverDecomposition,
        ]
    }

    /// Whether the strategy runs on an `(n, k)`-MDS encoding of the
    /// matrix under the job's own code — conventional MDS and both S²C²
    /// variants — and so can share one with other jobs.
    #[must_use]
    pub fn runs_on_mds_encoding(self) -> bool {
        match self {
            StrategyKind::MdsCoded | StrategyKind::S2c2Basic | StrategyKind::S2c2General => true,
            StrategyKind::Uncoded | StrategyKind::Replication | StrategyKind::OverDecomposition => {
                false
            }
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StrategyKind::Uncoded => "uncoded",
            StrategyKind::Replication => "replication",
            StrategyKind::MdsCoded => "mds",
            StrategyKind::S2c2Basic => "s2c2-basic",
            StrategyKind::S2c2General => "s2c2-general",
            StrategyKind::OverDecomposition => "over-decomposition",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display_names() {
        assert_eq!(StrategyKind::S2c2General.to_string(), "s2c2-general");
        assert_eq!(StrategyKind::all().len(), 6);
    }

    #[test]
    fn product_is_the_matrix_product_for_every_kind_at_every_thread_count() {
        use crate::strategy::mds::CodedMatvec;
        use crate::strategy::partitions::RowPartitions;
        use s2c2_coding::mds::MdsParams;
        use s2c2_linalg::parallel::should_spawn;
        use s2c2_linalg::Matrix;

        // 1 001 rows: a multiple of neither 6 · 7 nor 12 · 7, so both
        // codes pad; 40 columns put the product past the spawn cutoff.
        let a = Matrix::from_fn(1_001, 40, |r, c| ((r * 7 + c * 3) % 19) as f64 / 3.0 - 2.5);
        let x = Vector::from_fn(40, |i| (i as f64 * 0.37).sin());
        assert!(should_spawn(a.rows(), a.cols(), 2));
        let bits = |v: &Vector| v.as_slice().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let expect = bits(&a.matvec(&x));
        let (n, k, chunks) = (12, 6, 7);
        for kind in StrategyKind::all() {
            // What each kind computes the product from, as its strategy
            // builds it.
            let product = |threads| match kind {
                StrategyKind::Uncoded => CodedMatvec::new(&a, MdsParams::new(n, n), chunks)
                    .unwrap()
                    .product_with_threads(&x, threads)
                    .unwrap(),
                StrategyKind::MdsCoded | StrategyKind::S2c2Basic | StrategyKind::S2c2General => {
                    CodedMatvec::new(&a, MdsParams::new(n, k), chunks)
                        .unwrap()
                        .product_with_threads(&x, threads)
                        .unwrap()
                }
                StrategyKind::Replication => {
                    RowPartitions::split(&a, n).matvec_concat_with_threads(&x, threads)
                }
                StrategyKind::OverDecomposition => {
                    RowPartitions::split(&a, 4 * n).matvec_concat_with_threads(&x, threads)
                }
            };
            for threads in [1, 2, 3, 7] {
                assert_eq!(bits(&product(threads)), expect, "{kind}, {threads} threads");
            }
        }
    }
}
