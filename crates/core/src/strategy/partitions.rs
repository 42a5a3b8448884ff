//! Row partitions of the uncoded baselines (replication and
//! over-decomposition): the matrix cut into consecutive near-even row
//! blocks, whose products concatenate to `A·x` with nothing to decode.

use crate::error::S2c2Error;
use crate::strategy::check_input;
use s2c2_linalg::parallel::{host_threads, par_map, should_spawn};
use s2c2_linalg::{Matrix, Vector};

/// A matrix split into consecutive row blocks.
pub(super) struct RowPartitions {
    blocks: Vec<Matrix>,
    rows: usize,
    cols: usize,
}

impl RowPartitions {
    /// Cuts `a` into `parts` consecutive blocks whose sizes differ by at
    /// most one row (the first `rows % parts` blocks take the extra row).
    pub(super) fn split(a: &Matrix, parts: usize) -> Self {
        let base = a.rows() / parts;
        let extra = a.rows() % parts;
        let mut start = 0;
        let blocks = (0..parts)
            .map(|p| {
                let end = start + base + usize::from(p < extra);
                let block = a.row_block(start, end);
                start = end;
                block
            })
            .collect();
        RowPartitions {
            blocks,
            rows: a.rows(),
            cols: a.cols(),
        }
    }

    /// Number of partitions.
    pub(super) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Rows of partition `p`.
    pub(super) fn rows(&self, p: usize) -> usize {
        self.blocks[p].rows()
    }

    /// Bytes moved when partition `p` is shipped to another worker.
    pub(super) fn payload_bytes(&self, p: usize) -> u64 {
        self.blocks[p].payload_bytes()
    }

    /// [`S2c2Error::InvalidConfig`] unless `x` has one entry per column.
    pub(super) fn check_input(&self, x: &Vector) -> Result<(), S2c2Error> {
        check_input(x, self.cols)
    }

    /// `A·x`: the partition products, concatenated in order, on every
    /// host core once the matrix is large enough.
    pub(super) fn matvec_concat(&self, x: &Vector) -> Vector {
        self.matvec_concat_with_threads(x, host_threads())
    }

    /// [`Self::matvec_concat`] on up to `threads` OS threads; the result
    /// is the same for any `threads`.
    pub(super) fn matvec_concat_with_threads(&self, x: &Vector, threads: usize) -> Vector {
        let threads = if should_spawn(self.rows, self.cols, threads) {
            threads
        } else {
            1
        };
        let parts = par_map(&self.blocks, threads, |block| block.matvec(x).into_vec());
        Vector::from(parts.concat())
    }
}
