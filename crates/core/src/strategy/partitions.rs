//! Row partitions of the uncoded baselines (replication and
//! over-decomposition): the matrix cut into consecutive near-even row
//! blocks, whose products concatenate to `A·x` with nothing to decode.

use s2c2_linalg::{Matrix, Vector};

/// A matrix split into consecutive row blocks.
pub(super) struct RowPartitions {
    blocks: Vec<Matrix>,
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
        RowPartitions { blocks }
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

    /// `A·x`: the partition products, concatenated in order.
    pub(super) fn matvec_concat(&self, x: &Vector) -> Vector {
        let mut out = Vec::with_capacity(self.blocks.iter().map(Matrix::rows).sum());
        for block in &self.blocks {
            out.extend_from_slice(block.matvec(x).as_slice());
        }
        Vector::from(out)
    }
}
