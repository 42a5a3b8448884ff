//! Over-decomposition geometry shared by the MDS and polynomial codecs.
//!
//! A data matrix with `original_rows` rows is padded and split into
//! `data_partitions` (k, or a for polynomial codes) equal row blocks; each
//! block — and therefore each worker's *coded* partition — is further split
//! into `chunks_per_partition` equal row chunks. S²C² assigns work at chunk
//! granularity, and decoding recovers the output chunk-by-chunk from
//! whichever workers computed a given chunk index.

use crate::error::CodingError;
use std::ops::Range;

/// Geometry of the padded, partitioned, chunked data matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLayout {
    /// Rows of the original (unpadded) data matrix.
    pub original_rows: usize,
    /// Rows after zero-padding (divisible by `data_partitions · chunks`).
    pub padded_rows: usize,
    /// Number of data partitions (`k` for MDS, `a` for polynomial codes).
    pub data_partitions: usize,
    /// Chunks per partition (the over-decomposition factor × base chunks).
    pub chunks_per_partition: usize,
}

impl ChunkLayout {
    /// Computes the layout, padding `original_rows` up so it divides evenly.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParams`] when any dimension is zero.
    pub fn new(
        original_rows: usize,
        data_partitions: usize,
        chunks_per_partition: usize,
    ) -> Result<Self, CodingError> {
        if original_rows == 0 {
            return Err(CodingError::InvalidParams("matrix has zero rows".into()));
        }
        if data_partitions == 0 {
            return Err(CodingError::InvalidParams(
                "need at least one partition".into(),
            ));
        }
        if chunks_per_partition == 0 {
            return Err(CodingError::InvalidParams("need at least one chunk".into()));
        }
        let unit = data_partitions * chunks_per_partition;
        let padded_rows = original_rows.div_ceil(unit) * unit;
        Ok(ChunkLayout {
            original_rows,
            padded_rows,
            data_partitions,
            chunks_per_partition,
        })
    }

    /// Rows in each (coded or data) partition.
    #[must_use]
    pub fn partition_rows(&self) -> usize {
        self.padded_rows / self.data_partitions
    }

    /// Rows in each chunk.
    #[must_use]
    pub fn rows_per_chunk(&self) -> usize {
        self.partition_rows() / self.chunks_per_partition
    }

    /// Row range of chunk `chunk` *within a partition*.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    #[must_use]
    pub fn chunk_range_in_partition(&self, chunk: usize) -> Range<usize> {
        assert!(
            chunk < self.chunks_per_partition,
            "chunk index out of range"
        );
        let rpc = self.rows_per_chunk();
        chunk * rpc..(chunk + 1) * rpc
    }

    /// Row range in the *padded output* covered by `(partition, chunk)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn output_range(&self, partition: usize, chunk: usize) -> Range<usize> {
        assert!(
            partition < self.data_partitions,
            "partition index out of range"
        );
        let local = self.chunk_range_in_partition(chunk);
        let base = partition * self.partition_rows();
        base + local.start..base + local.end
    }
}

/// One worker's reply for one chunk of its coded partition: a
/// contiguous `rows × members` block of values (row-major,
/// member-minor — element `(row, member)` lives at `row * members +
/// member`).
///
/// This is the one wire format of the coding layer. An MDS reply is
/// the chunk's `rows_per_chunk` rows against `members` stacked
/// right-hand sides; a single right-hand side is the one-member block.
/// A polynomial reply is a one-member block whose values are the row-major
/// flattening of the chunk's `rows_per_chunk × cols_per_partition`
/// product. Decoders consume the block as shipped, without
/// per-member de-interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChunkResult {
    /// Responding worker id (`0..n`).
    pub worker: usize,
    /// Chunk index within the worker's partition.
    pub chunk: usize,
    /// Number of stacked right-hand sides.
    pub members: usize,
    /// Row-major `rows × members` block of computed values.
    pub values: Vec<f64>,
}

impl MultiChunkResult {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `members == 0` or `values.len()` is not a multiple of
    /// `members`.
    #[must_use]
    pub fn new(worker: usize, chunk: usize, members: usize, values: Vec<f64>) -> Self {
        assert!(members > 0, "a stacked result needs at least one member");
        assert_eq!(
            values.len() % members,
            0,
            "stacked payload length must be a multiple of the member count"
        );
        MultiChunkResult {
            worker,
            chunk,
            members,
            values,
        }
    }
}

/// Replies grouped by chunk in a `(chunk, worker)` slot table: slot
/// `chunk · workers + worker` holds that pair's reply, if any.
///
/// Reading a chunk's slots upward yields its replies in ascending
/// worker order whatever order they arrived in, so a decoder that keeps
/// the lowest worker ids takes the first ones it reads, without sorting.
pub(crate) struct ChunkReplies<'a> {
    workers: usize,
    slots: Vec<Option<&'a MultiChunkResult>>,
}

impl<'a> ChunkReplies<'a> {
    /// `chunk`'s replies in ascending worker order.
    pub(crate) fn replies(&self, chunk: usize) -> impl Iterator<Item = &'a MultiChunkResult> + '_ {
        self.slots[chunk * self.workers..(chunk + 1) * self.workers]
            .iter()
            .filter_map(|slot| *slot)
    }
}

/// Groups blocks by chunk in one pass, validating worker/chunk bounds,
/// a uniform member count, payload length (`values_per_member ×
/// members`), and duplicate `(worker, chunk)` pairs.
///
/// # Errors
///
/// [`CodingError::MalformedResponse`] on out-of-range indices, a member
/// count differing from `members`, or wrong payload length;
/// [`CodingError::DuplicateResponse`] on duplicates. The first invalid
/// block in `responses` order is the one reported.
pub(crate) fn group_blocks_by_chunk<'a>(
    responses: &'a [MultiChunkResult],
    workers: usize,
    layout: &ChunkLayout,
    members: usize,
    values_per_member: usize,
) -> Result<ChunkReplies<'a>, CodingError> {
    let chunks = layout.chunks_per_partition;
    let mut slots = vec![None; chunks * workers];
    for r in responses {
        if r.worker >= workers {
            return Err(CodingError::MalformedResponse(format!(
                "worker {} out of range (n = {workers})",
                r.worker
            )));
        }
        if r.chunk >= chunks {
            return Err(CodingError::MalformedResponse(format!(
                "chunk {} out of range ({chunks} chunks per partition)",
                r.chunk
            )));
        }
        if r.members != members {
            return Err(CodingError::MalformedResponse(format!(
                "stacked block has {} members, expected {members}",
                r.members
            )));
        }
        if r.values.len() != values_per_member * members {
            return Err(CodingError::MalformedResponse(format!(
                "stacked payload has {} values, expected {}",
                r.values.len(),
                values_per_member * members
            )));
        }
        let slot = &mut slots[r.chunk * workers + r.worker];
        if slot.is_some() {
            return Err(CodingError::DuplicateResponse {
                worker: r.worker,
                chunk: r.chunk,
            });
        }
        *slot = Some(r);
    }
    Ok(ChunkReplies { workers, slots })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division_no_padding() {
        let l = ChunkLayout::new(120, 4, 3).unwrap();
        assert_eq!(l.padded_rows, 120);
        assert_eq!(l.partition_rows(), 30);
        assert_eq!(l.rows_per_chunk(), 10);
    }

    #[test]
    fn padding_rounds_up() {
        let l = ChunkLayout::new(100, 4, 3).unwrap();
        assert_eq!(l.padded_rows, 108);
    }

    #[test]
    fn ranges_are_consistent() {
        let l = ChunkLayout::new(120, 4, 3).unwrap();
        assert_eq!(l.chunk_range_in_partition(0), 0..10);
        assert_eq!(l.chunk_range_in_partition(2), 20..30);
        assert_eq!(l.output_range(0, 0), 0..10);
        assert_eq!(l.output_range(1, 0), 30..40);
        assert_eq!(l.output_range(3, 2), 110..120);
    }

    #[test]
    fn output_ranges_tile_whole_matrix() {
        let l = ChunkLayout::new(97, 5, 4).unwrap();
        let mut covered = vec![false; l.padded_rows];
        for p in 0..l.data_partitions {
            for c in 0..l.chunks_per_partition {
                for r in l.output_range(p, c) {
                    assert!(!covered[r], "row {r} covered twice");
                    covered[r] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "every padded row covered once");
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(ChunkLayout::new(0, 2, 2).is_err());
        assert!(ChunkLayout::new(10, 0, 2).is_err());
        assert!(ChunkLayout::new(10, 2, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn chunk_range_bounds() {
        let l = ChunkLayout::new(40, 2, 2).unwrap();
        let _ = l.chunk_range_in_partition(2);
    }

    #[test]
    #[should_panic(expected = "multiple of the member count")]
    fn multi_chunk_result_rejects_ragged_payload() {
        let _ = MultiChunkResult::new(0, 0, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn group_blocks_by_chunk_validates() {
        let l = ChunkLayout::new(40, 2, 2).unwrap();
        let rpc = l.rows_per_chunk();
        // (members, values per member): a stacked MDS reply, a
        // one-member MDS reply, and a polynomial-sized one-member reply
        // (`rows_per_chunk × 4` product columns).
        for (members, vpm) in [(3, rpc), (1, rpc), (1, rpc * 4)] {
            let block = |worker, chunk| {
                MultiChunkResult::new(worker, chunk, members, vec![0.0; vpm * members])
            };
            // Per chunk, the workers that replied, in the order the
            // grouping hands them out.
            let group = |blocks: &[MultiChunkResult]| {
                group_blocks_by_chunk(blocks, 3, &l, members, vpm).map(|g| {
                    (0..l.chunks_per_partition)
                        .map(|c| g.replies(c).map(|r| r.worker).collect())
                        .collect::<Vec<_>>()
                })
            };
            assert_eq!(
                group(&[block(0, 0), block(1, 0), block(0, 1)]),
                Ok(vec![vec![0, 1], vec![0]])
            );
            // Ascending worker order whatever the arrival order.
            assert_eq!(
                group(&[
                    block(2, 1),
                    block(1, 0),
                    block(0, 1),
                    block(2, 0),
                    block(1, 1)
                ]),
                Ok(vec![vec![1, 2], vec![0, 1, 2]])
            );
            assert_eq!(
                group(&[block(0, 0), block(0, 0)]),
                Err(CodingError::DuplicateResponse {
                    worker: 0,
                    chunk: 0
                })
            );
            let wrong_members =
                MultiChunkResult::new(0, 0, members + 1, vec![0.0; vpm * (members + 1)]);
            assert!(group(&[wrong_members]).is_err());
            assert!(group(&[block(9, 0)]).is_err(), "worker out of range");
            assert!(group(&[block(0, 7)]).is_err(), "chunk out of range");
            let bad_len = MultiChunkResult::new(0, 0, members, vec![0.0; (vpm + 1) * members]);
            assert!(group(&[bad_len]).is_err());
        }
    }
}
