//! Encode-once cache for recurring model matrices.
//!
//! Encoding is the one expensive, *amortizable* step of the coded
//! pipeline: `O(rows · cols · (n − k))` flops into `n − k` parity
//! partitions, paid before a single useful matvec runs. The encoding
//! holds the source matrix itself (the systematic partitions) plus that
//! parity, so an entry costs the matrix once plus `(n − k)/k` of it. A
//! serving system sees the same model matrix over and over (trace
//! workloads re-submit identical models under fresh job ids), so
//! re-encoding per job throws that amortization away — the observation
//! the serverless/rateless straggler-mitigation line of work makes about
//! deployed systems.
//!
//! [`EncodeCache`] memoizes `(matrix identity, code geometry) →
//! (code, encoding)` behind [`std::sync::Arc`], so concurrent
//! executors (one [`crate::mds::EncodedMatrix`] shared by many worker
//! threads) alias one allocation. Hit/miss counters are exposed for
//! service-level reporting.

use crate::error::CodingError;
use crate::mds::{EncodedMatrix, MdsCode, MdsParams};
use s2c2_linalg::Matrix;
use std::sync::Arc;

/// Identity of one encoding: *which* matrix under *which* code geometry.
///
/// `matrix_id` is caller-assigned identity (two jobs sharing an id claim
/// to carry the same matrix); the shape fields guard against id collisions
/// across differently-shaped matrices, and the code fields capture that
/// the same matrix under a different `(n, k)` or chunking is a different
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodeKey {
    /// Caller-assigned matrix identity.
    pub matrix_id: u64,
    /// Matrix rows (collision guard).
    pub rows: usize,
    /// Matrix columns (collision guard).
    pub cols: usize,
    /// Code length `n`.
    pub n: usize,
    /// Recovery threshold `k`.
    pub k: usize,
    /// Over-decomposition chunks per partition.
    pub chunks_per_partition: usize,
}

/// One cached encoding: the code (needed to decode) plus the encoding
/// (what workers compute against: the source matrix and its parity).
#[derive(Debug, Clone)]
pub struct CachedEncoding {
    /// The `(n, k)` MDS code the matrix was encoded with.
    pub code: MdsCode,
    /// The encoding: the source matrix plus its parity partitions.
    pub encoded: EncodedMatrix,
}

/// Memoizes encodings by [`EncodeKey`], counting hits and misses.
#[derive(Debug, Default)]
pub struct EncodeCache {
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only: the map is never iterated, so its order reaches no output"
    )]
    map: std::collections::HashMap<EncodeKey, Arc<CachedEncoding>>,
    hits: u64,
    misses: u64,
    encode_seconds: f64,
}

impl EncodeCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        EncodeCache::default()
    }

    /// Returns the cached encoding for `key`, building (and memoizing)
    /// it from `matrix()` on a miss. The matrix closure is only invoked
    /// on misses, so recurring jobs skip both materialization and
    /// encoding.
    ///
    /// # Errors
    ///
    /// Propagates [`CodingError`] from code construction or encoding on
    /// a miss, and returns [`CodingError::InvalidParams`] when the matrix
    /// built on a miss is not the `rows × cols` the key claims; errors
    /// are not cached.
    pub fn get_or_encode(
        &mut self,
        key: EncodeKey,
        matrix: impl FnOnce() -> Matrix,
    ) -> Result<Arc<CachedEncoding>, CodingError> {
        if let Some(hit) = self.map.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(hit));
        }
        self.misses += 1;
        #[expect(
            clippy::disallowed_types,
            reason = "measurement site: encode_seconds reports host time and feeds no decision"
        )]
        let t0 = std::time::Instant::now();
        let code = MdsCode::new(MdsParams { n: key.n, k: key.k })?;
        let a = matrix();
        if a.shape() != (key.rows, key.cols) {
            return Err(CodingError::InvalidParams(format!(
                "matrix {} is {} x {}, but its key claims {} x {}",
                key.matrix_id,
                a.rows(),
                a.cols(),
                key.rows,
                key.cols
            )));
        }
        let encoded = code.encode(a, key.chunks_per_partition)?;
        self.encode_seconds += t0.elapsed().as_secs_f64();
        let entry = Arc::new(CachedEncoding { code, encoded });
        self.map.insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// Lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to encode.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total wall-clock seconds spent building encodings on the miss
    /// path (matrix materialization included — on a miss it happens
    /// solely to be encoded). Hits cost nothing here; the ratio of this
    /// to run time is the amortization the cache buys.
    #[must_use]
    pub fn encode_seconds(&self) -> f64 {
        self.encode_seconds
    }

    /// Distinct encodings held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no encodings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_linalg::{MultiVector, Vector};

    fn key(matrix_id: u64, n: usize, k: usize, chunks: usize) -> EncodeKey {
        EncodeKey {
            matrix_id,
            rows: 60,
            cols: 5,
            n,
            k,
            chunks_per_partition: chunks,
        }
    }

    fn matrix() -> Matrix {
        Matrix::from_fn(60, 5, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0)
    }

    #[test]
    fn second_lookup_hits_and_aliases() {
        let mut cache = EncodeCache::new();
        let a = cache.get_or_encode(key(1, 6, 4, 3), matrix).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let mut built_again = false;
        let b = cache
            .get_or_encode(key(1, 6, 4, 3), || {
                built_again = true;
                matrix()
            })
            .unwrap();
        assert!(!built_again, "hits must not rebuild the matrix");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "hits alias one allocation");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_identities_and_geometries_miss() {
        let mut cache = EncodeCache::new();
        cache.get_or_encode(key(1, 6, 4, 3), matrix).unwrap();
        cache.get_or_encode(key(2, 6, 4, 3), matrix).unwrap();
        cache.get_or_encode(key(1, 6, 3, 3), matrix).unwrap();
        cache.get_or_encode(key(1, 6, 4, 5), matrix).unwrap();
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cached_encoding_decodes_correctly() {
        let mut cache = EncodeCache::new();
        let entry = cache.get_or_encode(key(9, 5, 3, 2), matrix).unwrap();
        let a = matrix();
        let x = Vector::from_fn(5, |i| 1.0 + i as f64 * 0.5);
        let chunks: Vec<usize> = (0..entry.encoded.layout().chunks_per_partition).collect();
        let xs = MultiVector::single(&x);
        let responses: Vec<_> = [0usize, 2, 4]
            .iter()
            .flat_map(|&w| entry.encoded.worker_compute_chunks_multi(w, &chunks, &xs))
            .collect();
        let y = entry
            .code
            .decode_matvec_multi(entry.encoded.layout(), &responses)
            .unwrap();
        s2c2_linalg::assert_slices_close(y[0].as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn invalid_geometry_errors_and_is_not_cached() {
        let mut cache = EncodeCache::new();
        assert!(cache.get_or_encode(key(1, 3, 4, 2), matrix).is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn wrong_shaped_matrix_errors_and_is_not_cached() {
        let mut cache = EncodeCache::new();
        let lying = cache.get_or_encode(key(1, 6, 4, 3), || Matrix::zeros(59, 5));
        assert!(matches!(lying, Err(CodingError::InvalidParams(_))));
        assert!(cache.is_empty());
        // The key stays free for the matrix it does describe.
        cache.get_or_encode(key(1, 6, 4, 3), matrix).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 1));
    }

    #[test]
    fn encode_time_accrues_on_misses_only() {
        let mut cache = EncodeCache::new();
        assert_eq!(cache.encode_seconds(), 0.0);
        cache.get_or_encode(key(1, 6, 4, 3), matrix).unwrap();
        let after_miss = cache.encode_seconds();
        assert!(after_miss > 0.0, "a miss spends encode time");
        cache.get_or_encode(key(1, 6, 4, 3), matrix).unwrap();
        assert_eq!(cache.encode_seconds(), after_miss, "hits are free");
    }

    #[test]
    fn empty_cache_reports_zero() {
        let cache = EncodeCache::new();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }
}
