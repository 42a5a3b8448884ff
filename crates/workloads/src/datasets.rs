//! Synthetic stand-ins for the paper's datasets.
//!
//! * [`gisette_like`] replaces the UCI gisette digits data: two Gaussian
//!   class blobs in high dimension, labels ±1. Gradient-descent cost per
//!   iteration depends only on the matrix shape, and the two-blob
//!   structure keeps accuracy meaningfully improvable, which is all the
//!   experiments need.
//! * [`power_law_graph`] replaces the Toronto ranking dataset: a
//!   Barabási–Albert-style preferential-attachment digraph whose heavy
//!   tailed degree distribution matches web-graph ranking inputs.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use s2c2_coding::cache::CachedEncoding;
use s2c2_coding::mds::{MdsCode, MdsParams};
use s2c2_core::S2c2Error;
use s2c2_linalg::parallel::{host_threads, par_for_each_mut, should_spawn};
use s2c2_linalg::{Matrix, Vector};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// A labelled binary classification dataset.
///
/// The features sit behind an [`Arc`] so every trainer built over the
/// dataset shares them, and the dataset remembers the MDS encodings
/// handed out for them ([`Self::encoding`]): an MDS and an S²C² trainer
/// over one dataset compute against the same coded partitions. Each
/// encoding holds the features' `Arc` itself (its systematic
/// partitions), so the features are never copied.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Feature matrix, one example per row.
    pub features: Arc<Matrix>,
    /// Labels in {−1, +1}, one per row.
    pub labels: Vector,
    encodings: EncodingMemo,
}

/// Which matrix of a dataset an encoding codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The features `A`: the forward product `A·w`.
    Features,
    /// Their transpose `Aᵀ`: the backward product `Aᵀ·g`.
    Transposed,
}

impl Classification {
    /// A dataset over `features`, one example per row, with its labels.
    #[must_use]
    pub fn new(features: impl Into<Arc<Matrix>>, labels: Vector) -> Self {
        Classification {
            features: features.into(),
            labels,
            encodings: EncodingMemo::default(),
        }
    }

    /// The `(n, k)`-MDS encoding of the features (or of their
    /// transpose) with `chunks_per_partition`-way chunking, encoded on
    /// first use and shared with every caller while any of them holds
    /// it.
    ///
    /// The encoding holds the features themselves (another strong
    /// reference to [`Self::features`]) as its systematic partitions, plus
    /// its own `n − k` parity partitions: the features live as long as
    /// the dataset or any encoding on them.
    ///
    /// The dataset keeps only weak references: once every job on an
    /// encoding is dropped its parity is freed, and the next request
    /// encodes afresh. An encoding belongs to the features allocation it
    /// was made from, so assigning new features misses rather than
    /// returning a stale encoding (which keeps the old features alive
    /// while a job holds it).
    ///
    /// # Errors
    ///
    /// Propagates invalid code parameters and degenerate shapes.
    pub fn encoding(
        &self,
        orientation: Orientation,
        params: MdsParams,
        chunks_per_partition: usize,
    ) -> Result<Arc<CachedEncoding>, S2c2Error> {
        let key = MemoKey {
            orientation,
            params,
            chunks_per_partition,
        };
        // The memo holds only weak references, so a panic elsewhere
        // cannot leave it inconsistent.
        let mut entries = self
            .encodings
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        entries.retain(|e| e.encoding.strong_count() > 0);
        let features = Arc::as_ptr(&self.features);
        let hit = entries
            .iter()
            .find(|e| e.key == key && std::ptr::eq(e.source.as_ptr(), features))
            .and_then(|e| e.encoding.upgrade());
        if let Some(encoding) = hit {
            return Ok(encoding);
        }
        let code = MdsCode::new(params)?;
        let encoded = match orientation {
            Orientation::Features => {
                code.encode(Arc::clone(&self.features), chunks_per_partition)?
            }
            Orientation::Transposed => {
                code.encode_transpose(Arc::clone(&self.features), chunks_per_partition)?
            }
        };
        let encoding = Arc::new(CachedEncoding { code, encoded });
        entries.push(MemoEntry {
            key,
            source: Arc::downgrade(&self.features),
            encoding: Arc::downgrade(&encoding),
        });
        Ok(encoding)
    }

    /// [`S2c2Error::InvalidConfig`] unless there is one label per example.
    pub(crate) fn check_labels(&self) -> Result<(), S2c2Error> {
        if self.labels.len() == self.features.rows() {
            Ok(())
        } else {
            Err(S2c2Error::InvalidConfig(format!(
                "{} labels for {} examples",
                self.labels.len(),
                self.features.rows()
            )))
        }
    }
}

/// The encodings a dataset has handed out, by weak reference.
#[derive(Debug, Default)]
struct EncodingMemo(Mutex<Vec<MemoEntry>>);

impl Clone for EncodingMemo {
    fn clone(&self) -> Self {
        let entries = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        EncodingMemo(Mutex::new(entries.clone()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    orientation: Orientation,
    params: MdsParams,
    chunks_per_partition: usize,
}

#[derive(Debug, Clone)]
struct MemoEntry {
    key: MemoKey,
    /// The features the encoding was made from. While the encoding
    /// lives it holds them strongly; after that the weak reference keeps
    /// the allocation's address from being reused, so pointer equality
    /// with the current features is identity.
    source: Weak<Matrix>,
    encoding: Weak<CachedEncoding>,
}

/// Fraction of rows whose margin sign (`u ≥ 0` predicts +1) matches the
/// ±1 label.
pub(crate) fn sign_accuracy(u: &Vector, labels: &Vector) -> f64 {
    let correct = (0..u.len())
        .filter(|&i| (u[i] >= 0.0) == (labels[i] > 0.0))
        .count();
    correct as f64 / u.len() as f64
}

/// Generates a gisette-like two-class dataset: `rows` examples of `cols`
/// features drawn from two Gaussian blobs separated along a random
/// direction, labels ±1.
///
/// Uses Box–Muller on the seeded RNG, so generation is deterministic.
/// The rows are generated block by block on every host core; each row
/// takes exactly `2 · cols` draws, so every block starts from the
/// generator stepped sequentially to its first row and the output is
/// bit-identical for any core count.
///
/// # Panics
///
/// Panics on zero rows/cols.
#[must_use]
pub fn gisette_like(rows: usize, cols: usize, seed: u64) -> Classification {
    gisette_like_with_threads(rows, cols, seed, host_threads())
}

/// [`gisette_like`] on up to `threads` OS threads.
fn gisette_like_with_threads(
    rows: usize,
    cols: usize,
    seed: u64,
    threads: usize,
) -> Classification {
    assert!(rows > 0 && cols > 0, "dataset must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    // Random unit separation direction.
    let mut dir: Vec<f64> = (0..cols).map(|_| normal(&mut rng)).collect();
    let norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    dir.iter_mut().for_each(|x| *x /= norm);

    let label = |r: usize| if r % 2 == 0 { 1.0 } else { -1.0 };
    let mut features = Matrix::zeros(rows, cols);
    let threads = if should_spawn(rows, cols, threads) {
        threads
    } else {
        1
    };
    // One block of rows per thread, each with the generator positioned
    // at its first row's draws.
    let span = rows.div_ceil(threads);
    let mut blocks: Vec<(usize, StdRng, &mut [f64])> = Vec::with_capacity(threads);
    for (b, block) in features.as_mut_slice().chunks_mut(span * cols).enumerate() {
        if b > 0 {
            (0..2 * span * cols).for_each(|_| {
                rng.next_u64();
            });
        }
        blocks.push((b * span, rng.clone(), block));
    }
    par_for_each_mut(&mut blocks, threads, |(first, rng, block)| {
        for (i, row) in block.chunks_mut(cols).enumerate() {
            let shift = 1.5 * label(*first + i);
            for (v, d) in row.iter_mut().zip(&dir) {
                *v = normal(rng) + shift * d;
            }
        }
    });
    drop(blocks);
    Classification::new(features, Vector::from_fn(rows, label))
}

/// Standard normal sample via Box–Muller: exactly two draws.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A directed graph as adjacency lists (`edges[u]` = targets of `u`).
#[derive(Debug, Clone)]
pub struct Digraph {
    /// Out-edges per node.
    pub edges: Vec<Vec<usize>>,
}

impl Digraph {
    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.edges.len()
    }

    /// Total edge count.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The PageRank link matrix `M` with damping `d`:
    /// `M[j][i] = d / outdeg(i)` for each edge `i → j` plus the uniform
    /// teleport term handled by the caller. Dangling nodes distribute
    /// uniformly.
    #[must_use]
    pub fn link_matrix(&self, damping: f64) -> Matrix {
        let n = self.nodes();
        let mut m = Matrix::zeros(n, n);
        for (u, outs) in self.edges.iter().enumerate() {
            if outs.is_empty() {
                // Dangling node: rank flows uniformly everywhere.
                let w = damping / n as f64;
                for j in 0..n {
                    m.set(j, u, w);
                }
            } else {
                let w = damping / outs.len() as f64;
                for &v in outs {
                    let cur = m.get(v, u);
                    m.set(v, u, cur + w);
                }
            }
        }
        m
    }

    /// Combinatorial Laplacian `L = D − A` of the *undirected* skeleton
    /// (edge direction dropped), used by the graph-filtering workload.
    #[must_use]
    pub fn laplacian(&self) -> Matrix {
        let n = self.nodes();
        let mut adj = Matrix::zeros(n, n);
        for (u, outs) in self.edges.iter().enumerate() {
            for &v in outs {
                if u != v {
                    adj.set(u, v, 1.0);
                    adj.set(v, u, 1.0);
                }
            }
        }
        let mut lap = Matrix::zeros(n, n);
        for u in 0..n {
            let degree: f64 = (0..n).map(|v| adj.get(u, v)).sum();
            for v in 0..n {
                let a = adj.get(u, v);
                lap.set(u, v, if u == v { degree } else { -a });
            }
        }
        lap
    }
}

/// Generates a preferential-attachment digraph: each new node links to
/// `edges_per_node` existing nodes with probability proportional to their
/// current in-degree (plus one).
///
/// # Panics
///
/// Panics unless `nodes > edges_per_node > 0`.
#[must_use]
pub fn power_law_graph(nodes: usize, edges_per_node: usize, seed: u64) -> Digraph {
    assert!(edges_per_node > 0, "need at least one edge per node");
    assert!(
        nodes > edges_per_node,
        "need more nodes than edges per node"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    // Repeated-target list implements preferential attachment cheaply.
    let mut targets: Vec<usize> = Vec::new();
    // Seed clique among the first edges_per_node + 1 nodes.
    for (u, out) in edges.iter_mut().enumerate().take(edges_per_node + 1) {
        for v in 0..=edges_per_node {
            if u != v {
                out.push(v);
                targets.push(v);
            }
        }
    }
    for (u, out) in edges.iter_mut().enumerate().skip(edges_per_node + 1) {
        let mut chosen: Vec<usize> = Vec::with_capacity(edges_per_node);
        while chosen.len() < edges_per_node {
            let t = targets[rng.gen_range(0..targets.len())];
            if t != u && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &v in &chosen {
            out.push(v);
            targets.push(v);
        }
        targets.push(u); // the new node becomes attachable too
    }
    Digraph { edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_coding::mds::EncodedMatrix;

    #[test]
    fn gisette_like_is_separable_ish() {
        let data = gisette_like(200, 20, 1);
        assert_eq!(data.features.shape(), (200, 20));
        assert_eq!(data.labels.len(), 200);
        // A simple centroid classifier should beat chance easily.
        let mut centroid_pos = Vector::zeros(20);
        let mut centroid_neg = Vector::zeros(20);
        let (mut np, mut nn) = (0.0, 0.0);
        for r in 0..200 {
            let row = Vector::from(data.features.row(r));
            if data.labels[r] > 0.0 {
                centroid_pos += &row;
                np += 1.0;
            } else {
                centroid_neg += &row;
                nn += 1.0;
            }
        }
        centroid_pos.scale(1.0 / np);
        centroid_neg.scale(1.0 / nn);
        let w = &centroid_pos - &centroid_neg;
        let mut correct = 0;
        for r in 0..200 {
            let score = s2c2_linalg::vector::dot_slices(data.features.row(r), w.as_slice());
            if score.signum() == data.labels[r].signum() {
                correct += 1;
            }
        }
        assert!(correct > 160, "centroid classifier got {correct}/200");
    }

    #[test]
    fn gisette_deterministic_per_seed() {
        let a = gisette_like(50, 10, 7);
        let b = gisette_like(50, 10, 7);
        assert_eq!(a.features, b.features);
        let c = gisette_like(50, 10, 8);
        assert_ne!(a.features, c.features);
    }

    /// The generator as one sequential pass: direction, then every row's
    /// Box–Muller draws in order.
    fn sequential_gisette(rows: usize, cols: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dir: Vec<f64> = (0..cols).map(|_| normal(&mut rng)).collect();
        let norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        dir.iter_mut().for_each(|x| *x /= norm);
        let (mut features, mut labels) = (Vec::new(), Vec::new());
        for r in 0..rows {
            let label: f64 = if r % 2 == 0 { 1.0 } else { -1.0 };
            for d in &dir {
                features.push((normal(&mut rng) + 1.5 * label * d).to_bits());
            }
            labels.push(label.to_bits());
        }
        (features, labels)
    }

    #[test]
    fn gisette_is_the_sequential_generator_at_every_thread_count() {
        // Past the spawn cutoff with ragged blocks; fewer rows than
        // threads; below the cutoff.
        for (rows, cols) in [(997, 40), (5, 8_000), (40, 3)] {
            let expect = sequential_gisette(rows, cols, 21);
            for threads in [1, 2, 3, 7] {
                let data = gisette_like_with_threads(rows, cols, 21, threads);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    (bits(data.features.as_slice()), bits(data.labels.as_slice())),
                    expect,
                    "{rows} x {cols}, {threads} threads"
                );
            }
        }
        assert!(should_spawn(997, 40, 2) && should_spawn(5, 8_000, 7));
    }

    /// Every partition of `enc`, systematic ones materialized.
    fn partitions(enc: &EncodedMatrix) -> Vec<Matrix> {
        (0..enc.params().n)
            .map(|i| enc.partition(i).into_owned())
            .collect()
    }

    fn small() -> Classification {
        gisette_like(60, 7, 3)
    }

    #[test]
    fn encodings_are_shared_while_held_and_keyed_by_geometry() {
        let data = small();
        let p = MdsParams::new(5, 3);
        let a = data.encoding(Orientation::Features, p, 2).unwrap();
        let again = data.encoding(Orientation::Features, p, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &again), "a hit is the same allocation");
        // A clone of the dataset shares the features, so it hits too.
        let copy = data.clone();
        let from_copy = copy.encoding(Orientation::Features, p, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &from_copy));
        for (o, params, chunks) in [
            (Orientation::Transposed, p, 2),
            (Orientation::Features, MdsParams::new(5, 4), 2),
            (Orientation::Features, p, 4),
        ] {
            let other = data.encoding(o, params, chunks).unwrap();
            assert!(!Arc::ptr_eq(&a, &other), "{o:?} {params:?} {chunks}");
        }
        let at = data.encoding(Orientation::Transposed, p, 2).unwrap();
        let code = MdsCode::new(p).unwrap();
        assert_eq!(
            partitions(&at.encoded),
            partitions(&code.encode(data.features.transpose(), 2).unwrap())
        );
    }

    #[test]
    fn the_memo_keeps_no_encoding_alive() {
        let data = small();
        let p = MdsParams::new(5, 3);
        let weak = Arc::downgrade(&data.encoding(Orientation::Features, p, 2).unwrap());
        assert_eq!(weak.strong_count(), 0, "dropped with its last holder");
        // The next request encodes afresh, to the same partitions.
        let fresh = data.encoding(Orientation::Features, p, 2).unwrap();
        assert_eq!(Arc::strong_count(&fresh), 1);
        let code = MdsCode::new(p).unwrap();
        assert_eq!(
            partitions(&fresh.encoded),
            partitions(&code.encode(&*data.features, 2).unwrap())
        );
    }

    #[test]
    fn new_features_miss_instead_of_hitting_a_stale_encoding() {
        let mut data = small();
        let p = MdsParams::new(5, 3);
        let old = data.encoding(Orientation::Features, p, 2).unwrap();
        let mut scaled = (*data.features).clone();
        scaled.scale(2.0);
        data.features = Arc::new(scaled);
        let new = data.encoding(Orientation::Features, p, 2).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        let code = MdsCode::new(p).unwrap();
        assert_eq!(
            partitions(&new.encoded),
            partitions(&code.encode(&*data.features, 2).unwrap())
        );
    }

    #[test]
    fn labels_must_match_examples() {
        let data = small();
        assert!(data.check_labels().is_ok());
        let short = Classification::new(Arc::clone(&data.features), Vector::zeros(59));
        assert!(matches!(
            short.check_labels(),
            Err(S2c2Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn power_law_graph_shape() {
        let g = power_law_graph(100, 3, 2);
        assert_eq!(g.nodes(), 100);
        // Every non-seed node has exactly 3 out-edges.
        for u in 4..100 {
            assert_eq!(g.edges[u].len(), 3, "node {u}");
        }
    }

    #[test]
    fn power_law_degree_is_heavy_tailed() {
        let g = power_law_graph(500, 3, 3);
        let mut indeg = vec![0usize; 500];
        for outs in &g.edges {
            for &v in outs {
                indeg[v] += 1;
            }
        }
        let max = *indeg.iter().max().unwrap();
        let mean = indeg.iter().sum::<usize>() as f64 / 500.0;
        assert!(
            max as f64 > mean * 8.0,
            "hub in-degree {max} should dwarf mean {mean}"
        );
    }

    #[test]
    fn link_matrix_columns_sum_to_damping() {
        let g = power_law_graph(50, 2, 4);
        let m = g.link_matrix(0.85);
        for u in 0..50 {
            let col_sum: f64 = (0..50).map(|v| m.get(v, u)).sum();
            assert!(
                (col_sum - 0.85).abs() < 1e-9,
                "column {u} sums to {col_sum}"
            );
        }
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = power_law_graph(40, 2, 5);
        let lap = g.laplacian();
        for u in 0..40 {
            let s: f64 = (0..40).map(|v| lap.get(u, v)).sum();
            assert!(s.abs() < 1e-9, "row {u} sums to {s}");
        }
        // Constant vector is in the null space.
        let ones = Vector::filled(40, 1.0);
        assert!(lap.matvec(&ones).norm_inf() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "more nodes than edges")]
    fn graph_rejects_tiny() {
        let _ = power_law_graph(2, 3, 0);
    }
}
