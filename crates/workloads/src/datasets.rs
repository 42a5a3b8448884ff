//! Synthetic dataset generators (DESIGN.md substitution table).
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
use rand::{Rng, SeedableRng};
use s2c2_linalg::{Matrix, Vector};

/// A labelled binary classification dataset.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Feature matrix, one example per row.
    pub features: Matrix,
    /// Labels in {−1, +1}, one per row.
    pub labels: Vector,
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
///
/// # Panics
///
/// Panics on zero rows/cols.
#[must_use]
pub fn gisette_like(rows: usize, cols: usize, seed: u64) -> Classification {
    assert!(rows > 0 && cols > 0, "dataset must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    // Random unit separation direction.
    let mut dir: Vec<f64> = (0..cols).map(|_| normal(&mut rng)).collect();
    let norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    dir.iter_mut().for_each(|x| *x /= norm);

    let mut features = Matrix::zeros(rows, cols);
    let mut labels = Vec::with_capacity(rows);
    for r in 0..rows {
        let label = if r % 2 == 0 { 1.0 } else { -1.0 };
        let shift = 1.5 * label;
        let row = features.row_mut(r);
        for (c, v) in row.iter_mut().enumerate() {
            *v = normal(&mut rng) + shift * dir[c];
        }
        labels.push(label);
    }
    Classification {
        features,
        labels: Vector::from(labels),
    }
}

/// Standard normal sample via Box–Muller.
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
