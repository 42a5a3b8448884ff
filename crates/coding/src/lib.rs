//! Coded-computation codecs over real matrices.
//!
//! This crate implements the two code families the S²C² paper schedules on
//! top of:
//!
//! * [`mds`] — systematic `(n, k)`-MDS codes for *linear* computations
//!   (matrix–vector products). The generator is `[I; P]` with a seeded
//!   random parity block (MDS with probability 1 and — unlike real-valued
//!   Cauchy/Vandermonde constructions — well conditioned; see the module
//!   docs). Because the code is systematic, decoding only ever solves an
//!   `m × m` system with `m ≤ n − k`, numerically robust in `f64` even for
//!   the paper's largest `(50, 40)` configuration.
//! * [`polynomial`] — polynomial codes (Yu, Maddah-Ali, Avestimehr, NIPS'17)
//!   for *bilinear* computations (`A·B`, and `Aᵀ·diag(x)·A` Hessians). Any
//!   `a·b` of `n` responses decode via polynomial interpolation; we use
//!   Chebyshev-spaced evaluation points to keep the interpolation systems
//!   well conditioned.
//!
//! Both codecs share the [`chunks::ChunkLayout`] over-decomposition
//! geometry: every worker's coded partition is split into equal-size row
//! chunks, and decoding happens *per chunk index* from whichever workers
//! computed that chunk. That per-chunk decodability is exactly the property
//! S²C² (in `s2c2-core`) exploits to assign partial work to slow nodes
//! without re-encoding or moving data.
//!
//! The [`cache`] module adds the serving-side amortization on top: an
//! [`cache::EncodeCache`] memoizing `(matrix identity, code geometry) →
//! encoding` so recurring jobs skip re-encoding entirely.

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

pub mod cache;
pub mod chunks;
pub mod error;
pub mod mds;
pub mod polynomial;

pub use cache::{CachedEncoding, EncodeCache, EncodeKey};
pub use chunks::{ChunkLayout, MultiChunkResult, WorkerChunkResult};
pub use error::CodingError;
pub use mds::{EncodedMatrix, MdsCode, MdsParams};
pub use polynomial::{EncodedPair, PolyParams, PolynomialCode};
