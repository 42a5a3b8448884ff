//! `MdsCode::decode_matvec_multi` against a definitional decoder, bit
//! for bit.
//!
//! The oracle below decodes the way the decoder's contract reads: per
//! chunk, keep the `k` replies with the lowest worker ids; place the
//! systematic ones; for every (row, member) value of the chunk, take
//! each kept parity reply's value, subtract `P[p][j] · value_j` for every
//! kept systematic `j` in ascending order, and solve that one column
//! with `LuFactors::solve`. The decoder groups, subtracts and solves over
//! whole blocks at once; every decoded value must still carry the
//! oracle's exact bits (`f64::to_bits`), across code sizes, chunk
//! counts, member counts, padded rows, shuffled arrival order and
//! surplus replies. The error cases pin each variant and its fields.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use s2c2_coding::chunks::{ChunkLayout, MultiChunkResult};
use s2c2_coding::mds::{EncodedMatrix, MdsCode, MdsParams};
use s2c2_coding::CodingError;
use s2c2_linalg::{LuFactors, Matrix, MultiVector, Vector};

/// The definitional decode: one output vector per member, truncated to
/// the original rows.
fn oracle(code: &MdsCode, layout: &ChunkLayout, responses: &[MultiChunkResult]) -> Vec<Vec<f64>> {
    let MdsParams { k, .. } = code.params();
    let members = responses[0].members;
    let rpc = layout.rows_per_chunk();
    let mut out = vec![vec![0.0; layout.padded_rows]; members];
    for chunk in 0..layout.chunks_per_partition {
        let mut kept: Vec<&MultiChunkResult> =
            responses.iter().filter(|r| r.chunk == chunk).collect();
        kept.sort_by_key(|r| r.worker);
        kept.truncate(k);
        let known: Vec<&MultiChunkResult> = kept.iter().copied().filter(|r| r.worker < k).collect();
        let parity: Vec<&MultiChunkResult> =
            kept.iter().copied().filter(|r| r.worker >= k).collect();
        for r in &known {
            let start = layout.output_range(r.worker, chunk).start;
            for row in 0..rpc {
                for (m, member) in out.iter_mut().enumerate() {
                    member[start + row] = r.values[row * members + m];
                }
            }
        }
        let missing: Vec<usize> = (0..k)
            .filter(|j| !known.iter().any(|r| r.worker == *j))
            .collect();
        if missing.is_empty() {
            continue;
        }
        let generator: Vec<Vec<f64>> = parity
            .iter()
            .map(|r| code.generator_row(r.worker))
            .collect();
        let m = missing.len();
        let sys = Matrix::from_fn(m, m, |pi, mj| generator[pi][missing[mj]]);
        let lu = LuFactors::factor(&sys).expect("a parity subsystem is nonsingular");
        for row in 0..rpc {
            for (member, values) in out.iter_mut().enumerate() {
                let at = row * members + member;
                let b = Vector::from_fn(m, |pi| {
                    let mut v = parity[pi].values[at];
                    for s in &known {
                        v -= generator[pi][s.worker] * s.values[at];
                    }
                    v
                });
                let x = lu.solve(&b);
                for (mi, &j) in missing.iter().enumerate() {
                    values[layout.output_range(j, chunk).start + row] = x.as_slice()[mi];
                }
            }
        }
    }
    for member in &mut out {
        member.truncate(layout.original_rows);
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One random case: a code, its encoding of a random matrix, and
/// `members` random inputs.
struct Case {
    code: MdsCode,
    enc: EncodedMatrix,
    xs: MultiVector,
}

impl Case {
    fn new(
        rng: &mut StdRng,
        n: usize,
        k: usize,
        rows: usize,
        chunks: usize,
        members: usize,
    ) -> Self {
        let cols = rng.gen_range(1..=7);
        let code = MdsCode::with_seed(MdsParams::new(n, k), rng.gen()).expect("valid code");
        // Magnitudes spread over a few decades, so that reordering any
        // sum changes its rounding.
        let mut value = || rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..=3));
        let a = Matrix::from_fn(rows, cols, |_, _| value());
        let xs = MultiVector::from_fn(members, cols, |_, _| value());
        let enc = code.encode(a, chunks).expect("encode");
        Case { code, enc, xs }
    }

    fn reply(&self, worker: usize, chunk: usize) -> MultiChunkResult {
        self.enc.worker_compute_chunk_multi(worker, chunk, &self.xs)
    }

    fn decode(&self, responses: &[MultiChunkResult]) -> Result<Vec<Vector>, CodingError> {
        self.code.decode_matvec_multi(self.enc.layout(), responses)
    }
}

#[test]
fn decode_is_the_definitional_decode_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0DEC_0DE5);
    let mut parity_chunks = 0;
    let mut surplus_chunks = 0;
    for case in 0..400 {
        let n = rng.gen_range(1..=12);
        let k = rng.gen_range(1..=n);
        let chunks = rng.gen_range(1..=6);
        let members = rng.gen_range(1..=4);
        // Row counts on either side of a multiple of k · chunks, so
        // both exact and padded layouts occur.
        let rows = rng.gen_range(1..=3 * k * chunks + 2);
        let c = Case::new(&mut rng, n, k, rows, chunks, members);
        let mut responses = Vec::new();
        for chunk in 0..chunks {
            let mut workers: Vec<usize> = (0..n).collect();
            workers.shuffle(&mut rng);
            workers.truncate(rng.gen_range(k..=n));
            parity_chunks += usize::from((0..k).any(|j| !workers.contains(&j)));
            surplus_chunks += usize::from(workers.len() > k);
            responses.extend(workers.into_iter().map(|w| c.reply(w, chunk)));
        }
        responses.shuffle(&mut rng);

        let decoded = c.decode(&responses).expect("every chunk has k replies");
        let expected = oracle(&c.code, c.enc.layout(), &responses);
        assert_eq!(decoded.len(), members, "case {case}");
        for (m, (got, want)) in decoded.iter().zip(&expected).enumerate() {
            assert_eq!(
                bits(got.as_slice()),
                bits(want),
                "case {case}: ({n}, {k}), {rows} rows, {chunks} chunks, member {m} of {members}"
            );
        }
    }
    // The cases must reach the solve and the lowest-k rule often.
    assert!(
        parity_chunks > 300,
        "{parity_chunks} chunks decoded via parity"
    );
    assert!(
        surplus_chunks > 300,
        "{surplus_chunks} chunks had surplus replies"
    );
}

#[test]
fn errors_name_the_failing_chunk_and_reply() {
    let mut rng = StdRng::seed_from_u64(7);
    let (n, k, chunks) = (6, 4, 3);
    let c = Case::new(&mut rng, n, k, 30, chunks, 2);
    let c = &c;
    let full = |chunk| (0..k).map(move |w| c.reply(w, chunk));

    // No replies at all.
    assert_eq!(
        c.decode(&[]),
        Err(CodingError::NotEnoughResponses {
            chunk: 0,
            got: 0,
            need: k
        })
    );
    // Chunk 1 one short (and chunk 2 worse): the first short chunk is
    // reported, with its own count.
    let mut short: Vec<MultiChunkResult> = full(0).collect();
    short.extend((1..k).map(|w| c.reply(w, 1)));
    short.push(c.reply(5, 2));
    assert_eq!(
        c.decode(&short),
        Err(CodingError::NotEnoughResponses {
            chunk: 1,
            got: k - 1,
            need: k
        })
    );
    // The same (worker, chunk) twice.
    let mut twice: Vec<MultiChunkResult> = (0..chunks).flat_map(full).collect();
    twice.push(c.reply(2, 1));
    assert_eq!(
        c.decode(&twice),
        Err(CodingError::DuplicateResponse {
            worker: 2,
            chunk: 1
        })
    );
    // A worker id past n, a chunk id past the layout, a block whose
    // member count differs from the first block's.
    let mut bad_worker: Vec<MultiChunkResult> = (0..chunks).flat_map(full).collect();
    bad_worker[3].worker = n;
    let mut bad_chunk: Vec<MultiChunkResult> = (0..chunks).flat_map(full).collect();
    bad_chunk[3].chunk = chunks;
    let mut mixed: Vec<MultiChunkResult> = (0..chunks).flat_map(full).collect();
    let one = mixed[3].values.iter().step_by(2).copied().collect();
    mixed[3] = MultiChunkResult::new(mixed[3].worker, mixed[3].chunk, 1, one);
    for (responses, message) in [
        (bad_worker, format!("worker {n} out of range (n = {n})")),
        (
            bad_chunk,
            format!("chunk {chunks} out of range ({chunks} chunks per partition)"),
        ),
        (mixed, "stacked block has 1 members, expected 2".to_string()),
    ] {
        assert_eq!(
            c.decode(&responses),
            Err(CodingError::MalformedResponse(message))
        );
    }
}
