//! Golden pins of the single-job set-up.
//!
//! Everything a trainer is built from, pinned by FNV-1a digests of the
//! exact bits: the `gisette_like` features and labels (at a size past
//! every spawn cutoff and at a ragged one), every coded partition of `A`
//! and of `Aᵀ` under the paper's `(50, 40)` code with 12 chunks and a
//! small `(7, 5)` code with 3 (both with zero padding at the tail), and
//! the first three `StepReport`s of an MDS and an S²C² logistic
//! regression trainer built over the pinned data.
//!
//! The constants were generated on the sequential set-up (one generator
//! pass, one encode of `A` and one of a materialized `Aᵀ` per trainer);
//! an optimisation of the set-up must reproduce them unedited. A change
//! that *means* to alter the data or the encodings regenerates them (the
//! failure message prints the observed value) and says why in CHANGES.md.

use s2c2_cluster::ClusterSpec;
use s2c2_coding::mds::{EncodedMatrix, MdsCode, MdsParams};
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_linalg::Matrix;
use s2c2_trace::CloudTraceConfig;
use s2c2_workloads::datasets::{gisette_like, Classification};
use s2c2_workloads::logreg::DistributedLogReg;
use s2c2_workloads::ExecConfig;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn fnv_f64s(h: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

fn fnv_matrix(h: u64, m: &Matrix) -> u64 {
    let h = fnv1a(h, &(m.rows() as u64).to_le_bytes());
    let h = fnv1a(h, &(m.cols() as u64).to_le_bytes());
    fnv_f64s(h, m.as_slice())
}

fn dataset_digest(data: &Classification) -> u64 {
    fnv_f64s(
        fnv_matrix(FNV_OFFSET, &data.features),
        data.labels.as_slice(),
    )
}

fn encoding_digest(enc: &EncodedMatrix) -> u64 {
    enc.partitions().iter().fold(FNV_OFFSET, fnv_matrix)
}

/// The two pinned datasets: past every spawn cutoff, and ragged.
fn large() -> Classification {
    gisette_like(2_000, 200, 42)
}

fn ragged() -> Classification {
    gisette_like(997, 13, 7)
}

#[test]
fn gisette_features_and_labels_are_pinned() {
    for (data, pin) in [
        (large(), 0x7c9c_d332_7572_2053),
        (ragged(), 0x9054_4a29_3015_1537),
    ] {
        let got = dataset_digest(&data);
        assert_eq!(
            got,
            pin,
            "{:?}: observed {got:#018x}",
            data.features.shape()
        );
    }
}

/// `(data, n, k, chunks, pin of A, pin of Aᵀ)`.
fn encoding_cases() -> [(Classification, usize, usize, usize, u64, u64); 4] {
    [
        (
            large(),
            50,
            40,
            12,
            0xcade_9883_aa56_494f,
            0xfb96_8298_a72f_1919,
        ),
        (
            large(),
            7,
            5,
            3,
            0x5ecd_c4e4_490a_d7de,
            0x00bc_9d5c_eb27_c4a7,
        ),
        (
            ragged(),
            50,
            40,
            12,
            0xf610_2cb4_5758_2a80,
            0xb48f_35e5_aefa_20ab,
        ),
        (
            ragged(),
            7,
            5,
            3,
            0x179a_47e0_9fdd_716e,
            0x5ccd_311e_79b5_ae70,
        ),
    ]
}

#[test]
fn encodings_of_a_and_its_transpose_are_pinned() {
    for (data, n, k, chunks, pin_a, pin_at) in encoding_cases() {
        let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
        let a = &data.features;
        let got_a = encoding_digest(&code.encode(a, chunks).unwrap());
        assert_eq!(
            got_a,
            pin_a,
            "A {:?} under ({n}, {k}, {chunks}): observed {got_a:#018x}",
            a.shape()
        );
        let got_at = encoding_digest(&code.encode(&a.transpose(), chunks).unwrap());
        assert_eq!(
            got_at,
            pin_at,
            "Aᵀ of {:?} under ({n}, {k}, {chunks}): observed {got_at:#018x}",
            a.shape()
        );
        // Encoding Aᵀ straight from A's rows gives the same partitions.
        let got_direct = encoding_digest(&code.encode_transpose(a, chunks).unwrap());
        assert_eq!(
            got_direct,
            pin_at,
            "encode_transpose of {:?} under ({n}, {k}, {chunks}): observed {got_direct:#018x}",
            a.shape()
        );
    }
}

fn paper_config(kind: StrategyKind) -> ExecConfig {
    let pool = ClusterSpec::builder(50)
        .compute_bound()
        .seed(5)
        .cloud(&CloudTraceConfig::volatile())
        .build();
    ExecConfig::new(MdsParams::new(50, 40), pool)
        .strategy(kind)
        .predictor(PredictorSource::LastValue)
        .chunks_per_worker(12)
}

#[test]
fn first_logreg_steps_are_pinned() {
    let data = large();
    for (kind, pin) in [
        (StrategyKind::MdsCoded, 0x298e_3c2e_a33c_9d8b),
        (StrategyKind::S2c2General, 0x119f_4531_55df_ff69),
    ] {
        let mut lr = DistributedLogReg::new(&data, &paper_config(kind), 0.5, 1e-4).unwrap();
        let mut h = FNV_OFFSET;
        for _ in 0..3 {
            let report = lr.step().unwrap();
            h = fnv_f64s(h, &[report.latency, report.loss, report.accuracy]);
        }
        assert_eq!(h, pin, "{kind}: observed {h:#018x}");
    }
}
