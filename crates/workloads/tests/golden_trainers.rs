//! Golden pins of the two trainers' reports.
//!
//! FNV-1a digests of the exact bits of every field of the first five
//! step reports of:
//!
//! * the SVM trainer (the Figs 8–11 / 13 workload) under conventional
//!   MDS and under general S²C²;
//! * the logistic-regression trainer under the uncoded even split, where
//!   every response is systematic, and under replication, whose product
//!   is the concatenation of its row blocks.
//!
//! Each report carries the coded rounds' simulated latency and the loss
//! (or objective) and accuracy of the master's margin at the new
//! weights. An optimisation of where that margin or the rounds' responses
//! come from must reproduce these constants unedited. A change that
//! *means* to alter the reports regenerates them (the failure message
//! prints the observed value) and says why in CHANGES.md.

use s2c2_cluster::ClusterSpec;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_trace::CloudTraceConfig;
use s2c2_workloads::datasets::{gisette_like, Classification};
use s2c2_workloads::logreg::DistributedLogReg;
use s2c2_workloads::svm::DistributedSvm;
use s2c2_workloads::ExecConfig;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

const STEPS: usize = 5;

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

/// Past every spawn cutoff, with zero padding under the `(50, 40)` code
/// and 12 chunks.
fn data() -> Classification {
    gisette_like(2_000, 200, 42)
}

/// The paper's `(50, 40)` pool on a volatile cloud trace.
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
fn first_svm_steps_are_pinned() {
    let data = data();
    for (kind, pin) in [
        (StrategyKind::MdsCoded, 0xb82e_47d2_2785_4ccc),
        (StrategyKind::S2c2General, 0xd6ee_beb4_0681_892a),
    ] {
        let mut svm = DistributedSvm::new(&data, &paper_config(kind), 0.2, 1e-3).unwrap();
        let mut h = FNV_OFFSET;
        for _ in 0..STEPS {
            let report = svm.step().unwrap();
            h = fnv_f64s(h, &[report.latency, report.objective, report.accuracy]);
        }
        assert_eq!(h, pin, "svm under {kind}: observed {h:#018x}");
    }
}

#[test]
fn first_logreg_steps_off_the_mds_encoding_are_pinned() {
    let data = data();
    for (kind, pin) in [
        (StrategyKind::Uncoded, 0x7733_d8f6_473a_2ca9),
        (StrategyKind::Replication, 0xcb98_da58_eaab_dc3d),
    ] {
        let mut lr = DistributedLogReg::new(&data, &paper_config(kind), 0.5, 1e-4).unwrap();
        let mut h = FNV_OFFSET;
        for _ in 0..STEPS {
            let report = lr.step().unwrap();
            h = fnv_f64s(h, &[report.latency, report.loss, report.accuracy]);
        }
        assert_eq!(h, pin, "logreg under {kind}: observed {h:#018x}");
    }
}
