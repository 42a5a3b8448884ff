//! Worker-speed forecasting: from-scratch LSTM and ARIMA baselines.
//!
//! §6.1 of the S²C² paper models per-node speed as a univariate time series
//! and compares an LSTM (1-dimensional input, 4-dimensional tanh hidden
//! state, 1-dimensional output) against ARIMA(1,0,0), ARIMA(2,0,0) and
//! ARIMA(1,1,1), trained on an 80:20 split of measured droplet traces. The
//! LSTM wins with a test MAPE of 16.7%, beating ARIMA(1,0,0) by 5 points,
//! and its per-node inference costs ~200 µs.
//!
//! This crate reproduces that stack with no ML framework:
//!
//! * [`lstm`] — forward pass, truncated-BPTT gradients (verified against
//!   finite differences in tests), Adam optimizer, and a stateful online
//!   stepper for per-iteration inference.
//! * [`arima`] — AR(1)/AR(2) by ordinary least squares and ARIMA(1,1,1) by
//!   Hannan–Rissanen two-stage estimation.
//! * [`predictor`] — the [`SpeedPredictor`] online interface the scheduler
//!   consumes (`observe_and_predict`), plus trivial baselines
//!   ([`predictor::LastValue`], [`predictor::UniformSpeed`]). The master
//!   keeps one stateful clone of a trained predictor per worker
//!   (`s2c2-core`'s `SpeedTracker`).
//! * [`eval`] — the §6.1 experiment harness: train on a trace set, report
//!   test MAPE per model.

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

pub mod arima;
pub mod eval;
pub mod lstm;
pub mod normalize;
pub mod predictor;

pub use predictor::{BoxedPredictor, SpeedPredictor};
