//! From-scratch LSTM speed forecaster.
//!
//! Architecture per §6.1 of the paper: a single LSTM layer with
//! 1-dimensional input (the previous iteration's speed), 4-dimensional
//! hidden state with tanh cell activation, and a 1-dimensional linear
//! output head. Training is truncated BPTT with MSE loss and the Adam
//! optimizer; gradients are verified against finite differences in tests.
//!
//! Three deliberate refinements over the paper's plain setup, all aimed at
//! the metric the paper actually scores (MAPE, a *relative* error):
//!
//! * **Residual head** — `ŷ_t = x_t + (w_y·h_t + b_y)`, so the persistence
//!   forecast ("next speed = current speed", near-optimal between regime
//!   jumps) is the zero function and the LSTM only learns corrections.
//!   Without it, a 101-parameter model spends its whole budget re-learning
//!   the identity through saturating gates.
//! * **Log-space inputs/targets** (`log_space`, default on) — absolute
//!   errors in `ln(speed)` are relative errors in speed, aligning the
//!   training objective with MAPE; otherwise MSE training shades
//!   predictions toward the mean, which is catastrophic in percentage
//!   terms whenever the node sits in a slow regime.
//! * **Huber loss** (`huber_delta`) — behaves like L1 beyond the delta, so
//!   the optimum is the conditional *median*: under rare regime jumps the
//!   median is "stay", exactly the forecast a scheduler wants, while pure
//!   MSE would hedge toward the jump.
//!
//! Parameters are stored in one flat `Vec<f64>` (101 values at the default
//! hidden size) with named offset accessors, which keeps Adam and gradient
//! checking trivial and allocation-free in the hot loop.

use crate::normalize::Normalizer;
use crate::predictor::{BoxedPredictor, SpeedPredictor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for LSTM training.
#[derive(Debug, Clone)]
pub struct LstmConfig {
    /// Hidden state dimension (paper: 4).
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs over the window set.
    pub epochs: usize,
    /// BPTT window length.
    pub seq_len: usize,
    /// Windows per Adam step.
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f64,
    /// RNG seed for init and shuffling.
    pub seed: u64,
    /// Model speeds in log space (see module docs).
    pub log_space: bool,
    /// Huber loss transition point (in normalized units).
    pub huber_delta: f64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            hidden: 4,
            learning_rate: 0.01,
            epochs: 30,
            seq_len: 16,
            batch_size: 32,
            grad_clip: 1.0,
            seed: 42,
            log_space: true,
            huber_delta: 0.1,
        }
    }
}

/// Offsets into the flat parameter vector.
#[derive(Debug, Clone, Copy)]
struct Offsets {
    h: usize,
    wx: usize, // 4H input weights
    wh: usize, // 4H x H recurrent weights, row-major
    b: usize,  // 4H biases
    wy: usize, // H output weights
    by: usize, // 1 output bias
    total: usize,
}

impl Offsets {
    fn new(h: usize) -> Self {
        let wx = 0;
        let wh = wx + 4 * h;
        let b = wh + 4 * h * h;
        let wy = b + 4 * h;
        let by = wy + h;
        Offsets {
            h,
            wx,
            wh,
            b,
            wy,
            by,
            total: by + 1,
        }
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-timestep forward cache used by BPTT.
#[derive(Debug, Clone, Default)]
struct StepCache {
    x: f64,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    gates: Vec<f64>, // activated i|f|g|o, length 4H
    c: Vec<f64>,
    tanh_c: Vec<f64>,
    h: Vec<f64>,
    y: f64,
}

/// A trained LSTM model: flat parameters + input normalizer.
#[derive(Debug, Clone)]
pub struct TrainedLstm {
    off: Offsets,
    theta: Vec<f64>,
    norm: Normalizer,
    log_space: bool,
}

impl TrainedLstm {
    /// Maps a raw speed into model space.
    fn to_model(&self, raw: f64) -> f64 {
        let v = if self.log_space {
            raw.max(1e-9).ln()
        } else {
            raw
        };
        self.norm.normalize(v)
    }

    /// Maps a model-space output back to a raw speed.
    fn model_to_raw(&self, z: f64) -> f64 {
        let v = self.norm.denormalize(z);
        if self.log_space {
            v.exp()
        } else {
            v.max(1e-6)
        }
    }

    /// Hidden dimension.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.off.h
    }

    /// Number of scalar parameters (101 at the paper's hidden size 4).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.off.total
    }

    /// One forward step from `(h, c)` on normalized input `x`.
    fn step(&self, x: f64, h: &[f64], c: &[f64]) -> StepCache {
        step_with(&self.theta, self.off, x, h, c)
    }

    /// Creates a stateful per-worker online predictor sharing these weights.
    #[must_use]
    pub fn online(&self) -> LstmPredictor {
        LstmPredictor {
            model: self.clone(),
            h: vec![0.0; self.off.h],
            c: vec![0.0; self.off.h],
            last_pred: None,
        }
    }
}

fn step_with(theta: &[f64], off: Offsets, x: f64, h_prev: &[f64], c_prev: &[f64]) -> StepCache {
    let hd = off.h;
    let mut gates = vec![0.0; 4 * hd];
    for u in 0..4 * hd {
        let mut z = theta[off.wx + u] * x + theta[off.b + u];
        let wh_row = &theta[off.wh + u * hd..off.wh + (u + 1) * hd];
        for (w, hp) in wh_row.iter().zip(h_prev.iter()) {
            z += w * hp;
        }
        gates[u] = z;
    }
    // Activate: i, f, o sigmoid; g tanh.
    for u in 0..hd {
        gates[u] = sigmoid(gates[u]); // i
        gates[hd + u] = sigmoid(gates[hd + u]); // f
        gates[2 * hd + u] = gates[2 * hd + u].tanh(); // g
        gates[3 * hd + u] = sigmoid(gates[3 * hd + u]); // o
    }
    let mut c = vec![0.0; hd];
    let mut tanh_c = vec![0.0; hd];
    let mut h = vec![0.0; hd];
    // Residual head: persistence plus a learned correction.
    let mut y = theta[off.by] + x;
    for u in 0..hd {
        c[u] = gates[hd + u] * c_prev[u] + gates[u] * gates[2 * hd + u];
        tanh_c[u] = c[u].tanh();
        h[u] = gates[3 * hd + u] * tanh_c[u];
        y += theta[off.wy + u] * h[u];
    }
    StepCache {
        x,
        h_prev: h_prev.to_vec(),
        c_prev: c_prev.to_vec(),
        gates,
        c,
        tanh_c,
        h,
        y,
    }
}

/// Huber loss value and derivative.
#[inline]
fn huber(e: f64, delta: f64) -> (f64, f64) {
    if e.abs() <= delta {
        (0.5 * e * e, e)
    } else {
        (delta * (e.abs() - 0.5 * delta), delta * e.signum())
    }
}

/// Forward + backward over one window; returns (loss, accumulates grads).
///
/// `window` is a normalized series; inputs are `window[..len-1]`, targets
/// `window[1..]`. Gradients are *added* into `grad`.
fn window_loss_and_grad(
    theta: &[f64],
    off: Offsets,
    window: &[f64],
    delta: f64,
    grad: &mut [f64],
) -> f64 {
    let hd = off.h;
    let steps = window.len() - 1;
    debug_assert!(steps > 0);

    // Forward.
    let mut caches: Vec<StepCache> = Vec::with_capacity(steps);
    let mut h = vec![0.0; hd];
    let mut c = vec![0.0; hd];
    for &x in window.iter().take(steps) {
        let cache = step_with(theta, off, x, &h, &c);
        h = cache.h.clone();
        c = cache.c.clone();
        caches.push(cache);
    }
    let inv_steps = 1.0 / steps as f64;
    let mut loss = 0.0;
    for (t, cache) in caches.iter().enumerate() {
        let (l, _) = huber(cache.y - window[t + 1], delta);
        loss += l * inv_steps;
    }

    // Backward.
    let mut dh_next = vec![0.0; hd];
    let mut dc_next = vec![0.0; hd];
    for t in (0..steps).rev() {
        let cache = &caches[t];
        let (_, dl) = huber(cache.y - window[t + 1], delta);
        let dy = dl * inv_steps;
        grad[off.by] += dy;
        let mut dh = dh_next.clone();
        for u in 0..hd {
            grad[off.wy + u] += dy * cache.h[u];
            dh[u] += dy * theta[off.wy + u];
        }
        let mut dz = vec![0.0; 4 * hd];
        let mut dc_prev = vec![0.0; hd];
        for u in 0..hd {
            let i = cache.gates[u];
            let f = cache.gates[hd + u];
            let g = cache.gates[2 * hd + u];
            let o = cache.gates[3 * hd + u];
            let do_ = dh[u] * cache.tanh_c[u];
            let mut dc = dc_next[u] + dh[u] * o * (1.0 - cache.tanh_c[u] * cache.tanh_c[u]);
            let di = dc * g;
            let df = dc * cache.c_prev[u];
            let dg = dc * i;
            dc *= f;
            dc_prev[u] = dc;
            dz[u] = di * i * (1.0 - i);
            dz[hd + u] = df * f * (1.0 - f);
            dz[2 * hd + u] = dg * (1.0 - g * g);
            dz[3 * hd + u] = do_ * o * (1.0 - o);
        }
        let mut dh_prev = vec![0.0; hd];
        for u in 0..4 * hd {
            grad[off.wx + u] += dz[u] * cache.x;
            grad[off.b + u] += dz[u];
            let wh_row = &theta[off.wh + u * hd..off.wh + (u + 1) * hd];
            let grad_row = &mut grad[off.wh + u * hd..off.wh + (u + 1) * hd];
            for v in 0..hd {
                grad_row[v] += dz[u] * cache.h_prev[v];
                dh_prev[v] += wh_row[v] * dz[u];
            }
        }
        dh_next = dh_prev;
        dc_next = dc_prev;
    }
    loss
}

/// Trains an LSTM on a set of raw speed series (one per node).
///
/// Windows of `config.seq_len + 1` samples (stride `seq_len / 2`) are cut
/// from every series, shuffled each epoch, and consumed in minibatches by
/// Adam. The input normalizer is fit on the training data only.
///
/// # Panics
///
/// Panics when no window can be cut (series shorter than `seq_len + 1`)
/// or on degenerate hyper-parameters.
#[must_use]
pub fn train(config: &LstmConfig, series: &[&[f64]]) -> TrainedLstm {
    assert!(config.hidden > 0, "hidden size must be positive");
    assert!(config.seq_len >= 2, "need at least 2-step windows");
    assert!(config.batch_size > 0, "batch size must be positive");
    let off = Offsets::new(config.hidden);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Normalizer over all training samples (in log space if configured).
    let transform = |x: f64| {
        if config.log_space {
            x.max(1e-9).ln()
        } else {
            x
        }
    };
    let all: Vec<f64> = series
        .iter()
        .flat_map(|s| s.iter().map(|&x| transform(x)))
        .collect();
    let norm = Normalizer::fit(&all);

    // Cut normalized windows.
    let w = config.seq_len + 1;
    let stride = (config.seq_len / 2).max(1);
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for s in series {
        if s.len() < w {
            continue;
        }
        let mut start = 0;
        while start + w <= s.len() {
            windows.push(
                s[start..start + w]
                    .iter()
                    .map(|&x| norm.normalize(transform(x)))
                    .collect(),
            );
            start += stride;
        }
    }
    assert!(
        !windows.is_empty(),
        "no training windows (series too short?)"
    );

    // Init: small uniform weights, forget-gate bias +1 (standard trick for
    // gradient flow on slowly varying series).
    let mut theta = vec![0.0; off.total];
    let scale = 1.0 / (config.hidden as f64).sqrt();
    for v in theta.iter_mut() {
        *v = rng.gen_range(-scale..scale);
    }
    for u in 0..config.hidden {
        theta[off.b + off.h + u] = 1.0;
    }

    // Adam state.
    let mut m = vec![0.0; off.total];
    let mut v = vec![0.0; off.total];
    let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
    let mut step_count = 0usize;

    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut grad = vec![0.0; off.total];
    for _epoch in 0..config.epochs {
        // Fisher-Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for batch in order.chunks(config.batch_size) {
            grad.iter_mut().for_each(|g| *g = 0.0);
            for &wi in batch {
                let _ =
                    window_loss_and_grad(&theta, off, &windows[wi], config.huber_delta, &mut grad);
            }
            let scale = 1.0 / batch.len() as f64;
            grad.iter_mut().for_each(|g| *g *= scale);
            // Global norm clip.
            let norm2: f64 = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            if norm2 > config.grad_clip {
                let s = config.grad_clip / norm2;
                grad.iter_mut().for_each(|g| *g *= s);
            }
            // Adam update.
            step_count += 1;
            let bc1 = 1.0 - b1.powi(step_count as i32);
            let bc2 = 1.0 - b2.powi(step_count as i32);
            for p in 0..off.total {
                m[p] = b1 * m[p] + (1.0 - b1) * grad[p];
                v[p] = b2 * v[p] + (1.0 - b2) * grad[p] * grad[p];
                let mhat = m[p] / bc1;
                let vhat = v[p] / bc2;
                theta[p] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    TrainedLstm {
        off,
        theta,
        norm,
        log_space: config.log_space,
    }
}

/// Stateful per-worker online LSTM forecaster.
#[derive(Debug, Clone)]
pub struct LstmPredictor {
    model: TrainedLstm,
    h: Vec<f64>,
    c: Vec<f64>,
    last_pred: Option<f64>,
}

impl SpeedPredictor for LstmPredictor {
    fn observe_and_predict(&mut self, observed: f64) -> f64 {
        let cache = self
            .model
            .step(self.model.to_model(observed), &self.h, &self.c);
        self.h = cache.h;
        self.c = cache.c;
        let pred = self.model.model_to_raw(cache.y).max(1e-6);
        self.last_pred = Some(pred);
        pred
    }

    fn predict_cold(&self) -> f64 {
        self.last_pred
            .unwrap_or_else(|| self.model.model_to_raw(0.0))
    }

    fn clone_box(&self) -> BoxedPredictor {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.h.iter_mut().for_each(|x| *x = 0.0);
        self.c.iter_mut().for_each(|x| *x = 0.0);
        self.last_pred = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `model` over a raw (unnormalized) series from a cold state,
    /// returning one-step ahead predictions aligned so `pred[t]` forecasts
    /// `series[t + 1]` — the batch unroll the online predictor must match.
    fn forecast_series(model: &TrainedLstm, series: &[f64]) -> Vec<f64> {
        let hdim = model.off.h;
        let mut h = vec![0.0; hdim];
        let mut c = vec![0.0; hdim];
        let mut out = Vec::with_capacity(series.len());
        for &raw in series {
            let cache = model.step(model.to_model(raw), &h, &c);
            h = cache.h.clone();
            c = cache.c.clone();
            out.push(model.model_to_raw(cache.y));
        }
        out
    }

    fn tiny_config() -> LstmConfig {
        LstmConfig {
            hidden: 3,
            learning_rate: 0.02,
            epochs: 12,
            seq_len: 8,
            batch_size: 8,
            grad_clip: 5.0,
            seed: 7,
            log_space: false,
            huber_delta: 1e9, // pure L2 region: easier analytic comparisons
        }
    }

    #[test]
    fn offsets_partition_parameter_vector() {
        let off = Offsets::new(4);
        assert_eq!(off.wx, 0);
        assert_eq!(off.wh, 16);
        assert_eq!(off.b, 16 + 64);
        assert_eq!(off.wy, 96);
        assert_eq!(off.by, 100);
        assert_eq!(off.total, 101, "paper-sized model has 101 parameters");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let off = Offsets::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        let theta: Vec<f64> = (0..off.total).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let window: Vec<f64> = (0..7).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let mut grad = vec![0.0; off.total];
        let _ = window_loss_and_grad(&theta, off, &window, 0.35, &mut grad);

        let eps = 1e-6;
        // Check every parameter — the model is tiny.
        for p in 0..off.total {
            let mut tp = theta.clone();
            tp[p] += eps;
            let mut sink = vec![0.0; off.total];
            let lp = window_loss_and_grad(&tp, off, &window, 0.35, &mut sink);
            tp[p] -= 2.0 * eps;
            sink.iter_mut().for_each(|g| *g = 0.0);
            let lm = window_loss_and_grad(&tp, off, &window, 0.35, &mut sink);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad[p];
            let denom = 1.0_f64.max(numeric.abs()).max(analytic.abs());
            assert!(
                (numeric - analytic).abs() / denom < 1e-4,
                "param {p}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_learnable_series() {
        // Deterministic sawtooth: entirely predictable from short history.
        let series: Vec<f64> = (0..400)
            .map(|i| 0.5 + 0.3 * ((i % 8) as f64 / 8.0))
            .collect();
        let cfg = tiny_config();
        let off = Offsets::new(cfg.hidden);

        // Loss of an untrained (random-init) model.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let norm = Normalizer::fit(&series);
        let normed: Vec<f64> = series.iter().map(|&x| norm.normalize(x)).collect();
        let theta0: Vec<f64> = (0..off.total).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut sink = vec![0.0; off.total];
        let loss_before = window_loss_and_grad(
            &theta0,
            off,
            &normed[..cfg.seq_len + 1],
            cfg.huber_delta,
            &mut sink,
        );

        let model = train(&cfg, &[&series]);
        sink.iter_mut().for_each(|g| *g = 0.0);
        let loss_after = window_loss_and_grad(
            &model.theta,
            off,
            &normed[..cfg.seq_len + 1],
            cfg.huber_delta,
            &mut sink,
        );
        assert!(
            loss_after < loss_before * 0.5,
            "training did not reduce loss: {loss_before} -> {loss_after}"
        );
    }

    #[test]
    fn forecast_tracks_slowly_varying_series() {
        // Train on a slowly drifting series; one-step predictions should be
        // much better than predicting the global mean.
        let series: Vec<f64> = (0..600)
            .map(|i| 0.8 + 0.15 * ((i as f64) * 0.05).sin())
            .collect();
        let model = train(&tiny_config(), &[&series[..480]]);
        let preds = forecast_series(&model, &series[480..]);
        let actual = &series[481..];
        let mean = 0.8;
        let mut err_model = 0.0;
        let mut err_mean = 0.0;
        for (p, a) in preds.iter().zip(actual.iter()) {
            err_model += (p - a).abs();
            err_mean += (mean - a).abs();
        }
        assert!(
            err_model < err_mean * 0.6,
            "LSTM ({err_model}) should beat mean forecaster ({err_mean})"
        );
    }

    #[test]
    fn online_predictor_matches_forecast_series() {
        let series: Vec<f64> = (0..200)
            .map(|i| 0.6 + 0.1 * ((i as f64) * 0.1).cos())
            .collect();
        let model = train(&tiny_config(), &[&series]);
        let batch = forecast_series(&model, &series[..50]);
        let mut online = model.online();
        for (t, &x) in series[..50].iter().enumerate() {
            let p = online.observe_and_predict(x);
            assert!(
                (p - batch[t]).abs() < 1e-12,
                "step {t}: {p} vs {}",
                batch[t]
            );
        }
    }

    #[test]
    fn online_reset_restores_cold_state() {
        let series: Vec<f64> = (0..100).map(|i| 0.5 + 0.01 * (i % 10) as f64).collect();
        let model = train(&tiny_config(), &[&series]);
        let mut online = model.online();
        let first = online.observe_and_predict(0.55);
        let _ = online.observe_and_predict(0.60);
        online.reset();
        let again = online.observe_and_predict(0.55);
        assert!(
            (first - again).abs() < 1e-12,
            "reset must restore initial state"
        );
    }

    #[test]
    fn predictions_stay_positive() {
        let series: Vec<f64> = (0..150).map(|i| 0.02 + 0.01 * ((i % 5) as f64)).collect();
        let model = train(&tiny_config(), &[&series]);
        let mut online = model.online();
        for &x in &series {
            assert!(online.observe_and_predict(x) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "no training windows")]
    fn too_short_series_panics() {
        let s = vec![1.0, 2.0, 3.0];
        let _ = train(&tiny_config(), &[&s]);
    }
}
