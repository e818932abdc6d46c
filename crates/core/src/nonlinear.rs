//! Nonlinear predictors under LightMIRM — the paper's footnote 3: unlike
//! IRMv1, the meta-learned formulation "does not assume the linearity of
//! the prediction model".
//!
//! This module delivers that generality:
//!
//! - [`EnvObjective`] abstracts what the bi-level loop needs from a model
//!   family: per-environment loss, gradient, and Hessian-vector product
//!   over a flat parameter vector (re-exported from the loop's module,
//!   along with the production [`LinearObjective`]);
//! - [`MlpModel`] is a one-hidden-layer tanh network over the multi-hot
//!   leaf features, with exact backprop gradients and a central
//!   finite-difference HVP (two extra gradient evaluations — the standard
//!   approximation when an R-operator is not implemented);
//! - [`light_mirm_generic`] runs Algorithm 2 against any [`EnvObjective`]
//!   through the same loop that trains
//!   [`crate::trainers::LightMirmTrainer`].
//!
//! A test here shows the MLP head solving a leaf-interaction (XOR)
//! problem that no linear head can represent, trained with the same
//! LightMIRM loop.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::env::EnvDataset;
use crate::lr::sigmoid;
use crate::trainers::bilevel::BiLevel;
use crate::trainers::{LightMirmTrainer, TrainConfig};

pub use crate::trainers::bilevel::{EnvObjective, LinearObjective};

/// A one-hidden-layer tanh MLP over multi-hot rows:
/// `p = σ(b₂ + w₂ · tanh(b₁ + W₁ x))`.
///
/// Parameters are flattened as `[W₁ (hidden × n_cols, row-major) | b₁ |
/// w₂ | b₂]`.
pub struct MlpModel<'d> {
    data: &'d EnvDataset,
    hidden: usize,
    /// L2 regularization.
    pub reg: f64,
}

impl<'d> MlpModel<'d> {
    /// Build an MLP objective over a dataset with `hidden` units.
    pub fn new(data: &'d EnvDataset, hidden: usize, reg: f64) -> Self {
        assert!(hidden >= 1, "need at least one hidden unit");
        MlpModel { data, hidden, reg }
    }

    /// Small random initialization (scaled by fan-in), seeded.
    pub fn init(&self, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = self.data.n_cols();
        let scale = 1.0 / (self.data.x.nnz_per_row() as f64).sqrt();
        let mut theta = vec![0.0; self.dim()];
        for w in theta.iter_mut().take(self.hidden * n) {
            *w = (rng.gen::<f64>() - 0.5) * 2.0 * scale;
        }
        // b1 breaks hidden-unit symmetry; w2 starts small, b2 zero.
        for j in 0..self.hidden {
            theta[self.hidden * n + j] = (rng.gen::<f64>() - 0.5) * 0.2;
            theta[self.hidden * n + self.hidden + j] = (rng.gen::<f64>() - 0.5) * 0.2;
        }
        theta
    }

    fn split<'t>(&self, theta: &'t [f64]) -> (&'t [f64], &'t [f64], &'t [f64], f64) {
        let n = self.data.n_cols();
        let h = self.hidden;
        let (w1, rest) = theta.split_at(h * n);
        let (b1, rest) = rest.split_at(h);
        let (w2, rest) = rest.split_at(h);
        (w1, b1, w2, rest[0])
    }

    /// Forward pass for one row; returns `(hidden activations, p)`.
    fn forward(&self, theta: &[f64], row: usize, hidden_buf: &mut [f64]) -> f64 {
        let (w1, b1, w2, b2) = self.split(theta);
        let n = self.data.n_cols();
        let mut z = b2;
        for j in 0..self.hidden {
            let mut pre = b1[j];
            for &i in self.data.x.row(row) {
                pre += w1[j * n + i as usize];
            }
            let h = pre.tanh();
            hidden_buf[j] = h;
            z += w2[j] * h;
        }
        sigmoid(z)
    }

    /// Probability predictions for a row set.
    pub fn predict_rows(&self, theta: &[f64], rows: &[u32]) -> Vec<f64> {
        let mut hidden = vec![0.0; self.hidden];
        rows.iter()
            .map(|&r| self.forward(theta, r as usize, &mut hidden))
            .collect()
    }
}

impl EnvObjective for MlpModel<'_> {
    fn dim(&self) -> usize {
        self.hidden * self.data.n_cols() + 2 * self.hidden + 1
    }

    fn loss(&self, theta: &[f64], rows: &[u32]) -> f64 {
        assert!(!rows.is_empty(), "loss over an empty environment");
        let mut hidden = vec![0.0; self.hidden];
        let mut total = 0.0;
        for &r in rows {
            let p = self
                .forward(theta, r as usize, &mut hidden)
                .clamp(1e-12, 1.0 - 1e-12);
            let y = self.data.labels[r as usize] as f64;
            total -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
        }
        let mut loss = total / rows.len() as f64;
        if self.reg > 0.0 {
            loss += self.reg / 2.0 * theta.iter().map(|w| w * w).sum::<f64>();
        }
        loss
    }

    fn grad(&self, theta: &[f64], rows: &[u32], out: &mut [f64]) {
        assert!(!rows.is_empty(), "gradient over an empty environment");
        debug_assert_eq!(out.len(), self.dim());
        out.fill(0.0);
        let (_, _, w2, _) = self.split(theta);
        let n = self.data.n_cols();
        let h = self.hidden;
        let inv_n = 1.0 / rows.len() as f64;
        let mut hidden = vec![0.0; h];
        for &r in rows {
            let r = r as usize;
            let p = self.forward(theta, r, &mut hidden);
            let resid = (p - self.data.labels[r] as f64) * inv_n;
            // Output layer.
            out[h * n + h + h] += resid; // b2 (single trailing slot)
            for j in 0..h {
                out[h * n + h + j] += resid * hidden[j]; // w2
                let dpre = resid * w2[j] * (1.0 - hidden[j] * hidden[j]);
                out[h * n + j] += dpre; // b1
                for &i in self.data.x.row(r) {
                    out[j * n + i as usize] += dpre; // W1
                }
            }
        }
        if self.reg > 0.0 {
            for (o, &w) in out.iter_mut().zip(theta) {
                *o += self.reg * w;
            }
        }
    }
}

/// Algorithm 2 over any [`EnvObjective`]: environment sampling, the MRQ,
/// σ-weighted outer steps with momentum, gradients through the inner step
/// via the objective's HVP — the loop of
/// [`crate::trainers::LightMirmTrainer`] with the same draws. Returns the
/// trained flat parameter vector.
///
/// # Panics
///
/// Panics when `theta0.len() != objective.dim()`, no environment has
/// data, `mrq_len == 0`, or `gamma` is outside `(0, 1]`.
pub fn light_mirm_generic<O: EnvObjective>(
    objective: &O,
    data: &EnvDataset,
    theta0: Vec<f64>,
    config: &TrainConfig,
    mrq_len: usize,
    gamma: f64,
) -> Vec<f64> {
    let trainer = LightMirmTrainer::with_mrq(config.clone(), mrq_len, gamma);
    BiLevel {
        trainer: "lightmirm-generic",
        ..trainer.bilevel()
    }
    .run(objective, data, theta0, None)
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::MultiHotMatrix;

    /// Two binary "leaf" features (columns 0/1 on or off via paired
    /// columns); label = XOR. A linear head cannot express XOR of leaf
    /// indicators; the MLP can.
    fn xor_world() -> EnvDataset {
        let mut idx = Vec::new();
        let mut labels = Vec::new();
        let mut envs = Vec::new();
        for k in 0..400usize {
            let a = (k / 2) % 2;
            let b = k % 2;
            // Columns: feature A -> 0 (off) / 1 (on); feature B -> 2/3.
            idx.extend_from_slice(&[a as u32, 2 + b as u32]);
            labels.push((a ^ b) as u8);
            envs.push((k % 2) as u16);
        }
        let x = MultiHotMatrix::new(idx, 2, 4).expect("well-formed");
        EnvDataset::new(x, labels, envs, vec!["e0".into(), "e1".into()]).expect("aligned")
    }

    fn fd_grad(model: &MlpModel<'_>, theta: &[f64], rows: &[u32]) -> Vec<f64> {
        let eps = 1e-6;
        (0..theta.len())
            .map(|i| {
                let mut plus = theta.to_vec();
                plus[i] += eps;
                let mut minus = theta.to_vec();
                minus[i] -= eps;
                (model.loss(&plus, rows) - model.loss(&minus, rows)) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let data = xor_world();
        let model = MlpModel::new(&data, 3, 0.01);
        let theta = model.init(5);
        let rows = data.env_rows(0);
        let mut grad = vec![0.0; model.dim()];
        model.grad(&theta, rows, &mut grad);
        let fd = fd_grad(&model, &theta, rows);
        for (i, (g, f)) in grad.iter().zip(&fd).enumerate() {
            assert!((g - f).abs() < 1e-6, "grad[{i}]: {g} vs fd {f}");
        }
    }

    #[test]
    fn mlp_hvp_matches_directional_fd_of_gradient() {
        let data = xor_world();
        let model = MlpModel::new(&data, 3, 0.01);
        let theta = model.init(7);
        let rows = data.env_rows(1);
        let v: Vec<f64> = (0..model.dim())
            .map(|i| ((i % 5) as f64 - 2.0) / 5.0)
            .collect();
        let mut hv = vec![0.0; model.dim()];
        model.hvp(&theta, rows, &v, &mut hv);
        // vᵀHv must match the second directional derivative of the loss.
        let eps = 1e-4;
        let step = |s: f64| -> Vec<f64> { theta.iter().zip(&v).map(|(t, d)| t + s * d).collect() };
        let second_dir = (model.loss(&step(eps), rows) - 2.0 * model.loss(&theta, rows)
            + model.loss(&step(-eps), rows))
            / (eps * eps);
        let vhv: f64 = v.iter().zip(&hv).map(|(a, b)| a * b).sum();
        assert!(
            (vhv - second_dir).abs() < 1e-3 * (1.0 + second_dir.abs()),
            "vHv {vhv} vs directional {second_dir}"
        );
    }

    #[test]
    fn linear_head_cannot_learn_xor_but_mlp_can() {
        let data = xor_world();
        let rows = data.all_rows();
        let labels = &data.labels;

        // Linear head (the production trainer) plateaus at chance.
        let linear = crate::trainers::LightMirmTrainer::new(TrainConfig {
            epochs: 200,
            inner_lr: 0.2,
            outer_lr: 0.5,
            momentum: 0.0,
            reg: 0.0,
            ..Default::default()
        })
        .fit(&data, None);
        let linear_acc = linear
            .model
            .predict_rows(&data.x, &rows, &data.env_ids)
            .iter()
            .zip(labels)
            .filter(|&(&p, &y)| (p >= 0.5) == (y != 0))
            .count() as f64
            / rows.len() as f64;
        assert!(
            linear_acc < 0.6,
            "a linear head must not solve XOR (acc {linear_acc})"
        );

        // MLP head under the same LightMIRM loop solves it.
        let model = MlpModel::new(&data, 6, 1e-5);
        let theta = light_mirm_generic(
            &model,
            &data,
            model.init(3),
            &TrainConfig {
                epochs: 400,
                inner_lr: 0.3,
                outer_lr: 1.5,
                lambda: 0.1,
                momentum: 0.0,
                reg: 0.0,
                seed: 3,
            },
            5,
            0.9,
        );
        let mlp_acc = model
            .predict_rows(&theta, &rows)
            .iter()
            .zip(labels)
            .filter(|&(&p, &y)| (p >= 0.5) == (y != 0))
            .count() as f64
            / rows.len() as f64;
        assert!(
            mlp_acc > 0.95,
            "the MLP head should solve XOR under LightMIRM (acc {mlp_acc})"
        );
    }

    /// The logistic head through the serial `lr::env_*` reference,
    /// implementing only `loss`/`grad`/`hvp`: the loop then runs on the
    /// trait's default cached methods.
    struct ReferenceObjective<'d> {
        data: &'d EnvDataset,
        reg: f64,
    }

    impl EnvObjective for ReferenceObjective<'_> {
        fn dim(&self) -> usize {
            self.data.n_cols()
        }

        fn loss(&self, theta: &[f64], rows: &[u32]) -> f64 {
            crate::lr::env_loss(theta, &self.data.x, &self.data.labels, rows, self.reg)
        }

        fn grad(&self, theta: &[f64], rows: &[u32], out: &mut [f64]) {
            crate::lr::env_grad(theta, &self.data.x, &self.data.labels, rows, self.reg, out);
        }

        fn hvp(&self, theta: &[f64], rows: &[u32], v: &[f64], out: &mut [f64]) {
            let (x, y) = (&self.data.x, &self.data.labels);
            crate::lr::env_hvp(theta, x, y, rows, self.reg, v, out);
        }
    }

    #[test]
    fn default_cached_methods_reproduce_the_production_trainer() {
        // Four environments, so each s_m is a real draw among three, and
        // one kernel chunk each, where the kernels equal the serial
        // reference bit for bit.
        let mut idx = Vec::new();
        let mut labels = Vec::new();
        let mut envs = Vec::new();
        for k in 0..1_600u64 {
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            idx.extend_from_slice(&[(h >> 20) as u32 % 6, 6 + (h >> 40) as u32 % 6]);
            labels.push(((h >> 8) % 3 == 0) as u8);
            envs.push((k % 4) as u16);
        }
        let x = MultiHotMatrix::new(idx, 2, 12).expect("well-formed");
        let names = (0..4).map(|e| format!("e{e}")).collect();
        let data = EnvDataset::new(x, labels, envs, names).expect("aligned");
        assert!(data.active_envs().len() >= 3);
        assert!(data
            .active_envs()
            .iter()
            .all(|&m| data.env_rows(m).len() <= crate::kernels::CHUNK_ROWS));

        let cfg = TrainConfig {
            epochs: 12,
            inner_lr: 0.2,
            outer_lr: 0.4,
            lambda: 0.5,
            reg: 1e-3,
            momentum: 0.9,
            seed: 21,
        };
        let production = crate::trainers::LightMirmTrainer::new(cfg.clone()).fit(&data, None);
        let objective = ReferenceObjective {
            data: &data,
            reg: cfg.reg,
        };
        let reference =
            light_mirm_generic(&objective, &data, vec![0.0; objective.dim()], &cfg, 5, 0.9);
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&production.model.global().weights), bits(&reference));
    }

    #[test]
    fn generic_loop_is_deterministic() {
        let data = xor_world();
        let model = MlpModel::new(&data, 3, 1e-4);
        let cfg = TrainConfig {
            epochs: 10,
            momentum: 0.0,
            ..Default::default()
        };
        let a = light_mirm_generic(&model, &data, model.init(9), &cfg, 5, 0.9);
        let b = light_mirm_generic(&model, &data, model.init(9), &cfg, 5, 0.9);
        assert_eq!(a, b);
    }

    #[test]
    fn predictions_are_probabilities() {
        let data = xor_world();
        let model = MlpModel::new(&data, 4, 0.0);
        let theta = model.init(11);
        for p in model.predict_rows(&theta, &data.all_rows()) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
