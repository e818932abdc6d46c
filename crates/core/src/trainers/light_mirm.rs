//! LightMIRM (paper Algorithm 2): meta-IRM accelerated by environment
//! sampling and meta-loss replaying.
//!
//! Per outer iteration, for every environment `m`:
//!
//! 1. **Inner step** as in meta-IRM (lines 6–7);
//! 2. **Environment sampling** (line 8) — draw one `s_m ≠ m`;
//! 3. **Meta-loss replaying** (lines 9–10) — compute only
//!    `R^{s_m}(θ̄_m)`, push it into the per-environment MRQ, and read the
//!    decayed recombination as the approximate meta-loss;
//! 4. **Outer update** (lines 12–13) — as meta-IRM, except gradients flow
//!    only through the newest queue entry ("only the last element in the
//!    queue has gradients"), so the backward cost is `O(M)`.
//!
//! Per-iteration first-order op count: `M` (line 6) + `M` (line 7) + `M`
//! (line 9) + `M` (line 13) = `4M`, asserted exactly in tests against
//! meta-IRM's `2M²`.
//!
//! The loop itself is [`crate::trainers::bilevel`], shared with
//! meta-IRM: this trainer supplies the one-sample target rule and the
//! MRQ recombination.

use crate::env::EnvDataset;
use crate::lr::LrModel;
use crate::trainers::bilevel::{BiLevel, Targets};
use crate::trainers::{EpochObserver, TrainConfig, TrainOutput};

/// LightMIRM trainer.
#[derive(Debug, Clone)]
pub struct LightMirmTrainer {
    pub config: TrainConfig,
    /// Length `L` of the meta-loss replaying queue (paper default 5).
    pub mrq_len: usize,
    /// Decay coefficient γ of Eq. (9) (paper default 0.9).
    pub gamma: f64,
}

impl LightMirmTrainer {
    /// Build with the paper's default MRQ length 5 and γ = 0.9.
    pub fn new(config: TrainConfig) -> Self {
        Self::with_mrq(config, 5, 0.9)
    }

    /// Build with explicit MRQ length and decay (the ablations of
    /// Fig. 9 and Table IV).
    ///
    /// # Panics
    ///
    /// Panics when `mrq_len == 0` or `gamma` is outside `(0, 1]`.
    pub fn with_mrq(config: TrainConfig, mrq_len: usize, gamma: f64) -> Self {
        assert!(mrq_len >= 1, "MRQ length must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        LightMirmTrainer {
            config,
            mrq_len,
            gamma,
        }
    }

    /// Train per Algorithm 2, starting from the zero head.
    pub fn fit(&self, data: &EnvDataset, observer: Option<EpochObserver<'_>>) -> TrainOutput {
        self.fit_warm(data, LrModel::zeros(data.n_cols()), observer)
    }

    /// Train per Algorithm 2 from an explicit initial head — the online
    /// adaptation warm start: the serving layer seeds the retrain with
    /// the champion's weights so few epochs over a small labeled buffer
    /// suffice. `fit` is exactly `fit_warm` from the zero head, so the
    /// two are bit-identical on that initialization.
    ///
    /// # Panics
    ///
    /// Panics when `init.weights.len() != data.n_cols()`.
    pub fn fit_warm(
        &self,
        data: &EnvDataset,
        init: LrModel,
        observer: Option<EpochObserver<'_>>,
    ) -> TrainOutput {
        assert_eq!(
            init.weights.len(),
            data.n_cols(),
            "warm-start head dimension must match the dataset"
        );
        self.bilevel().fit_lr(data, init, observer)
    }

    /// Algorithm 2 as data for the shared bi-level loop.
    pub(crate) fn bilevel(&self) -> BiLevel<'_> {
        BiLevel {
            config: &self.config,
            trainer: "lightmirm",
            targets: Targets::Sampled,
            replay: Some((self.mrq_len, self.gamma)),
            first_order: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::MultiHotMatrix;
    use crate::trainers::MetaIrmTrainer;

    /// Same anti-causal toy as the meta-IRM tests: invariant leaves 0/1,
    /// spurious leaves 2/3 that flip direction in env 2.
    fn irm_toy(rows_per_env: &[usize]) -> EnvDataset {
        let mut idx = Vec::new();
        let mut labels = Vec::new();
        let mut envs = Vec::new();
        let mut counter = 0usize;
        for (env, &n) in rows_per_env.iter().enumerate() {
            for _ in 0..n {
                counter += 1;
                let y = (counter % 2) as u8;
                let noise = counter.wrapping_mul(2654435761).is_multiple_of(4);
                let inv = if (y == 1) != noise { 0u32 } else { 1 };
                let spur_aligned = env < 2;
                let spur = if (y == 1) == spur_aligned { 2u32 } else { 3 };
                idx.extend_from_slice(&[inv, spur]);
                labels.push(y);
                envs.push(env as u16);
            }
        }
        let x = MultiHotMatrix::new(idx, 2, 4).unwrap();
        let names = (0..rows_per_env.len()).map(|i| format!("e{i}")).collect();
        EnvDataset::new(x, labels, envs, names).unwrap()
    }

    fn cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            inner_lr: 0.3,
            outer_lr: 1.0,
            lambda: 0.5,
            reg: 1e-4,
            momentum: 0.0,
            seed: 5,
        }
    }

    fn spurious_ratio(model: &LrModel) -> f64 {
        let inv = (model.weights[0] - model.weights[1]).abs();
        let spur = (model.weights[2] - model.weights[3]).abs();
        spur / inv.max(1e-9)
    }

    #[test]
    fn op_count_is_exactly_4m_per_epoch() {
        let data = irm_toy(&[50, 50, 50, 50]);
        let epochs = 3u64;
        let m = 4u64;
        let out = LightMirmTrainer::new(cfg(epochs as usize)).fit(&data, None);
        assert_eq!(out.ops.total(), epochs * 4 * m);
        assert_eq!(out.ops.hvp, epochs * m);
    }

    #[test]
    fn linear_vs_quadratic_scaling() {
        // The §III-F claim: as M grows, LightMIRM ops grow linearly and
        // meta-IRM ops quadratically.
        for m in [3usize, 5, 8] {
            let data = irm_toy(&vec![40; m]);
            let light = LightMirmTrainer::new(cfg(1)).fit(&data, None);
            let meta = MetaIrmTrainer::new(cfg(1)).fit(&data, None);
            assert_eq!(light.ops.total(), 4 * m as u64);
            assert_eq!(meta.ops.total(), 2 * (m * m) as u64);
        }
    }

    #[test]
    fn light_mirm_avoids_spurious_features() {
        let data = irm_toy(&[300, 300, 100]);
        let erm = crate::trainers::ErmTrainer::new(cfg(60)).fit(&data, None);
        let light = LightMirmTrainer::new(cfg(60)).fit(&data, None);
        let r_erm = spurious_ratio(erm.model.global());
        let r_light = spurious_ratio(light.model.global());
        assert!(
            r_light < r_erm,
            "LightMIRM spurious reliance {r_light:.3} should be below ERM's {r_erm:.3}"
        );
    }

    #[test]
    fn tracks_complete_meta_irm_on_the_toy() {
        // Fig. 6's qualitative claim: LightMIRM reaches the quality of the
        // complete meta-IRM. On this toy, compare the invariant-feature
        // alignment of both after training.
        let data = irm_toy(&[200, 200, 200]);
        let meta = MetaIrmTrainer::new(cfg(40)).fit(&data, None);
        let light = LightMirmTrainer::new(cfg(40)).fit(&data, None);
        let r_meta = spurious_ratio(meta.model.global());
        let r_light = spurious_ratio(light.model.global());
        assert!(
            (r_light - r_meta).abs() < 0.3,
            "light {r_light:.3} vs meta {r_meta:.3} should be in the same regime"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = irm_toy(&[80, 80, 80]);
        let a = LightMirmTrainer::new(cfg(6)).fit(&data, None);
        let b = LightMirmTrainer::new(cfg(6)).fit(&data, None);
        assert_eq!(a.model.global().weights, b.model.global().weights);
        let mut other = cfg(6);
        other.seed = 1234;
        let c = LightMirmTrainer::new(other).fit(&data, None);
        assert_ne!(a.model.global().weights, c.model.global().weights);
    }

    #[test]
    fn mrq_length_one_equals_pure_sampling_semantics() {
        // With L = 1 the replayed mean is exactly the newest sampled loss;
        // the trainer still runs and matches the 4M op count.
        let data = irm_toy(&[60, 60, 60]);
        let out = LightMirmTrainer::with_mrq(cfg(4), 1, 0.9).fit(&data, None);
        assert_eq!(out.ops.total(), 4 * 4 * 3);
    }

    #[test]
    fn gamma_one_is_uniform_replay() {
        let data = irm_toy(&[60, 60, 60]);
        // Should train without numerical issues at the γ = 1 boundary.
        let out = LightMirmTrainer::with_mrq(cfg(10), 5, 1.0).fit(&data, None);
        assert!(out.model.global().weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_gamma_above_one() {
        let _ = LightMirmTrainer::with_mrq(cfg(1), 5, 1.5);
    }

    #[test]
    #[should_panic(expected = "MRQ length")]
    fn rejects_zero_queue() {
        let _ = LightMirmTrainer::with_mrq(cfg(1), 0, 0.9);
    }

    #[test]
    fn single_environment_degenerates_gracefully() {
        let data = irm_toy(&[100]);
        let out = LightMirmTrainer::new(cfg(5)).fit(&data, None);
        assert!(out.model.global().weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn fit_warm_from_zeros_is_bit_identical_to_fit() {
        let data = irm_toy(&[80, 80, 80]);
        let cold = LightMirmTrainer::new(cfg(6)).fit(&data, None);
        let warm =
            LightMirmTrainer::new(cfg(6)).fit_warm(&data, LrModel::zeros(data.n_cols()), None);
        assert_eq!(cold.model.global().weights, warm.model.global().weights);
    }

    #[test]
    fn fit_warm_starts_from_the_given_head() {
        let data = irm_toy(&[80, 80, 80]);
        let init = LrModel {
            weights: (0..data.n_cols()).map(|i| 0.25 * i as f64).collect(),
        };
        // Zero epochs: the warm start must come back untouched.
        let out = LightMirmTrainer::new(cfg(0)).fit_warm(&data, init.clone(), None);
        assert_eq!(out.model.global().weights, init.weights);
        // And a different init must steer a short run elsewhere.
        let warm = LightMirmTrainer::new(cfg(3)).fit_warm(&data, init, None);
        let cold = LightMirmTrainer::new(cfg(3)).fit(&data, None);
        assert_ne!(warm.model.global().weights, cold.model.global().weights);
    }

    #[test]
    #[should_panic(expected = "warm-start head dimension")]
    fn fit_warm_rejects_dimension_mismatch() {
        let data = irm_toy(&[40, 40]);
        let _ = LightMirmTrainer::new(cfg(1)).fit_warm(&data, LrModel::zeros(3), None);
    }

    #[test]
    fn observer_called_every_epoch() {
        let data = irm_toy(&[60, 60]);
        let mut count = 0usize;
        let mut obs = |_e: usize, _m: &LrModel| count += 1;
        LightMirmTrainer::new(cfg(7)).fit(&data, Some(&mut obs));
        assert_eq!(count, 7);
    }
}
