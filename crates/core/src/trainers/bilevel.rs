//! The one bi-level epoch loop behind meta-IRM (Algorithm 1) and
//! LightMIRM (Algorithm 2), generic over the model family.
//!
//! Each epoch takes, per environment `m`, the inner step
//! `θ̄_m = θ − α ∇R^m(θ)`, the meta-loss of `θ̄_m` over the task's target
//! environments, and the outer gradient chained through the inner step as
//! `u − α H_m(θ) u`. The algorithms differ only in data: the target rule
//! ([`Targets`]) and whether the mean target loss is replayed through the
//! MRQ ([`BiLevel::replay`]).
//!
//! Each phase runs env-parallel, all target draws happen up front on the
//! serial ChaCha stream, and per-environment contributions merge in env
//! order, so training is bit-identical for any thread count.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::env::EnvDataset;
use crate::kernels::{self, EnvScratch, ScratchPool};
use crate::lr::LrModel;
use crate::mrq::MetaReplayQueue;
use crate::timing::{OpCounter, Step, StepTimer};
use crate::trainers::{
    active_envs_checked, axpy_neg, sigma_coefficients, EpochObserver, MetaObs, Momentum,
    TrainConfig, TrainOutput, TrainedModel,
};

/// What the bi-level loop needs from a model family: per-environment
/// loss, gradient, and Hessian-vector product over a flat parameter
/// vector, plus a cached pair the loop actually calls.
///
/// The loop calls [`loss_grad_cached`](Self::loss_grad_cached) at `θ`
/// for each environment, then [`hvp_cached`](Self::hvp_cached) at the
/// same `θ` over the same rows with the same cache. A family with a
/// cheaper fused path overrides the pair; the default bodies are built
/// from `loss`/`grad`/`hvp` and ignore the cache.
pub trait EnvObjective: Sync {
    /// Flat parameter dimension.
    fn dim(&self) -> usize;

    /// Mean loss of `theta` over the given rows.
    fn loss(&self, theta: &[f64], rows: &[u32]) -> f64;

    /// Gradient of [`EnvObjective::loss`], written into `out`.
    fn grad(&self, theta: &[f64], rows: &[u32], out: &mut [f64]);

    /// Hessian-vector product of the loss at `theta` applied to `v`.
    /// The default implementation is a central finite difference of the
    /// gradient — exact up to `O(ε²)` and always available.
    fn hvp(&self, theta: &[f64], rows: &[u32], v: &[f64], out: &mut [f64]) {
        let eps = 1e-5;
        let mut plus = theta.to_vec();
        let mut minus = theta.to_vec();
        for ((p, m), &vi) in plus.iter_mut().zip(minus.iter_mut()).zip(v) {
            *p += eps * vi;
            *m -= eps * vi;
        }
        let mut g_plus = vec![0.0; theta.len()];
        let mut g_minus = vec![0.0; theta.len()];
        self.grad(&plus, rows, &mut g_plus);
        self.grad(&minus, rows, &mut g_minus);
        for ((o, gp), gm) in out.iter_mut().zip(&g_plus).zip(&g_minus) {
            *o = (gp - gm) / (2.0 * eps);
        }
    }

    /// Loss and gradient (into `grad_out`) in one call, free to fill
    /// `cache` (one slot per row of `rows`) for a later
    /// [`hvp_cached`](Self::hvp_cached) at the same `theta` and rows.
    fn loss_grad_cached(
        &self,
        theta: &[f64],
        rows: &[u32],
        grad_out: &mut [f64],
        _cache: &mut [f64],
    ) -> f64 {
        self.grad(theta, rows, grad_out);
        self.loss(theta, rows)
    }

    /// Hessian-vector product at `theta`, free to read the `cache` that
    /// [`loss_grad_cached`](Self::loss_grad_cached) filled at the same
    /// `theta` and rows.
    fn hvp_cached(&self, theta: &[f64], rows: &[u32], _cache: &[f64], v: &[f64], out: &mut [f64]) {
        self.hvp(theta, rows, v, out);
    }
}

/// The logistic-regression head as an [`EnvObjective`], on the fused
/// vectorized kernels of [`crate::kernels`]: the production objective of
/// [`crate::trainers::MetaIrmTrainer`] and
/// [`crate::trainers::LightMirmTrainer`]. Its cache holds each row's
/// logit `θᵀx`, so the outer HVP needs only the `xᵀv` pass.
pub struct LinearObjective<'d> {
    data: &'d EnvDataset,
    /// L2 regularization.
    pub reg: f64,
}

impl<'d> LinearObjective<'d> {
    /// Build the linear objective over a dataset.
    pub fn new(data: &'d EnvDataset, reg: f64) -> Self {
        LinearObjective { data, reg }
    }
}

impl EnvObjective for LinearObjective<'_> {
    fn dim(&self) -> usize {
        self.data.n_cols()
    }

    fn loss(&self, theta: &[f64], rows: &[u32]) -> f64 {
        kernels::env_loss(theta, &self.data.x, &self.data.labels, rows, self.reg)
    }

    fn grad(&self, theta: &[f64], rows: &[u32], out: &mut [f64]) {
        kernels::env_grad(theta, &self.data.x, &self.data.labels, rows, self.reg, out);
    }

    fn hvp(&self, theta: &[f64], rows: &[u32], v: &[f64], out: &mut [f64]) {
        let mut logits = vec![0.0; rows.len()];
        self.data.x.dot_rows_into(rows, theta, &mut logits);
        self.hvp_cached(theta, rows, &logits, v, out);
    }

    fn loss_grad_cached(
        &self,
        theta: &[f64],
        rows: &[u32],
        grad_out: &mut [f64],
        cache: &mut [f64],
    ) -> f64 {
        kernels::env_loss_grad_cached(
            theta,
            &self.data.x,
            &self.data.labels,
            rows,
            self.reg,
            grad_out,
            cache,
        )
    }

    fn hvp_cached(&self, _theta: &[f64], rows: &[u32], cache: &[f64], v: &[f64], out: &mut [f64]) {
        kernels::hvp_from_logits(cache, &self.data.x, rows, self.reg, v, out);
    }
}

/// Called after every epoch with `(epoch_index, flat parameters)`.
pub(crate) type ParamObserver<'a> = &'a mut dyn FnMut(usize, &[f64]);

/// The environments each task's meta-loss `R_meta(θ̄_m)` is evaluated on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Targets {
    /// Algorithm 2 line 8: one `s_m ≠ m` per task and epoch, drawn as one
    /// uniform over the `M − 1` other positions (an index shift, not a
    /// rejection loop). A single-environment world samples itself.
    Sampled,
    /// Algorithm 1 line 8: all other environments (`sample_size: None`),
    /// or `s` of them — a fixed pool drawn once per run
    /// (`resample: false`, the paper's meta-IRM(s)) or a subset redrawn
    /// per task and epoch.
    Others {
        sample_size: Option<usize>,
        resample: bool,
    },
}

/// One bi-level training run: everything that distinguishes meta-IRM
/// from LightMIRM is data in this struct.
pub(crate) struct BiLevel<'c> {
    pub(crate) config: &'c TrainConfig,
    /// `trainer` label of the run's spans and metrics.
    pub(crate) trainer: &'static str,
    pub(crate) targets: Targets,
    /// MRQ length `L` and decay γ. `Some`: `R_meta` is the replayed mean
    /// of the per-environment queue and the gradient is weighted by the
    /// newest entry's weight. `None`: `R_meta` is the mean itself.
    pub(crate) replay: Option<(usize, f64)>,
    /// Drop the Hessian-vector product (first-order MAML ablation).
    pub(crate) first_order: bool,
}

impl BiLevel<'_> {
    /// Train the logistic-regression head from `init` through
    /// [`LinearObjective`], the production path of both trainers.
    pub(crate) fn fit_lr(
        &self,
        data: &EnvDataset,
        init: LrModel,
        observer: Option<EpochObserver<'_>>,
    ) -> TrainOutput {
        let objective = LinearObjective::new(data, self.config.reg);
        let (weights, timer, ops) = match observer {
            Some(obs) => {
                // The observer sees an `LrModel`; refresh one snapshot
                // in place instead of allocating per epoch.
                let mut snapshot = LrModel::zeros(init.weights.len());
                let mut per_epoch = |epoch: usize, theta: &[f64]| {
                    snapshot.weights.copy_from_slice(theta);
                    obs(epoch, &snapshot);
                };
                self.run(&objective, data, init.weights, Some(&mut per_epoch))
            }
            None => self.run(&objective, data, init.weights, None),
        };
        TrainOutput {
            model: TrainedModel::Global(LrModel { weights }),
            timer,
            ops,
            epochs_run: self.config.epochs,
        }
    }

    /// The epoch loop over any [`EnvObjective`], from `theta0`. Calls
    /// `observer` after every epoch with the current parameters.
    ///
    /// # Panics
    ///
    /// Panics when `theta0.len() != objective.dim()` or no environment
    /// has data.
    pub(crate) fn run<O: EnvObjective>(
        &self,
        objective: &O,
        data: &EnvDataset,
        theta0: Vec<f64>,
        mut observer: Option<ParamObserver<'_>>,
    ) -> (Vec<f64>, StepTimer, OpCounter) {
        let cfg = self.config;
        let dim = objective.dim();
        assert_eq!(theta0.len(), dim, "theta0 must match the objective dim");
        let mut timer = StepTimer::new();
        let mut ops = OpCounter::new();
        let envs = timer.time(Step::LoadData, || active_envs_checked(data));
        let n_envs = envs.len() as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let fixed_pool = self.fixed_pool(&envs, &mut rng);
        let mut theta = theta0;

        // One MRQ per environment, zero-initialized (Algorithm 2 line 1).
        let mut queues: Vec<MetaReplayQueue> = match self.replay {
            Some((len, _)) => envs.iter().map(|_| MetaReplayQueue::new(len)).collect(),
            None => Vec::new(),
        };
        // Per-environment scratch (θ̄, gradients, u, HVP, cache),
        // allocated once and reused every epoch.
        let env_sizes: Vec<usize> = envs.iter().map(|&m| data.env_rows(m).len()).collect();
        let mut pool = ScratchPool::new(dim, &env_sizes);
        let mut outer = vec![0.0; dim];
        let mut momentum = Momentum::new(dim, cfg.momentum);
        let mobs = MetaObs::new(self.trainer, &envs);

        for epoch in 0..cfg.epochs {
            let _epoch_span = crate::span!("train_epoch", trainer = self.trainer, epoch = epoch);
            // targets[i] = environments of R_meta(θ̄_{envs[i]}), drawn up
            // front on the serial RNG stream so the draw sequence is
            // independent of the parallel schedule below.
            let targets = self.draw_targets(&envs, fixed_pool.as_deref(), &mut rng);
            let n_targets: u64 = targets.iter().map(|t| t.len() as u64).sum();

            // ---- inner step: lines 6–7, env-parallel -------------------
            // One fused pass per environment computes R^m(θ) (one forward
            // op) and ∇R^m(θ) (one backward op), filling the cache the
            // outer HVP at the same θ reuses.
            timer.time(Step::InnerOptimization, || {
                let theta = &theta;
                let mobs = mobs.as_ref();
                // Spans opened on the workers nest under this epoch.
                let parent = crate::obs::enabled().then(crate::obs::trace::current);
                pool.slots_mut()
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(i, slot)| {
                        let _parent = parent.map(crate::obs::trace::SpanContext::enter);
                        let _span = crate::span!("inner_step", env = envs[i]);
                        let t0 = mobs.map(|_| std::time::Instant::now());
                        let EnvScratch {
                            theta_bar,
                            grad,
                            logits,
                            ..
                        } = slot;
                        let _inner_loss =
                            objective.loss_grad_cached(theta, data.env_rows(envs[i]), grad, logits);
                        theta_bar.copy_from_slice(theta);
                        axpy_neg(theta_bar, cfg.inner_lr, grad);
                        if let (Some(mo), Some(t0)) = (mobs, t0) {
                            mo.inner_step[i].record_duration(t0.elapsed());
                        }
                    });
            });
            ops.add_forward(n_envs);
            ops.add_backward(n_envs);
            if let (Some(mo), Targets::Sampled) = (&mobs, self.targets) {
                for t in &targets {
                    if let Some(pos) = envs.iter().position(|&e| e == t[0]) {
                        mo.sampled_env[pos].inc();
                    }
                }
            }

            // ---- meta-losses, env-parallel ----------------------------
            let target_means: Vec<f64> = timer.time(Step::MetaLoss, || {
                pool.slots()
                    .par_iter()
                    .enumerate()
                    .map(|(i, slot)| {
                        let sum: f64 = targets[i]
                            .iter()
                            .map(|&e| objective.loss(&slot.theta_bar, data.env_rows(e)))
                            .sum();
                        sum / targets[i].len().max(1) as f64
                    })
                    .collect()
            });
            ops.add_forward(n_targets);

            // R_meta per environment, and the weight its gradient carries.
            let (meta_losses, grad_weights): (Vec<f64>, Vec<f64>) = match self.replay {
                None => (target_means, vec![1.0; envs.len()]),
                Some((_, gamma)) => {
                    for (queue, &loss) in queues.iter_mut().zip(&target_means) {
                        queue.push(loss);
                    }
                    if let Some(mo) = &mobs {
                        mo.mrq_push.add(n_envs);
                        mo.mrq_replay.add(n_envs);
                    }
                    queues
                        .iter()
                        .map(|q| (q.replayed_mean(gamma), q.newest_weight(gamma)))
                        .unzip()
                }
            };
            if let Some(mo) = &mobs {
                mo.record_sigma(&meta_losses);
            }

            // ---- outer update, env-parallel ---------------------------
            let coefs = sigma_coefficients(&meta_losses, cfg.lambda);
            let outer_t0 = mobs.as_ref().map(|_| std::time::Instant::now());
            timer.time(Step::Backward, || {
                let theta = &theta;
                pool.slots_mut()
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(i, slot)| {
                        let EnvScratch {
                            theta_bar,
                            grad,
                            u,
                            hvp,
                            logits,
                        } = slot;
                        // u = ∇_{θ̄} R_meta(θ̄_m): the mean target gradient.
                        match targets[i].as_slice() {
                            // Straight into u: accumulating `0.0 + g/1`
                            // would turn a −0.0 into +0.0.
                            &[e] => objective.grad(theta_bar, data.env_rows(e), u),
                            many => {
                                u.fill(0.0);
                                let k = many.len() as f64;
                                for &e in many {
                                    objective.grad(theta_bar, data.env_rows(e), grad);
                                    for (ui, &g) in u.iter_mut().zip(grad.iter()) {
                                        *ui += g / k;
                                    }
                                }
                            }
                        }
                        // Chain through the inner step: u − α H_m(θ) u,
                        // the Hessian at θ over env m's rows — where the
                        // inner pass filled the cache.
                        if !self.first_order {
                            objective.hvp_cached(theta, data.env_rows(envs[i]), logits, u, hvp);
                            for (ui, &h) in u.iter_mut().zip(hvp.iter()) {
                                *ui -= cfg.inner_lr * h;
                            }
                        }
                    });
            });
            ops.add_backward(n_targets);
            if !self.first_order {
                ops.add_hvp(n_envs);
            }
            // Ordered merge: environments accumulate in env order, so the
            // outer gradient is independent of the parallel schedule.
            outer.fill(0.0);
            for (i, slot) in pool.slots().iter().enumerate() {
                let scale = coefs[i] * grad_weights[i];
                for (o, &ui) in outer.iter_mut().zip(&slot.u) {
                    *o += scale * ui;
                }
            }
            momentum.step(&mut theta, cfg.outer_lr, &outer);
            if let (Some(mo), Some(t0)) = (&mobs, outer_t0) {
                mo.outer_step.record_duration(t0.elapsed());
                mo.epochs.inc();
            }
            if let Some(obs) = observer.as_mut() {
                obs(epoch, &theta);
            }
        }
        (theta, timer, ops)
    }

    /// The fixed province pool of meta-IRM(s), drawn once per run.
    fn fixed_pool(&self, envs: &[usize], rng: &mut ChaCha8Rng) -> Option<Vec<usize>> {
        match self.targets {
            Targets::Others {
                sample_size: Some(s),
                resample: false,
            } if s < envs.len() => {
                let mut pool = envs.to_vec();
                pool.shuffle(rng);
                pool.truncate(s.max(2)); // pool\{m} must be nonempty
                Some(pool)
            }
            _ => None,
        }
    }

    /// This epoch's target environments of every task, in env order.
    fn draw_targets(
        &self,
        envs: &[usize],
        fixed_pool: Option<&[usize]>,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<usize>> {
        match self.targets {
            Targets::Sampled if envs.len() == 1 => vec![envs.to_vec()],
            Targets::Sampled => (0..envs.len())
                .map(|i| {
                    let j = rng.gen_range(0..envs.len() - 1);
                    vec![envs[if j >= i { j + 1 } else { j }]]
                })
                .collect(),
            Targets::Others { sample_size, .. } => envs
                .iter()
                .map(|&m| {
                    let from = fixed_pool.unwrap_or(envs);
                    let mut others: Vec<usize> = from.iter().copied().filter(|&e| e != m).collect();
                    match sample_size {
                        Some(s) if fixed_pool.is_none() && s < others.len() => {
                            others.shuffle(rng);
                            others.truncate(s);
                            others
                        }
                        _ => others,
                    }
                })
                .collect(),
        }
    }
}
