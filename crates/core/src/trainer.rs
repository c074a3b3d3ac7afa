//! Mini-batch training loop with data-parallel gradient workers.
//!
//! The paper trains on Alibaba PAI with 5 parameter servers and 50 workers;
//! the single-machine analogue is synchronous data parallelism: each batch
//! of groups is sharded across threads, every thread builds per-group tapes
//! against a shared read-only parameter snapshot and produces local gradient
//! buffers, and the main thread merges them, clips, and applies one Adam
//! step. This keeps the mathematical behaviour of large-batch synchronous
//! SGD while using all cores.

use crate::features::GroupInput;
use crate::model::OdNetModel;
use od_tensor::{Adam, Graph, Optimizer, ParamStore, Tensor, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Optimization hyper-parameters shared by every trainable model.
#[derive(Clone, Copy, Debug)]
pub struct TrainHyper {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Groups per mini-batch.
    pub batch_groups: usize,
    /// Data-parallel worker threads.
    pub workers: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl From<&crate::config::OdnetConfig> for TrainHyper {
    fn from(c: &crate::config::OdnetConfig) -> Self {
        TrainHyper {
            learning_rate: c.learning_rate,
            epochs: c.epochs,
            batch_groups: c.batch_groups,
            workers: c.workers,
            grad_clip: c.grad_clip,
            seed: c.seed,
        }
    }
}

/// Anything trainable by the shared mini-batch loop: ODNET, its variants,
/// and every neural baseline.
pub trait TrainableModel: Sync {
    /// The parameter store holding all trainable tensors.
    fn store(&self) -> &ParamStore;
    /// Mutable access for the optimizer step.
    fn store_mut(&mut self) -> &mut ParamStore;
    /// Record one group's scalar loss on the tape.
    fn group_loss(&self, g: &mut Graph, group: &GroupInput) -> Value;
    /// Optimization hyper-parameters.
    fn hyper(&self) -> TrainHyper;
    /// The model's learnable θ (the Eq. 8 long/short-term blend), when it
    /// has one — surfaced in per-epoch telemetry and the `od_train_theta`
    /// gauge. Models without a θ (the baselines) report `None`.
    fn probe_theta(&self) -> Option<f32> {
        None
    }
}

impl TrainableModel for OdNetModel {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn group_loss(&self, g: &mut Graph, group: &GroupInput) -> Value {
        OdNetModel::group_loss(self, g, group)
    }

    fn hyper(&self) -> TrainHyper {
        TrainHyper::from(&self.config)
    }

    fn probe_theta(&self) -> Option<f32> {
        Some(self.theta())
    }
}

/// Why a training run was aborted: the loss or a merged gradient went
/// non-finite, so continuing would optimize on NaN gradients and silently
/// destroy every parameter. The indices name the first offending mini-batch
/// so the failure is reproducible.
#[derive(Clone, Debug, PartialEq)]
pub enum TrainError {
    /// A mini-batch produced a NaN/infinite loss.
    NonFiniteLoss {
        /// Epoch of the offending batch (0-based).
        epoch: usize,
        /// Batch index within the epoch (0-based).
        batch: usize,
        /// The offending loss value.
        loss: f64,
    },
    /// A merged gradient tensor carries NaN/±∞ (caught by
    /// [`Tensor::all_finite`] before the optimizer step).
    NonFiniteGrad {
        /// Epoch of the offending batch (0-based).
        epoch: usize,
        /// Batch index within the epoch (0-based).
        batch: usize,
        /// Dense index of the first offending parameter.
        param: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteLoss { epoch, batch, loss } => write!(
                f,
                "non-finite loss {loss} in epoch {epoch}, batch {batch}: aborting instead of \
                 optimizing on NaN gradients"
            ),
            TrainError::NonFiniteGrad {
                epoch,
                batch,
                param,
            } => write!(
                f,
                "non-finite gradient for parameter {param} in epoch {epoch}, batch {batch}: \
                 aborting instead of applying a NaN update"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// One epoch's telemetry row: what `train --metrics-jsonl` writes per
/// line, and what feeds the `od_train_*` registry series.
#[derive(Clone, Debug, serde::Serialize)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean per-group loss over the epoch.
    pub mean_loss: f32,
    /// The learnable θ after the epoch ([`TrainableModel::probe_theta`]);
    /// `None` for models without one.
    pub theta: Option<f32>,
    /// Mean pre-clip global gradient norm across the epoch's batches.
    pub grad_norm_mean: f32,
    /// Largest pre-clip global gradient norm seen in the epoch.
    pub grad_norm_max: f32,
    /// Mini-batches processed.
    pub batches: usize,
    /// Wall-clock seconds this epoch took.
    pub wall_secs: f64,
}

/// Per-epoch training telemetry.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean per-group loss for each epoch.
    pub epoch_losses: Vec<f32>,
    /// Full per-epoch telemetry (losses, θ, gradient norms, timing) —
    /// `epoch_losses` remains as the compact view of the same run.
    pub epochs: Vec<EpochMetrics>,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Groups processed per second, averaged over the run.
    pub groups_per_second: f64,
}

impl TrainReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }

    /// The per-epoch rows as JSON Lines — one object per epoch, newline
    /// terminated, ready to append to a metrics file.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.epochs {
            out.push_str(&serde_json::to_string(row).expect("epoch row serializes"));
            out.push('\n');
        }
        out
    }
}

/// Registry-backed training instruments, registered once per process (the
/// trainer is a library: several sequential runs fold into the same
/// monotone series, matching the engine's Prometheus-style semantics).
struct TrainInstruments {
    epochs: od_obs::Counter,
    batches: od_obs::Counter,
    epoch_ns: od_obs::LatencyHistogram,
    /// Pre-clip global gradient norms ×10⁶ (the histogram domain is
    /// integer, so norms are recorded in micro-units: 1.0 → 1_000_000).
    grad_norm_micro: od_obs::LatencyHistogram,
    loss: od_obs::FloatGauge,
    theta: od_obs::FloatGauge,
}

fn train_instruments() -> &'static TrainInstruments {
    static INSTRUMENTS: std::sync::OnceLock<TrainInstruments> = std::sync::OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let reg = od_obs::global();
        TrainInstruments {
            epochs: reg.counter("od_train_epochs_total", "Training epochs completed"),
            batches: reg.counter("od_train_batches_total", "Training mini-batches applied"),
            epoch_ns: reg.histogram("od_train_epoch_ns", "Wall-clock time per training epoch"),
            grad_norm_micro: reg.histogram(
                "od_train_grad_norm_micro",
                "Pre-clip global gradient norm per mini-batch, in 1e-6 units",
            ),
            loss: reg.float_gauge("od_train_loss", "Mean per-group loss of the last epoch"),
            theta: reg.float_gauge("od_train_theta", "Learnable θ after the last epoch"),
        }
    })
}

/// Worker-local gradient accumulator keyed by dense parameter index.
struct GradBuffer {
    grads: Vec<Option<Tensor>>,
    loss_sum: f64,
    groups: usize,
}

impl GradBuffer {
    fn new(num_params: usize) -> Self {
        GradBuffer {
            grads: (0..num_params).map(|_| None).collect(),
            loss_sum: 0.0,
            groups: 0,
        }
    }

    fn absorb(&mut self, graph: &Graph) {
        for (id, grad) in graph.param_grads() {
            match &mut self.grads[id.index()] {
                Some(acc) => acc.axpy(1.0, grad),
                slot @ None => *slot = Some(grad.clone()),
            }
        }
    }
}

/// Train `model` on `groups` per its hyper-parameters (epochs, batch size,
/// learning rate, workers). Deterministic for a fixed config seed and worker
/// count of 1; with multiple workers, floating-point merge order is
/// deterministic too (workers are merged in index order), so runs remain
/// reproducible.
///
/// # Panics
/// Panics with the [`TrainError`] message when the loss or a gradient goes
/// non-finite; use [`try_train`] to handle that as a typed error.
pub fn train<M: TrainableModel>(model: &mut M, groups: &[GroupInput]) -> TrainReport {
    try_train(model, groups).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`train`]: aborts with a typed [`TrainError`] naming
/// the offending epoch/batch as soon as a mini-batch loss or a merged
/// gradient goes non-finite, instead of letting Adam apply NaN updates that
/// silently destroy the model.
pub fn try_train<M: TrainableModel>(
    model: &mut M,
    groups: &[GroupInput],
) -> Result<TrainReport, TrainError> {
    assert!(!groups.is_empty(), "cannot train on zero groups");
    let hyper = model.hyper();
    let epochs = hyper.epochs;
    let batch_groups = hyper.batch_groups.max(1);
    let workers = hyper.workers.max(1);
    let mut opt = Adam::with_lr(hyper.learning_rate);
    let mut order: Vec<usize> = (0..groups.len()).collect();
    let mut rng = StdRng::seed_from_u64(hyper.seed ^ 0x7EA1);
    let mut epoch_losses = Vec::with_capacity(epochs);
    let mut epoch_rows: Vec<EpochMetrics> = Vec::with_capacity(epochs);
    let instruments = train_instruments();
    let started = Instant::now();
    for epoch in 0..epochs {
        let epoch_started = Instant::now();
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut loss_groups = 0usize;
        let mut grad_norm_sum = 0.0f64;
        let mut grad_norm_max = 0.0f32;
        let mut batches = 0usize;
        for (batch_idx, batch) in order.chunks(batch_groups).enumerate() {
            let buffers = process_batch(model, groups, batch, workers);
            let store = model.store_mut();
            store.zero_grads();
            let mut batch_loss = 0.0f64;
            for buf in &buffers {
                batch_loss += buf.loss_sum;
                loss_groups += buf.groups;
                for (idx, grad) in buf.grads.iter().enumerate() {
                    if let Some(grad) = grad {
                        // Dense index: `ids().nth(idx)` here made the merge
                        // O(P²) in the parameter count.
                        let id = store.id_at(idx);
                        store.grad_mut(id).axpy(1.0, grad);
                    }
                }
            }
            if !batch_loss.is_finite() {
                return Err(TrainError::NonFiniteLoss {
                    epoch,
                    batch: batch_idx,
                    loss: batch_loss,
                });
            }
            loss_sum += batch_loss;
            // Average over the batch's samples is already inside each group
            // loss; average over groups here.
            let scale = 1.0 / batch.len() as f32;
            for (param, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
                let g = store.grad_mut(id);
                for v in g.as_mut_slice() {
                    *v *= scale;
                }
                if !g.all_finite() {
                    return Err(TrainError::NonFiniteGrad {
                        epoch,
                        batch: batch_idx,
                        param,
                    });
                }
            }
            // Pre-clip norm: `clip_grad_norm` recomputes it anyway, so the
            // probe is the only extra O(P) pass, and the *unclipped* norm
            // is the diagnostic one (a clipped norm saturates at the
            // configured ceiling and hides divergence).
            let norm = store.grad_norm();
            grad_norm_sum += norm as f64;
            grad_norm_max = grad_norm_max.max(norm);
            instruments
                .grad_norm_micro
                .record((norm.max(0.0) as f64 * 1e6) as u64);
            batches += 1;
            store.clip_grad_norm(hyper.grad_clip);
            opt.step(store);
        }
        let mean_loss = (loss_sum / loss_groups.max(1) as f64) as f32;
        let theta = model.probe_theta();
        let epoch_wall = epoch_started.elapsed();
        epoch_losses.push(mean_loss);
        epoch_rows.push(EpochMetrics {
            epoch,
            mean_loss,
            theta,
            grad_norm_mean: (grad_norm_sum / batches.max(1) as f64) as f32,
            grad_norm_max,
            batches,
            wall_secs: epoch_wall.as_secs_f64(),
        });
        instruments.epochs.inc();
        instruments.batches.add(batches as u64);
        instruments.epoch_ns.record_duration(epoch_wall);
        instruments.loss.set(mean_loss as f64);
        if let Some(theta) = theta {
            instruments.theta.set(theta as f64);
        }
    }
    let wall_time = started.elapsed();
    let total_groups = groups.len() * epochs;
    Ok(TrainReport {
        epoch_losses,
        epochs: epoch_rows,
        wall_time,
        groups_per_second: total_groups as f64 / wall_time.as_secs_f64().max(1e-9),
    })
}

/// Shard one batch across worker threads; each worker returns its local
/// gradient buffer.
fn process_batch<M: TrainableModel>(
    model: &M,
    groups: &[GroupInput],
    batch: &[usize],
    workers: usize,
) -> Vec<GradBuffer> {
    let num_params = model.store().len();
    let run_shard = |shard: &[usize]| -> GradBuffer {
        let mut buf = GradBuffer::new(num_params);
        // One tape per worker, reset between groups: node storage is
        // retained, so steady-state training does no tape reallocation.
        let mut g = Graph::new();
        for &gi in shard {
            let group = &groups[gi];
            if group.candidates.is_empty() {
                continue;
            }
            g.reset();
            let loss = model.group_loss(&mut g, group);
            buf.loss_sum += g.value(loss).item() as f64;
            buf.groups += 1;
            g.backward(loss);
            buf.absorb(&g);
        }
        buf
    };
    if workers <= 1 || batch.len() < 2 {
        return vec![run_shard(batch)];
    }
    let chunk = batch.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(chunk)
            .map(|shard| scope.spawn(move || run_shard(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker must not panic"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OdnetConfig;
    use crate::features::FeatureExtractor;
    use crate::model::Variant;
    use od_data::{FliggyConfig, FliggyDataset};

    fn setup(variant: Variant, workers: usize) -> (OdNetModel, Vec<GroupInput>) {
        let ds = FliggyDataset::generate(FliggyConfig::tiny());
        let mut cfg = OdnetConfig::tiny();
        cfg.workers = workers;
        cfg.epochs = 2;
        let hsg = variant.uses_graph().then(|| ds.hsg());
        let model = OdNetModel::new(
            variant,
            cfg,
            ds.world.num_users(),
            ds.world.num_cities(),
            hsg,
        );
        let fx = FeatureExtractor::new(6, 4);
        let groups: Vec<GroupInput> = fx
            .groups_from_samples(&ds, &ds.train)
            .into_iter()
            .take(40)
            .collect();
        (model, groups)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (mut model, groups) = setup(Variant::OdnetG, 1);
        let report = train(&mut model, &groups);
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "loss did not improve: {:?}",
            report.epoch_losses
        );
        assert!(report.final_loss().is_finite());
        assert!(report.groups_per_second > 0.0);
    }

    #[test]
    fn graph_variant_trains_too() {
        let (mut model, groups) = setup(Variant::Odnet, 1);
        let report = train(&mut model, &groups);
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn parallel_training_matches_serial_loss_scale() {
        // Not bit-identical across worker counts (float summation order
        // differs inside merged buffers), but both must train successfully
        // to a similar loss.
        let (mut serial, groups) = setup(Variant::OdnetG, 1);
        let (mut parallel, _) = setup(Variant::OdnetG, 4);
        let rs = train(&mut serial, &groups);
        let rp = train(&mut parallel, &groups);
        assert!((rs.final_loss() - rp.final_loss()).abs() < 0.1);
    }

    #[test]
    fn training_moves_theta() {
        let (mut model, groups) = setup(Variant::Odnet, 1);
        let before = model.theta();
        train(&mut model, &groups);
        // θ is learnable (Eq. 8) — it must have moved off its init.
        assert_ne!(model.theta(), before);
        assert!((0.0..1.0).contains(&model.theta()));
    }

    #[test]
    #[should_panic(expected = "zero groups")]
    fn rejects_empty_training_set() {
        let (mut model, _) = setup(Variant::StlG, 1);
        train(&mut model, &[]);
    }

    #[test]
    fn non_finite_batch_aborts_with_batch_index() {
        // A NaN feature in the very first group poisons the backward pass;
        // the guard must abort epoch 0 at batch 0 instead of optimizing on
        // NaN gradients. Depending on where clamping ops launder the NaN,
        // it surfaces as a non-finite loss or a non-finite gradient — both
        // typed errors name the offending batch.
        let (mut model, mut groups) = setup(Variant::StlG, 1);
        for g in &mut groups {
            g.candidates[0].xst_o[0] = f32::NAN;
        }
        match try_train(&mut model, &groups) {
            Err(TrainError::NonFiniteLoss { epoch, batch, loss }) => {
                assert_eq!((epoch, batch), (0, 0));
                assert!(!loss.is_finite());
            }
            Err(TrainError::NonFiniteGrad { epoch, batch, .. }) => {
                assert_eq!((epoch, batch), (0, 0));
            }
            other => panic!("expected a non-finite abort, got {other:?}"),
        }
        // The abort happened before any optimizer step, so every parameter
        // is still finite.
        for id in model.store.ids().collect::<Vec<_>>() {
            assert!(model.store.value(id).all_finite(), "parameters corrupted");
        }
    }

    #[test]
    fn epoch_telemetry_rows_are_complete_and_jsonl_parses() {
        let (mut model, groups) = setup(Variant::Odnet, 1);
        let report = train(&mut model, &groups);
        assert_eq!(report.epochs.len(), report.epoch_losses.len());
        for (i, row) in report.epochs.iter().enumerate() {
            assert_eq!(row.epoch, i);
            assert_eq!(row.mean_loss, report.epoch_losses[i]);
            assert!(row.batches > 0);
            assert!(row.grad_norm_mean > 0.0, "training must have gradients");
            assert!(row.grad_norm_max >= row.grad_norm_mean);
            assert!(row.wall_secs >= 0.0);
        }
        // The full variant exposes θ in every row.
        assert!(report.epochs.iter().all(|r| r.theta.is_some()));
        assert_eq!(
            report.epochs.last().unwrap().theta,
            Some(model.theta()),
            "last row's θ is the final trained θ"
        );
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), report.epochs.len());
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON row");
            for key in ["epoch", "mean_loss", "theta", "grad_norm_mean", "wall_secs"] {
                assert!(v.get(key).is_some(), "JSONL row missing {key}");
            }
        }
        // The registry saw the run: epochs counted, norms recorded.
        let snap = od_obs::global().snapshot();
        assert!(snap.counter("od_train_epochs_total") >= report.epochs.len() as u64);
        assert!(snap.histogram("od_train_grad_norm_micro").count() > 0);
    }

    #[test]
    fn finite_training_is_unchanged_by_the_guard() {
        let (mut model, groups) = setup(Variant::StlG, 1);
        let report = try_train(&mut model, &groups).expect("finite run trains");
        assert!(report.final_loss().is_finite());
    }
}
