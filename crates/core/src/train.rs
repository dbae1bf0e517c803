//! DONN training loop (`lr.train` in the paper's DSL).
//!
//! Training follows the paper exactly: intensity-encoded complex inputs
//! (`data_to_cplex`), forward emulation through the stacked diffractive
//! layers, `Softmax(I)` + MSE loss against one-hot labels (§2.1), Adam
//! updates (§5.1), and — for codesign layers — Gumbel-Softmax temperature
//! annealing across epochs.
//!
//! Samples within a batch are independent given the shared parameters, so
//! the batch is sharded across worker threads (`lr_tensor::parallel`), each
//! shard accumulating private gradient buffers that are merged afterwards.

use crate::layers::codesign::CodesignMode;
use crate::model::{
    BatchTrace, BatchWorkspace, DonnModel, ModelGrads, PropagationWorkspace, Trace,
};
use lr_nn::loss::{one_hot_into, softmax_mse_into};
use lr_nn::metrics::{argmax, Accuracy};
use lr_nn::{Adam, Optimizer};
use lr_tensor::{parallel, Field, FieldBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// An intensity image with its class label. Images are row-major amplitude
/// buffers matching the model grid; they are complex-encoded (`θ = 0`) on
/// the fly.
pub type LabeledImage = (Vec<f64>, usize);

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper §5.1 uses 0.5 for phase parameters).
    pub learning_rate: f64,
    /// Gumbel-Softmax temperature at epoch 0 (codesign layers only).
    pub initial_temperature: f64,
    /// Gumbel-Softmax temperature at the final epoch (annealed
    /// geometrically).
    pub final_temperature: f64,
    /// Shuffling / noise seed.
    pub seed: u64,
    /// Print an epoch summary to stdout.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            learning_rate: 0.5,
            initial_temperature: 1.0,
            final_temperature: 0.2,
            seed: 7,
            verbose: false,
        }
    }
}

/// A per-worker ring of reusable forward [`Trace`]s.
///
/// The forward pass of one sample produces a `Trace` whose per-layer
/// activation caches used to be freshly allocated every sample — the last
/// allocating piece of the training step after PR 1's workspace split. A
/// `TraceRing` keeps `capacity` traces alive and cycles through them:
/// [`TraceRing::forward`] overwrites the oldest slot in place via
/// [`DonnModel::forward_trace_into`], so in steady state the forward trace
/// (and, with [`DonnModel::backward_with`], the whole training step for
/// diffractive stacks) performs **zero heap allocations** — enforced by
/// `tests/zero_alloc.rs`.
///
/// Each shard/worker owns one ring, mirroring the workspace-reuse contract:
/// rings are never shared across threads. The training loop uses capacity
/// 1 (forward and backward alternate strictly, so one live trace
/// suffices); capacity > 1 is for callers that interleave models or
/// shapes — the ring then keeps one slot shaped per stream instead of
/// reshaping (reallocating) a single slot on every switch.
#[derive(Debug, Clone)]
pub struct TraceRing {
    slots: Vec<Trace>,
    capacity: usize,
    next: usize,
}

impl TraceRing {
    /// Creates an empty ring that will hold up to `capacity` traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs at least one slot");
        TraceRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Number of trace slots currently materialized.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no trace has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs a forward pass through the next ring slot, reusing its buffers
    /// in place (allocating only while the ring is still filling up), and
    /// returns the completed trace.
    pub fn forward<'a>(
        &'a mut self,
        model: &DonnModel,
        input: &Field,
        mode: CodesignMode,
        seed: u64,
        ws: &mut PropagationWorkspace,
    ) -> &'a Trace {
        if self.slots.len() < self.capacity {
            self.slots
                .push(model.forward_trace_with(input, mode, seed, ws));
            self.slots.last().expect("just pushed")
        } else {
            let i = self.next;
            self.next = (self.next + 1) % self.capacity;
            model.forward_trace_into(input, mode, seed, ws, &mut self.slots[i]);
            &self.slots[i]
        }
    }
}

/// A per-worker ring of reusable **batched** forward traces — the batched
/// counterpart of [`TraceRing`], holding [`BatchTrace`]s whose per-layer
/// activation caches span a whole worker shard. [`BatchTraceRing::forward`]
/// overwrites the oldest slot in place via
/// [`DonnModel::forward_trace_batch_into`], so in steady state the batched
/// training step (one fused forward + one fused backward per shard)
/// performs zero heap allocations for diffractive stacks — the same
/// contract as the per-sample ring, enforced by `tests/zero_alloc.rs`.
/// Rings are never shared across threads.
#[derive(Debug, Clone)]
pub struct BatchTraceRing {
    slots: Vec<BatchTrace>,
    capacity: usize,
    next: usize,
}

impl BatchTraceRing {
    /// Creates an empty ring that will hold up to `capacity` batch traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs at least one slot");
        BatchTraceRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Number of trace slots currently materialized.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no trace has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs one batched traced forward pass through the next ring slot,
    /// reusing its buffers in place (allocating only while the ring fills
    /// up or a batch outgrows its slot), and returns the completed trace.
    pub fn forward<'a>(
        &'a mut self,
        model: &DonnModel,
        inputs: &FieldBatch,
        mode: CodesignMode,
        seeds: &[u64],
        ws: &mut BatchWorkspace,
    ) -> &'a BatchTrace {
        if self.slots.len() < self.capacity {
            let mut trace = BatchTrace::new();
            model.forward_trace_batch_into(inputs, mode, seeds, ws, &mut trace);
            self.slots.push(trace);
            self.slots.last().expect("just pushed")
        } else {
            let i = self.next;
            self.next = (self.next + 1) % self.capacity;
            model.forward_trace_batch_into(inputs, mode, seeds, ws, &mut self.slots[i]);
            &self.slots[i]
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f64,
    /// Training accuracy.
    pub train_accuracy: f64,
    /// Gumbel temperature used this epoch.
    pub temperature: f64,
}

/// Trains `model` on `data` and returns per-epoch statistics.
///
/// # Panics
///
/// Panics if `data` is empty, any image length mismatches the grid, or any
/// label is out of range.
pub fn train(
    model: &mut DonnModel,
    data: &[LabeledImage],
    config: &TrainConfig,
) -> Vec<EpochStats> {
    assert!(!data.is_empty(), "training set must be non-empty");
    let (rows, cols) = model.grid().shape();
    let classes = model.num_classes();
    for (img, label) in data {
        assert_eq!(
            img.len(),
            rows * cols,
            "image size must match the model grid"
        );
        assert!(*label < classes, "label out of range");
    }

    let mut opt = Adam::new(config.learning_rate);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut history = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        let tau = anneal_temperature(config, epoch);
        model.set_temperature(tau);
        order.shuffle(&mut rng);

        let mut epoch_loss = 0.0;
        let mut acc = Accuracy::new();

        for (batch_idx, batch) in order.chunks(config.batch_size).enumerate() {
            let (grads, loss_sum, correct) =
                batch_gradients(model, data, batch, epoch as u64, batch_idx as u64);
            epoch_loss += loss_sum;
            for _ in 0..correct {
                acc.update(&[1.0, 0.0], 0);
            }
            for _ in 0..(batch.len() - correct) {
                acc.update(&[0.0, 1.0], 0);
            }
            let mut grads = grads;
            grads.scale(1.0 / batch.len() as f64);
            apply(model, &mut opt, &grads);
        }

        let stats = EpochStats {
            epoch,
            loss: epoch_loss / data.len() as f64,
            train_accuracy: acc.value(),
            temperature: tau,
        };
        if config.verbose {
            println!(
                "epoch {:>3}  loss {:.5}  acc {:.3}  tau {:.3}",
                stats.epoch, stats.loss, stats.train_accuracy, stats.temperature
            );
        }
        history.push(stats);
    }
    history
}

fn anneal_temperature(config: &TrainConfig, epoch: usize) -> f64 {
    if config.epochs <= 1 {
        return config.initial_temperature;
    }
    let t = epoch as f64 / (config.epochs - 1) as f64;
    config.initial_temperature * (config.final_temperature / config.initial_temperature).powf(t)
}

/// Computes summed gradients, loss, and correct count over one batch,
/// sharded across worker threads — each worker forwards and backwards its
/// **whole shard as one fused batch** ([`DonnModel::forward_trace_batch_into`]
/// / [`DonnModel::backward_batch_with`]), so FFT plans, transfer kernels,
/// and scratch amortize across the shard instead of being re-dispatched
/// per sample. Per-sample Gumbel seeds match the per-sample path exactly,
/// and gradients accumulate in the same sample order, so the batched step
/// is bit-identical to the per-sample loop it replaced.
fn batch_gradients(
    model: &DonnModel,
    data: &[LabeledImage],
    batch: &[usize],
    epoch: u64,
    batch_idx: u64,
) -> (ModelGrads, f64, usize) {
    let workers = parallel::threads().min(batch.len()).max(1);
    let shard_size = batch.len().div_ceil(workers);
    let classes = model.num_classes();
    let (rows, cols) = model.grid().shape();

    let shards = parallel::par_map(workers, |w| {
        // One batch workspace, batched trace ring, and set of small
        // buffers per shard: the whole shard forwards and backwards as one
        // FieldBatch, and steady-state steps reuse every buffer in place
        // (see tests/zero_alloc.rs).
        let shard: Vec<usize> = batch
            .iter()
            .skip(w * shard_size)
            .take(shard_size)
            .copied()
            .collect();
        let bsz = shard.len();
        let mut grads = ModelGrads::zeros_like(model);
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        if bsz == 0 {
            return (grads, loss_sum, correct);
        }
        let mut ws = model.make_batch_workspace(bsz);
        let mut ring = BatchTraceRing::new(1);
        let mut inputs = FieldBatch::zeros(bsz, rows, cols);
        let mut seeds = Vec::with_capacity(bsz);
        let mut target = Vec::with_capacity(classes);
        let mut logit_grads: Vec<Vec<f64>> =
            (0..bsz).map(|_| Vec::with_capacity(classes)).collect();
        for (b, &idx) in shard.iter().enumerate() {
            inputs.set_plane_amplitudes(b, &data[idx].0);
            seeds.push(
                epoch
                    .wrapping_mul(1_000_003)
                    .wrapping_add(batch_idx.wrapping_mul(4099))
                    .wrapping_add(idx as u64),
            );
        }
        let trace = ring.forward(model, &inputs, CodesignMode::Train, &seeds, &mut ws);
        for (b, &idx) in shard.iter().enumerate() {
            let label = data[idx].1;
            one_hot_into(label, classes, &mut target);
            loss_sum += softmax_mse_into(&trace.logits[b], &target, &mut logit_grads[b]);
            if argmax(&trace.logits[b]) == label {
                correct += 1;
            }
        }
        model.backward_batch_with(trace, &logit_grads, &mut grads, &mut ws);
        (grads, loss_sum, correct)
    });

    let mut total = ModelGrads::zeros_like(model);
    let mut loss_sum = 0.0;
    let mut correct = 0;
    for (g, l, c) in shards {
        total.accumulate(&g);
        loss_sum += l;
        correct += c;
    }
    (total, loss_sum, correct)
}

fn apply(model: &mut DonnModel, opt: &mut Adam, grads: &ModelGrads) {
    for (i, layer) in model.layers_mut().iter_mut().enumerate() {
        opt.step(i, layer.params_mut(), grads.layer(i));
    }
}

/// Evaluates classification accuracy in emulation mode (soft codesign
/// states).
///
/// The dataset is sharded across worker threads; each worker streams its
/// shard through one [`BatchWorkspace`] in batches of up to 8 images, so
/// every layer hop is one batched [`FieldBatch`] pass. Accuracy is
/// bitwise equal to running
/// [`DonnModel::infer_mode_into`] on each image and taking the argmax,
/// because batched inference is bit-identical to per-sample inference.
/// An empty dataset scores 0.
pub fn evaluate(model: &DonnModel, data: &[LabeledImage]) -> f64 {
    evaluate_mode(model, data, CodesignMode::Soft)
}

/// Evaluates accuracy with hard (deployable) codesign states — the
/// batched, worker-sharded loop of [`evaluate`] in
/// [`CodesignMode::Deploy`].
pub fn evaluate_deployed(model: &DonnModel, data: &[LabeledImage]) -> f64 {
    evaluate_mode(model, data, CodesignMode::Deploy)
}

/// Images per batched forward in [`evaluate`]. The SIMD lanes run inside
/// each plane, so the batch size does not feed them: it bounds each
/// worker's workspace to 8 planes and spreads the per-call setup (plan
/// lookups, dispatch) over the batch.
const EVAL_BATCH: usize = 8;

fn evaluate_mode(model: &DonnModel, data: &[LabeledImage], mode: CodesignMode) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let workers = parallel::threads().min(data.len()).max(1);
    let shard_size = data.len().div_ceil(workers);
    let correct: usize = parallel::par_map(workers, |w| {
        let start = (w * shard_size).min(data.len());
        let shard = &data[start..(start + shard_size).min(data.len())];
        if shard.is_empty() {
            return 0;
        }
        let mut ws = model.make_batch_workspace(shard.len().min(EVAL_BATCH));
        let mut correct = 0usize;
        for chunk in shard.chunks(EVAL_BATCH) {
            ws.begin_batch(chunk.len());
            for (b, (img, _)) in chunk.iter().enumerate() {
                ws.load_amplitudes(b, img);
            }
            model.infer_staged_batch(mode, &mut ws);
            for (b, (_, label)) in chunk.iter().enumerate() {
                correct += usize::from(argmax(ws.staged_logits(b)) == *label);
            }
        }
        correct
    })
    .into_iter()
    .sum();
    correct as f64 / data.len() as f64
}

/// Evaluates accuracy with bounded uniform detector noise (the paper's
/// Fig. 7 robustness protocol): noise of amplitude `bound·max(I)` is added
/// to the detector intensity image before region readout.
///
/// Sharded across workers like [`train`]'s gradient step (one workspace
/// and trace ring per shard, samples streamed through them) instead of
/// submitting one pool job per sample — evaluation no longer pays
/// per-sample job-submission overhead.
pub fn evaluate_with_detector_noise(
    model: &DonnModel,
    data: &[LabeledImage],
    bound: f64,
    seed: u64,
) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let (rows, cols) = model.grid().shape();
    let workers = parallel::threads().min(data.len()).max(1);
    let shard_size = data.len().div_ceil(workers);
    let correct: usize = parallel::par_map(workers, |w| {
        let mut ws = model.make_workspace();
        let mut ring = TraceRing::new(1);
        let mut input = Field::zeros(rows, cols);
        let mut intensity = Vec::with_capacity(rows * cols);
        let mut logits = Vec::with_capacity(model.num_classes());
        let mut correct = 0usize;
        for (i, (img, label)) in data
            .iter()
            .enumerate()
            .skip(w * shard_size)
            .take(shard_size)
        {
            input.set_amplitudes(img);
            let trace = ring.forward(model, &input, CodesignMode::Soft, 0, &mut ws);
            trace.detector_field.intensity_into(&mut intensity);
            let noisy =
                lr_hardware::uniform_detector_noise(&intensity, bound, seed.wrapping_add(i as u64));
            model.detector().read_intensity_into(&noisy, &mut logits);
            correct += usize::from(argmax(&logits) == *label);
        }
        correct
    })
    .into_iter()
    .sum();
    correct as f64 / data.len() as f64
}

/// Mean prediction confidence (softmax probability of the predicted class)
/// over a dataset — the paper's Fig. 7 confidence metric. Worker-sharded
/// like [`evaluate_with_detector_noise`].
pub fn mean_confidence(model: &DonnModel, data: &[LabeledImage]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let (rows, cols) = model.grid().shape();
    let workers = parallel::threads().min(data.len()).max(1);
    let shard_size = data.len().div_ceil(workers);
    let sum: f64 = parallel::par_map(workers, |w| {
        let mut ws = model.make_workspace();
        let mut ring = TraceRing::new(1);
        let mut input = Field::zeros(rows, cols);
        let mut sum = 0.0;
        for (img, _) in data.iter().skip(w * shard_size).take(shard_size) {
            input.set_amplitudes(img);
            let trace = ring.forward(model, &input, CodesignMode::Soft, 0, &mut ws);
            sum += lr_nn::metrics::confidence(&trace.logits);
        }
        sum
    })
    .into_iter()
    .sum();
    sum / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::detector::Detector;
    use crate::model::DonnBuilder;
    use lr_optics::{Distance, Grid, PixelPitch, Wavelength};

    /// A trivially separable 2-class dataset: light in the top half vs the
    /// bottom half of the plane.
    fn toy_dataset(n: usize, rows: usize, cols: usize) -> Vec<LabeledImage> {
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let mut img = vec![0.0; rows * cols];
            let (r0, r1) = if label == 0 {
                (0, rows / 2)
            } else {
                (rows / 2, rows)
            };
            for r in r0..r1 {
                for c in (cols / 4)..(3 * cols / 4) {
                    img[r * cols + c] = 1.0;
                }
            }
            // Small per-sample variation so samples are not all identical.
            let jitter = (i / 2) % (cols / 4);
            img[jitter] = 0.3;
            data.push((img, label));
        }
        data
    }

    fn toy_model(depth: usize) -> DonnModel {
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(10.0))
            .diffractive_layers(depth)
            .detector(Detector::grid_layout(16, 16, 2, 4))
            .init_seed(3)
            .build()
    }

    #[test]
    fn training_reduces_loss_and_learns_toy_task() {
        let mut model = toy_model(2);
        let data = toy_dataset(40, 16, 16);
        let config = TrainConfig {
            epochs: 8,
            batch_size: 10,
            learning_rate: 0.1,
            ..TrainConfig::default()
        };
        let history = train(&mut model, &data, &config);
        assert_eq!(history.len(), 8);
        assert!(
            history.last().unwrap().loss < history.first().unwrap().loss,
            "loss must decrease: {:?} -> {:?}",
            history.first().unwrap().loss,
            history.last().unwrap().loss
        );
        let acc = evaluate(&model, &data);
        assert!(acc > 0.9, "toy task should be learnable, got {acc}");
    }

    #[test]
    fn temperature_anneals_geometrically() {
        let config = TrainConfig {
            epochs: 3,
            initial_temperature: 1.0,
            final_temperature: 0.25,
            ..TrainConfig::default()
        };
        assert!((anneal_temperature(&config, 0) - 1.0).abs() < 1e-12);
        assert!((anneal_temperature(&config, 1) - 0.5).abs() < 1e-12);
        assert!((anneal_temperature(&config, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn detector_noise_degrades_or_preserves_accuracy() {
        let mut model = toy_model(2);
        let data = toy_dataset(30, 16, 16);
        let config = TrainConfig {
            epochs: 6,
            batch_size: 10,
            learning_rate: 0.1,
            ..TrainConfig::default()
        };
        train(&mut model, &data, &config);
        let clean = evaluate(&model, &data);
        let noisy = evaluate_with_detector_noise(&model, &data, 0.05, 1);
        assert!(
            noisy <= clean + 0.15,
            "noise should not significantly help: clean {clean}, noisy {noisy}"
        );
        // Identity at zero noise.
        let zero = evaluate_with_detector_noise(&model, &data, 0.0, 1);
        assert!((zero - clean).abs() < 1e-12);
    }

    #[test]
    fn confidence_in_unit_range() {
        let model = toy_model(1);
        let data = toy_dataset(6, 16, 16);
        let c = mean_confidence(&model, &data);
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let model = toy_model(1);
        assert_eq!(evaluate(&model, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn train_validates_labels() {
        let mut model = toy_model(1);
        let data = vec![(vec![0.0; 256], 9usize)];
        train(&mut model, &data, &TrainConfig::default());
    }

    #[test]
    fn codesign_model_trains_on_toy_task() {
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        let mut model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(10.0))
            .codesign_layers(2, lr_hardware::SlmModel::ideal(16), 1.0)
            .detector(Detector::grid_layout(16, 16, 2, 4))
            .init_seed(5)
            .build();
        let data = toy_dataset(30, 16, 16);
        let config = TrainConfig {
            epochs: 8,
            batch_size: 10,
            learning_rate: 0.3,
            initial_temperature: 1.0,
            final_temperature: 0.3,
            ..TrainConfig::default()
        };
        train(&mut model, &data, &config);
        let soft = evaluate(&model, &data);
        let hard = evaluate_deployed(&model, &data);
        assert!(soft > 0.8, "codesign soft accuracy too low: {soft}");
        // Deployment gap of a codesign model should be small.
        assert!(
            hard >= soft - 0.2,
            "codesign deployment gap too large: {soft} -> {hard}"
        );
    }
}
