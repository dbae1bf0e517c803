//! DONN training loop (`lr.train` in the paper's DSL) and the one
//! data-parallel driver behind every lr-core trainer and evaluator.
//!
//! Training follows the paper exactly: intensity-encoded complex inputs
//! (`data_to_cplex`), forward emulation through the stacked diffractive
//! layers, `Softmax(I)` + MSE loss against one-hot labels (§2.1), Adam
//! updates (§5.1), and — for codesign layers — Gumbel-Softmax temperature
//! annealing across epochs.
//!
//! Every lr-core trainer — [`train`], [`crate::SegmentationDonn::train`],
//! [`crate::MultiTaskDonn::train`] and [`crate::MultiChannelDonn::train`]
//! — runs on one data-parallel driver (`Fit`). It owns the seeded
//! shuffle, the split of each batch into one contiguous shard per worker
//! (`lr_tensor::parallel`), the shard-order merge of gradients, loss and
//! correct count, the `1/batch` scaling and the Adam steps; each worker
//! streams its shard in `EVAL_BATCH`-sample (8) chunks, and a trainer
//! supplies only a chunk's batched forward, loss and backward. The
//! evaluators shard and chunk the same way (`map_chunks`).

use crate::layers::codesign::CodesignMode;
use crate::model::{BatchTrace, BatchWorkspace, DonnModel, Layer, ModelGrads};
use lr_nn::loss::{one_hot, softmax_mse_into};
use lr_nn::metrics::argmax;
use lr_nn::{Adam, Optimizer};
use lr_tensor::{parallel, Complex64};
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
/// Panics if `data` is empty, `batch_size` is zero, any image length
/// mismatches the grid, or any label is out of range.
pub fn train(
    model: &mut DonnModel,
    data: &[LabeledImage],
    config: &TrainConfig,
) -> Vec<EpochStats> {
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
    let n = data.len();
    let mut fit = Fit::new(n, config.batch_size, config.learning_rate, config.seed);
    (0..config.epochs)
        .map(|epoch| {
            let tau = anneal_temperature(config, epoch);
            model.set_temperature(tau);
            let mut trainee = Summed {
                models: std::slice::from_mut(model),
                mode: CodesignMode::Train,
                image: |(img, _): &LabeledImage, _| img,
                score: |(_, label): &LabeledImage, logits: &[f64], g: &mut _, tally: &mut Tally| {
                    tally.0 += softmax_mse_into(logits, &one_hot(*label, logits.len()), g);
                    tally.1 += usize::from(argmax(logits) == *label);
                },
            };
            let (loss, correct) = fit.epoch(&mut trainee, data, epoch);
            let stats = EpochStats {
                epoch,
                loss: loss / n as f64,
                train_accuracy: correct as f64 / n as f64,
                temperature: tau,
            };
            if config.verbose {
                println!(
                    "epoch {:>3}  loss {:.5}  acc {:.3}  tau {:.3}",
                    stats.epoch, stats.loss, stats.train_accuracy, stats.temperature
                );
            }
            stats
        })
        .collect()
}

fn anneal_temperature(config: &TrainConfig, epoch: usize) -> f64 {
    if config.epochs <= 1 {
        return config.initial_temperature;
    }
    let t = epoch as f64 / (config.epochs - 1) as f64;
    config.initial_temperature * (config.final_temperature / config.initial_temperature).powf(t)
}

/// Summed loss and correct count, in sample order.
pub(crate) type Tally = (f64, usize);

/// What a trainer supplies to the driver ([`Fit`]) for samples `S`.
pub(crate) trait Trainee<S>: Sync {
    /// A worker's buffers and gradient sums, reused across its chunks.
    type Worker;

    /// A worker with zeroed gradients, for chunks of up to `capacity`.
    fn worker(&self, capacity: usize) -> Self::Worker;

    /// Forwards, scores and backwards one chunk, adding its gradients to
    /// the worker's and its summed loss and correct count to `tally` in
    /// sample order. `seeds[b]` is sample `b`'s Gumbel seed.
    fn chunk(&self, w: &mut Self::Worker, samples: &[&S], seeds: &[u64], tally: &mut Tally);

    /// A worker's gradient buffers, in [`Trainee::params_mut`] order.
    fn into_grads(w: Self::Worker) -> Vec<Vec<f64>>;

    /// The parameter buffers Adam steps, one optimizer key each.
    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]>;
}

/// The data-parallel training driver. Its Adam state, shuffle RNG and
/// sample order persist across epochs.
pub(crate) struct Fit {
    opt: Adam,
    rng: StdRng,
    order: Vec<usize>,
    batch_size: usize,
}

impl Fit {
    /// Panics if `len` or `batch_size` is zero.
    pub(crate) fn new(len: usize, batch_size: usize, learning_rate: f64, seed: u64) -> Self {
        assert!(len > 0, "training set must be non-empty");
        assert!(batch_size > 0, "batch_size must be at least 1");
        Fit {
            opt: Adam::new(learning_rate),
            rng: StdRng::seed_from_u64(seed),
            order: (0..len).collect(),
            batch_size,
        }
    }

    /// Runs epoch `epoch` over `data` and returns its summed loss and
    /// correct count. Per batch: one shard per worker streamed in
    /// [`EVAL_BATCH`] chunks, shard sums merged in shard order, gradients
    /// scaled by `1/batch`, one Adam step per parameter buffer.
    pub(crate) fn epoch<S: Sync, T: Trainee<S>>(
        &mut self,
        trainee: &mut T,
        data: &[S],
        epoch: usize,
    ) -> Tally {
        self.order.shuffle(&mut self.rng);
        let (mut loss, mut correct) = (0.0, 0);
        for (batch_idx, batch) in self.order.chunks(self.batch_size).enumerate() {
            let frozen = &*trainee;
            // Sample `i`'s Gumbel seed is `seed_base + i`.
            let seed_base = (epoch as u64)
                .wrapping_mul(1_000_003)
                .wrapping_add((batch_idx as u64).wrapping_mul(4099));
            let shards = map_shards(batch, |_, shard| {
                let mut w = frozen.worker(shard.len().min(EVAL_BATCH));
                let mut tally = (0.0, 0);
                for chunk in shard.chunks(EVAL_BATCH) {
                    let samples: Vec<&S> = chunk.iter().map(|&i| &data[i]).collect();
                    let seeds: Vec<u64> = chunk
                        .iter()
                        .map(|&i| seed_base.wrapping_add(i as u64))
                        .collect();
                    frozen.chunk(&mut w, &samples, &seeds, &mut tally);
                }
                (T::into_grads(w), tally)
            });
            let mut total: Vec<Vec<f64>> = Vec::new();
            let mut batch_loss = 0.0;
            for (grads, (shard_loss, shard_correct)) in shards {
                total.resize_with(grads.len(), Vec::new);
                for (t, g) in total.iter_mut().zip(grads) {
                    t.resize(g.len(), 0.0);
                    t.iter_mut().zip(g).for_each(|(a, b)| *a += b);
                }
                batch_loss += shard_loss;
                correct += shard_correct;
            }
            loss += batch_loss;
            let scale = 1.0 / batch.len() as f64;
            for (key, (params, grads)) in trainee.params_mut().zip(&mut total).enumerate() {
                grads.iter_mut().for_each(|g| *g *= scale);
                self.opt.step(key, params, grads);
            }
        }
        (loss, correct)
    }

    /// Runs `epochs` epochs and returns each one's mean loss.
    pub(crate) fn mean_losses<S: Sync>(
        mut self,
        trainee: &mut impl Trainee<S>,
        data: &[S],
        epochs: usize,
    ) -> Vec<f64> {
        let n = data.len() as f64;
        (0..epochs)
            .map(|e| self.epoch(trainee, data, e).0 / n)
            .collect()
    }
}

/// A classifier whose logits sum the detector readouts of `models` (one
/// model for [`train`] and multi-task, one per channel for multi-channel),
/// model `m` fed `image(sample, m)`. `score` writes a sample's logit
/// gradients from its summed logits and adds its loss (and hit) to the tally.
pub(crate) struct Summed<'a, S, L> {
    pub(crate) models: &'a mut [DonnModel],
    pub(crate) mode: CodesignMode,
    pub(crate) image: fn(&S, usize) -> &[f64],
    pub(crate) score: L,
}

impl<S: Sync, L> Trainee<S> for Summed<'_, S, L>
where
    L: Fn(&S, &[f64], &mut Vec<f64>, &mut Tally) + Sync,
{
    /// Per model: workspace, trace and gradients; and the logit gradients.
    type Worker = (Vec<(BatchWorkspace, BatchTrace, ModelGrads)>, Vec<Vec<f64>>);

    fn worker(&self, capacity: usize) -> Self::Worker {
        let per_model = self.models.iter().map(|m| {
            let grads = ModelGrads::zeros_like(m);
            (m.make_batch_workspace(capacity), BatchTrace::new(), grads)
        });
        (per_model.collect(), Vec::new())
    }

    fn chunk(&self, w: &mut Self::Worker, samples: &[&S], seeds: &[u64], tally: &mut Tally) {
        let (per_model, logit_grads) = w;
        for (m, (model, (ws, trace, _))) in self.models.iter().zip(&mut *per_model).enumerate() {
            ws.load_images(samples.iter().map(|s| (self.image)(s, m)));
            model.trace_loaded(self.mode, seeds, ws, trace);
        }
        logit_grads.resize_with(samples.len(), Vec::new);
        for (b, (s, g)) in samples.iter().zip(&mut *logit_grads).enumerate() {
            let mut logits = vec![0.0; self.models[0].num_classes()];
            for (_, trace, _) in per_model.iter() {
                for (a, v) in logits.iter_mut().zip(&trace.logits[b]) {
                    *a += v;
                }
            }
            (self.score)(s, &logits, g, tally);
        }
        for (model, (ws, trace, grads)) in self.models.iter().zip(per_model) {
            model.backward_batch_with(trace, logit_grads, grads, ws);
        }
    }

    fn into_grads((per_model, _): Self::Worker) -> Vec<Vec<f64>> {
        let grads = per_model.into_iter().map(|(_, _, g)| g);
        grads.flat_map(ModelGrads::into_buffers).collect()
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let layers = self.models.iter_mut().flat_map(|m| m.layers_mut());
        layers.map(Layer::params_mut)
    }
}

/// Evaluates classification accuracy in emulation mode (soft codesign
/// states).
///
/// The dataset is sharded across worker threads; each worker streams its
/// shard through one [`BatchWorkspace`] in batches of up to 8 images, so
/// every layer hop is one batched [`lr_tensor::FieldBatch`] pass. Accuracy is
/// bitwise equal to running [`DonnModel::infer_mode_into`] on each image
/// and taking the argmax, because a batch is bit-identical to its
/// one-plane passes. An empty dataset scores 0.
pub fn evaluate(model: &DonnModel, data: &[LabeledImage]) -> f64 {
    let make_workspace = |capacity| model.make_batch_workspace(capacity);
    evaluate_staged(data, make_workspace, |ws| {
        model.infer_staged_batch(CodesignMode::Soft, ws)
    })
}

/// Evaluates accuracy with hard (deployable) codesign states — the
/// batched, worker-sharded loop of [`evaluate`] in
/// [`CodesignMode::Deploy`].
pub fn evaluate_deployed(model: &DonnModel, data: &[LabeledImage]) -> f64 {
    let make_workspace = |capacity| model.make_batch_workspace(capacity);
    evaluate_staged(data, make_workspace, |ws| {
        model.infer_staged_batch(CodesignMode::Deploy, ws)
    })
}

/// Samples per batched pass of a worker, in training and evaluation. The
/// SIMD lanes run inside each plane, so this does not feed them: it
/// bounds each worker's workspace and trace to 8 planes and spreads the
/// per-call setup (plan lookups, dispatch) over the chunk.
const EVAL_BATCH: usize = 8;

/// Splits `items` into one contiguous shard per worker, runs `f` on each
/// non-empty shard (given the index of its first item) on the pool, and
/// returns the per-shard results in item order — the one place lr-core
/// splits work across the pool.
fn map_shards<S: Sync, T: Send>(items: &[S], f: impl Fn(usize, &[S]) -> T + Sync) -> Vec<T> {
    let workers = parallel::threads().min(items.len()).max(1);
    let shard_size = items.len().div_ceil(workers);
    let shards = parallel::par_map(workers, |w| {
        let start = (w * shard_size).min(items.len());
        let shard = &items[start..(start + shard_size).min(items.len())];
        (!shard.is_empty()).then(|| f(start, shard))
    });
    shards.into_iter().flatten().collect()
}

/// Streams each worker's shard of `data` through one `W` (built by
/// `worker` for the chunk capacity) in [`EVAL_BATCH`] chunks; `chunk`
/// gets each chunk and the data index of its first item and pushes one
/// result per item. Results come back in data order.
pub(crate) fn map_chunks<S: Sync, W, T: Send>(
    data: &[S],
    worker: impl Fn(usize) -> W + Sync,
    chunk: impl Fn(&mut W, usize, &[S], &mut Vec<T>) + Sync,
) -> Vec<T> {
    let shards = map_shards(data, |start, shard| {
        let mut w = worker(shard.len().min(EVAL_BATCH));
        let mut out = Vec::with_capacity(shard.len());
        for (c, items) in shard.chunks(EVAL_BATCH).enumerate() {
            chunk(&mut w, start + c * EVAL_BATCH, items, &mut out);
        }
        out
    });
    shards.into_iter().flatten().collect()
}

/// The fraction of samples whose logits `hit` them; 0 for none.
pub(crate) fn hit_rate<S>(
    logits: &[Vec<f64>],
    data: &[S],
    hit: impl Fn(&[f64], &S) -> bool,
) -> f64 {
    let hits = logits.iter().zip(data).filter(|(l, s)| hit(l, s)).count();
    hits as f64 / data.len().max(1) as f64
}

/// Argmax accuracy of a staged batched forward over `data` (see
/// [`staged_logits`]): the loop behind [`evaluate`],
/// [`evaluate_deployed`] and [`crate::deploy::PhysicalDonn::evaluate`].
pub(crate) fn evaluate_staged(
    data: &[LabeledImage],
    make_workspace: impl Fn(usize) -> BatchWorkspace + Sync,
    infer: impl Fn(&mut BatchWorkspace) + Sync,
) -> f64 {
    let logits = staged_logits(data, |(img, _)| img, make_workspace, infer);
    hit_rate(&logits, data, |l, (_, label)| argmax(l) == *label)
}

/// Every sample's logits from a staged batched forward, in data order:
/// each worker streams its shard through one workspace from
/// `make_workspace` in [`EVAL_BATCH`] chunks, loads each sample's
/// `image` and runs `infer` on the chunk.
pub(crate) fn staged_logits<S: Sync>(
    data: &[S],
    image: impl Fn(&S) -> &[f64] + Sync,
    make_workspace: impl Fn(usize) -> BatchWorkspace + Sync,
    infer: impl Fn(&mut BatchWorkspace) + Sync,
) -> Vec<Vec<f64>> {
    map_chunks(data, make_workspace, |ws, _, chunk, out| {
        ws.load_images(chunk.iter().map(&image));
        infer(ws);
        out.extend((0..chunk.len()).map(|b| ws.staged_logits(b).to_vec()));
    })
}

/// Runs `per_image` on every image's emulation-mode traced forward — its
/// data index, detector-plane field and logits — streaming each worker's
/// shard through one [`BatchWorkspace`] and [`BatchTrace`] in
/// [`EVAL_BATCH`] chunks. Results come back in data order.
pub(crate) fn map_traced<T: Send>(
    model: &DonnModel,
    data: &[LabeledImage],
    per_image: impl Fn(usize, &[Complex64], &[f64]) -> T + Sync,
) -> Vec<T> {
    let worker = |capacity| (model.make_batch_workspace(capacity), BatchTrace::new());
    map_chunks(data, worker, |(ws, trace), start, chunk, out| {
        ws.load_images(chunk.iter().map(|(img, _)| img.as_slice()));
        let seeds = &[0; EVAL_BATCH][..chunk.len()];
        model.trace_loaded(CodesignMode::Soft, seeds, ws, trace);
        for (b, logits) in trace.logits.iter().enumerate() {
            out.push(per_image(start + b, trace.detector_fields.plane(b), logits));
        }
    })
}

/// Evaluates accuracy with bounded uniform detector noise (the paper's
/// Fig. 7 robustness protocol): noise of amplitude `bound·max(I)` is added
/// to the detector intensity image before region readout. Image `i`
/// draws its noise from `seed + i`, so the result does not depend on the
/// thread count.
pub fn evaluate_with_detector_noise(
    model: &DonnModel,
    data: &[LabeledImage],
    bound: f64,
    seed: u64,
) -> f64 {
    let logits = map_traced(model, data, |i, field, _| {
        let intensity: Vec<f64> = field.iter().map(|z| z.norm_sqr()).collect();
        let noisy =
            lr_hardware::uniform_detector_noise(&intensity, bound, seed.wrapping_add(i as u64));
        model.detector().read_intensity(&noisy)
    });
    hit_rate(&logits, data, |l, (_, label)| argmax(l) == *label)
}

/// Mean prediction confidence (softmax probability of the predicted class)
/// over a dataset — the paper's Fig. 7 confidence metric. Workers return
/// per-image confidences, summed in data order, so the result does not
/// depend on the thread count.
pub fn mean_confidence(model: &DonnModel, data: &[LabeledImage]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let confidences = map_traced(model, data, |_, _, logits| {
        lr_nn::metrics::confidence(logits)
    });
    confidences.into_iter().sum::<f64>() / data.len() as f64
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
    #[should_panic(expected = "batch_size must be at least 1")]
    fn train_rejects_zero_batch_size() {
        let mut model = toy_model(1);
        let config = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        train(&mut model, &toy_dataset(4, 16, 16), &config);
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
