//! Batched-execution contract at the model level: per-sample entry points
//! are the B=1 case of the batched ones, and a batch of N must be
//! **bit-identical** to N B=1 calls. `infer_batch_into` must equal B=1
//! `infer` for every sample, across batch sizes {1, 3, 32}, square and
//! non-square grids, smooth (mixed-radix) and Bluestein FFT sizes, every
//! readout mode, and mixed layer stacks — and the batched traced
//! forward/backward must reproduce the B=1 training step's logits and
//! gradients exactly, as must the batched `evaluate` /
//! `evaluate_deployed` accuracy. A deployed `PhysicalDonn` obeys the same
//! contract: its staged batch equals B=1 `infer` at every forced SIMD
//! level, and its `evaluate` equals the per-image argmax count at any
//! thread count. `mean_confidence` must not depend on the
//! thread count. The shared training driver, which streams each worker's
//! shard in chunks of up to 8 samples, must reproduce the per-sample
//! multi-task and multi-channel training loops bit for bit at one worker,
//! and the segmentation, multi-task, multi-channel and ensemble
//! evaluators must equal their per-image references at any thread count.
//! Across SIMD dispatch levels the contract is tolerance-renegotiated: forced scalar
//! vs detected-width results agree to ≤ 1e-12 relative (the detector
//! readout's lane-partial reduction is the only re-association).

use lightridge::deploy::{HardwareEnvironment, PhysicalDonn};
use lightridge::multichannel::RgbImage;
use lightridge::train::{evaluate, evaluate_deployed, mean_confidence, LabeledImage};
use lightridge::{
    BatchTrace, CodesignMode, Detector, DonnBuilder, DonnEnsemble, DonnModel, ModelGrads,
    MultiChannelDonn, MultiTaskDonn, MultiTaskImage, SegmentationDonn, SegmentationOptions,
};
use lr_nn::loss::{one_hot, one_hot_into, softmax_mse, softmax_mse_into};
use lr_nn::metrics::{argmax, binary_iou, top_k_correct};
use lr_nn::{Adam, Optimizer};
use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::simd::{self, SimdLevel};
use lr_tensor::{parallel, Complex64, Field, FieldBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `simd::force` and `parallel::set_threads` are process-global, and the
/// detector readout's result depends on the dispatch level. Tests that
/// compare two runs bit for bit hold this lock shared, tests that pin a
/// level or a thread count hold it exclusively, so no level flips between
/// the two halves of one comparison.
static DISPATCH: RwLock<()> = RwLock::new(());

fn same_dispatch() -> RwLockReadGuard<'static, ()> {
    DISPATCH.read().unwrap_or_else(|e| e.into_inner())
}

fn pin_dispatch() -> RwLockWriteGuard<'static, ()> {
    DISPATCH.write().unwrap_or_else(|e| e.into_inner())
}

fn sample_input(rows: usize, cols: usize, b: usize) -> Field {
    Field::from_fn(rows, cols, |r, c| {
        Complex64::from_real(if (r + 2 * c + 3 * b) % 7 < 3 {
            1.0
        } else {
            0.3
        })
    })
}

fn donn(rows: usize, cols: usize, approx: Approximation, mixed: bool) -> DonnModel {
    let grid = Grid::new(rows, cols, PixelPitch::from_um(36.0));
    let det = rows.min(cols) / 6;
    let mut builder = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(25.0))
        .approximation(approx)
        .diffractive_layers(1)
        .init_seed(11);
    if mixed {
        builder =
            builder
                .nonlinearity(0.3, 0.8)
                .codesign_layers(1, lr_hardware::SlmModel::ideal(8), 0.9);
    } else {
        builder = builder.diffractive_layers(1);
    }
    builder
        .detector(Detector::grid_layout(rows, cols, 4, det.max(1)))
        .build()
}

/// Batched inference must equal per-sample inference bit for bit.
fn assert_infer_batch_matches(model: &DonnModel, batch_size: usize, mode: CodesignMode) {
    let (rows, cols) = model.grid().shape();
    let inputs: Vec<Field> = (0..batch_size)
        .map(|b| sample_input(rows, cols, b))
        .collect();
    let input_refs: Vec<&Field> = inputs.iter().collect();
    let mut ws = model.make_batch_workspace(batch_size);
    let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); batch_size];
    model.infer_batch_into(&input_refs, mode, &mut ws, &mut outputs);
    for (b, input) in inputs.iter().enumerate() {
        let reference = match mode {
            CodesignMode::Deploy => model.infer_deployed(input),
            _ => model.infer(input),
        };
        assert_eq!(
            outputs[b], reference,
            "batched/per-sample divergence at sample {b}/{batch_size} on {rows}x{cols}"
        );
    }
}

#[test]
fn infer_batch_bit_identical_across_sizes_grids_and_fft_paths() {
    let _same = same_dispatch();
    // 20/24 are 2·3·5·7-smooth (Stockham), 22/26 have prime factors > 7
    // (Bluestein); non-square grids mix plan kinds per axis.
    for &(rows, cols) in &[(20, 20), (22, 22), (20, 26), (26, 24)] {
        let model = donn(rows, cols, Approximation::RayleighSommerfeld, false);
        for &batch_size in &[1usize, 3, 32] {
            assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
        }
    }
}

#[test]
fn infer_batch_bit_identical_mixed_stack_and_modes() {
    let _same = same_dispatch();
    // Diffractive → saturable absorber → codesign, in both noise-free
    // readout modes.
    let model = donn(24, 20, Approximation::RayleighSommerfeld, true);
    for &batch_size in &[1usize, 3, 32] {
        assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
        assert_infer_batch_matches(&model, batch_size, CodesignMode::Deploy);
    }
}

#[test]
fn infer_batch_bit_identical_fresnel_and_fraunhofer() {
    let _same = same_dispatch();
    // The spectral Fresnel path shares the broadcast-transfer fast path;
    // Fraunhofer exercises the per-plane shift/scale (SingleFourier) path.
    for approx in [Approximation::Fresnel, Approximation::Fraunhofer] {
        let model = donn(20, 22, approx, false);
        for &batch_size in &[1usize, 3] {
            assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
        }
    }
}

/// One batch workspace must serve varying batch sizes back to back
/// (the serving runtime's reuse pattern) without cross-contamination.
#[test]
fn one_batch_workspace_serves_varying_sizes() {
    let _same = same_dispatch();
    let model = donn(22, 22, Approximation::RayleighSommerfeld, false);
    let (rows, cols) = model.grid().shape();
    let mut ws = model.make_batch_workspace(8);
    for &n in &[8usize, 1, 5, 2] {
        let inputs: Vec<Field> = (0..n).map(|b| sample_input(rows, cols, b + n)).collect();
        let input_refs: Vec<&Field> = inputs.iter().collect();
        let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); n];
        model.infer_batch_into(&input_refs, CodesignMode::Soft, &mut ws, &mut outputs);
        for (b, input) in inputs.iter().enumerate() {
            assert_eq!(outputs[b], model.infer(input), "size {n}, sample {b}");
        }
    }
}

/// The batched traced forward + batched backward must reproduce N B=1
/// training steps exactly: same logits, same input gradients, same
/// accumulated gradients, bit for bit — including per-sample Gumbel noise
/// in `Train` mode, on raw and codesign stacks.
#[test]
fn batched_training_step_matches_per_sample_bitwise() {
    let _same = same_dispatch();
    for mixed in [false, true] {
        let model = donn(20, 20, Approximation::RayleighSommerfeld, mixed);
        let (rows, cols) = model.grid().shape();
        let classes = model.num_classes();
        let bsz = 5;
        let seeds: Vec<u64> = (0..bsz as u64).map(|b| b * 9176 + 3).collect();
        let inputs: Vec<Field> = (0..bsz).map(|b| sample_input(rows, cols, b)).collect();

        // B=1 reference steps.
        let mut ref_grads = ModelGrads::zeros_like(&model);
        let mut ref_logits = Vec::new();
        let mut ref_input_grads = Vec::new();
        let mut target = Vec::new();
        let mut logit_grads_buf = Vec::new();
        let mut per_sample_logit_grads = Vec::new();
        for (b, input) in inputs.iter().enumerate() {
            let trace = model.forward_trace(input, CodesignMode::Train, seeds[b]);
            assert_eq!(trace.batch(), 1);
            one_hot_into(b % classes, classes, &mut target);
            softmax_mse_into(&trace.logits[0], &target, &mut logit_grads_buf);
            ref_logits.push(trace.logits[0].clone());
            per_sample_logit_grads.push(logit_grads_buf.clone());
            let input_grad = model.backward(&trace, &logit_grads_buf, &mut ref_grads);
            ref_input_grads.push(input_grad);
        }

        // Batched step with the same per-sample seeds.
        let mut batch = FieldBatch::zeros(bsz, rows, cols);
        for (b, input) in inputs.iter().enumerate() {
            batch.copy_plane_from(b, input);
        }
        let mut bws = model.make_batch_workspace(bsz);
        let mut trace = BatchTrace::new();
        model.forward_trace_batch_into(&batch, CodesignMode::Train, &seeds, &mut bws, &mut trace);
        assert_eq!(trace.batch(), bsz);
        for (b, expected) in ref_logits.iter().enumerate() {
            assert_eq!(
                &trace.logits[b], expected,
                "batched trace logits diverge at sample {b} (mixed={mixed})"
            );
        }
        let mut grads = ModelGrads::zeros_like(&model);
        model.backward_batch_with(&trace, &per_sample_logit_grads, &mut grads, &mut bws);
        for i in 0..model.layers().len() {
            assert_eq!(
                grads.layer(i),
                ref_grads.layer(i),
                "batched gradients diverge at layer {i} (mixed={mixed})"
            );
        }
        for (b, expected) in ref_input_grads.iter().enumerate() {
            assert_eq!(
                bws.input_grad_batch().plane(b),
                expected.as_slice(),
                "batched input gradients diverge at sample {b} (mixed={mixed})"
            );
        }
    }
}

/// `mean_confidence` sums per-image confidences in data order, so its
/// result is bitwise the same at every thread count (a sum of per-shard
/// partial sums would re-associate with the shard boundaries).
#[test]
fn mean_confidence_is_bitwise_independent_of_thread_count() {
    let _pinned = pin_dispatch();
    let grid = Grid::square(24, PixelPitch::from_um(36.0));
    let model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(25.0))
        .diffractive_layers(3)
        .detector(Detector::grid_layout(24, 24, 10, 3))
        .init_seed(7)
        .build();
    let data: Vec<LabeledImage> = (0..37)
        .map(|i| {
            let img = (0..24 * 24)
                .map(|p| ((p * 7 + i * 13) % 17) as f64 / 17.0)
                .collect();
            (img, i % 10)
        })
        .collect();
    let bits: Vec<u64> = (1..=4)
        .map(|threads| {
            parallel::set_threads(threads);
            mean_confidence(&model, &data).to_bits()
        })
        .collect();
    parallel::set_threads(0);
    assert!(
        bits.iter().all(|&b| b == bits[0]),
        "mean_confidence bits at 1..=4 threads: {bits:x?}"
    );
}

/// `|a - b| ≤ tol · max(|a|, |b|)`, with an absolute floor so exact zeros
/// compare equal.
fn assert_rel_close(a: f64, b: f64, tol: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1e-30);
    assert!(
        (a - b).abs() <= tol * scale,
        "{what}: {a} vs {b} differ by {:.3e} rel (tolerance {tol:.0e})",
        (a - b).abs() / scale
    );
}

/// The dispatch-level half of the equivalence contract: forcing the
/// scalar fallback versus the runtime-detected SIMD width may change
/// results only through the detector readout's lane-partial reduction,
/// bounded by the documented ≤ 1e-12 relative tolerance (see
/// `Detector::read_plane_into`) — for inference logits and accumulated
/// training gradients alike. The FFT and transfer-apply lanes are bitwise
/// identical to the scalar kernels by construction, so any drift beyond
/// the readout's re-association is a dispatch bug.
///
/// `simd::force` is process-global, so this test pins levels under the
/// exclusive [`DISPATCH`] lock and restores auto-detection before
/// returning.
#[test]
fn training_step_scalar_vs_simd_within_documented_tolerance() {
    let _pinned = pin_dispatch();
    const TOL: f64 = 1e-12;
    let model = donn(20, 20, Approximation::RayleighSommerfeld, false);
    let (rows, cols) = model.grid().shape();
    let classes = model.num_classes();
    let bsz = 5;
    let seeds: Vec<u64> = (0..bsz as u64).map(|b| b * 9176 + 3).collect();
    let mut batch = FieldBatch::zeros(bsz, rows, cols);
    for b in 0..bsz {
        batch.copy_plane_from(b, &sample_input(rows, cols, b));
    }

    // One full batched training step (traced forward + backward) at a
    // pinned dispatch level.
    let run_step = |level: Option<SimdLevel>| {
        simd::force(level);
        let mut bws = model.make_batch_workspace(bsz);
        let mut trace = BatchTrace::new();
        model.forward_trace_batch_into(&batch, CodesignMode::Train, &seeds, &mut bws, &mut trace);
        let mut target = Vec::new();
        let mut logit_grads = Vec::new();
        for b in 0..bsz {
            one_hot_into(b % classes, classes, &mut target);
            let mut g = Vec::new();
            softmax_mse_into(&trace.logits[b], &target, &mut g);
            logit_grads.push(g);
        }
        let mut grads = ModelGrads::zeros_like(&model);
        model.backward_batch_with(&trace, &logit_grads, &mut grads, &mut bws);
        simd::force(None);
        (trace.logits.clone(), grads)
    };

    let (scalar_logits, scalar_grads) = run_step(Some(SimdLevel::Scalar));
    let (simd_logits, simd_grads) = run_step(None);

    for b in 0..bsz {
        for (k, (&s, &v)) in scalar_logits[b].iter().zip(&simd_logits[b]).enumerate() {
            assert_rel_close(s, v, TOL, &format!("logit {k} of sample {b}"));
        }
    }
    for i in 0..model.layers().len() {
        for (k, (&s, &v)) in scalar_grads
            .layer(i)
            .iter()
            .zip(simd_grads.layer(i))
            .enumerate()
        {
            assert_rel_close(s, v, TOL, &format!("gradient {k} of layer {i}"));
        }
    }
}

/// Accuracy of a B=1 [`DonnModel::infer_mode_into`] argmax loop — the
/// reference the batched `evaluate` must reproduce.
fn per_sample_accuracy(model: &DonnModel, data: &[LabeledImage], mode: CodesignMode) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let (rows, cols) = model.grid().shape();
    let mut ws = model.make_workspace();
    let mut logits = Vec::new();
    let mut correct = 0usize;
    for (img, label) in data {
        let input = Field::from_amplitudes(rows, cols, img);
        model.infer_mode_into(&input, mode, &mut ws, &mut logits);
        correct += usize::from(argmax(&logits) == *label);
    }
    correct as f64 / data.len() as f64
}

/// `evaluate` and `evaluate_deployed` run each worker shard as batched
/// forwards; their accuracy must equal the per-sample argmax loop bit for
/// bit. Covers the empty set, one image, and sizes that leave ragged
/// shards and ragged batches; raw and mixed (nonlinear + codesign)
/// stacks; one, two and three workers; and every forced SIMD level.
#[test]
fn evaluate_matches_per_sample_argmax_at_every_simd_level() {
    let _pinned = pin_dispatch();
    for mixed in [false, true] {
        let model = donn(20, 22, Approximation::RayleighSommerfeld, mixed);
        let (rows, cols) = model.grid().shape();
        let classes = model.num_classes();
        // Label every image with its per-sample prediction, except every
        // third one, so the exact accuracy depends on every argmax.
        let labels = |mode| -> Vec<LabeledImage> {
            (0..17)
                .map(|i| {
                    let img: Vec<f64> = sample_input(rows, cols, i)
                        .as_slice()
                        .iter()
                        .map(|z| z.re)
                        .collect();
                    let input = Field::from_amplitudes(rows, cols, &img);
                    let predicted = argmax(&match mode {
                        CodesignMode::Deploy => model.infer_deployed(&input),
                        _ => model.infer(&input),
                    });
                    let label = if i % 3 == 2 {
                        (predicted + 1) % classes
                    } else {
                        predicted
                    };
                    (img, label)
                })
                .collect()
        };
        type Evaluate = fn(&DonnModel, &[LabeledImage]) -> f64;
        let runs: [(CodesignMode, Vec<LabeledImage>, Evaluate); 2] = [
            (CodesignMode::Soft, labels(CodesignMode::Soft), evaluate),
            (
                CodesignMode::Deploy,
                labels(CodesignMode::Deploy),
                evaluate_deployed,
            ),
        ];
        for level in [SimdLevel::Scalar, SimdLevel::X2, SimdLevel::X4] {
            simd::force(Some(level));
            for threads in [1, 2, 3] {
                parallel::set_threads(threads);
                for &n in &[0usize, 1, 3, 5, 9, 17] {
                    for (mode, dataset, eval) in &runs {
                        let data = &dataset[..n];
                        let accuracy = eval(&model, data);
                        let expected = per_sample_accuracy(&model, data, *mode);
                        assert_eq!(
                            accuracy.to_bits(),
                            expected.to_bits(),
                            "{mode:?} evaluate diverges from per-sample: {accuracy} vs \
                             {expected} (n={n}, mixed={mixed}, {level:?}, {threads} threads)"
                        );
                    }
                }
            }
        }
        parallel::set_threads(0);
        simd::force(None);
    }
}

/// A deployed system's staged batch must equal B=1 `PhysicalDonn::infer`
/// bit for bit — on Rayleigh-Sommerfeld and Fraunhofer stacks with a
/// nonlinear film, at every forced SIMD level, for batch sizes {1, 3, 8}
/// run back to back through one workspace.
#[test]
fn physical_batch_bit_identical_to_b1_at_every_simd_level() {
    let _pinned = pin_dispatch();
    for approx in [Approximation::RayleighSommerfeld, Approximation::Fraunhofer] {
        let model = donn(20, 22, approx, true);
        let physical = PhysicalDonn::deploy(&model, &HardwareEnvironment::prototype(3));
        let inputs: Vec<Field> = (0..8).map(|b| sample_input(20, 22, b)).collect();
        let mut ws = physical.make_batch_workspace(8);
        for level in [SimdLevel::Scalar, SimdLevel::X2, SimdLevel::X4] {
            simd::force(Some(level));
            for batch_size in [8usize, 3, 1] {
                ws.begin_batch(batch_size);
                for (b, input) in inputs[..batch_size].iter().enumerate() {
                    ws.load_input(b, input);
                }
                physical.infer_staged_batch(&mut ws);
                for (b, input) in inputs[..batch_size].iter().enumerate() {
                    assert_eq!(
                        ws.staged_logits(b),
                        physical.infer(input).as_slice(),
                        "{approx:?} physical batch diverges from B=1 at sample \
                         {b}/{batch_size} ({level:?})"
                    );
                }
            }
        }
        simd::force(None);
    }
}

/// `PhysicalDonn::evaluate` streams worker shards through staged batches;
/// its accuracy must equal the per-image argmax count of B=1
/// `PhysicalDonn::infer` bit for bit at one, two and three workers.
#[test]
fn physical_evaluate_matches_per_image_argmax_across_threads() {
    let _pinned = pin_dispatch();
    let model = donn(20, 22, Approximation::RayleighSommerfeld, true);
    let physical = PhysicalDonn::deploy(&model, &HardwareEnvironment::prototype(5));
    let classes = physical.num_classes();
    // Label every image with its per-image prediction, except every third
    // one, so the exact accuracy depends on every argmax.
    let data: Vec<LabeledImage> = (0..17)
        .map(|i| {
            let img: Vec<f64> = sample_input(20, 22, i)
                .as_slice()
                .iter()
                .map(|z| z.re)
                .collect();
            let predicted = argmax(&physical.infer(&Field::from_amplitudes(20, 22, &img)));
            let label = if i % 3 == 2 {
                (predicted + 1) % classes
            } else {
                predicted
            };
            (img, label)
        })
        .collect();
    for threads in [1, 2, 3] {
        parallel::set_threads(threads);
        for &n in &[0usize, 1, 3, 5, 9, 17] {
            let data = &data[..n];
            let correct = data
                .iter()
                .filter(|(img, label)| {
                    argmax(&physical.infer(&Field::from_amplitudes(20, 22, img))) == *label
                })
                .count();
            let expected = if n == 0 {
                0.0
            } else {
                correct as f64 / n as f64
            };
            let accuracy = physical.evaluate(data);
            assert_eq!(
                accuracy.to_bits(),
                expected.to_bits(),
                "physical evaluate diverges from per-image argmax: {accuracy} vs \
                 {expected} (n={n}, {threads} threads)"
            );
        }
    }
    parallel::set_threads(0);
}

/// A 24² image, distinct per `(i, salt)`.
fn image(i: usize, salt: usize) -> Vec<f64> {
    (0..24 * 24)
        .map(|p| ((p * 7 + i * 13 + salt * 5) % 17) as f64 / 17.0)
        .collect()
}

/// Runs one epoch of the parent per-sample training loop on `models`:
/// the seeded shuffle, batches of `batch_size`, and for each sample B=1
/// `forward_trace` of every model on its `image(sample, model)`, summed
/// logits, `loss` (which writes the logit gradients and returns the
/// sample's per-term losses in order), and B=1 `backward` of every model;
/// then `1/batch` scaling and one Adam step per layer. Returns the mean
/// epoch loss.
fn per_sample_epoch<S>(
    models: &mut [DonnModel],
    data: &[S],
    batch_size: usize,
    seed: u64,
    image: impl Fn(&S, usize) -> &[f64],
    loss: impl Fn(&S, &[f64], &mut Vec<f64>) -> Vec<f64>,
) -> f64 {
    let (rows, cols) = models[0].grid().shape();
    let mut opt = Adam::new(0.2);
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut epoch_loss = 0.0;
    for batch in order.chunks(batch_size) {
        let mut grads: Vec<ModelGrads> = models.iter().map(ModelGrads::zeros_like).collect();
        let mut batch_loss = 0.0;
        for &i in batch {
            let traces: Vec<BatchTrace> = (models.iter().enumerate())
                .map(|(m, model)| {
                    let input = Field::from_amplitudes(rows, cols, image(&data[i], m));
                    model.forward_trace(&input, CodesignMode::Soft, 0)
                })
                .collect();
            let mut logits = vec![0.0; models[0].num_classes()];
            for trace in &traces {
                for (a, v) in logits.iter_mut().zip(&trace.logits[0]) {
                    *a += v;
                }
            }
            let mut logit_grads = Vec::new();
            for l in loss(&data[i], &logits, &mut logit_grads) {
                batch_loss += l;
            }
            for ((model, trace), g) in models.iter().zip(&traces).zip(&mut grads) {
                model.backward(trace, &logit_grads, g);
            }
        }
        epoch_loss += batch_loss;
        let mut key = 0;
        for (model, g) in models.iter_mut().zip(&mut grads) {
            g.scale(1.0 / batch.len() as f64);
            for (i, layer) in model.layers_mut().iter_mut().enumerate() {
                opt.step(key, layer.params_mut(), g.layer(i));
                key += 1;
            }
        }
    }
    epoch_loss / data.len() as f64
}

fn assert_same_params(a: &DonnModel, b: &DonnModel, what: &str) {
    for (i, (x, y)) in a.layers().iter().zip(b.layers()).enumerate() {
        assert_eq!(
            x.params(),
            y.params(),
            "{what}: layer {i} parameters diverge"
        );
    }
}

fn multitask_donn() -> MultiTaskDonn {
    MultiTaskDonn::new(
        Grid::square(24, PixelPitch::from_um(36.0)),
        Wavelength::from_nm(532.0),
        Distance::from_mm(10.0),
        Approximation::RayleighSommerfeld,
        2,
        MultiTaskDonn::split_plane_layout(24, 24, &[4, 2], 3),
        11,
    )
}

fn multichannel_donn() -> MultiChannelDonn {
    MultiChannelDonn::new(
        Grid::square(24, PixelPitch::from_um(36.0)),
        Wavelength::from_nm(532.0),
        Distance::from_mm(10.0),
        Approximation::RayleighSommerfeld,
        2,
        Detector::grid_layout(24, 24, 3, 3),
        11,
    )
}

/// At one worker, one epoch of `MultiTaskDonn::train` and of
/// `MultiChannelDonn::train` — batched traced chunks of up to 8 samples
/// through the shared driver — equals the per-sample B=1 loop bit for
/// bit: parameters and epoch loss. Batch 21 leaves a shard that is not a
/// multiple of the chunk size.
#[test]
fn multitask_and_multichannel_train_match_per_sample_loop_bitwise() {
    let _pinned = pin_dispatch();
    parallel::set_threads(1);

    let mut mt = multitask_donn();
    let spans = [(0, 4), (4, 2)];
    let data: Vec<MultiTaskImage> = (0..30).map(|i| (image(i, 0), vec![i % 4, i % 2])).collect();
    let mut reference = vec![mt.model().clone()];
    let expected = per_sample_epoch(
        &mut reference,
        &data,
        21,
        5,
        |(img, _), _| img,
        |(_, labels), logits, g| {
            let tasks = spans.iter().zip(labels);
            tasks
                .map(|(&(start, len), &label)| {
                    let target = one_hot(label, len);
                    let (loss, task_grad) = softmax_mse(&logits[start..start + len], &target);
                    g.extend(task_grad);
                    loss
                })
                .collect()
        },
    );
    let losses = mt.train(&data, 1, 21, 0.2, 5);
    assert_same_params(mt.model(), &reference[0], "multi-task");
    assert_eq!(losses[0].to_bits(), expected.to_bits(), "multi-task loss");

    let mut mc = multichannel_donn();
    let data: Vec<RgbImage> = (0..30)
        .map(|i| ([image(i, 1), image(i, 2), image(i, 3)], i % 3))
        .collect();
    let mut reference = mc.channels().to_vec();
    let expected = per_sample_epoch(
        &mut reference,
        &data,
        21,
        3,
        |(rgb, _), ch| &rgb[ch],
        |(_, label), logits, g| {
            let target = one_hot(*label, logits.len());
            vec![softmax_mse_into(logits, &target, g)]
        },
    );
    let losses = mc.train(&data, 1, 21, 0.2, 3);
    for (ch, (a, b)) in mc.channels().iter().zip(&reference).enumerate() {
        assert_same_params(a, b, &format!("multi-channel channel {ch}"));
    }
    assert_eq!(
        losses[0].to_bits(),
        expected.to_bits(),
        "multi-channel loss"
    );
    parallel::set_threads(0);
}

/// The sharded, chunked evaluators of the segmentation, multi-task,
/// multi-channel and ensemble DONNs equal per-image references bit for
/// bit at one, two and three workers, on 21 images (shards that are not
/// multiples of the chunk size).
#[test]
fn composite_evaluators_match_per_image_references_across_threads() {
    let _pinned = pin_dispatch();
    let n = 21;
    let rate = |hits: usize| hits as f64 / n as f64;

    let seg = SegmentationDonn::new(
        Grid::square(24, PixelPitch::from_um(36.0)),
        Wavelength::from_nm(532.0),
        Distance::from_mm(5.0),
        Approximation::RayleighSommerfeld,
        3,
        SegmentationOptions::proposed(),
        13,
    );
    let masks: Vec<(Vec<f64>, Vec<f64>)> = (0..n)
        .map(|i| {
            let img = image(i, 4);
            let mask = img.iter().map(|&v| f64::from(v > 0.5)).collect();
            (img, mask)
        })
        .collect();
    let iou = masks
        .iter()
        .map(|(img, mask)| binary_iou(&seg.predict_mask(img), mask))
        .sum::<f64>()
        / n as f64;

    let mt = multitask_donn();
    let tasks: Vec<MultiTaskImage> = (0..n).map(|i| (image(i, 5), vec![i % 4, i % 2])).collect();
    let task_accuracy: Vec<f64> = (0..2)
        .map(|t| {
            rate(
                tasks
                    .iter()
                    .filter(|(img, labels)| mt.predict(img)[t] == labels[t])
                    .count(),
            )
        })
        .collect();

    let mc = multichannel_donn();
    let rgb: Vec<RgbImage> = (0..n)
        .map(|i| ([image(i, 6), image(i, 7), image(i, 8)], i % 3))
        .collect();
    let top2 = rate(
        rgb.iter()
            .filter(|(x, label)| top_k_correct(&mc.infer(x), *label, 2))
            .count(),
    );

    let ensemble = DonnEnsemble::new(
        (0..3)
            .map(|seed| {
                DonnBuilder::new(
                    Grid::square(24, PixelPitch::from_um(36.0)),
                    Wavelength::from_nm(532.0),
                )
                .distance(Distance::from_mm(10.0))
                .diffractive_layers(2)
                .detector(Detector::grid_layout(24, 24, 4, 3))
                .init_seed(seed * 31 + 1)
                .build()
            })
            .collect(),
    );
    let labeled: Vec<LabeledImage> = (0..n).map(|i| (image(i, 9), i % 4)).collect();
    let vote = rate(
        labeled
            .iter()
            .filter(|(img, label)| {
                argmax(&ensemble.infer(&Field::from_amplitudes(24, 24, img))) == *label
            })
            .count(),
    );

    for threads in [1, 2, 3] {
        parallel::set_threads(threads);
        assert_eq!(
            seg.evaluate_iou(&masks).to_bits(),
            iou.to_bits(),
            "IoU, {threads} threads"
        );
        let accuracy = mt.evaluate(&tasks);
        for (t, (a, b)) in accuracy.iter().zip(&task_accuracy).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "task {t} accuracy, {threads} threads"
            );
        }
        assert_eq!(
            mc.evaluate_top_k(&rgb, 2).to_bits(),
            top2.to_bits(),
            "top-2, {threads} threads"
        );
        assert_eq!(
            ensemble.evaluate(&labeled).to_bits(),
            vote.to_bits(),
            "vote, {threads} threads"
        );
    }
    parallel::set_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized shapes and batch sizes: batched inference equals
    /// per-sample inference bit for bit.
    #[test]
    fn infer_batch_matches_prop(
        rows in 12usize..26,
        cols in 12usize..26,
        batch_size in 1usize..5,
    ) {
        let _same = same_dispatch();
        let model = donn(rows, cols, Approximation::RayleighSommerfeld, false);
        assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
    }
}
