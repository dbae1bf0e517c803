//! All-optical image segmentation DONN (paper §5.6.2, Fig. 13).
//!
//! Classification detectors use a tiny fraction of the output plane; the
//! rest of the spatial information is discarded. The paper's segmentation
//! architecture keeps the whole plane as an image-to-image system and adds
//! two innovations:
//!
//! 1. **Optical skip connection** — a beam splitter taps the (less
//!    diffracted) input field around the first half of the stack and
//!    recombines it before the second half, restoring original-image
//!    features the aggressive diffraction has washed out (the ResNet idea,
//!    in optics).
//! 2. **Layer normalization** of the detector-plane intensity — *training
//!    only* — which rescales the arbitrary optical intensity into a
//!    well-conditioned range so MSE gradients don't vanish/explode.
//!
//! The baseline (no skip, no layer norm, raw-intensity MSE as in the
//! Lin/Zhou training recipes) is included for the Fig. 13 comparison.
//! Training and IoU evaluation run on lr-core's data-parallel driver
//! ([`crate::train`]) in batched chunks of up to 8 images.

use crate::layers::detector::PlaneReadout;
use crate::layers::diffractive::{DiffractiveBatchCache, DiffractiveLayer};
use crate::train::{map_chunks, Fit, Tally, Trainee};
use lr_optics::{Approximation, Distance, FreeSpace, Grid, PropagationScratch, Wavelength};
use lr_tensor::FieldBatch;
use std::f64::consts::FRAC_1_SQRT_2;

/// An image/mask pair: grayscale input and binary target mask, both
/// row-major at the model resolution.
pub type MaskedImage = (Vec<f64>, Vec<f64>);

/// Architectural switches for the Fig. 13 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentationOptions {
    /// Enable the optical skip connection.
    pub skip_connection: bool,
    /// Enable train-time layer normalization (+ sigmoid head).
    pub layer_norm: bool,
}

impl SegmentationOptions {
    /// The paper's proposed architecture: both innovations on.
    pub fn proposed() -> Self {
        SegmentationOptions {
            skip_connection: true,
            layer_norm: true,
        }
    }

    /// The baseline recipe (no skip, no layer norm).
    pub fn baseline() -> Self {
        SegmentationOptions {
            skip_connection: false,
            layer_norm: false,
        }
    }
}

/// A segmentation DONN: `pre` layers → (skip merge) → `post` layers →
/// whole-plane intensity readout.
#[derive(Debug, Clone)]
pub struct SegmentationDonn {
    pre: Vec<DiffractiveLayer>,
    post: Vec<DiffractiveLayer>,
    /// Free-space path of the skip branch (matched to the pre-stack length).
    skip_propagator: FreeSpace,
    final_propagator: FreeSpace,
    options: SegmentationOptions,
    grid: Grid,
}

/// Forward activations of a batch, one plane per sample.
struct SegTrace {
    /// Per-layer caches, `pre` layers then `post`.
    caches: Vec<DiffractiveBatchCache>,
    detector_fields: FieldBatch,
    intensities: Vec<Vec<f64>>,
    /// Per-sample LayerNorm internals (inv_std, normalized values) when
    /// enabled.
    ln: Vec<(f64, Vec<f64>)>,
    predictions: Vec<Vec<f64>>,
}

impl SegmentationDonn {
    /// Builds a `depth`-layer segmentation DONN; the skip connection taps
    /// after `depth/2` layers (rounded down, at least 1 when enabled).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(
        grid: Grid,
        wavelength: Wavelength,
        distance: Distance,
        approximation: Approximation,
        depth: usize,
        options: SegmentationOptions,
        init_seed: u64,
    ) -> Self {
        assert!(depth > 0, "segmentation DONN needs at least one layer");
        let split = if options.skip_connection {
            (depth / 2).max(1).min(depth)
        } else {
            depth
        };
        let make = |i: usize| {
            let mut l = DiffractiveLayer::new(grid, wavelength, distance, approximation, 1.0);
            l.randomize_phases(init_seed.wrapping_add(i as u64 * 7919));
            l
        };
        let pre: Vec<_> = (0..split).map(make).collect();
        let post: Vec<_> = (split..depth).map(make).collect();
        // The skip branch travels the same optical path length as the pre
        // stack (split hops of `distance`).
        let skip_propagator = FreeSpace::new(
            grid,
            wavelength,
            Distance::from_meters(distance.meters() * split as f64),
            approximation,
        );
        let final_propagator = FreeSpace::new(grid, wavelength, distance, approximation);
        SegmentationDonn {
            pre,
            post,
            skip_propagator,
            final_propagator,
            options,
            grid,
        }
    }

    /// The architecture switches in effect.
    pub fn options(&self) -> SegmentationOptions {
        self.options
    }

    /// Total depth (pre + post layers).
    pub fn depth(&self) -> usize {
        self.pre.len() + self.post.len()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        (self.pre.len() + self.post.len()) * self.grid.rows() * self.grid.cols()
    }

    /// Forwards a batch of images (amplitude-encoded) through the system.
    fn forward<'a>(
        &self,
        images: impl ExactSizeIterator<Item = &'a [f64]>,
        scratch: &mut PropagationScratch,
    ) -> SegTrace {
        let (rows, cols) = self.grid.shape();
        let n = images.len();
        let mut u = FieldBatch::zeros(n, rows, cols);
        for (b, img) in images.enumerate() {
            u.set_plane_amplitudes(b, img);
        }
        // Beam splitter: both branches get the field scaled by 1/√2 (when
        // the skip path is enabled).
        let skip = self.options.skip_connection.then(|| {
            u.as_mut_slice()
                .iter_mut()
                .for_each(|z| *z *= FRAC_1_SQRT_2);
            u.clone()
        });
        let traced = |layer: &DiffractiveLayer, u: &mut FieldBatch, scratch: &mut _| {
            let mut cache = DiffractiveBatchCache::with_capacity(n, rows, cols);
            layer.forward_batch_traced(u, &mut cache, scratch);
            cache
        };
        let mut caches = Vec::with_capacity(self.depth());
        for layer in &self.pre {
            caches.push(traced(layer, &mut u, scratch));
        }
        if let Some(mut skip) = skip {
            self.skip_propagator
                .propagate_batch_into(&mut skip, scratch);
            // Recombining splitter: (main + skip)/√2.
            for (z, &s) in u.as_mut_slice().iter_mut().zip(skip.as_slice()) {
                *z += s;
                *z *= FRAC_1_SQRT_2;
            }
        }
        for layer in &self.post {
            caches.push(traced(layer, &mut u, scratch));
        }
        self.final_propagator.propagate_batch_into(&mut u, scratch);
        let mut intensities = vec![Vec::new(); n];
        PlaneReadout.read_batch_into(&u, &mut intensities);
        let (ln, predictions) = if self.options.layer_norm {
            intensities
                .iter()
                .map(|intensity| {
                    let (_, inv_std, z) = layer_norm(intensity);
                    let p = z.iter().map(|&v| sigmoid(v)).collect();
                    ((inv_std, z), p)
                })
                .unzip()
        } else {
            (Vec::new(), intensities.clone())
        };
        SegTrace {
            caches,
            detector_fields: u,
            intensities,
            ln,
            predictions,
        }
    }

    /// Predicted binary mask for an input image, thresholded at the mean
    /// detector intensity (a threshold an analog comparator could realize).
    pub fn predict_mask(&self, image: &[f64]) -> Vec<f64> {
        let mut scratch = self.final_propagator.make_scratch();
        let trace = self.forward(std::iter::once(image), &mut scratch);
        threshold_mask(&trace.intensities[0])
    }

    /// Mean IoU over a dataset: each worker streams its shard through
    /// batched forwards of up to 8 images, and the per-image IoUs are
    /// summed in data order.
    pub fn evaluate_iou(&self, data: &[MaskedImage]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let ious = map_chunks(
            data,
            |_| self.final_propagator.make_scratch(),
            |scratch, _, chunk, ious| {
                let trace = self.forward(chunk.iter().map(|(img, _)| img.as_slice()), scratch);
                for (intensity, (_, mask)) in trace.intensities.iter().zip(chunk) {
                    ious.push(lr_nn::metrics::binary_iou(&threshold_mask(intensity), mask));
                }
            },
        );
        ious.into_iter().sum::<f64>() / data.len() as f64
    }

    /// Trains with per-pixel MSE (through LayerNorm + sigmoid when enabled);
    /// returns mean loss per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `batch_size` is zero, or image/mask
    /// sizes mismatch the grid.
    pub fn train(
        &mut self,
        data: &[MaskedImage],
        epochs: usize,
        batch_size: usize,
        lr: f64,
        seed: u64,
    ) -> Vec<f64> {
        let (rows, cols) = self.grid.shape();
        for (img, mask) in data {
            assert_eq!(img.len(), rows * cols, "image size mismatch");
            assert_eq!(mask.len(), rows * cols, "mask size mismatch");
        }
        Fit::new(data.len(), batch_size, lr, seed).mean_losses(self, data, epochs)
    }

    /// Backward pass from per-sample prediction gradients, accumulating
    /// per-layer phase gradients (`pre` layers first, then `post`).
    fn backward(
        &self,
        trace: &SegTrace,
        pred_grads: &[Vec<f64>],
        grads: &mut [Vec<f64>],
        scratch: &mut PropagationScratch,
    ) {
        // Head: sigmoid + LayerNorm (if enabled) down to intensity grads.
        let intensity_grads: Vec<Vec<f64>> = if self.options.layer_norm {
            pred_grads
                .iter()
                .zip(&trace.predictions)
                .zip(&trace.ln)
                .map(|((pred_grads, prediction), (inv_std, z))| {
                    // dL/dz_i = dL/dp_i · p_i(1−p_i)
                    let dz: Vec<f64> = pred_grads
                        .iter()
                        .zip(prediction)
                        .map(|(&g, &p)| g * p * (1.0 - p))
                        .collect();
                    layer_norm_backward(&dz, z, *inv_std)
                })
                .collect()
        } else {
            pred_grads.to_vec()
        };
        let (rows, cols) = self.grid.shape();
        let mut g = FieldBatch::zeros(trace.detector_fields.batch(), rows, cols);
        PlaneReadout.backward_batch_into(&trace.detector_fields, &intensity_grads, &mut g);
        self.final_propagator.adjoint_batch_into(&mut g, scratch);
        let split = self.pre.len();
        for (i, layer) in self.post.iter().enumerate().rev() {
            let j = split + i;
            layer.backward_batch_inplace(&mut g, &trace.caches[j], &mut grads[j], scratch);
        }
        if self.options.skip_connection {
            // Recombiner adjoint: both branches receive g/√2; the skip branch
            // ends at the (non-trainable) input, so only the main branch
            // continues.
            g.as_mut_slice()
                .iter_mut()
                .for_each(|z| *z *= FRAC_1_SQRT_2);
        }
        for (i, layer) in self.pre.iter().enumerate().rev() {
            layer.backward_batch_inplace(&mut g, &trace.caches[i], &mut grads[i], scratch);
        }
    }
}

/// A segmentation DONN's chunk step: forwards the chunk as one batch,
/// scores each prediction with per-pixel MSE against its mask, and
/// backwards the chunk into the per-layer phase gradients.
impl Trainee<MaskedImage> for SegmentationDonn {
    type Worker = (PropagationScratch, Vec<Vec<f64>>);

    fn worker(&self, _capacity: usize) -> Self::Worker {
        let (rows, cols) = self.grid.shape();
        let grads = vec![vec![0.0; rows * cols]; self.depth()];
        (self.final_propagator.make_scratch(), grads)
    }

    fn chunk(&self, w: &mut Self::Worker, samples: &[&MaskedImage], _: &[u64], tally: &mut Tally) {
        let (scratch, grads) = w;
        let trace = self.forward(samples.iter().map(|(img, _)| img.as_slice()), scratch);
        let masks = samples.iter().map(|(_, mask)| mask);
        let pred_grads: Vec<Vec<f64>> = (trace.predictions.iter().zip(masks))
            .map(|(prediction, mask)| {
                let (loss, g) = lr_nn::loss::mse(prediction, mask);
                tally.0 += loss;
                g
            })
            .collect();
        self.backward(&trace, &pred_grads, grads, scratch);
    }

    fn into_grads((_, grads): Self::Worker) -> Vec<Vec<f64>> {
        grads
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let layers = self.pre.iter_mut().chain(&mut self.post);
        layers.map(DiffractiveLayer::phases_mut)
    }
}

/// The binary mask of a detector intensity image, thresholded at its mean
/// (a threshold an analog comparator could realize).
fn threshold_mask(intensity: &[f64]) -> Vec<f64> {
    let mean = intensity.iter().sum::<f64>() / intensity.len() as f64;
    intensity.iter().map(|&i| f64::from(i >= mean)).collect()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Normalizes to zero mean / unit variance; returns `(mean, inv_std, z)`.
fn layer_norm(x: &[f64]) -> (f64, f64, Vec<f64>) {
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    let var = x.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / n;
    let inv_std = 1.0 / (var + 1e-12).sqrt();
    let z = x.iter().map(|&v| (v - mean) * inv_std).collect();
    (mean, inv_std, z)
}

/// Standard LayerNorm backward:
/// `dL/dx_i = inv_std·(g_i − mean(g) − z_i·mean(g⊙z))`.
fn layer_norm_backward(g: &[f64], z: &[f64], inv_std: f64) -> Vec<f64> {
    let n = g.len() as f64;
    let mean_g = g.iter().sum::<f64>() / n;
    let mean_gz = g.iter().zip(z).map(|(&gi, &zi)| gi * zi).sum::<f64>() / n;
    g.iter()
        .zip(z)
        .map(|(&gi, &zi)| inv_std * (gi - mean_g - zi * mean_gz))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_optics::PixelPitch;

    fn toy_masks(n: usize, size: usize) -> Vec<MaskedImage> {
        // "Buildings": bright rectangles whose mask is the rectangle itself.
        (0..n)
            .map(|i| {
                let mut img = vec![0.05; size * size];
                let mut mask = vec![0.0; size * size];
                let w = size / 3;
                let r0 = (i * 3) % (size - w);
                let c0 = (i * 5) % (size - w);
                for r in r0..r0 + w {
                    for c in c0..c0 + w {
                        img[r * size + c] = 1.0;
                        mask[r * size + c] = 1.0;
                    }
                }
                (img, mask)
            })
            .collect()
    }

    fn donn(options: SegmentationOptions) -> SegmentationDonn {
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        SegmentationDonn::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(5.0),
            Approximation::RayleighSommerfeld,
            3,
            options,
            13,
        )
    }

    #[test]
    fn architecture_splits_at_half_depth() {
        let d = donn(SegmentationOptions::proposed());
        assert_eq!(d.depth(), 3);
        assert_eq!(d.pre.len(), 1);
        assert_eq!(d.post.len(), 2);
        let b = donn(SegmentationOptions::baseline());
        assert_eq!(b.pre.len(), 3);
        assert_eq!(b.post.len(), 0);
    }

    #[test]
    fn layer_norm_statistics() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let (mean, inv_std, z) = layer_norm(&x);
        assert!((mean - 2.5).abs() < 1e-12);
        let zm: f64 = z.iter().sum::<f64>() / 4.0;
        let zv: f64 = z.iter().map(|v| v * v).sum::<f64>() / 4.0;
        assert!(zm.abs() < 1e-12);
        assert!((zv - 1.0).abs() < 1e-9);
        assert!(inv_std > 0.0);
    }

    #[test]
    fn layer_norm_backward_matches_finite_difference() {
        let x = [0.3, 1.7, -0.4, 2.2, 0.9];
        let w = [0.2, -0.5, 1.0, 0.1, 0.7]; // loss = Σ w·LN(x)
        let loss = |x: &[f64]| -> f64 {
            let (_, _, z) = layer_norm(x);
            z.iter().zip(&w).map(|(&zi, &wi)| zi * wi).sum()
        };
        let (_, inv_std, z) = layer_norm(&x);
        let analytic = layer_norm_backward(&w, &z, inv_std);
        let report = lr_nn::gradcheck::check_gradient(loss, &x, &analytic, 1e-6);
        assert!(report.passes(1e-5), "{report:?}");
    }

    /// Finite-difference check of every layer's phase gradients, end to
    /// end: input split, layers, skip merge, readout, head and per-pixel
    /// MSE, for a two-image batch.
    fn assert_phase_gradients_match(options: SegmentationOptions) {
        let d = donn(options);
        let data = toy_masks(2, 16);
        let trace_of = |d: &SegmentationDonn, scratch: &mut PropagationScratch| {
            d.forward(data.iter().map(|(img, _)| img.as_slice()), scratch)
        };
        let mut scratch = PropagationScratch::new(16, 16);
        let loss = |d: &SegmentationDonn| -> f64 {
            let trace = trace_of(d, &mut PropagationScratch::new(16, 16));
            let losses = trace.predictions.iter().zip(&data);
            losses
                .map(|(p, (_, mask))| lr_nn::loss::mse(p, mask).0)
                .sum()
        };
        let trace = trace_of(&d, &mut scratch);
        let pred_grads: Vec<Vec<f64>> = trace
            .predictions
            .iter()
            .zip(&data)
            .map(|(p, (_, mask))| lr_nn::loss::mse(p, mask).1)
            .collect();
        let mut grads = vec![vec![0.0; 256]; d.depth()];
        d.backward(&trace, &pred_grads, &mut grads, &mut scratch);
        for (i, analytic) in grads.iter().enumerate() {
            let params = d
                .pre
                .iter()
                .chain(&d.post)
                .nth(i)
                .unwrap()
                .phases()
                .to_vec();
            let report = lr_nn::gradcheck::check_gradient_sampled(
                |p: &[f64]| {
                    let mut m = d.clone();
                    let layer = m.pre.iter_mut().chain(&mut m.post).nth(i).unwrap();
                    layer.phases_mut().copy_from_slice(p);
                    loss(&m)
                },
                &params,
                analytic,
                1e-5,
                12,
            );
            // Relative only: these gradients are ≤ 1e-2, under the
            // absolute floor `passes` would apply.
            assert!(
                report.max_rel_err < 1e-3,
                "{options:?}, layer {i}: {report:?}"
            );
        }
    }

    #[test]
    fn phase_gradients_match_finite_differences_with_skip_and_layer_norm() {
        assert_phase_gradients_match(SegmentationOptions::proposed());
    }

    #[test]
    fn phase_gradients_match_finite_differences_without_skip_or_layer_norm() {
        assert_phase_gradients_match(SegmentationOptions::baseline());
    }

    #[test]
    fn training_reduces_loss() {
        let mut d = donn(SegmentationOptions::proposed());
        let data = toy_masks(12, 16);
        let losses = d.train(&data, 6, 6, 0.05, 1);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "segmentation loss must decrease: {losses:?}"
        );
    }

    #[test]
    fn predict_mask_is_binary_and_shaped() {
        let d = donn(SegmentationOptions::proposed());
        let (img, _) = &toy_masks(1, 16)[0];
        let mask = d.predict_mask(img);
        assert_eq!(mask.len(), 256);
        assert!(mask.iter().all(|&m| m == 0.0 || m == 1.0));
    }

    #[test]
    fn iou_improves_with_training() {
        let data = toy_masks(12, 16);
        let mut d = donn(SegmentationOptions::proposed());
        let before = d.evaluate_iou(&data);
        d.train(&data, 8, 6, 0.05, 2);
        let after = d.evaluate_iou(&data);
        assert!(
            after > before - 0.05,
            "IoU should not collapse: {before} -> {after}"
        );
        assert!(after > 0.2, "trained IoU too low: {after}");
    }

    #[test]
    fn skip_connection_changes_forward() {
        let with = donn(SegmentationOptions::proposed());
        let without = donn(SegmentationOptions {
            skip_connection: false,
            layer_norm: true,
        });
        let (img, _) = &toy_masks(1, 16)[0];
        let intensity = |d: &SegmentationDonn| {
            d.forward(
                std::iter::once(img.as_slice()),
                &mut PropagationScratch::new(16, 16),
            )
            .intensities
            .remove(0)
        };
        let a = intensity(&with);
        let b = intensity(&without);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-9, "skip connection must alter the optical path");
    }
}
