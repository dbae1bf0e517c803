//! Multi-channel RGB DONN architecture (paper §5.6.1, Fig. 12).
//!
//! The input RGB image is split into three gray-scale channel images; a beam
//! splitter fans the laser into three optical paths, each carrying one
//! channel through its own stack of diffractive layers; the output beams are
//! projected onto a *single shared detector*, where the channel intensities
//! merge. All channels train against the same shared loss.
//!
//! Because intensities add at the detector (`I = Σ_ch |U_ch|²`), the
//! backward pass hands the same per-class logit gradients to every channel,
//! each expanding them through its own detector field. Training runs the
//! summed-readout step of lr-core's data-parallel driver ([`crate::train`])
//! on batched traced chunks of up to 8 images per channel.

use crate::layers::codesign::CodesignMode;
use crate::layers::detector::Detector;
use crate::model::{DonnBuilder, DonnModel};
use crate::train::{hit_rate, staged_logits, Fit, Summed, Tally};
use lr_nn::loss::{one_hot, softmax_mse_into};
use lr_nn::metrics::{argmax, top_k_correct};
use lr_optics::{Approximation, Distance, Grid, Wavelength};
use lr_tensor::Field;

/// An RGB sample: three channel images plus a label.
pub type RgbImage = ([Vec<f64>; 3], usize);

/// A three-channel DONN classifier with a shared detector.
///
/// # Examples
///
/// ```
/// use lightridge::{MultiChannelDonn, Detector};
/// use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
///
/// let grid = Grid::square(16, PixelPitch::from_um(36.0));
/// let donn = MultiChannelDonn::new(
///     grid,
///     Wavelength::from_nm(532.0),
///     Distance::from_mm(20.0),
///     Approximation::RayleighSommerfeld,
///     2,
///     Detector::grid_layout(16, 16, 3, 3),
///     7,
/// );
/// assert_eq!(donn.num_channels(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct MultiChannelDonn {
    channels: Vec<DonnModel>,
}

impl MultiChannelDonn {
    /// Builds a three-channel model with `depth` diffractive layers per
    /// channel, all channels sharing the detector layout.
    pub fn new(
        grid: Grid,
        wavelength: Wavelength,
        distance: Distance,
        approximation: Approximation,
        depth: usize,
        detector: Detector,
        init_seed: u64,
    ) -> Self {
        let channels = (0..3)
            .map(|ch| {
                DonnBuilder::new(grid, wavelength)
                    .distance(distance)
                    .approximation(approximation)
                    .diffractive_layers(depth)
                    .detector(detector.clone())
                    .init_seed(init_seed.wrapping_add(ch as u64 * 10_007))
                    .build()
            })
            .collect();
        MultiChannelDonn { channels }
    }

    /// Number of optical channels (always 3: R, G, B).
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Per-channel sub-models.
    pub fn channels(&self) -> &[DonnModel] {
        &self.channels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.channels[0].num_classes()
    }

    /// Total trainable parameters across channels.
    pub fn num_params(&self) -> usize {
        self.channels.iter().map(DonnModel::num_params).sum()
    }

    /// Merged class logits for an RGB sample: the shared detector sums the
    /// per-channel intensities.
    pub fn infer(&self, rgb: &[Vec<f64>; 3]) -> Vec<f64> {
        let (rows, cols) = self.channels[0].grid().shape();
        let mut logits = vec![0.0; self.num_classes()];
        for (model, img) in self.channels.iter().zip(rgb) {
            let input = Field::from_amplitudes(rows, cols, img);
            let l = model.infer(&input);
            for (acc, v) in logits.iter_mut().zip(l) {
                *acc += v;
            }
        }
        logits
    }

    /// Trains all channels against the shared Softmax-MSE loss; returns the
    /// mean loss per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `batch_size` is zero, or labels are out
    /// of range.
    pub fn train(
        &mut self,
        data: &[RgbImage],
        epochs: usize,
        batch_size: usize,
        lr: f64,
        seed: u64,
    ) -> Vec<f64> {
        let classes = self.num_classes();
        for (_, label) in data {
            assert!(*label < classes, "label out of range");
        }
        let mut trainee = Summed {
            models: &mut self.channels,
            mode: CodesignMode::Soft,
            image: |(rgb, _): &RgbImage, ch| &rgb[ch],
            score: |(_, label): &RgbImage, logits: &[f64], g: &mut Vec<f64>, tally: &mut Tally| {
                tally.0 += softmax_mse_into(logits, &one_hot(*label, logits.len()), g);
            },
        };
        Fit::new(data.len(), batch_size, lr, seed).mean_losses(&mut trainee, data, epochs)
    }

    /// Top-k accuracy over a dataset (Table 5 reports top-1/3/5).
    pub fn evaluate_top_k(&self, data: &[RgbImage], k: usize) -> f64 {
        self.accuracy(data, |logits, label| top_k_correct(logits, label, k))
    }

    /// Top-1 accuracy.
    pub fn evaluate(&self, data: &[RgbImage]) -> f64 {
        self.accuracy(data, |logits, label| argmax(logits) == label)
    }

    /// The fraction of `data` whose merged logits `hit` their label. Each
    /// channel streams the dataset through batched forwards of up to 8
    /// images per worker; the logits sum in channel order.
    fn accuracy(&self, data: &[RgbImage], hit: impl Fn(&[f64], usize) -> bool) -> f64 {
        let mut merged = vec![vec![0.0; self.num_classes()]; data.len()];
        for (ch, model) in self.channels.iter().enumerate() {
            let logits = staged_logits(
                data,
                |(rgb, _)| &rgb[ch],
                |capacity| model.make_batch_workspace(capacity),
                |ws| model.infer_staged_batch(CodesignMode::Soft, ws),
            );
            for (sum, l) in merged.iter_mut().zip(logits) {
                sum.iter_mut().zip(l).for_each(|(a, v)| *a += v);
            }
        }
        hit_rate(&merged, data, |l, (_, label)| hit(l, *label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_optics::PixelPitch;

    /// 3-class RGB toy task: the dominant color channel determines the
    /// class, and each channel image has a distinct blob position.
    fn rgb_dataset(n: usize, size: usize) -> Vec<RgbImage> {
        (0..n)
            .map(|i| {
                let label = i % 3;
                let mut rgb = [
                    vec![0.0; size * size],
                    vec![0.0; size * size],
                    vec![0.0; size * size],
                ];
                for r in size / 4..3 * size / 4 {
                    for c in size / 4..3 * size / 4 {
                        rgb[label][r * size + c] = 1.0;
                    }
                }
                rgb[(label + 1) % 3][(i * 7) % (size * size)] = 0.3;
                (rgb, label)
            })
            .collect()
    }

    fn model(size: usize) -> MultiChannelDonn {
        let grid = Grid::square(size, PixelPitch::from_um(36.0));
        MultiChannelDonn::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(10.0),
            Approximation::RayleighSommerfeld,
            1,
            Detector::grid_layout(size, size, 3, 3),
            11,
        )
    }

    #[test]
    fn three_channels_share_detector_layout() {
        let m = model(16);
        assert_eq!(m.num_channels(), 3);
        let d0 = m.channels()[0].detector();
        let d1 = m.channels()[1].detector();
        assert_eq!(d0.regions(), d1.regions());
    }

    #[test]
    fn merged_logits_are_channel_sums() {
        let m = model(16);
        let (rgb, _) = &rgb_dataset(1, 16)[0];
        let merged = m.infer(rgb);
        let mut manual = vec![0.0; 3];
        for (model, img) in m.channels().iter().zip(rgb) {
            let input = Field::from_amplitudes(16, 16, img);
            for (a, v) in manual.iter_mut().zip(model.infer(&input)) {
                *a += v;
            }
        }
        for (a, b) in merged.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn training_learns_color_dominance_task() {
        let mut m = model(16);
        let data = rgb_dataset(30, 16);
        let losses = m.train(&data, 8, 10, 0.1, 3);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss must drop: {losses:?}"
        );
        let top1 = m.evaluate(&data);
        assert!(top1 > 0.6, "RGB toy task should be learnable, got {top1}");
        let top3 = m.evaluate_top_k(&data, 3);
        assert!((top3 - 1.0).abs() < 1e-12, "top-3 of 3 classes is always 1");
        assert!(m.evaluate_top_k(&data, 1) <= top3);
    }

    #[test]
    fn empty_dataset_evaluates_to_zero() {
        let m = model(16);
        assert_eq!(m.evaluate(&[]), 0.0);
        assert_eq!(m.evaluate_top_k(&[], 3), 0.0);
    }
}
