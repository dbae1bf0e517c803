//! Real-time multi-task DONN (extension; Li et al. 2021, the paper's
//! reference \[31\]).
//!
//! One shared diffractive stack answers several classification tasks in a
//! single optical pass: each task owns a disjoint set of detector regions
//! on the shared detector plane, and the per-task prediction is the argmax
//! over that task's regions. Training optimizes the *sum* of the per-task
//! Softmax-MSE losses — since the tasks read from disjoint regions, their
//! logit gradients concatenate into one detector-plane gradient and flow
//! through the shared phase masks together.
//!
//! Internally the union of all tasks' regions forms one [`Detector`], so
//! the [`DonnModel`] machinery is reused unchanged: training runs the
//! classifier step of lr-core's data-parallel driver ([`crate::train`])
//! on batched traced chunks of up to 8 images, and this module only
//! tracks which logit slice belongs to which task.

use crate::layers::codesign::CodesignMode;
use crate::layers::detector::{Detector, DetectorRegion};
use crate::model::{DonnBuilder, DonnModel};
use crate::train::{hit_rate, staged_logits, Fit, Summed, Tally};
use lr_nn::loss::{one_hot, softmax_mse};
use lr_nn::metrics::argmax;
use lr_optics::{Approximation, Distance, Grid, Wavelength};
use lr_tensor::Field;

/// A multi-task sample: one intensity image with one label per task.
pub type MultiTaskImage = (Vec<f64>, Vec<usize>);

/// A DONN answering several classification tasks in one optical pass.
///
/// # Examples
///
/// ```
/// use lightridge::MultiTaskDonn;
/// use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
///
/// let grid = Grid::square(24, PixelPitch::from_um(36.0));
/// let layouts = MultiTaskDonn::split_plane_layout(24, 24, &[4, 2], 3);
/// let donn = MultiTaskDonn::new(
///     grid,
///     Wavelength::from_nm(532.0),
///     Distance::from_mm(20.0),
///     Approximation::RayleighSommerfeld,
///     2,
///     layouts,
///     7,
/// );
/// assert_eq!(donn.num_tasks(), 2);
/// assert_eq!(donn.task_classes(0), 4);
/// assert_eq!(donn.task_classes(1), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MultiTaskDonn {
    model: DonnModel,
    /// `(start, len)` of each task's slice in the union logits.
    task_spans: Vec<(usize, usize)>,
}

impl MultiTaskDonn {
    /// Builds a multi-task model with `depth` shared diffractive layers.
    /// `region_sets[t]` holds task `t`'s detector regions; regions must be
    /// pairwise disjoint across all tasks.
    ///
    /// # Panics
    ///
    /// Panics if any task has no regions, regions overlap, or a region
    /// falls outside the plane.
    pub fn new(
        grid: Grid,
        wavelength: Wavelength,
        distance: Distance,
        approximation: Approximation,
        depth: usize,
        region_sets: Vec<Vec<DetectorRegion>>,
        init_seed: u64,
    ) -> Self {
        assert!(!region_sets.is_empty(), "need at least one task");
        let (rows, cols) = grid.shape();
        let mut task_spans = Vec::with_capacity(region_sets.len());
        let mut union = Vec::new();
        for regions in &region_sets {
            assert!(!regions.is_empty(), "every task needs at least one region");
            task_spans.push((union.len(), regions.len()));
            union.extend(regions.iter().cloned());
        }
        // Disjointness: no plane pixel may belong to two regions.
        let mut owner = vec![usize::MAX; rows * cols];
        for (k, region) in union.iter().enumerate() {
            for r in 0..rows {
                for c in 0..cols {
                    if region.contains(r, c) {
                        assert!(
                            owner[r * cols + c] == usize::MAX,
                            "detector regions overlap at ({r}, {c})"
                        );
                        owner[r * cols + c] = k;
                    }
                }
            }
        }
        let model = DonnBuilder::new(grid, wavelength)
            .distance(distance)
            .approximation(approximation)
            .diffractive_layers(depth)
            .detector(Detector::new(rows, cols, union))
            .init_seed(init_seed)
            .build();
        MultiTaskDonn { model, task_spans }
    }

    /// A standard two-or-more-task layout: the plane is split into
    /// `classes.len()` horizontal bands, and task `t` gets `classes[t]`
    /// square regions of side `det_size` arranged on a near-square grid
    /// inside its band (the same placement scheme as
    /// [`Detector::grid_layout`]).
    ///
    /// # Panics
    ///
    /// Panics if a band cannot fit its regions.
    pub fn split_plane_layout(
        rows: usize,
        cols: usize,
        classes: &[usize],
        det_size: usize,
    ) -> Vec<Vec<DetectorRegion>> {
        assert!(!classes.is_empty(), "need at least one task");
        let band_h = rows / classes.len();
        classes
            .iter()
            .enumerate()
            .map(|(t, &k)| {
                assert!(k > 0, "task {t} needs at least one class");
                let band_top = t * band_h;
                let r_cols = (k as f64).sqrt().ceil() as usize;
                let r_rows = k.div_ceil(r_cols);
                let cell_h = band_h / (r_rows + 1);
                let cell_w = cols / (r_cols + 1);
                assert!(
                    cell_h >= det_size && cell_w >= det_size,
                    "task {t}: {k} regions of {det_size}px do not fit a {band_h}x{cols} band"
                );
                (0..k)
                    .map(|i| {
                        let gr = i / r_cols;
                        let gc = i % r_cols;
                        let center_r = band_top + (gr + 1) * band_h / (r_rows + 1);
                        let center_c = (gc + 1) * cols / (r_cols + 1);
                        DetectorRegion::new(
                            center_r - det_size / 2,
                            center_c - det_size / 2,
                            det_size,
                            det_size,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.task_spans.len()
    }

    /// Number of classes of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn task_classes(&self, t: usize) -> usize {
        self.task_spans[t].1
    }

    /// The shared underlying model (for deployment, visualization, etc.).
    pub fn model(&self) -> &DonnModel {
        &self.model
    }

    /// Per-task logits for one image, split from the union detector read.
    pub fn infer(&self, image: &[f64]) -> Vec<Vec<f64>> {
        let (rows, cols) = self.model.grid().shape();
        let input = Field::from_amplitudes(rows, cols, image);
        let union = self.model.infer(&input);
        self.task_spans
            .iter()
            .map(|&(start, len)| union[start..start + len].to_vec())
            .collect()
    }

    /// Per-task argmax predictions for one image.
    pub fn predict(&self, image: &[f64]) -> Vec<usize> {
        self.infer(image).iter().map(|l| argmax(l)).collect()
    }

    /// Trains against the summed per-task Softmax-MSE loss; returns the
    /// mean joint loss per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `batch_size` is zero, a sample has the
    /// wrong number of labels, or a label is out of its task's range.
    pub fn train(
        &mut self,
        data: &[MultiTaskImage],
        epochs: usize,
        batch_size: usize,
        lr: f64,
        seed: u64,
    ) -> Vec<f64> {
        for (_, labels) in data {
            assert_eq!(
                labels.len(),
                self.num_tasks(),
                "one label per task required"
            );
            for (t, &l) in labels.iter().enumerate() {
                assert!(
                    l < self.task_classes(t),
                    "label {l} out of range for task {t}"
                );
            }
        }
        let mut trainee = Summed {
            models: std::slice::from_mut(&mut self.model),
            mode: CodesignMode::Soft,
            image: |(img, _): &MultiTaskImage, _| img,
            score: |(_, labels): &MultiTaskImage,
                    logits: &[f64],
                    g: &mut Vec<f64>,
                    tally: &mut Tally| {
                // The task spans tile the union logits in order, so the
                // per-task gradients concatenate into the union gradient.
                g.clear();
                for (&(start, len), &label) in self.task_spans.iter().zip(labels) {
                    let (loss, task_grad) =
                        softmax_mse(&logits[start..start + len], &one_hot(label, len));
                    tally.0 += loss;
                    g.extend_from_slice(&task_grad);
                }
            },
        };
        Fit::new(data.len(), batch_size, lr, seed).mean_losses(&mut trainee, data, epochs)
    }

    /// Per-task accuracy over a dataset: each worker streams its shard
    /// through batched forwards of up to 8 images.
    pub fn evaluate(&self, data: &[MultiTaskImage]) -> Vec<f64> {
        let logits = staged_logits(
            data,
            |(img, _)| img,
            |capacity| self.model.make_batch_workspace(capacity),
            |ws| self.model.infer_staged_batch(CodesignMode::Soft, ws),
        );
        let spans = self.task_spans.iter().enumerate();
        spans
            .map(|(t, &(start, len))| {
                hit_rate(&logits, data, |l, (_, labels)| {
                    argmax(&l[start..start + len]) == labels[t]
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelGrads;
    use lr_optics::PixelPitch;

    fn model(size: usize, classes: &[usize]) -> MultiTaskDonn {
        let grid = Grid::square(size, PixelPitch::from_um(36.0));
        let layouts = MultiTaskDonn::split_plane_layout(size, size, classes, 3);
        MultiTaskDonn::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(10.0),
            Approximation::RayleighSommerfeld,
            2,
            layouts,
            11,
        )
    }

    /// Quadrant dataset: task 0 = which column half is lit (2 classes),
    /// task 1 = which row half is lit (2 classes). Jointly 4 patterns.
    fn quadrant_data(n: usize, size: usize) -> Vec<MultiTaskImage> {
        (0..n)
            .map(|i| {
                let col_cls = i % 2;
                let row_cls = (i / 2) % 2;
                let mut img = vec![0.0; size * size];
                for r in 0..size / 2 {
                    for c in 0..size / 2 {
                        img[(r + row_cls * size / 2) * size + (c + col_cls * size / 2)] = 1.0;
                    }
                }
                (img, vec![col_cls, row_cls])
            })
            .collect()
    }

    #[test]
    fn layout_produces_disjoint_regions_per_task() {
        let layouts = MultiTaskDonn::split_plane_layout(32, 32, &[4, 3], 4);
        assert_eq!(layouts.len(), 2);
        assert_eq!(layouts[0].len(), 4);
        assert_eq!(layouts[1].len(), 3);
        // Constructing the model re-checks disjointness.
        let _ = model(32, &[4, 3]);
    }

    #[test]
    fn infer_splits_union_logits() {
        let donn = model(24, &[4, 2]);
        let img = vec![0.5; 24 * 24];
        let per_task = donn.infer(&img);
        assert_eq!(per_task.len(), 2);
        assert_eq!(per_task[0].len(), 4);
        assert_eq!(per_task[1].len(), 2);
        assert!(per_task
            .iter()
            .flatten()
            .all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn learns_two_tasks_jointly() {
        let mut donn = model(24, &[2, 2]);
        let data = quadrant_data(48, 24);
        let history = donn.train(&data, 6, 12, 0.2, 5);
        assert!(
            history.last().expect("nonempty") < &history[0],
            "joint loss must decrease: {history:?}"
        );
        let acc = donn.evaluate(&data);
        // Both tasks clearly above 2-class chance.
        assert!(acc[0] > 0.7, "task 0 accuracy {:.3}", acc[0]);
        assert!(acc[1] > 0.7, "task 1 accuracy {:.3}", acc[1]);
    }

    #[test]
    #[should_panic(expected = "regions overlap")]
    fn rejects_overlapping_tasks() {
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        let region = DetectorRegion::new(4, 4, 4, 4);
        let _ = MultiTaskDonn::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(10.0),
            Approximation::RayleighSommerfeld,
            1,
            vec![vec![region], vec![region]],
            3,
        );
    }

    #[test]
    #[should_panic(expected = "one label per task")]
    fn rejects_wrong_label_arity() {
        let mut donn = model(24, &[2, 2]);
        let data = vec![(vec![0.0; 24 * 24], vec![0usize])];
        let _ = donn.train(&data, 1, 1, 0.1, 0);
    }

    #[test]
    fn predictions_are_in_range() {
        let donn = model(24, &[3, 2]);
        let preds = donn.predict(&vec![1.0; 24 * 24]);
        assert_eq!(preds.len(), 2);
        assert!(preds[0] < 3 && preds[1] < 2);
    }

    /// The joint multi-task loss gradient (concatenated per-task logit
    /// gradients pushed through the shared stack) must agree with central
    /// finite differences.
    #[test]
    fn joint_gradient_matches_finite_differences() {
        let donn = model(16, &[2, 2]);
        let size = 16;
        let img: Vec<f64> = (0..size * size)
            .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        let labels = [0usize, 1usize];

        let spans = donn.task_spans.clone();
        let joint_loss = |m: &DonnModel| {
            let input = Field::from_amplitudes(size, size, &img);
            let trace = m.forward_trace(&input, CodesignMode::Soft, 0);
            spans
                .iter()
                .zip(labels)
                .map(|(&(start, len), label)| {
                    let target = one_hot(label, len);
                    softmax_mse(&trace.logits[0][start..start + len], &target).0
                })
                .sum::<f64>()
        };

        // Analytic gradient of layer 0.
        let input = Field::from_amplitudes(size, size, &img);
        let trace = donn.model.forward_trace(&input, CodesignMode::Soft, 0);
        let union_len: usize = spans.iter().map(|&(_, len)| len).sum();
        let mut logit_grads = vec![0.0; union_len];
        for (&(start, len), label) in spans.iter().zip(labels) {
            let target = one_hot(label, len);
            let (_, g) = softmax_mse(&trace.logits[0][start..start + len], &target);
            logit_grads[start..start + len].copy_from_slice(&g);
        }
        let mut grads = ModelGrads::zeros_like(&donn.model);
        donn.model.backward(&trace, &logit_grads, &mut grads);

        // Numeric gradient on a strided parameter sample of layer 0.
        let h = 1e-5;
        let params = donn.model.layers()[0].params().to_vec();
        let mut max_rel: f64 = 0.0;
        for i in (0..params.len()).step_by(params.len() / 12 + 1) {
            let mut m = donn.model.clone();
            m.layers_mut()[0].params_mut()[i] = params[i] + h;
            let lp = joint_loss(&m);
            m.layers_mut()[0].params_mut()[i] = params[i] - h;
            let lm = joint_loss(&m);
            let numeric = (lp - lm) / (2.0 * h);
            let analytic = grads.layer(0)[i];
            let scale = analytic.abs().max(numeric.abs()).max(1e-8);
            max_rel = max_rel.max((analytic - numeric).abs() / scale);
        }
        assert!(
            max_rel < 1e-5,
            "joint-loss gradient check failed: max rel err {max_rel:.3e}"
        );
    }
}
