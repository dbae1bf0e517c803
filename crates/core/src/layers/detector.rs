//! Detector plane (`lr.layers.detector`).
//!
//! The detector is the analog→digital boundary of a DONN: it captures the
//! light-intensity pattern and, for classification, sums the intensity in
//! one pre-defined region per class (paper §2.1). The class whose region
//! collects the most light is the prediction; `Softmax` of the region sums
//! feeds the MSE training loss.

use lr_tensor::{Complex64, Field, FieldBatch};

/// One rectangular detector region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorRegion {
    /// Top row (inclusive).
    pub row: usize,
    /// Left column (inclusive).
    pub col: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl DetectorRegion {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty.
    pub fn new(row: usize, col: usize, height: usize, width: usize) -> Self {
        assert!(height > 0 && width > 0, "detector region must be non-empty");
        DetectorRegion {
            row,
            col,
            height,
            width,
        }
    }

    /// True if `(r, c)` lies inside this region.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r >= self.row && r < self.row + self.height && c >= self.col && c < self.col + self.width
    }

    /// Region area in pixels.
    pub fn area(&self) -> usize {
        self.height * self.width
    }
}

/// A classification detector: one region per class on a `rows × cols`
/// plane.
///
/// # Examples
///
/// ```
/// use lightridge::Detector;
/// use lr_tensor::Field;
///
/// let det = Detector::grid_layout(64, 64, 10, 6);
/// assert_eq!(det.num_classes(), 10);
/// let logits = det.read(&Field::ones(64, 64));
/// assert_eq!(logits.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    rows: usize,
    cols: usize,
    regions: Vec<DetectorRegion>,
}

impl Detector {
    /// Creates a detector from explicit regions (the paper's
    /// `x_loc`/`y_loc`/`det_size` interface).
    ///
    /// # Panics
    ///
    /// Panics if there are no regions, a region exceeds the plane, or two
    /// regions overlap.
    pub fn new(rows: usize, cols: usize, regions: Vec<DetectorRegion>) -> Self {
        assert!(!regions.is_empty(), "detector needs at least one region");
        for (i, r) in regions.iter().enumerate() {
            assert!(
                r.row + r.height <= rows && r.col + r.width <= cols,
                "region {i} exceeds the detector plane"
            );
            for (j, other) in regions.iter().enumerate().take(i) {
                let disjoint = r.row + r.height <= other.row
                    || other.row + other.height <= r.row
                    || r.col + r.width <= other.col
                    || other.col + other.width <= r.col;
                assert!(disjoint, "regions {j} and {i} overlap");
            }
        }
        Detector {
            rows,
            cols,
            regions,
        }
    }

    /// Builds the paper's standard layout: `num_classes` square regions of
    /// side `det_size`, placed evenly on a centered grid (2 rows of 5 for 10
    /// classes).
    ///
    /// # Panics
    ///
    /// Panics if the layout does not fit the plane.
    pub fn grid_layout(rows: usize, cols: usize, num_classes: usize, det_size: usize) -> Self {
        assert!(
            num_classes > 0 && det_size > 0,
            "need classes and a region size"
        );
        // Choose a near-square arrangement: r_rows × r_cols ≥ num_classes.
        let r_cols = (num_classes as f64).sqrt().ceil() as usize;
        let r_rows = num_classes.div_ceil(r_cols);
        let cell_h = rows / (r_rows + 1);
        let cell_w = cols / (r_cols + 1);
        assert!(
            cell_h >= det_size && cell_w >= det_size,
            "detector layout does not fit: {num_classes} classes of {det_size}px on {rows}x{cols}"
        );
        let mut regions = Vec::with_capacity(num_classes);
        for k in 0..num_classes {
            let gr = k / r_cols;
            let gc = k % r_cols;
            let center_r = (gr + 1) * rows / (r_rows + 1);
            let center_c = (gc + 1) * cols / (r_cols + 1);
            regions.push(DetectorRegion::new(
                center_r - det_size / 2,
                center_c - det_size / 2,
                det_size,
                det_size,
            ));
        }
        Detector::new(rows, cols, regions)
    }

    /// Plane shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of classes (regions).
    pub fn num_classes(&self) -> usize {
        self.regions.len()
    }

    /// The regions.
    pub fn regions(&self) -> &[DetectorRegion] {
        &self.regions
    }

    /// Reads the class logits: per-region intensity sums `I_k = Σ |U_p|²`.
    ///
    /// # Panics
    ///
    /// Panics if the field shape does not match the detector plane.
    pub fn read(&self, field: &Field) -> Vec<f64> {
        assert_eq!(
            field.shape(),
            (self.rows, self.cols),
            "field/detector shape mismatch"
        );
        let mut logits = Vec::with_capacity(self.regions.len());
        self.read_plane_into(field.as_slice(), &mut logits);
        logits
    }

    /// The readout kernel on one raw row-major plane, behind both
    /// [`Detector::read`] and [`Detector::read_batch_into`].
    ///
    /// Each region row reduces through [`lr_tensor::simd::sum_norm_sqr`],
    /// vectorized at the runtime SIMD dispatch level. The lane-partial
    /// reduction re-associates the sum, so readout is the one entry point
    /// whose equivalence contract is tolerance-based rather than bitwise:
    /// scalar dispatch (`LR_SIMD=scalar`) is the exact sequential oracle
    /// and wider dispatch agrees within ≤1e-12 relative error. Every
    /// readout shares this kernel, so a sample reads the same at any batch
    /// size at every dispatch level.
    fn read_plane_into(&self, samples: &[Complex64], out: &mut Vec<f64>) {
        assert_eq!(
            samples.len(),
            self.rows * self.cols,
            "plane/detector length mismatch"
        );
        out.clear();
        for reg in &self.regions {
            let mut sum = 0.0;
            for r in reg.row..reg.row + reg.height {
                let start = r * self.cols + reg.col;
                sum += lr_tensor::simd::sum_norm_sqr(&samples[start..start + reg.width]);
            }
            out.push(sum);
        }
    }

    /// Batched readout: one logit vector per active plane, written into
    /// the matching `outputs` slot (allocation-free once each output has
    /// `num_classes` capacity).
    ///
    /// # Panics
    ///
    /// Panics if plane shapes mismatch or `outputs` does not cover the
    /// batch.
    pub fn read_batch_into(&self, batch: &FieldBatch, outputs: &mut [Vec<f64>]) {
        assert!(
            outputs.len() >= batch.batch(),
            "one output slot per batch plane"
        );
        for (b, out) in outputs.iter_mut().enumerate().take(batch.batch()) {
            self.read_plane_into(batch.plane(b), out);
        }
    }

    /// Reads logits from a *measured intensity image* (post-camera), for
    /// hardware-emulation paths where noise was applied to the intensity.
    ///
    /// # Panics
    ///
    /// Panics if `intensity.len() != rows*cols`.
    pub fn read_intensity(&self, intensity: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.regions.len());
        self.read_intensity_into(intensity, &mut out);
        out
    }

    /// [`Detector::read_intensity`] into a caller-owned buffer —
    /// allocation-free once `out` has warmed up to `num_classes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if `intensity.len() != rows*cols`.
    pub fn read_intensity_into(&self, intensity: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            intensity.len(),
            self.rows * self.cols,
            "intensity buffer length mismatch"
        );
        out.clear();
        out.extend(self.regions.iter().map(|reg| {
            let mut sum = 0.0;
            for r in reg.row..reg.row + reg.height {
                for c in reg.col..reg.col + reg.width {
                    sum += intensity[r * self.cols + c];
                }
            }
            sum
        }));
    }

    /// Backward pass: expands each plane's per-class gradients
    /// `logit_grads[b]` (`dL/dI_k`) into the field gradient
    /// `∂L/∂(U)̄ = dL/dI_p · U_p` (zero outside regions), written to plane
    /// `b` of `out`. `out` takes the batch size of `fields`
    /// (allocation-free within its capacity).
    ///
    /// # Panics
    ///
    /// Panics if plane shapes disagree with the detector plane, or
    /// `logit_grads` does not hold one `num_classes` row per plane.
    pub fn backward_batch_into(
        &self,
        fields: &FieldBatch,
        logit_grads: &[Vec<f64>],
        out: &mut FieldBatch,
    ) {
        assert_eq!(
            fields.plane_shape(),
            (self.rows, self.cols),
            "field/detector shape mismatch"
        );
        assert_eq!(
            out.plane_shape(),
            (self.rows, self.cols),
            "gradient/detector shape mismatch"
        );
        assert_eq!(
            logit_grads.len(),
            fields.batch(),
            "one logit-gradient row per sample"
        );
        out.set_batch(fields.batch());
        for (b, row) in logit_grads.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.regions.len(),
                "logit gradient length mismatch"
            );
            let (samples, g) = (fields.plane(b), out.plane_mut(b));
            g.fill(Complex64::ZERO);
            for (reg, &dl) in self.regions.iter().zip(row) {
                for r in reg.row..reg.row + reg.height {
                    for c in reg.col..reg.col + reg.width {
                        g[r * self.cols + c] = samples[r * self.cols + c] * dl;
                    }
                }
            }
        }
    }

    /// Fraction of the plane covered by detector regions — the
    /// under-utilization observation that motivates the segmentation
    /// architecture (paper §5.6.2).
    pub fn coverage(&self) -> f64 {
        let used: usize = self.regions.iter().map(DetectorRegion::area).sum();
        used as f64 / (self.rows * self.cols) as f64
    }
}

/// Whole-plane intensity readout for image-to-image tasks (segmentation):
/// `I_p = |U_p|²` with backward `∂L/∂(U)̄ = dL/dI ⊙ U`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneReadout;

impl PlaneReadout {
    /// Reads the full intensity image of every active plane into the
    /// matching `outputs` slot.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` does not cover the batch.
    pub fn read_batch_into(&self, batch: &FieldBatch, outputs: &mut [Vec<f64>]) {
        assert!(
            outputs.len() >= batch.batch(),
            "one output slot per batch plane"
        );
        for (plane, out) in batch.planes().zip(outputs) {
            out.clear();
            out.extend(plane.iter().map(|z| z.norm_sqr()));
        }
    }

    /// Backward pass from per-pixel intensity gradients, one row per
    /// plane, into `out` (which takes the batch size of `fields`).
    ///
    /// # Panics
    ///
    /// Panics if shapes or gradient lengths disagree.
    pub fn backward_batch_into(
        &self,
        fields: &FieldBatch,
        intensity_grads: &[Vec<f64>],
        out: &mut FieldBatch,
    ) {
        assert_eq!(out.plane_shape(), fields.plane_shape(), "shape mismatch");
        assert_eq!(
            intensity_grads.len(),
            fields.batch(),
            "one gradient row per sample"
        );
        out.set_batch(fields.batch());
        for (b, grads) in intensity_grads.iter().enumerate() {
            assert_eq!(grads.len(), fields.plane_len(), "gradient length mismatch");
            for ((o, &u), &g) in out.plane_mut(b).iter_mut().zip(fields.plane(b)).zip(grads) {
                *o = u * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_plane(f: &Field) -> FieldBatch {
        let mut batch = FieldBatch::zeros(1, f.rows(), f.cols());
        batch.copy_plane_from(0, f);
        batch
    }

    /// One-sample backward through the batched kernel.
    fn backward_one(det: &Detector, f: &Field, logit_grads: &[f64]) -> Field {
        let mut g = FieldBatch::zeros(1, f.rows(), f.cols());
        det.backward_batch_into(&one_plane(f), &[logit_grads.to_vec()], &mut g);
        Field::from_vec(f.rows(), f.cols(), g.plane(0).to_vec())
    }

    #[test]
    fn grid_layout_ten_classes() {
        let det = Detector::grid_layout(64, 64, 10, 6);
        assert_eq!(det.num_classes(), 10);
        for reg in det.regions() {
            assert_eq!(reg.area(), 36);
        }
        assert!(
            det.coverage() < 0.15,
            "classification detectors underuse the plane"
        );
    }

    #[test]
    fn read_sums_region_intensity() {
        let det = Detector::new(
            8,
            8,
            vec![
                DetectorRegion::new(0, 0, 2, 2),
                DetectorRegion::new(4, 4, 2, 2),
            ],
        );
        let mut f = Field::zeros(8, 8);
        f[(0, 0)] = Complex64::new(2.0, 0.0); // intensity 4
        f[(1, 1)] = Complex64::new(0.0, 1.0); // intensity 1
        f[(5, 5)] = Complex64::new(3.0, 4.0); // intensity 25
        f[(7, 7)] = Complex64::new(9.0, 0.0); // outside all regions
        let logits = det.read(&f);
        assert_eq!(logits, vec![5.0, 25.0]);
    }

    #[test]
    fn read_intensity_matches_read() {
        let det = Detector::grid_layout(16, 16, 4, 3);
        let f = Field::from_fn(16, 16, |r, c| {
            Complex64::new(r as f64 * 0.1, c as f64 * 0.05)
        });
        let a = det.read(&f);
        let b = det.read_intensity(&f.intensity());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_zero_outside_regions() {
        let det = Detector::new(8, 8, vec![DetectorRegion::new(2, 2, 2, 2)]);
        let f = Field::filled(8, 8, Complex64::new(1.0, 1.0));
        let g = backward_one(&det, &f, &[0.5]);
        assert_eq!(g[(0, 0)], Complex64::ZERO);
        assert_eq!(g[(2, 2)], Complex64::new(0.5, 0.5));
        assert_eq!(g[(3, 3)], Complex64::new(0.5, 0.5));
        assert_eq!(g[(4, 4)], Complex64::ZERO);
    }

    #[test]
    fn detector_gradient_is_consistent_with_intensity_derivative() {
        // L = Σ_k a_k·I_k. Perturb the field along direction d, compare
        // 2·Re⟨g, d⟩ against finite differences.
        let det = Detector::grid_layout(16, 16, 4, 3);
        let f = Field::from_fn(16, 16, |r, c| {
            Complex64::new((r + c) as f64 * 0.07, r as f64 * 0.03)
        });
        let a = [0.3, -0.7, 1.1, 0.2];
        let loss =
            |field: &Field| -> f64 { det.read(field).iter().zip(&a).map(|(i, &ai)| ai * i).sum() };
        let g = backward_one(&det, &f, &a);
        let d = Field::from_fn(16, 16, |r, c| {
            Complex64::new(0.05 * c as f64, -0.02 * r as f64)
        });
        let h = 1e-6;
        let mut fp = f.clone();
        fp.axpy(h, &d);
        let mut fm = f.clone();
        fm.axpy(-h, &d);
        let numeric = (loss(&fp) - loss(&fm)) / (2.0 * h);
        let analytic = 2.0 * g.inner(&d).re;
        assert!((numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_rejected() {
        let _ = Detector::new(
            8,
            8,
            vec![
                DetectorRegion::new(0, 0, 4, 4),
                DetectorRegion::new(2, 2, 4, 4),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_plane_region_rejected() {
        let _ = Detector::new(8, 8, vec![DetectorRegion::new(6, 6, 4, 4)]);
    }

    #[test]
    fn plane_readout_roundtrip() {
        let f = Field::from_fn(4, 4, |r, c| Complex64::new(r as f64, c as f64));
        let ro = PlaneReadout;
        let batch = one_plane(&f);
        let mut i = vec![Vec::new()];
        ro.read_batch_into(&batch, &mut i);
        assert_eq!(i[0].len(), 16);
        assert!((i[0][5] - f[(1, 1)].norm_sqr()).abs() < 1e-12);
        let mut g = FieldBatch::zeros(1, 4, 4);
        ro.backward_batch_into(&batch, &[vec![1.0; 16]], &mut g);
        assert_eq!(g.as_slice(), f.as_slice());
    }

    #[test]
    fn grid_layout_regions_disjoint_various_counts() {
        for classes in [2, 3, 5, 9, 10, 16] {
            let det = Detector::grid_layout(100, 100, classes, 8);
            assert_eq!(det.num_classes(), classes);
        }
    }
}
