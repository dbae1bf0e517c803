//! The raw trainable diffractive layer (`lr.layers.diffractlayer_raw`).
//!
//! A diffractive layer does two things (paper §3.1, Fig. 4b): free-space
//! **diffraction** of the incoming wavefield over the layer distance `z`
//! (Eq. 5–7), then per-pixel **phase modulation** `U ← γ·e^{jφ}·U` (Eq. 9),
//! where the phases `φ` are the layer's trainable parameters and `γ` is the
//! paper's complex-valued regularization factor (§3.2) that rebalances
//! amplitude/phase gradient magnitudes.
//!
//! The per-pixel transmission `m = γ·e^{jφ}` changes only when `φ` or `γ`
//! does, so the layer keeps it as a table (16 B per pixel), filled on the
//! first pass after a write and read by every forward, inference and
//! backward pass until the next one. Every `&mut` mutator empties it.
//! Clones share the phases and the table until one of them writes.
//!
//! Backward passes are hand-derived Wirtinger gradients (gradient convention
//! `g = ∂L/∂ū`):
//!
//! * through modulation: `g_u = g_out · m̄`, with `m̄` read as the
//!   conjugated table entry,
//! * phase parameter:    `dL/dφ = 2·Re( ḡ_out · j·out )`,
//! * through diffraction: adjoint propagation (conjugated transfer function).

use super::Masked;
use lr_obs::{KernelKind, KernelTimer};
use lr_optics::{Approximation, Distance, FreeSpace, Grid, PropagationScratch, Wavelength};
use lr_tensor::{Complex64, Field, FieldBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;
use std::sync::Arc;

/// A free-phase (hardware-unaware) trainable diffractive layer.
///
/// # Examples
///
/// ```
/// use lightridge::DiffractiveLayer;
/// use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
/// use lr_tensor::{Complex64, FieldBatch};
///
/// let grid = Grid::square(32, PixelPitch::from_um(36.0));
/// let layer = DiffractiveLayer::new(
///     grid,
///     Wavelength::from_nm(532.0),
///     Distance::from_mm(300.0),
///     Approximation::RayleighSommerfeld,
///     1.0,
/// );
/// // A batch of two planes of uniform light, diffracted and modulated in
/// // place through caller-owned scratch.
/// let mut batch = FieldBatch::zeros(2, 32, 32);
/// batch.as_mut_slice().fill(Complex64::ONE);
/// let mut scratch = layer.propagator().make_scratch();
/// layer.infer_batch_inplace(&mut batch, &mut scratch);
/// assert!(batch.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct DiffractiveLayer {
    propagator: FreeSpace,
    /// Phases and γ, with their transmission table `γ·e^{jφ}`.
    mask: Arc<Masked<PhaseMask, 1>>,
}

#[derive(Debug, Clone)]
struct PhaseMask {
    /// Trainable per-pixel phases (radians), row-major.
    phases: Vec<f64>,
    /// Amplitude regularization factor γ (paper §3.2).
    gamma: f64,
}

/// Batched per-layer activations, one plane per sample, reused across
/// training steps by the batched trace ring. Only the layer **outputs**
/// are kept: that is all the backward pass reads (`dL/dφ` needs the
/// output, and the input gradient is pure adjoint propagation).
#[derive(Debug, Clone)]
pub struct DiffractiveBatchCache {
    /// Layer outputs, kept for the phase gradients.
    pub output: FieldBatch,
}

impl DiffractiveBatchCache {
    /// Pre-allocates a cache with room for `capacity` samples.
    pub fn with_capacity(capacity: usize, rows: usize, cols: usize) -> Self {
        DiffractiveBatchCache {
            output: FieldBatch::with_capacity(capacity, rows, cols),
        }
    }
}

impl DiffractiveLayer {
    /// Creates a layer with zero-initialized phases.
    pub fn new(
        grid: Grid,
        wavelength: Wavelength,
        distance: Distance,
        approximation: Approximation,
        gamma: f64,
    ) -> Self {
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "gamma must be finite and positive"
        );
        let propagator = FreeSpace::new(grid, wavelength, distance, approximation);
        let n = grid.rows() * grid.cols();
        DiffractiveLayer {
            propagator,
            mask: Arc::new(Masked::new(PhaseMask {
                phases: vec![0.0; n],
                gamma,
            })),
        }
    }

    /// Randomizes phases uniformly in `[0, 2π)` (the usual DONN init).
    pub fn randomize_phases(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for p in &mut Masked::write(&mut self.mask).phases {
            *p = rng.gen_range(0.0..TAU);
        }
    }

    /// The layer's sampling grid.
    pub fn grid(&self) -> Grid {
        self.propagator.grid()
    }

    /// The free-space propagator feeding this layer.
    pub fn propagator(&self) -> &FreeSpace {
        &self.propagator
    }

    /// Amplitude regularization factor γ.
    pub fn gamma(&self) -> f64 {
        self.mask.params.gamma
    }

    /// Replaces γ (used by the Fig. 7 regularization sweep).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not finite and positive.
    pub fn set_gamma(&mut self, gamma: f64) {
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "gamma must be finite and positive"
        );
        Masked::write(&mut self.mask).gamma = gamma;
    }

    /// Immutable view of the trainable phases.
    pub fn phases(&self) -> &[f64] {
        &self.mask.params.phases
    }

    /// Mutable view of the trainable phases (the optimizer's target).
    /// Empties the transmission table; the next pass refills it.
    pub fn phases_mut(&mut self) -> &mut [f64] {
        &mut Masked::write(&mut self.mask).phases
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.mask.params.phases.len()
    }

    /// The per-pixel transmission `γ·e^{jφ}`, row-major: the table every
    /// pass reads, computed on the first call after a write. Safe to call
    /// from many threads at once; one of them fills it.
    pub(crate) fn transmission(&self) -> &[Complex64] {
        self.mask.table(0, |m| {
            m.phases
                .iter()
                .map(|&p| Complex64::cis(p) * m.gamma)
                .collect()
        })
    }

    /// Current phase mask as a field of unit phasors `γ·e^{jφ}`.
    pub fn modulation_field(&self) -> Field {
        let (rows, cols) = self.grid().shape();
        Field::from_vec(rows, cols, self.transmission().to_vec())
    }

    /// The phase modulation `U ← γ·e^{jφ}·U` over whole plane-major
    /// planes, straight from the transmission table.
    #[inline]
    fn modulate_planes(&self, planes: &mut [Complex64]) {
        super::modulate_planes(planes, || self.transmission());
    }

    /// Inference step: diffract and modulate **every active plane** of
    /// `batch` in place through one shared scratch, free of steady-state
    /// allocations. A single sample is the one-plane batch.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid.
    pub fn infer_batch_inplace(&self, batch: &mut FieldBatch, scratch: &mut PropagationScratch) {
        self.propagator.propagate_batch_into(batch, scratch);
        self.modulate_planes(batch.as_mut_slice());
    }

    /// Trace-building forward pass: transforms every active plane of
    /// `batch` in place and copies the per-sample activations into the
    /// reusable batch `cache` (allocation-free once the cache capacity
    /// covers the batch).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid.
    pub fn forward_batch_traced(
        &self,
        batch: &mut FieldBatch,
        cache: &mut DiffractiveBatchCache,
        scratch: &mut PropagationScratch,
    ) {
        self.propagator.propagate_batch_into(batch, scratch);
        self.modulate_planes(batch.as_mut_slice());
        cache.output.copy_from(batch);
    }

    /// Backward pass, in place: every active plane of `grad` enters as
    /// `∂L/∂(output)̄` and leaves as `∂L/∂(input)̄`; `phase_grads`
    /// accumulates (`+=`) `dL/dφ` summed over the batch in plane order. No
    /// per-sample allocation.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the layer grid, the cache does not
    /// cover the batch, or `phase_grads` has the wrong length.
    pub fn backward_batch_inplace(
        &self,
        grad: &mut FieldBatch,
        cache: &DiffractiveBatchCache,
        phase_grads: &mut [f64],
        scratch: &mut PropagationScratch,
    ) {
        assert_eq!(
            grad.batch(),
            cache.output.batch(),
            "gradient/cache batch mismatch"
        );
        assert_eq!(
            grad.plane_shape(),
            self.grid().shape(),
            "gradient shape mismatch"
        );
        self.backprop_planes(grad.as_mut_slice(), cache.output.as_slice(), phase_grads);
        self.propagator.adjoint_batch_into(grad, scratch);
    }

    /// The modulation-adjoint kernel over whole plane-major planes: per
    /// pixel `p` and plane, in plane order,
    /// `dL/dφ_p += 2·Re( conj(g_p) · j · out_p )`, then
    /// `g_p ← g_p · conj(m_p)` with `m` the transmission table.
    /// `conj(cis(φ)·γ)` is bitwise `cis(−φ)·γ` (cosine even, sine odd,
    /// sign-symmetric rounding), so the table serves the adjoint too.
    fn backprop_planes(
        &self,
        grad: &mut [Complex64],
        output: &[Complex64],
        phase_grads: &mut [f64],
    ) {
        let n = self.num_params();
        assert_eq!(
            phase_grads.len(),
            n,
            "phase gradient buffer length mismatch"
        );
        assert_eq!(grad.len(), output.len(), "gradient/cache length mismatch");
        assert!(
            grad.len().is_multiple_of(n),
            "planes must hold whole planes"
        );
        if grad.is_empty() {
            return;
        }
        let _t = KernelTimer::start(KernelKind::Modulate);
        let table = self.transmission();
        for (g, out) in grad.chunks_exact_mut(n).zip(output.chunks_exact(n)) {
            for (((g, &out), acc), &m) in g.iter_mut().zip(out).zip(&mut *phase_grads).zip(table) {
                *acc += 2.0 * (g.conj() * (Complex64::I * out)).re;
                *g *= m.conj();
            }
        }
    }

    /// The deployment view of this layer: its phases quantized to a device's
    /// nearest levels (post-training quantization, the paper's *raw* flow).
    pub fn quantized_phases(&self, device: &lr_hardware::SlmModel) -> Vec<f64> {
        device.quantize_mask(&self.mask.params.phases).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_nn::gradcheck::check_gradient_sampled;
    use lr_optics::PixelPitch;

    fn small_layer() -> DiffractiveLayer {
        let grid = Grid::square(8, PixelPitch::from_um(36.0));
        let mut l = DiffractiveLayer::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(30.0),
            Approximation::RayleighSommerfeld,
            1.0,
        );
        l.randomize_phases(11);
        l
    }

    fn test_input() -> Field {
        Field::from_fn(8, 8, |r, c| {
            Complex64::new((r as f64 * 0.3).sin() + 0.5, (c as f64 * 0.2).cos())
        })
    }

    fn one_plane(x: &Field) -> FieldBatch {
        let mut batch = FieldBatch::zeros(1, x.rows(), x.cols());
        batch.copy_plane_from(0, x);
        batch
    }

    fn plane_field(batch: &FieldBatch) -> Field {
        let (rows, cols) = batch.plane_shape();
        Field::from_vec(rows, cols, batch.plane(0).to_vec())
    }

    /// One-sample traced forward: the layer output and its cache.
    fn forward_one(layer: &DiffractiveLayer, x: &Field) -> (Field, DiffractiveBatchCache) {
        let mut u = one_plane(x);
        let mut cache = DiffractiveBatchCache::with_capacity(1, x.rows(), x.cols());
        layer.forward_batch_traced(&mut u, &mut cache, &mut layer.propagator().make_scratch());
        (plane_field(&u), cache)
    }

    /// One-sample backward: accumulates `dL/dφ` and returns `∂L/∂(input)̄`.
    fn backward_one(
        layer: &DiffractiveLayer,
        g_out: &Field,
        cache: &DiffractiveBatchCache,
        phase_grads: &mut [f64],
    ) -> Field {
        let mut g = one_plane(g_out);
        let mut scratch = layer.propagator().make_scratch();
        layer.backward_batch_inplace(&mut g, cache, phase_grads, &mut scratch);
        plane_field(&g)
    }

    /// The diffraction alone, without the modulation.
    fn propagated(layer: &DiffractiveLayer, x: &Field) -> Field {
        let mut u = one_plane(x);
        let mut scratch = layer.propagator().make_scratch();
        layer
            .propagator()
            .propagate_batch_into(&mut u, &mut scratch);
        plane_field(&u)
    }

    /// Scalar "loss" for gradient testing: L = Σ w_p·|out_p|² with fixed
    /// random-ish weights, so dL/d(out*)_p = w_p·out_p.
    fn toy_loss_weights(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 17) as f64 / 17.0).collect()
    }

    #[test]
    fn forward_preserves_shape_and_is_finite() {
        let layer = small_layer();
        let (out, cache) = forward_one(&layer, &test_input());
        assert_eq!(out.shape(), (8, 8));
        assert!(out.is_finite());
        assert_eq!(out.as_slice(), cache.output.as_slice());
    }

    #[test]
    fn infer_matches_traced_forward_and_cache_is_reused() {
        // The cache-free inference step must reproduce the traced forward
        // bit for bit, and a second batch through the same cache must
        // overwrite it.
        let layer = small_layer();
        let x = test_input();
        let (out, _) = forward_one(&layer, &x);
        let mut scratch = layer.propagator().make_scratch();
        let mut u = one_plane(&x);
        layer.infer_batch_inplace(&mut u, &mut scratch);
        assert_eq!(plane_field(&u), out);

        let mut cache = DiffractiveBatchCache::with_capacity(1, 8, 8);
        let mut u = one_plane(&x);
        layer.forward_batch_traced(&mut u, &mut cache, &mut scratch);
        layer.forward_batch_traced(&mut u, &mut cache, &mut scratch);
        assert_eq!(cache.output.as_slice(), u.as_slice());
        assert_eq!(plane_field(&u), forward_one(&layer, &out).0);
    }

    #[test]
    fn gamma_scales_output_linearly() {
        let mut layer = small_layer();
        let x = test_input();
        let (out1, _) = forward_one(&layer, &x);
        layer.set_gamma(2.0);
        let (out2, _) = forward_one(&layer, &x);
        for (a, b) in out1.as_slice().iter().zip(out2.as_slice()) {
            assert!((*a * 2.0 - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn phase_gradient_matches_finite_difference() {
        let layer = small_layer();
        let x = test_input();
        let w = toy_loss_weights(64);

        // Analytic gradient.
        let (out, cache) = forward_one(&layer, &x);
        let g_out = Field::from_vec(
            8,
            8,
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(&o, &wi)| o * wi)
                .collect(),
        );
        let mut analytic = vec![0.0; 64];
        backward_one(&layer, &g_out, &cache, &mut analytic);

        // Numeric: perturb each phase, recompute loss.
        let loss = |phases: &[f64]| {
            let mut l = layer.clone();
            l.phases_mut().copy_from_slice(phases);
            let (out, _) = forward_one(&l, &x);
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(o, &wi)| wi * o.norm_sqr())
                .sum::<f64>()
        };
        let report = check_gradient_sampled(loss, layer.phases(), &analytic, 1e-6, 16);
        assert!(report.passes(1e-5), "{report:?}");
    }

    #[test]
    fn input_gradient_matches_directional_finite_difference() {
        // Check ∂L/∂u via a directional derivative along a complex direction.
        let layer = small_layer();
        let x = test_input();
        let w = toy_loss_weights(64);
        let loss_of = |field: &Field| {
            let (out, _) = forward_one(&layer, field);
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(o, &wi)| wi * o.norm_sqr())
                .sum::<f64>()
        };
        let (out, cache) = forward_one(&layer, &x);
        let g_out = Field::from_vec(
            8,
            8,
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(&o, &wi)| o * wi)
                .collect(),
        );
        let mut scratch = vec![0.0; 64];
        let g_in = backward_one(&layer, &g_out, &cache, &mut scratch);

        // Direction d: an arbitrary complex perturbation field.
        let d = Field::from_fn(8, 8, |r, c| {
            Complex64::new(0.3 * (r as f64 - 3.0), 0.2 * (c as f64 - 4.0))
        });
        let h = 1e-6;
        let mut xp = x.clone();
        xp.axpy(h, &d);
        let mut xm = x.clone();
        xm.axpy(-h, &d);
        let numeric = (loss_of(&xp) - loss_of(&xm)) / (2.0 * h);
        // dL along direction d = 2·Re⟨g_in, d⟩.
        let analytic = 2.0 * g_in.inner(&d).re;
        assert!(
            (numeric - analytic).abs() < 1e-4 * (1.0 + numeric.abs()),
            "directional derivative mismatch: numeric {numeric}, analytic {analytic}"
        );
    }

    #[test]
    fn zero_phase_layer_is_pure_propagation() {
        let grid = Grid::square(8, PixelPitch::from_um(36.0));
        let layer = DiffractiveLayer::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(30.0),
            Approximation::Fresnel,
            1.0,
        );
        let x = test_input();
        let (out, _) = forward_one(&layer, &x);
        assert!(out.distance(&propagated(&layer, &x)) < 1e-12);
    }

    #[test]
    fn randomize_is_deterministic_per_seed() {
        let mut a = small_layer();
        let mut b = small_layer();
        a.randomize_phases(5);
        b.randomize_phases(5);
        assert_eq!(a.phases(), b.phases());
        b.randomize_phases(6);
        assert_ne!(a.phases(), b.phases());
        assert!(a.phases().iter().all(|&p| (0.0..TAU).contains(&p)));
    }

    #[test]
    fn table_conjugate_is_bitwise_cis_of_negated_phase() {
        // The backward reads conj(table) where the per-call formula it
        // replaced computed cis(−φ)·γ: the two must agree to the bit over
        // negative phases, one turn, and phases far outside it.
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..200_000 {
            let phi = match i % 3 {
                0 => rng.gen_range(-TAU..0.0),
                1 => rng.gen_range(0.0..TAU),
                _ => rng.gen_range(-1e3..1e3),
            };
            let gamma = rng.gen_range(1e-3..10.0);
            let table = (Complex64::cis(phi) * gamma).conj();
            let formula = Complex64::cis(-phi) * gamma;
            assert_eq!(
                (table.re.to_bits(), table.im.to_bits()),
                (formula.re.to_bits(), formula.im.to_bits()),
                "φ = {phi:e}, γ = {gamma:e}"
            );
        }
    }

    #[test]
    fn clones_share_the_table_until_a_write() {
        let a = small_layer();
        let mut b = a.clone();
        assert!(std::ptr::eq(a.transmission(), b.transmission()));
        b.phases_mut()[0] += 1.0;
        assert!(!std::ptr::eq(a.transmission(), b.transmission()));
        assert_eq!(a.transmission()[0], Complex64::cis(a.phases()[0]));
        assert_eq!(b.transmission()[0], Complex64::cis(b.phases()[0]));
        assert_eq!(a.transmission()[1..], b.transmission()[1..]);
    }

    #[test]
    fn modulation_meets_every_pixel_phase() {
        // On a 20×20 plane every pixel must meet its own phase, forward
        // and backward.
        let grid = Grid::square(20, PixelPitch::from_um(36.0));
        let mut layer = DiffractiveLayer::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(30.0),
            Approximation::RayleighSommerfeld,
            1.3,
        );
        layer.randomize_phases(4);
        let x = Field::from_fn(20, 20, |r, c| Complex64::new(0.2 + r as f64, c as f64));
        let (out, cache) = forward_one(&layer, &x);
        let m = layer.modulation_field();
        for ((&o, &u), &m) in out
            .as_slice()
            .iter()
            .zip(propagated(&layer, &x).as_slice())
            .zip(m.as_slice())
        {
            assert_eq!(o, u * m);
        }
        let mut phase_grads = vec![0.0; 400];
        backward_one(&layer, &x, &cache, &mut phase_grads);
        for ((&acc, &g), &o) in phase_grads.iter().zip(x.as_slice()).zip(out.as_slice()) {
            assert_eq!(acc, 2.0 * (g.conj() * (Complex64::I * o)).re);
        }
    }

    #[test]
    fn modulation_field_unit_magnitude_at_gamma_one() {
        let layer = small_layer();
        let m = layer.modulation_field();
        for z in m.as_slice() {
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quantized_phases_close_to_free_phases() {
        let layer = small_layer();
        let device = lr_hardware::SlmModel::ideal(256);
        let q = layer.quantized_phases(&device);
        for (&free, &quant) in layer.phases().iter().zip(&q) {
            assert!(lr_hardware::circular_distance(free, quant) < TAU / 256.0);
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let grid = Grid::square(4, PixelPitch::from_um(36.0));
        let _ = DiffractiveLayer::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(30.0),
            Approximation::Fresnel,
            0.0,
        );
    }
}
