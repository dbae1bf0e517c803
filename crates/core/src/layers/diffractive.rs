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
/// use lr_tensor::Field;
///
/// let grid = Grid::square(32, PixelPitch::from_um(36.0));
/// let layer = DiffractiveLayer::new(
///     grid,
///     Wavelength::from_nm(532.0),
///     Distance::from_mm(300.0),
///     Approximation::RayleighSommerfeld,
///     1.0,
/// );
/// let input = Field::ones(32, 32);
/// let (out, _cache) = layer.forward(&input);
/// assert_eq!(out.shape(), (32, 32));
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

/// Per-sample forward activations needed by the backward pass.
#[derive(Debug, Clone)]
pub struct DiffractiveCache {
    /// Wavefield after diffraction, before modulation (`U²` in the paper).
    pub propagated: Field,
    /// Layer output (`U_l`), kept for the phase gradient.
    pub output: Field,
}

impl DiffractiveCache {
    /// Pre-allocates a cache for a `rows × cols` layer, for reuse through
    /// [`DiffractiveLayer::forward_into`].
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DiffractiveCache {
            propagated: Field::zeros(rows, cols),
            output: Field::zeros(rows, cols),
        }
    }
}

/// Batched per-layer activations, one plane per sample, reused across
/// training steps by the batched trace ring. Unlike the per-sample
/// [`DiffractiveCache`], only the layer **outputs** are kept: that is all
/// the batched backward pass reads (`dL/dφ` needs the output, and the
/// input gradient is pure adjoint propagation), so the batch cache skips
/// the pre-modulation copy and half the resident memory.
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

    /// Forward pass: diffract, then modulate. Returns the output field and
    /// the cache needed by [`DiffractiveLayer::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the layer grid.
    pub fn forward(&self, input: &Field) -> (Field, DiffractiveCache) {
        let mut u = input.clone();
        self.propagator.propagate(&mut u);
        let propagated = u.clone();
        self.modulate_planes(u.as_mut_slice());
        let output = u.clone();
        (u, DiffractiveCache { propagated, output })
    }

    /// Inference-only forward pass (no cache).
    pub fn infer(&self, input: &Field) -> Field {
        let mut u = input.clone();
        self.propagator.propagate(&mut u);
        self.modulate_planes(u.as_mut_slice());
        u
    }

    /// The phase modulation `U ← γ·e^{jφ}·U` over whole plane-major
    /// planes — one plane on the per-sample path, the active batch on the
    /// batched one — straight from the transmission table.
    #[inline]
    fn modulate_planes(&self, planes: &mut [Complex64]) {
        super::modulate_planes(planes, || self.transmission());
    }

    /// In-place inference step through caller-owned scratch: diffract and
    /// modulate `u` with **zero heap allocation** (the workspace fast path).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid.
    pub fn infer_inplace(&self, u: &mut Field, scratch: &mut PropagationScratch) {
        self.propagator.propagate_with(u, scratch);
        self.modulate_planes(u.as_mut_slice());
    }

    /// Forward pass through caller-owned scratch and a reusable cache: `u`
    /// is transformed in place into the layer output, and the per-sample
    /// activations are *copied into* `cache` instead of freshly allocated.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid.
    pub fn forward_into(
        &self,
        u: &mut Field,
        cache: &mut DiffractiveCache,
        scratch: &mut PropagationScratch,
    ) {
        self.propagator.propagate_with(u, scratch);
        if cache.propagated.shape() != u.shape() {
            *cache = DiffractiveCache::zeros(u.rows(), u.cols());
        }
        cache.propagated.copy_from(u);
        self.modulate_planes(u.as_mut_slice());
        cache.output.copy_from(u);
    }

    /// Batched inference step: diffract and modulate **every active
    /// plane** of `batch` in place through one shared scratch — the
    /// batched counterpart of [`DiffractiveLayer::infer_inplace`],
    /// bit-identical to it per plane (shared plane kernels) and free of
    /// steady-state allocations.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid.
    pub fn infer_batch_inplace(&self, batch: &mut FieldBatch, scratch: &mut PropagationScratch) {
        self.propagator.propagate_batch_into(batch, scratch);
        self.modulate_planes(batch.as_mut_slice());
    }

    /// Batched trace-building forward pass: transforms every active plane
    /// of `batch` in place and copies the per-sample activations into the
    /// reusable batch `cache` — the batched counterpart of
    /// [`DiffractiveLayer::forward_into`] (allocation-free once the cache
    /// capacity covers the batch).
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

    /// Batched [`DiffractiveLayer::backward_inplace`]: every active plane
    /// of `grad` enters as `∂L/∂(output)̄` and leaves as `∂L/∂(input)̄`;
    /// `phase_grads` accumulates `dL/dφ` summed over the batch in plane
    /// order (bit-identical to the per-sample accumulation order). No
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

    /// Backward pass.
    ///
    /// `grad_output` is `∂L/∂(output)̄`; `phase_grads` accumulates `dL/dφ`
    /// (`+=`, so batches can share a buffer); the return value is
    /// `∂L/∂(input)̄` for the upstream layer.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the layer grid or `phase_grads` has
    /// the wrong length.
    pub fn backward(
        &self,
        grad_output: &Field,
        cache: &DiffractiveCache,
        phase_grads: &mut [f64],
    ) -> Field {
        let mut g_in = grad_output.clone();
        self.backprop_planes(g_in.as_mut_slice(), cache.output.as_slice(), phase_grads);
        self.propagator.adjoint(&mut g_in);
        g_in
    }

    /// [`DiffractiveLayer::backward`] operating on the gradient **in
    /// place** through caller-owned scratch — no per-sample allocation.
    /// `grad` enters as `∂L/∂(output)̄` and leaves as `∂L/∂(input)̄`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the layer grid or `phase_grads` has
    /// the wrong length.
    pub fn backward_inplace(
        &self,
        grad: &mut Field,
        cache: &DiffractiveCache,
        phase_grads: &mut [f64],
        scratch: &mut PropagationScratch,
    ) {
        self.backprop_planes(grad.as_mut_slice(), cache.output.as_slice(), phase_grads);
        self.propagator.adjoint_with(grad, scratch);
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

    /// Scalar "loss" for gradient testing: L = Σ w_p·|out_p|² with fixed
    /// random-ish weights, so dL/d(out*)_p = w_p·out_p.
    fn toy_loss_weights(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 17) as f64 / 17.0).collect()
    }

    #[test]
    fn forward_preserves_shape_and_is_finite() {
        let layer = small_layer();
        let (out, cache) = layer.forward(&test_input());
        assert_eq!(out.shape(), (8, 8));
        assert!(out.is_finite());
        assert_eq!(cache.propagated.shape(), (8, 8));
        assert_eq!(out, cache.output);
    }

    #[test]
    fn infer_matches_forward() {
        let layer = small_layer();
        let x = test_input();
        let (out, _) = layer.forward(&x);
        assert_eq!(layer.infer(&x), out);
    }

    #[test]
    fn workspace_paths_match_forward() {
        // infer_inplace and forward_into (reusable cache) must reproduce
        // the allocating forward pass bit for bit.
        let layer = small_layer();
        let x = test_input();
        let (out, cache) = layer.forward(&x);
        let mut scratch = layer.propagator().make_scratch();

        let mut u = x.clone();
        layer.infer_inplace(&mut u, &mut scratch);
        assert_eq!(u, out);

        let mut u = x.clone();
        let mut reused = DiffractiveCache::zeros(8, 8);
        layer.forward_into(&mut u, &mut reused, &mut scratch);
        assert_eq!(u, out);
        assert_eq!(reused.propagated, cache.propagated);
        assert_eq!(reused.output, cache.output);
        // Second sample through the same cache buffers (the reuse contract).
        let mut u2 = out.clone();
        layer.forward_into(&mut u2, &mut reused, &mut scratch);
        assert_eq!(reused.output, u2);
    }

    #[test]
    fn gamma_scales_output_linearly() {
        let mut layer = small_layer();
        let x = test_input();
        let (out1, _) = layer.forward(&x);
        layer.set_gamma(2.0);
        let (out2, _) = layer.forward(&x);
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
        let (out, cache) = layer.forward(&x);
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
        layer.backward(&g_out, &cache, &mut analytic);

        // Numeric: perturb each phase, recompute loss.
        let loss = |phases: &[f64]| {
            let mut l = layer.clone();
            l.phases_mut().copy_from_slice(phases);
            let (out, _) = l.forward(&x);
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
            let (out, _) = layer.forward(field);
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(o, &wi)| wi * o.norm_sqr())
                .sum::<f64>()
        };
        let (out, cache) = layer.forward(&x);
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
        let g_in = layer.backward(&g_out, &cache, &mut scratch);

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
        let (out, cache) = layer.forward(&x);
        assert!(out.distance(&cache.propagated) < 1e-12);
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
        let (out, cache) = layer.forward(&x);
        let m = layer.modulation_field();
        for ((&o, &u), &m) in out
            .as_slice()
            .iter()
            .zip(cache.propagated.as_slice())
            .zip(m.as_slice())
        {
            assert_eq!(o, u * m);
        }
        let mut phase_grads = vec![0.0; 400];
        layer.backward(&x, &cache, &mut phase_grads);
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
