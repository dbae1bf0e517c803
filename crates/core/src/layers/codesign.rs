//! Hardware-aware codesign diffractive layer (`lr.layers.diffractlayer`).
//!
//! Real modulators offer a *discrete*, *nonuniform* set of complex
//! modulation states (measured phase + coupled amplitude per control level,
//! see [`lr_hardware::SlmModel`]). Training free phases and quantizing
//! afterwards opens the ≥30% sim-to-hardware gap of the paper's Fig. 1.
//!
//! LightRidge's codesign algorithm (paper §3.2, after Li et al. ICCAD'22)
//! instead *trains in the device space*: each pixel holds a categorical
//! distribution (logits) over the device's levels, relaxed with
//! **Gumbel-Softmax** during training:
//!
//! ```text
//! w = softmax((logits + Gumbel noise) / τ)      (training, differentiable)
//! m = γ · Σ_l w_l · c_l,   c_l = a_l·e^{jθ_l}   (mixed device state)
//! deployment: m = γ · c_argmax(logits)           (exactly realizable)
//! ```
//!
//! As τ anneals toward 0 the soft mixture approaches the hard argmax, so the
//! deployed (quantized) model matches what was trained — "quantization-aware
//! training without quantization approximations".
//!
//! The Soft and Deploy states depend only on the logits, τ and γ, so the
//! layer keeps each as a per-pixel table (16 B per pixel per mode used),
//! filled on the first inference in that mode after a write. Every `&mut`
//! mutator empties both; clones share the logits and tables until one of
//! them writes. `Train` mode draws fresh noise per sample and computes its
//! states per call.

use super::Masked;
use lr_hardware::SlmModel;
use lr_obs::{KernelKind, KernelTimer};
use lr_optics::{Approximation, Distance, FreeSpace, Grid, PropagationScratch, Wavelength};
use lr_tensor::{Complex64, Field, FieldBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How a codesign layer computes its modulation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodesignMode {
    /// Gumbel-noise softmax relaxation (training).
    Train,
    /// Noise-free softmax (validation during training).
    Soft,
    /// Hard argmax — the deployed, physically realizable configuration.
    Deploy,
}

/// A diffractive layer whose parameters are per-pixel logits over the
/// discrete modulation levels of a device.
#[derive(Debug, Clone)]
pub struct CodesignLayer {
    propagator: FreeSpace,
    device: SlmModel,
    /// Complex modulation state per device level: `c_l = a_l·e^{jθ_l}`.
    states: Vec<Complex64>,
    gamma: f64,
    /// Logits and τ, with their Soft (table 0) and Deploy (table 1) states.
    mask: Arc<Masked<LogitMask, 2>>,
}

#[derive(Debug, Clone)]
struct LogitMask {
    /// Trainable logits, layout `[pixel * num_levels + level]`.
    logits: Vec<f64>,
    temperature: f64,
}

/// Forward activations cached for the backward pass.
#[derive(Debug, Clone)]
pub struct CodesignCache {
    /// Wavefield after diffraction, before modulation.
    pub propagated: Field,
    /// Softmax weights per pixel (`[pixel * num_levels + level]`).
    pub weights: Vec<f64>,
    /// Realized modulation per pixel.
    pub modulation: Vec<Complex64>,
}

impl CodesignCache {
    /// A cache for a `rows × cols` layer; the per-pixel buffers are sized
    /// by the first pass through it.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        CodesignCache {
            propagated: Field::zeros(rows, cols),
            weights: Vec::new(),
            modulation: Vec::new(),
        }
    }
}

impl CodesignLayer {
    /// Creates a codesign layer for the given device, logits zeroed
    /// (uniform distribution over levels).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` or `temperature` is not finite and positive.
    pub fn new(
        grid: Grid,
        wavelength: Wavelength,
        distance: Distance,
        approximation: Approximation,
        device: SlmModel,
        gamma: f64,
        temperature: f64,
    ) -> Self {
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "gamma must be finite and positive"
        );
        assert!(
            temperature.is_finite() && temperature > 0.0,
            "temperature must be finite and positive"
        );
        let propagator = FreeSpace::new(grid, wavelength, distance, approximation);
        let states = device
            .phases()
            .iter()
            .zip(device.amplitudes())
            .map(|(&p, &a)| Complex64::from_polar(a, p))
            .collect();
        let n = grid.rows() * grid.cols() * device.num_levels();
        CodesignLayer {
            propagator,
            device,
            states,
            gamma,
            mask: Arc::new(Masked::new(LogitMask {
                logits: vec![0.0; n],
                temperature,
            })),
        }
    }

    /// Randomizes logits with small Gaussian-ish jitter so training breaks
    /// symmetry deterministically per `seed`.
    pub fn randomize_logits(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for l in &mut Masked::write(&mut self.mask).logits {
            *l = rng.gen_range(-0.1..0.1);
        }
    }

    /// Initializes logits so the argmax state matches the given free phases
    /// — how a DSE-trained raw model is *refined* by codesign training
    /// (paper Fig. 3 step 2).
    ///
    /// # Panics
    ///
    /// Panics if `phases.len()` does not match the pixel count.
    pub fn init_from_phases(&mut self, phases: &[f64], sharpness: f64) {
        let pixels = self.num_pixels();
        assert_eq!(phases.len(), pixels, "phase mask length mismatch");
        let levels = self.device.num_levels();
        let logits = &mut Masked::write(&mut self.mask).logits;
        for (p, &phase) in phases.iter().enumerate() {
            let (best, _) = self.device.nearest_level(phase);
            for l in 0..levels {
                logits[p * levels + l] = if l == best { sharpness } else { 0.0 };
            }
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

    /// The device model this layer trains against.
    pub fn device(&self) -> &SlmModel {
        &self.device
    }

    /// Gumbel-Softmax temperature τ.
    pub fn temperature(&self) -> f64 {
        self.mask.params.temperature
    }

    /// Updates τ (annealed across epochs by the trainer).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not finite and positive.
    pub fn set_temperature(&mut self, tau: f64) {
        assert!(
            tau.is_finite() && tau > 0.0,
            "temperature must be finite and positive"
        );
        Masked::write(&mut self.mask).temperature = tau;
    }

    /// Amplitude regularization factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of pixels.
    pub fn num_pixels(&self) -> usize {
        let (r, c) = self.grid().shape();
        r * c
    }

    /// Number of trainable parameters (`pixels × levels`).
    pub fn num_params(&self) -> usize {
        self.mask.params.logits.len()
    }

    /// Immutable view of the logits.
    pub fn logits(&self) -> &[f64] {
        &self.mask.params.logits
    }

    /// Mutable view of the logits (the optimizer's target). Empties the
    /// inference tables; the next inference refills them.
    pub fn logits_mut(&mut self) -> &mut [f64] {
        &mut Masked::write(&mut self.mask).logits
    }

    /// The hard (deployable) level per pixel: `argmax` of the logits.
    pub fn hard_levels(&self) -> Vec<usize> {
        let levels = self.device.num_levels();
        self.mask
            .params
            .logits
            .chunks_exact(levels)
            .map(argmax)
            .collect()
    }

    /// The deployed phase mask (radians) per pixel.
    pub fn hard_phases(&self) -> Vec<f64> {
        let phases = self.device.phases();
        self.hard_levels().into_iter().map(|l| phases[l]).collect()
    }

    /// The cache-producing modulation kernel on one raw (already
    /// propagated) plane; `seed` drives the Gumbel noise in
    /// [`CodesignMode::Train`].
    fn modulate_slice_into(
        &self,
        u: &mut [Complex64],
        mode: CodesignMode,
        seed: u64,
        cache: &mut CodesignCache,
    ) {
        let (rows, cols) = self.grid().shape();
        assert_eq!(u.len(), rows * cols, "plane/grid length mismatch");
        let _t = KernelTimer::start(KernelKind::Modulate);
        if cache.propagated.shape() != (rows, cols) {
            cache.propagated = Field::zeros(rows, cols);
        }
        cache.propagated.as_mut_slice().copy_from_slice(u);

        let levels = self.device.num_levels();
        let pixels = self.num_pixels();
        cache.weights.clear();
        cache.weights.resize(pixels * levels, 0.0);
        cache.modulation.clear();
        cache.modulation.resize(pixels, Complex64::ZERO);
        let weights = &mut cache.weights;
        let modulation = &mut cache.modulation;
        let mut rng = StdRng::seed_from_u64(seed);
        let inv_tau = 1.0 / self.mask.params.temperature;

        for p in 0..pixels {
            let row = &self.mask.params.logits[p * levels..(p + 1) * levels];
            let w = &mut weights[p * levels..(p + 1) * levels];
            match mode {
                CodesignMode::Deploy => w[argmax(row)] = 1.0,
                CodesignMode::Train | CodesignMode::Soft => {
                    // y_l = (logit_l [+ gumbel]) / τ, w = softmax(y)
                    let mut max = f64::NEG_INFINITY;
                    for (i, &v) in row.iter().enumerate() {
                        let noise = if mode == CodesignMode::Train {
                            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                            -(-u1.ln()).ln()
                        } else {
                            0.0
                        };
                        w[i] = (v + noise) * inv_tau;
                        max = max.max(w[i]);
                    }
                    let mut sum = 0.0;
                    for wi in w.iter_mut() {
                        *wi = (*wi - max).exp();
                        sum += *wi;
                    }
                    for wi in w.iter_mut() {
                        *wi /= sum;
                    }
                }
            }
            let mut m = Complex64::ZERO;
            for (l, &wi) in w.iter().enumerate() {
                m += self.states[l] * wi;
            }
            modulation[p] = m * self.gamma;
        }

        for (z, &m) in u.iter_mut().zip(modulation.iter()) {
            *z *= m;
        }
    }

    /// The per-pixel inference state `γ·m` for [`CodesignMode::Soft`] or
    /// [`CodesignMode::Deploy`], row-major: the table inference reads,
    /// computed on the first call in that mode after a write. Weights are
    /// folded on the fly into each pixel's state. Safe to call from many
    /// threads at once; one of them fills it.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`CodesignMode::Train`] (its noise is per
    /// sample, so it has no table).
    pub(crate) fn transmission(&self, mode: CodesignMode) -> &[Complex64] {
        let table = match mode {
            CodesignMode::Soft => 0,
            CodesignMode::Deploy => 1,
            CodesignMode::Train => panic!("Train mode has no transmission table"),
        };
        self.mask.table(table, |m| {
            m.logits
                .chunks_exact(self.device.num_levels())
                .map(|row| self.inference_state(row, mode, 1.0 / m.temperature))
                .collect()
        })
    }

    /// One pixel's Soft or Deploy state `γ·m` from its logit `row`.
    fn inference_state(&self, row: &[f64], mode: CodesignMode, inv_tau: f64) -> Complex64 {
        let m = match mode {
            CodesignMode::Deploy => self.states[argmax(row)],
            _ => {
                // Soft mixture without materializing the weights:
                // m = Σ_l softmax_l·c_l = Σ_l e^{(v_l−max)/τ}·c_l / Σ_l e^{(v_l−max)/τ}
                let mut max = f64::NEG_INFINITY;
                for &v in row {
                    max = max.max(v * inv_tau);
                }
                let mut num = Complex64::ZERO;
                let mut den = 0.0;
                for (l, &v) in row.iter().enumerate() {
                    let e = (v * inv_tau - max).exp();
                    num += self.states[l] * e;
                    den += e;
                }
                num / den
            }
        };
        m * self.gamma
    }

    /// Inference step: diffract every active plane, then modulate each
    /// with the noise-free soft mixture ([`CodesignMode::Soft`]) or the
    /// hard argmax state ([`CodesignMode::Deploy`]) from the mode's table,
    /// free of steady-state allocations. A single sample is the one-plane
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid or `mode` is
    /// [`CodesignMode::Train`].
    pub fn infer_batch_inplace(
        &self,
        batch: &mut FieldBatch,
        mode: CodesignMode,
        scratch: &mut PropagationScratch,
    ) {
        assert!(
            mode != CodesignMode::Train,
            "infer_batch_inplace supports Soft/Deploy; Train needs the traced forward"
        );
        self.propagator.propagate_batch_into(batch, scratch);
        super::modulate_planes(batch.as_mut_slice(), || self.transmission(mode));
    }

    /// Trace-building forward pass: diffracts every active plane,
    /// then modulates each with its own per-sample seed (`seeds[b]` drives
    /// plane `b`'s Gumbel noise in [`CodesignMode::Train`]), reusing one
    /// [`CodesignCache`] per plane from `caches` (grown once, then
    /// allocation-free except the per-plane RNG).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid or `seeds` does not
    /// cover the batch.
    pub fn forward_batch_traced(
        &self,
        batch: &mut FieldBatch,
        mode: CodesignMode,
        seeds: &[u64],
        scratch: &mut PropagationScratch,
        caches: &mut Vec<CodesignCache>,
    ) {
        assert_eq!(seeds.len(), batch.batch(), "one seed per batch plane");
        self.propagator.propagate_batch_into(batch, scratch);
        if caches.len() < batch.batch() {
            let (rows, cols) = self.grid().shape();
            caches.resize_with(batch.batch(), || CodesignCache::zeros(rows, cols));
        }
        for (b, (plane, cache)) in batch.planes_mut().zip(caches.iter_mut()).enumerate() {
            self.modulate_slice_into(plane, mode, seeds[b], cache);
        }
    }

    /// Backward pass operating on the gradient **in place**: every active
    /// plane of `grad` enters as `∂L/∂(output)̄` and leaves as
    /// `∂L/∂(input)̄`; `logit_grads` accumulates (`+=`) `dL/dlogits`
    /// summed over the batch in plane order. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree, `caches` does not cover the batch, or
    /// `logit_grads` has the wrong length.
    pub fn backward_batch_inplace(
        &self,
        grad: &mut FieldBatch,
        caches: &[CodesignCache],
        logit_grads: &mut [f64],
        scratch: &mut PropagationScratch,
    ) {
        assert!(
            caches.len() >= grad.batch(),
            "gradient/cache batch mismatch"
        );
        assert_eq!(
            grad.plane_shape(),
            self.grid().shape(),
            "gradient shape mismatch"
        );
        assert_eq!(
            logit_grads.len(),
            self.num_params(),
            "logit gradient buffer length mismatch"
        );
        let t = KernelTimer::start(KernelKind::Modulate);
        for (b, cache) in caches.iter().enumerate().take(grad.batch()) {
            self.backprop_modulation(grad.plane_mut(b), cache, logit_grads);
        }
        drop(t);
        self.propagator.adjoint_batch_into(grad, scratch);
    }

    /// The modulation backward on one plane, allocation-free: accumulates
    /// `dL/dlogits` into `logit_grads` (`+=`), then turns `g` from
    /// `∂L/∂(output)̄` into `∂L/∂(propagated)̄` in place.
    fn backprop_modulation(
        &self,
        g: &mut [Complex64],
        cache: &CodesignCache,
        logit_grads: &mut [f64],
    ) {
        let levels = self.device.num_levels();
        let inv_tau = 1.0 / self.mask.params.temperature;
        let u = cache.propagated.as_slice();
        for p in 0..self.num_pixels() {
            // dL/dw_l = 2·Re( conj(g_p) · u_p · γ · c_l ), recomputed per
            // use instead of staged in a buffer.
            let gu = g[p].conj() * u[p] * self.gamma;
            let dw = |l: usize| 2.0 * (gu * self.states[l]).re;
            // Softmax Jacobian with the 1/τ chain factor:
            // dL/dlogit_k = (w_k/τ)·(dL/dw_k − Σ_l dL/dw_l·w_l)
            let w = &cache.weights[p * levels..(p + 1) * levels];
            let dot: f64 = w.iter().enumerate().map(|(l, &wi)| dw(l) * wi).sum();
            let out_row = &mut logit_grads[p * levels..(p + 1) * levels];
            for l in 0..levels {
                out_row[l] += w[l] * inv_tau * (dw(l) - dot);
            }
        }
        // g_u = g_out · conj(m), in place.
        for (gi, &m) in g.iter_mut().zip(&cache.modulation) {
            *gi *= m.conj();
        }
    }
}

/// The first index of the largest logit in `row`: the deployed level.
fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_nn::gradcheck::check_gradient_sampled;
    use lr_optics::PixelPitch;

    fn small_layer(levels: usize) -> CodesignLayer {
        let grid = Grid::square(6, PixelPitch::from_um(36.0));
        let mut l = CodesignLayer::new(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(30.0),
            Approximation::RayleighSommerfeld,
            SlmModel::ideal(levels),
            1.0,
            0.7,
        );
        l.randomize_logits(3);
        l
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
    fn forward_one(
        layer: &CodesignLayer,
        x: &Field,
        mode: CodesignMode,
        seed: u64,
    ) -> (Field, CodesignCache) {
        let mut u = one_plane(x);
        let mut caches = Vec::new();
        let mut scratch = layer.propagator().make_scratch();
        layer.forward_batch_traced(&mut u, mode, &[seed], &mut scratch, &mut caches);
        (plane_field(&u), caches.remove(0))
    }

    /// One-sample backward: accumulates `dL/dlogits` and returns
    /// `∂L/∂(input)̄`.
    fn backward_one(
        layer: &CodesignLayer,
        g_out: &Field,
        cache: CodesignCache,
        logit_grads: &mut [f64],
    ) -> Field {
        let mut g = one_plane(g_out);
        let mut scratch = layer.propagator().make_scratch();
        layer.backward_batch_inplace(&mut g, &[cache], logit_grads, &mut scratch);
        plane_field(&g)
    }

    fn test_input() -> Field {
        Field::from_fn(6, 6, |r, c| {
            Complex64::new(0.4 + (r as f64 * 0.5).sin(), (c as f64 * 0.3).cos())
        })
    }

    #[test]
    fn soft_weights_sum_to_one() {
        let layer = small_layer(8);
        let (_, cache) = forward_one(&layer, &test_input(), CodesignMode::Soft, 0);
        let levels = 8;
        for p in 0..layer.num_pixels() {
            let s: f64 = cache.weights[p * levels..(p + 1) * levels].iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "weights must be a distribution");
        }
    }

    #[test]
    fn deploy_weights_are_one_hot() {
        let layer = small_layer(8);
        let (_, cache) = forward_one(&layer, &test_input(), CodesignMode::Deploy, 0);
        for p in 0..layer.num_pixels() {
            let row = &cache.weights[p * 8..(p + 1) * 8];
            assert_eq!(row.iter().filter(|&&w| w == 1.0).count(), 1);
            assert_eq!(row.iter().filter(|&&w| w == 0.0).count(), 7);
        }
    }

    #[test]
    fn deploy_modulation_is_exact_device_state() {
        let layer = small_layer(8);
        let (_, cache) = forward_one(&layer, &test_input(), CodesignMode::Deploy, 0);
        let levels = layer.hard_levels();
        for (p, &level) in levels.iter().enumerate() {
            let expect = layer.states[level] * layer.gamma();
            assert!((cache.modulation[p] - expect).norm() < 1e-12);
        }
    }

    #[test]
    fn train_mode_noise_varies_with_seed_but_is_reproducible() {
        let layer = small_layer(8);
        let x = test_input();
        let (a, _) = forward_one(&layer, &x, CodesignMode::Train, 1);
        let (a2, _) = forward_one(&layer, &x, CodesignMode::Train, 1);
        let (b, _) = forward_one(&layer, &x, CodesignMode::Train, 2);
        assert_eq!(a, a2, "same seed must reproduce");
        assert!(a.distance(&b) > 0.0, "different seeds must differ");
    }

    #[test]
    fn inference_tables_match_the_cache_producing_forward() {
        // On a 20×20 plane each mode's table must give each pixel the state
        // the cache-producing forward computes for it.
        let mut layer = CodesignLayer::new(
            Grid::square(20, PixelPitch::from_um(36.0)),
            Wavelength::from_nm(532.0),
            Distance::from_mm(30.0),
            Approximation::RayleighSommerfeld,
            SlmModel::ideal(8),
            1.0,
            0.7,
        );
        layer.randomize_logits(9);
        let x = Field::from_fn(20, 20, |r, c| Complex64::new(0.3 + r as f64, c as f64));
        let mut scratch = layer.propagator().make_scratch();
        for mode in [CodesignMode::Soft, CodesignMode::Deploy] {
            let (out, _) = forward_one(&layer, &x, mode, 0);
            let mut u = one_plane(&x);
            layer.infer_batch_inplace(&mut u, mode, &mut scratch);
            assert!(plane_field(&u).distance(&out) < 1e-12 * out.total_power().sqrt());
        }
    }

    #[test]
    fn low_temperature_approaches_hard_argmax() {
        let mut layer = small_layer(8);
        // Give every pixel an unambiguous winning level with a clear margin.
        let pixels = layer.num_pixels();
        for p in 0..pixels {
            for l in 0..8 {
                layer.logits_mut()[p * 8 + l] = if l == p % 8 { 2.0 } else { 0.0 };
            }
        }
        let x = test_input();
        let (hard, _) = forward_one(&layer, &x, CodesignMode::Deploy, 0);
        layer.set_temperature(0.05);
        let (soft, _) = forward_one(&layer, &x, CodesignMode::Soft, 0);
        assert!(
            soft.distance(&hard) < 1e-3 * hard.total_power().sqrt().max(1.0),
            "τ→0 soft forward should match deployment"
        );
    }

    #[test]
    fn logit_gradient_matches_finite_difference() {
        let layer = small_layer(4);
        let x = test_input();
        let n = layer.num_pixels();
        let w: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 11) as f64 / 11.0).collect();

        let loss_of = |l: &CodesignLayer| {
            let (out, _) = forward_one(l, &x, CodesignMode::Soft, 0);
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(o, &wi)| wi * o.norm_sqr())
                .sum::<f64>()
        };
        let (out, cache) = forward_one(&layer, &x, CodesignMode::Soft, 0);
        let g_out = Field::from_vec(
            6,
            6,
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(&o, &wi)| o * wi)
                .collect(),
        );
        let mut analytic = vec![0.0; layer.num_params()];
        backward_one(&layer, &g_out, cache, &mut analytic);

        let report = check_gradient_sampled(
            |logits: &[f64]| {
                let mut l = layer.clone();
                l.logits_mut().copy_from_slice(logits);
                loss_of(&l)
            },
            layer.logits(),
            &analytic,
            1e-6,
            24,
        );
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    fn init_from_phases_deploys_to_nearest_levels() {
        let mut layer = small_layer(16);
        let phases: Vec<f64> = (0..layer.num_pixels())
            .map(|i| (i as f64 * 0.37) % std::f64::consts::TAU)
            .collect();
        layer.init_from_phases(&phases, 5.0);
        let deployed = layer.hard_phases();
        let device = layer.device().clone();
        for (&p, &d) in phases.iter().zip(&deployed) {
            assert!((device.quantize(p) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn input_gradient_directional_check() {
        let layer = small_layer(4);
        let x = test_input();
        let n = layer.num_pixels();
        let w: Vec<f64> = (0..n).map(|i| (i % 7) as f64 / 7.0).collect();
        let loss_of = |f: &Field| {
            let (out, _) = forward_one(&layer, f, CodesignMode::Soft, 0);
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(o, &wi)| wi * o.norm_sqr())
                .sum::<f64>()
        };
        let (out, cache) = forward_one(&layer, &x, CodesignMode::Soft, 0);
        let g_out = Field::from_vec(
            6,
            6,
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(&o, &wi)| o * wi)
                .collect(),
        );
        let mut scratch = vec![0.0; layer.num_params()];
        let g_in = backward_one(&layer, &g_out, cache, &mut scratch);
        let d = Field::from_fn(6, 6, |r, c| Complex64::new(0.1 * r as f64, -0.2 * c as f64));
        let h = 1e-6;
        let mut xp = x.clone();
        xp.axpy(h, &d);
        let mut xm = x.clone();
        xm.axpy(-h, &d);
        let numeric = (loss_of(&xp) - loss_of(&xm)) / (2.0 * h);
        let analytic = 2.0 * g_in.inner(&d).re;
        assert!(
            (numeric - analytic).abs() < 1e-4 * (1.0 + numeric.abs()),
            "numeric {numeric} vs analytic {analytic}"
        );
    }
}
