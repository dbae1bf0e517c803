//! Optical nonlinearity layer (paper §6 future work).
//!
//! All-optical nonlinear activation can be realized with saturable-absorber
//! materials (crystals, polymers, graphene): transmission grows with
//! incident intensity. We model the standard saturable-absorber
//! transmission
//!
//! ```text
//! t(I) = α + (1 − α)·I/(I + I_sat),   out = t(|u|²)·u
//! ```
//!
//! with linear (low-power) transmission `α` and saturation intensity
//! `I_sat`. The layer has no trainable parameters; its value is the
//! nonlinearity it adds between diffractive layers, lifting the
//! linear-optics limitation the paper discusses.
//!
//! The Wirtinger backward pass for `out = u·t(u·ū)` is
//!
//! ```text
//! g_u = conj(g_out)·t'(I)·u² + g_out·(t(I) + t'(I)·I)
//! ```
//!
//! where `g = ∂L/∂ū` and `t'(I) = (1 − α)·I_sat/(I + I_sat)²`.

use lr_obs::{KernelKind, KernelTimer};
use lr_tensor::FieldBatch;

/// A saturable-absorber nonlinear optical layer.
///
/// # Examples
///
/// ```
/// use lightridge::SaturableAbsorber;
/// use lr_tensor::{Complex64, FieldBatch};
///
/// let sa = SaturableAbsorber::new(0.2, 1.0);
/// let mut batch = FieldBatch::zeros(2, 2, 2);
/// batch.plane_mut(0).fill(Complex64::new(0.05, 0.0));
/// batch.plane_mut(1).fill(Complex64::new(10.0, 0.0));
/// sa.infer_batch_inplace(&mut batch);
/// // Weak light is attenuated toward α, strong light passes.
/// assert!(batch.plane(0)[0].re / 0.05 < 0.3);
/// assert!(batch.plane(1)[0].re / 10.0 > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SaturableAbsorber {
    alpha: f64,
    saturation: f64,
}

/// Batched forward activations: one input plane per sample.
#[derive(Debug, Clone)]
pub struct NonlinearBatchCache {
    /// The input planes.
    pub input: FieldBatch,
}

impl NonlinearBatchCache {
    /// Pre-allocates a cache with room for `capacity` samples.
    pub fn with_capacity(capacity: usize, rows: usize, cols: usize) -> Self {
        NonlinearBatchCache {
            input: FieldBatch::with_capacity(capacity, rows, cols),
        }
    }
}

impl SaturableAbsorber {
    /// Creates an absorber with low-power transmission `alpha ∈ (0, 1]`
    /// and saturation intensity `saturation > 0`.
    ///
    /// # Panics
    ///
    /// Panics if parameters are out of range.
    pub fn new(alpha: f64, saturation: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(
            saturation > 0.0 && saturation.is_finite(),
            "saturation must be positive"
        );
        SaturableAbsorber { alpha, saturation }
    }

    /// Low-power transmission α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Saturation intensity.
    pub fn saturation(&self) -> f64 {
        self.saturation
    }

    /// Transmission at intensity `i`.
    #[inline]
    pub fn transmission(&self, i: f64) -> f64 {
        self.alpha + (1.0 - self.alpha) * i / (i + self.saturation)
    }

    /// Derivative `dt/dI` at intensity `i`.
    #[inline]
    fn transmission_prime(&self, i: f64) -> f64 {
        (1.0 - self.alpha) * self.saturation / (i + self.saturation).powi(2)
    }

    /// Batched inference step: `out = t(|u|²)·u` applied to every active
    /// plane in place (elementwise, allocation-free).
    pub fn infer_batch_inplace(&self, batch: &mut FieldBatch) {
        let _t = KernelTimer::start(KernelKind::Modulate);
        for z in batch.as_mut_slice() {
            *z *= self.transmission(z.norm_sqr());
        }
    }

    /// Batched trace-building forward pass reusing a caller-owned cache.
    pub fn forward_batch_traced(&self, batch: &mut FieldBatch, cache: &mut NonlinearBatchCache) {
        cache.input.copy_from(batch);
        self.infer_batch_inplace(batch);
    }

    /// Batched backward pass operating on the gradient **in place**: every
    /// active plane enters as `∂L/∂(output)̄` and leaves as `∂L/∂(input)̄`,
    /// with no gradient field allocated.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not match the gradient batch.
    pub fn backward_batch_inplace(&self, grad: &mut FieldBatch, cache: &NonlinearBatchCache) {
        assert_eq!(
            grad.batch(),
            cache.input.batch(),
            "gradient/cache batch mismatch"
        );
        assert_eq!(
            grad.plane_shape(),
            cache.input.plane_shape(),
            "gradient shape mismatch"
        );
        let _t = KernelTimer::start(KernelKind::Modulate);
        for (g, &u) in grad.as_mut_slice().iter_mut().zip(cache.input.as_slice()) {
            let i = u.norm_sqr();
            let t = self.transmission(i);
            let tp = self.transmission_prime(i);
            *g = g.conj() * (u * u) * tp + *g * (t + tp * i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_tensor::{Complex64, Field};

    /// One-sample traced forward: the output field and its cache.
    fn forward_one(sa: &SaturableAbsorber, u: &Field) -> (Field, NonlinearBatchCache) {
        let mut batch = FieldBatch::zeros(1, u.rows(), u.cols());
        batch.copy_plane_from(0, u);
        let mut cache = NonlinearBatchCache::with_capacity(1, u.rows(), u.cols());
        sa.forward_batch_traced(&mut batch, &mut cache);
        (
            Field::from_vec(u.rows(), u.cols(), batch.plane(0).to_vec()),
            cache,
        )
    }

    /// One-sample backward: `∂L/∂(input)̄` from `∂L/∂(output)̄`.
    fn backward_one(sa: &SaturableAbsorber, g_out: &Field, cache: &NonlinearBatchCache) -> Field {
        let mut g = FieldBatch::zeros(1, g_out.rows(), g_out.cols());
        g.copy_plane_from(0, g_out);
        sa.backward_batch_inplace(&mut g, cache);
        Field::from_vec(g_out.rows(), g_out.cols(), g.plane(0).to_vec())
    }

    fn absorber() -> SaturableAbsorber {
        SaturableAbsorber::new(0.3, 2.0)
    }

    #[test]
    fn transmission_monotone_and_bounded() {
        let sa = absorber();
        let mut last = 0.0;
        for k in 0..50 {
            let i = k as f64 * 0.5;
            let t = sa.transmission(i);
            assert!(t >= sa.alpha() - 1e-12 && t <= 1.0);
            assert!(t >= last, "transmission must be monotone in intensity");
            last = t;
        }
        assert!((sa.transmission(0.0) - 0.3).abs() < 1e-12);
        assert!(sa.transmission(1e9) > 0.999);
    }

    #[test]
    fn forward_scales_amplitude_only() {
        let sa = absorber();
        let u = Field::filled(2, 2, Complex64::from_polar(2.0, 0.7));
        let (out, _) = forward_one(&sa, &u);
        for z in out.as_slice() {
            // Phase untouched.
            assert!((z.arg() - 0.7).abs() < 1e-12);
            // Amplitude scaled by t(4).
            assert!((z.norm() - 2.0 * sa.transmission(4.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_matches_directional_finite_difference() {
        let sa = absorber();
        let u = Field::from_fn(4, 4, |r, c| {
            Complex64::new(0.5 + 0.2 * r as f64, -0.3 + 0.15 * c as f64)
        });
        // Loss L = Σ w_p |out_p|².
        let w: Vec<f64> = (0..16).map(|i| ((i * 5 + 3) % 7) as f64 / 7.0).collect();
        let loss_of = |f: &Field| -> f64 {
            let (out, _) = forward_one(&sa, f);
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(o, &wi)| wi * o.norm_sqr())
                .sum()
        };
        let (out, cache) = forward_one(&sa, &u);
        let g_out = Field::from_vec(
            4,
            4,
            out.as_slice()
                .iter()
                .zip(&w)
                .map(|(&o, &wi)| o * wi)
                .collect(),
        );
        let g_in = backward_one(&sa, &g_out, &cache);

        let d = Field::from_fn(4, 4, |r, c| {
            Complex64::new(0.1 * (c as f64 - 1.5), 0.07 * r as f64)
        });
        let h = 1e-6;
        let mut up = u.clone();
        up.axpy(h, &d);
        let mut um = u.clone();
        um.axpy(-h, &d);
        let numeric = (loss_of(&up) - loss_of(&um)) / (2.0 * h);
        let analytic = 2.0 * g_in.inner(&d).re;
        assert!(
            (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn identity_at_alpha_one() {
        let sa = SaturableAbsorber::new(1.0, 1.0);
        let u = Field::from_fn(3, 3, |r, c| Complex64::new(r as f64, c as f64));
        let (out, _) = forward_one(&sa, &u);
        assert!(out.distance(&u) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_zero_alpha() {
        let _ = SaturableAbsorber::new(0.0, 1.0);
    }
}
