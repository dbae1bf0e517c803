//! Scalar-diffraction kernels (paper §3.1.1, Eq. 1–7).
//!
//! Light diffraction between DONN layers is computed with FFT-based scalar
//! diffraction theory. Three approximations are provided, matching the
//! paper's `lr.layers` options:
//!
//! * [`Approximation::RayleighSommerfeld`] — the exact scalar transfer
//!   function (angular spectrum), valid in near and far field, highest cost.
//! * [`Approximation::Fresnel`] — parabolic-wavefront near-field
//!   approximation (Eq. 3).
//! * [`Approximation::Fraunhofer`] — planar-wavefront far-field
//!   approximation (Eq. 4), a single scaled Fourier transform.
//!
//! All propagators expose an exact **adjoint**, which is what makes the
//! whole DONN differentiable: diffraction is linear, so the backward pass
//! is propagation with the conjugated kernel.

use crate::grid::Grid;
use crate::units::{Distance, PixelPitch, Wavelength};
use lr_tensor::{
    fftshift_in_place, ifftshift_in_place, Complex64, Direction, Fft2, Fft2Workspace, Field,
    FieldBatch, PinnedCache, J,
};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

/// Which scalar-diffraction approximation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Approximation {
    /// Rayleigh-Sommerfeld / angular spectrum (Eq. 1): exact scalar theory,
    /// handles near and far field.
    #[default]
    RayleighSommerfeld,
    /// Fresnel transfer function (Eq. 3): near-field parabolic approximation.
    Fresnel,
    /// Fraunhofer (Eq. 4): far-field, single Fourier transform with output
    /// plane rescaling.
    Fraunhofer,
}

impl Approximation {
    /// All approximations, in paper order.
    pub const ALL: [Approximation; 3] = [
        Approximation::RayleighSommerfeld,
        Approximation::Fresnel,
        Approximation::Fraunhofer,
    ];

    /// Short lowercase name (`"rs"`, `"fresnel"`, `"fraunhofer"`).
    pub fn name(&self) -> &'static str {
        match self {
            Approximation::RayleighSommerfeld => "rs",
            Approximation::Fresnel => "fresnel",
            Approximation::Fraunhofer => "fraunhofer",
        }
    }
}

/// Builds the Rayleigh-Sommerfeld (angular spectrum) transfer function
/// `H(f_x, f_y) = exp(j·k·z·√(1 − (λf_x)² − (λf_y)²))` on `grid`.
///
/// Evanescent components (negative radicand) decay exponentially. When
/// `band_limit` is true the Matsushima band-limiting criterion zeroes
/// frequencies that would alias for the given distance, improving
/// correlation with physical systems at long propagation distances.
pub fn rayleigh_sommerfeld_tf(
    grid: &Grid,
    wavelength: Wavelength,
    distance: Distance,
    band_limit: bool,
) -> Field {
    let lambda = wavelength.meters();
    let k = wavelength.wavenumber();
    let z = distance.meters();
    // Matsushima & Shimobaba band limits per axis:
    // f_limit = 1 / (λ·√((2·Δf·z)² + 1)), Δf = 1/(N·pitch).
    let fx_limit = band_limit_freq(lambda, z, grid.cols(), grid.pitch());
    let fy_limit = band_limit_freq(lambda, z, grid.rows(), grid.pitch());
    Field::from_fn(grid.rows(), grid.cols(), |r, c| {
        let fx = grid.fx(c);
        let fy = grid.fy(r);
        if band_limit && (fx.abs() > fx_limit || fy.abs() > fy_limit) {
            return Complex64::ZERO;
        }
        let s = 1.0 - (lambda * fx).powi(2) - (lambda * fy).powi(2);
        if s >= 0.0 {
            Complex64::cis(k * z * s.sqrt())
        } else {
            // Evanescent wave: purely decaying.
            Complex64::from_real((-k * z * (-s).sqrt()).exp())
        }
    })
}

fn band_limit_freq(lambda: f64, z: f64, n: usize, pitch: PixelPitch) -> f64 {
    let df = 1.0 / (n as f64 * pitch.meters());
    1.0 / (lambda * ((2.0 * df * z).powi(2) + 1.0).sqrt())
}

/// Cache key for spectral transfer functions: the full geometry that
/// determines the kernel, with floats keyed by their bit patterns (exact
/// reuse only — nearby geometries build their own kernels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TransferKey {
    rows: usize,
    cols: usize,
    pitch_bits: u64,
    lambda_bits: u64,
    z_bits: u64,
    kind: TransferKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TransferKind {
    RayleighSommerfeld { band_limit: bool },
    Fresnel,
}

impl TransferKey {
    fn new(grid: &Grid, wavelength: Wavelength, distance: Distance, kind: TransferKind) -> Self {
        TransferKey {
            rows: grid.rows(),
            cols: grid.cols(),
            pitch_bits: grid.pitch().meters().to_bits(),
            lambda_bits: wavelength.meters().to_bits(),
            z_bits: distance.meters().to_bits(),
            kind,
        }
    }
}

/// Global transfer-function cache keyed by `(shape, pitch, λ, z, approx)`.
///
/// Every `FreeSpace` plan for the same geometry shares one kernel: a
/// DONN stacks many identically-spaced layers, so without this cache model
/// construction rebuilds the same `O(N²)`-trig field once per layer.
/// Eviction semantics live in [`PinnedCache`], shared with the FFT plan
/// cache: every live `FreeSpace` (and therefore every live model) keeps
/// its kernel pinned and unevictable; only kernels orphaned by their last
/// propagator dropping are reclaimable.
static TRANSFER_CACHE: Mutex<Option<PinnedCache<TransferKey, Field>>> = Mutex::new(None);

/// Soft cache capacity. Keys are exact float bit patterns, so a DSE
/// parameter sweep produces an unbounded stream of single-use keys;
/// without a cap each swept design would leak one field-sized kernel for
/// the process lifetime. Past the cap, inserts evict the stalest
/// **orphaned** entries first; entries pinned by live propagators are
/// never evicted (the cache may exceed the cap while more geometries than
/// this are simultaneously alive — the live models, not the cache, are
/// the retainers then).
const TRANSFER_CACHE_CAP: usize = 32;

fn cached_transfer(key: TransferKey, build: impl FnOnce() -> Field) -> Arc<Field> {
    if let Some(hit) = TRANSFER_CACHE.lock().as_mut().and_then(|c| c.hit(&key)) {
        return hit;
    }
    // Build outside the lock: kernels are large and trig-heavy, and two
    // racing builders produce identical fields.
    let built = Arc::new(build());
    let mut guard = TRANSFER_CACHE.lock();
    let cache = guard.get_or_insert_with(PinnedCache::new);
    // Re-check under the second lock: a racing builder may have inserted
    // this key during our build window. The first insert must win — every
    // caller shares one `Arc` per key (and the loser's build is dropped) —
    // and because the hit path returns before `insert` can evict, the
    // winning entry can never be chosen as an eviction victim by the very
    // race that built it.
    if let Some(hit) = cache.hit(&key) {
        return hit;
    }
    cache.insert(key, Arc::clone(&built), TRANSFER_CACHE_CAP);
    built
}

/// Drops every cached transfer function that no live propagator references
/// any more, returning how many were evicted. The serving runtime calls
/// this after reclaiming a retired model: by then the model's `FreeSpace`
/// plans (and their kernel `Arc`s) are gone, so its kernels show up here
/// as orphans, while kernels shared with still-live models stay pinned.
pub fn sweep_transfer_cache() -> usize {
    TRANSFER_CACHE
        .lock()
        .as_mut()
        .map_or(0, PinnedCache::sweep_orphans)
}

/// Cached variant of [`rayleigh_sommerfeld_tf`]: returns the shared kernel
/// for this exact geometry, building it on first use.
pub fn rayleigh_sommerfeld_tf_cached(
    grid: &Grid,
    wavelength: Wavelength,
    distance: Distance,
    band_limit: bool,
) -> Arc<Field> {
    let key = TransferKey::new(
        grid,
        wavelength,
        distance,
        TransferKind::RayleighSommerfeld { band_limit },
    );
    cached_transfer(key, || {
        rayleigh_sommerfeld_tf(grid, wavelength, distance, band_limit)
    })
}

/// Cached variant of [`fresnel_tf`].
pub fn fresnel_tf_cached(grid: &Grid, wavelength: Wavelength, distance: Distance) -> Arc<Field> {
    let key = TransferKey::new(grid, wavelength, distance, TransferKind::Fresnel);
    cached_transfer(key, || fresnel_tf(grid, wavelength, distance))
}

/// Clears the global transfer-function cache (ablation benches and tests).
pub fn clear_transfer_cache() {
    *TRANSFER_CACHE.lock() = None;
}

/// Number of transfer functions currently cached.
pub fn transfer_cache_len() -> usize {
    TRANSFER_CACHE.lock().as_ref().map_or(0, PinnedCache::len)
}

/// Builds the Fresnel transfer function
/// `H = exp(jkz)·exp(−jπλz·(f_x² + f_y²))` (Eq. 3 in the spectral domain).
pub fn fresnel_tf(grid: &Grid, wavelength: Wavelength, distance: Distance) -> Field {
    let lambda = wavelength.meters();
    let k = wavelength.wavenumber();
    let z = distance.meters();
    let global = Complex64::cis(k * z);
    Field::from_fn(grid.rows(), grid.cols(), |r, c| {
        let fx = grid.fx(c);
        let fy = grid.fy(r);
        global * Complex64::cis(-PI * lambda * z * (fx * fx + fy * fy))
    })
}

/// Samples the Rayleigh-Sommerfeld impulse response (Eq. 1 integrand)
/// `h(x,y) = z/(jλ) · exp(jkr)/r²`, `r = √(z² + x² + y²)` on a centered
/// grid and returns its spectrum (FFT of the origin-shifted kernel times
/// the area element), so it can be applied exactly like a transfer
/// function. Used to cross-validate the angular-spectrum kernel.
pub fn rayleigh_sommerfeld_ir_spectrum(
    grid: &Grid,
    wavelength: Wavelength,
    distance: Distance,
) -> Field {
    let lambda = wavelength.meters();
    let k = wavelength.wavenumber();
    let z = distance.meters();
    let area = grid.pitch().meters().powi(2);
    let h = Field::from_fn(grid.rows(), grid.cols(), |r, c| {
        let x = grid.x_coord(c);
        let y = grid.y_coord(r);
        let rad = (z * z + x * x + y * y).sqrt();
        (Complex64::cis(k * rad) / J) * (z / (lambda * rad * rad)) * area
    });
    let mut spec = h.ifftshift();
    Fft2::new(grid.rows(), grid.cols()).forward(&mut spec);
    spec
}

/// Samples the Fresnel impulse response
/// `h(x,y) = e^{jkz}/(jλz) · exp(jk(x²+y²)/(2z))` and returns its spectrum.
pub fn fresnel_ir_spectrum(grid: &Grid, wavelength: Wavelength, distance: Distance) -> Field {
    let lambda = wavelength.meters();
    let k = wavelength.wavenumber();
    let z = distance.meters();
    let area = grid.pitch().meters().powi(2);
    let scale = (Complex64::cis(k * z) / J) / (lambda * z) * area;
    let h = Field::from_fn(grid.rows(), grid.cols(), |r, c| {
        let x = grid.x_coord(c);
        let y = grid.y_coord(r);
        scale * Complex64::cis(k * (x * x + y * y) / (2.0 * z))
    });
    let mut spec = h.ifftshift();
    Fft2::new(grid.rows(), grid.cols()).forward(&mut spec);
    spec
}

/// A planned free-space propagation operator between two parallel planes.
///
/// Construction precomputes the spectral kernel (or Fraunhofer phases) once;
/// [`FreeSpace::propagate`] then costs two FFTs plus one fused elementwise
/// multiply. This plan-once/run-many structure is the LightRidge fast path.
///
/// # Examples
///
/// ```
/// use lr_optics::{FreeSpace, Approximation, Grid, PixelPitch, Wavelength, Distance};
/// use lr_tensor::Field;
/// let grid = Grid::square(64, PixelPitch::from_um(36.0));
/// let prop = FreeSpace::new(
///     grid,
///     Wavelength::from_nm(532.0),
///     Distance::from_mm(300.0),
///     Approximation::RayleighSommerfeld,
/// );
/// let mut u = Field::ones(64, 64);
/// prop.propagate(&mut u);
/// assert!(u.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct FreeSpace {
    grid: Grid,
    wavelength: Wavelength,
    distance: Distance,
    approximation: Approximation,
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// Spectral convolution: `U ← IFFT(FFT(U) ⊙ H)`. The kernel is shared
    /// through the global transfer cache.
    Spectral { transfer: Arc<Field>, fft: Fft2 },
    /// Fraunhofer: `U ← scale · D_post ⊙ fftshift(FFT(ifftshift(U)))`.
    SingleFourier {
        post_phase: Field,
        scale: Complex64,
        fft: Fft2,
    },
}

/// Caller-owned scratch for allocation-free propagation
/// ([`FreeSpace::propagate_with`] / [`FreeSpace::adjoint_with`]).
///
/// Owns the 2-D FFT workspace; the Fraunhofer shifts run in place, so no
/// plane is staged. Build one per `(thread, grid shape)` via
/// [`FreeSpace::make_scratch`] and reuse it for every propagation at that
/// shape; the spectral (Rayleigh-Sommerfeld / Fresnel) paths then perform
/// zero heap allocations in steady state.
#[derive(Debug, Clone)]
pub struct PropagationScratch {
    fft: Fft2Workspace,
}

impl PropagationScratch {
    /// Builds scratch for a `rows × cols` plane.
    pub fn new(rows: usize, cols: usize) -> Self {
        PropagationScratch {
            fft: Fft2::new(rows, cols).make_workspace(),
        }
    }

    /// Builds scratch for batched propagation of `rows × cols` planes.
    /// Identical to [`PropagationScratch::new`]: one workspace serves
    /// per-sample and batched calls alike.
    pub fn new_batched(rows: usize, cols: usize) -> Self {
        Self::new(rows, cols)
    }

    /// Plane shape this scratch serves.
    pub fn shape(&self) -> (usize, usize) {
        self.fft.shape()
    }

    /// Heap bytes held by this scratch's buffers. Feeds the serving
    /// runtime's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        self.fft.resident_bytes()
    }
}

impl FreeSpace {
    /// Plans a propagator with default options (band-limited angular
    /// spectrum for Rayleigh-Sommerfeld).
    pub fn new(
        grid: Grid,
        wavelength: Wavelength,
        distance: Distance,
        approximation: Approximation,
    ) -> Self {
        Self::with_options(grid, wavelength, distance, approximation, true)
    }

    /// Plans a propagator, controlling angular-spectrum band-limiting.
    pub fn with_options(
        grid: Grid,
        wavelength: Wavelength,
        distance: Distance,
        approximation: Approximation,
        band_limit: bool,
    ) -> Self {
        let fft = Fft2::new(grid.rows(), grid.cols());
        let inner = match approximation {
            Approximation::RayleighSommerfeld => Inner::Spectral {
                transfer: rayleigh_sommerfeld_tf_cached(&grid, wavelength, distance, band_limit),
                fft,
            },
            Approximation::Fresnel => Inner::Spectral {
                transfer: fresnel_tf_cached(&grid, wavelength, distance),
                fft,
            },
            Approximation::Fraunhofer => {
                let lambda = wavelength.meters();
                let k = wavelength.wavenumber();
                let z = distance.meters();
                let out_pitch = lambda * z / (grid.cols() as f64 * grid.pitch().meters());
                let out_grid =
                    Grid::new(grid.rows(), grid.cols(), PixelPitch::from_meters(out_pitch));
                let post_phase = Field::from_fn(grid.rows(), grid.cols(), |r, c| {
                    let x = out_grid.x_coord(c);
                    let y = out_grid.y_coord(r);
                    Complex64::cis(k * (x * x + y * y) / (2.0 * z))
                });
                let area = grid.pitch().meters().powi(2);
                let scale = (Complex64::cis(k * z) / J) / (lambda * z) * area;
                Inner::SingleFourier {
                    post_phase,
                    scale,
                    fft,
                }
            }
        };
        FreeSpace {
            grid,
            wavelength,
            distance,
            approximation,
            inner,
        }
    }

    /// The sampling grid of the *input* plane.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Wavelength this propagator was planned for.
    pub fn wavelength(&self) -> Wavelength {
        self.wavelength
    }

    /// Propagation distance.
    pub fn distance(&self) -> Distance {
        self.distance
    }

    /// The approximation in use.
    pub fn approximation(&self) -> Approximation {
        self.approximation
    }

    /// Pixel pitch of the *output* plane. Identical to the input pitch for
    /// the convolutional approximations; rescaled to `λz/(N·pitch)` for
    /// Fraunhofer.
    pub fn output_pitch(&self) -> PixelPitch {
        match &self.inner {
            Inner::Spectral { .. } => self.grid.pitch(),
            Inner::SingleFourier { .. } => {
                let lambda = self.wavelength.meters();
                let z = self.distance.meters();
                PixelPitch::from_meters(
                    lambda * z / (self.grid.cols() as f64 * self.grid.pitch().meters()),
                )
            }
        }
    }

    /// The spectral transfer function, if this is a convolutional
    /// propagator. Exposed for the runtime benches and for kernel fusion.
    pub fn transfer(&self) -> Option<&Field> {
        match &self.inner {
            Inner::Spectral { transfer, .. } => Some(transfer),
            Inner::SingleFourier { .. } => None,
        }
    }

    /// Allocates scratch sized for this propagator's grid, for use with
    /// [`FreeSpace::propagate_with`] / [`FreeSpace::adjoint_with`].
    pub fn make_scratch(&self) -> PropagationScratch {
        PropagationScratch::new(self.grid.rows(), self.grid.cols())
    }

    /// Propagates `field` in place over the planned distance: the
    /// one-plane kernel of [`FreeSpace::propagate_with`] on thread-local
    /// scratch (allocation-free once warm for this grid); callers that own
    /// scratch should prefer [`FreeSpace::propagate_with`].
    ///
    /// # Panics
    ///
    /// Panics if the field shape does not match the planned grid.
    pub fn propagate(&self, field: &mut Field) {
        with_tls_scratch(self.grid.shape(), |scratch| {
            self.propagate_with(field, scratch)
        });
    }

    /// [`FreeSpace::propagate`] with caller-owned scratch — the
    /// zero-allocation fast path the propagation workspaces thread through
    /// every layer.
    ///
    /// # Panics
    ///
    /// Panics if `field` or `scratch` does not match the planned grid.
    pub fn propagate_with(&self, field: &mut Field, scratch: &mut PropagationScratch) {
        assert_eq!(
            field.shape(),
            self.grid.shape(),
            "field/grid shape mismatch"
        );
        self.propagate_plane(field.as_mut_slice(), scratch);
    }

    /// Propagates one row-major plane given as a raw sample slice. The
    /// spectral path is the one-plane case of the batched convolve
    /// ([`Fft2::convolve_spectrum_batch_with`]) that
    /// [`FreeSpace::propagate_batch_into`] runs, which is what makes the
    /// per-sample and batched entry points bit-identical.
    fn propagate_plane(&self, plane: &mut [Complex64], scratch: &mut PropagationScratch) {
        let (rows, cols) = self.grid.shape();
        assert_eq!(plane.len(), rows * cols, "plane/grid length mismatch");
        assert_eq!(
            scratch.shape(),
            self.grid.shape(),
            "scratch/grid shape mismatch"
        );
        match &self.inner {
            Inner::Spectral { transfer, fft } => {
                fft.convolve_spectrum_batch_with(plane, transfer, &mut scratch.fft);
            }
            Inner::SingleFourier {
                post_phase,
                scale,
                fft,
            } => {
                ifftshift_in_place(plane, rows, cols);
                fft.process_planes_with(plane, Direction::Forward, &mut scratch.fft);
                fftshift_in_place(plane, rows, cols);
                for (z, &p) in plane.iter_mut().zip(post_phase.as_slice()) {
                    *z *= p;
                }
                for z in plane.iter_mut() {
                    *z *= *scale;
                }
            }
        }
    }

    /// Propagates **every active plane** of a [`FieldBatch`] in place — the
    /// batched free-space hop. The spectral path runs the fused batched
    /// convolve ([`Fft2::convolve_spectrum_batch_with`]), which runs each
    /// plane's rows and columns in SIMD lane groups at the runtime dispatch
    /// level and multiplies every plane by the cached transfer kernel; every
    /// lane runs the 1-lane operation sequence, so the call stays
    /// **bit-identical** to `B` separate [`FreeSpace::propagate_with`]
    /// calls at every dispatch level, and performs **zero heap allocations**
    /// in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the batch's plane shape or `scratch` does not match the
    /// planned grid.
    pub fn propagate_batch_into(&self, batch: &mut FieldBatch, scratch: &mut PropagationScratch) {
        assert_eq!(
            batch.plane_shape(),
            self.grid.shape(),
            "batch plane/grid shape mismatch"
        );
        assert_eq!(
            scratch.shape(),
            self.grid.shape(),
            "scratch/grid shape mismatch"
        );
        match &self.inner {
            Inner::Spectral { transfer, fft } => {
                fft.convolve_spectrum_batch_with(batch.as_mut_slice(), transfer, &mut scratch.fft);
            }
            Inner::SingleFourier { .. } => {
                for b in 0..batch.batch() {
                    self.propagate_plane(batch.plane_mut(b), scratch);
                }
            }
        }
    }

    /// Applies the adjoint operator `Aᴴ` in place — the gradient backward
    /// pass corresponding to [`FreeSpace::propagate`], on thread-local
    /// scratch like it.
    ///
    /// # Panics
    ///
    /// Panics if the field shape does not match the planned grid.
    pub fn adjoint(&self, grad: &mut Field) {
        with_tls_scratch(self.grid.shape(), |scratch| {
            self.adjoint_with(grad, scratch)
        });
    }

    /// [`FreeSpace::adjoint`] with caller-owned scratch (zero allocation on
    /// the spectral paths).
    ///
    /// # Panics
    ///
    /// Panics if `grad` or `scratch` does not match the planned grid.
    pub fn adjoint_with(&self, grad: &mut Field, scratch: &mut PropagationScratch) {
        assert_eq!(grad.shape(), self.grid.shape(), "field/grid shape mismatch");
        self.adjoint_plane(grad.as_mut_slice(), scratch);
    }

    /// The shared adjoint kernel on one raw plane (see
    /// [`FreeSpace::propagate_plane`]).
    fn adjoint_plane(&self, plane: &mut [Complex64], scratch: &mut PropagationScratch) {
        let (rows, cols) = self.grid.shape();
        assert_eq!(plane.len(), rows * cols, "plane/grid length mismatch");
        assert_eq!(
            scratch.shape(),
            self.grid.shape(),
            "scratch/grid shape mismatch"
        );
        match &self.inner {
            Inner::Spectral { transfer, fft } => {
                fft.convolve_spectrum_adjoint_batch_with(plane, transfer, &mut scratch.fft);
            }
            Inner::SingleFourier {
                post_phase,
                scale,
                fft,
            } => {
                // A = s·diag(post)·P₂·F·P₁ ⇒ Aᴴ = s̄·P₁⁻¹·Fᴴ·P₂⁻¹·diag(post̄),
                // with Fᴴ = N·F⁻¹.
                let n = (rows * cols) as f64;
                for (z, &p) in plane.iter_mut().zip(post_phase.as_slice()) {
                    *z *= p.conj();
                }
                ifftshift_in_place(plane, rows, cols);
                fft.process_planes_with(plane, Direction::Inverse, &mut scratch.fft);
                fftshift_in_place(plane, rows, cols);
                let s = scale.conj() * n;
                for z in plane.iter_mut() {
                    *z *= s;
                }
            }
        }
    }

    /// Adjoint-propagates every active plane of a gradient batch in place —
    /// the batched backward hop matching [`FreeSpace::propagate_batch_into`]
    /// (conjugated kernel broadcast in one pass, zero steady-state
    /// allocations, bit-identical to per-plane [`FreeSpace::adjoint_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch's plane shape or `scratch` does not match the
    /// planned grid.
    pub fn adjoint_batch_into(&self, grad: &mut FieldBatch, scratch: &mut PropagationScratch) {
        assert_eq!(
            grad.plane_shape(),
            self.grid.shape(),
            "batch plane/grid shape mismatch"
        );
        assert_eq!(
            scratch.shape(),
            self.grid.shape(),
            "scratch/grid shape mismatch"
        );
        match &self.inner {
            Inner::Spectral { transfer, fft } => {
                fft.convolve_spectrum_adjoint_batch_with(
                    grad.as_mut_slice(),
                    transfer,
                    &mut scratch.fft,
                );
            }
            Inner::SingleFourier { .. } => {
                for b in 0..grad.batch() {
                    self.adjoint_plane(grad.plane_mut(b), scratch);
                }
            }
        }
    }

    /// Forces every lazily-materialized piece of this propagator's fast
    /// path into the process-global and per-thread caches: the per-axis FFT
    /// plans, the spectral transfer function (both already built at
    /// construction and shared via the global caches), and — by running one
    /// dummy propagate/adjoint round trip — the calling thread's
    /// thread-local FFT scratch for this shape.
    ///
    /// Serving registries call this at model-registration time so that the
    /// first real request pays no plan-construction or scratch-sizing
    /// latency ("flat first-request latency"). The dummy round trip
    /// allocates; call it from setup code, never from a hot path.
    pub fn prewarm(&self) {
        let mut probe = Field::ones(self.grid.rows(), self.grid.cols());
        let mut scratch = self.make_scratch();
        self.propagate_with(&mut probe, &mut scratch);
        self.adjoint_with(&mut probe, &mut scratch);
    }

    /// Fresnel-validity diagnostic: the ratio `z³ / (π/(4λ)·r⁴_max)` from
    /// the paper's stated condition `z³ ≫ π/(4λ)·[(x−ξ)²+(y−η)²]²_max`.
    /// Values ≫ 1 mean Fresnel is safe.
    pub fn fresnel_validity_ratio(&self) -> f64 {
        let z = self.distance.meters();
        let r_max = 2.0 * self.grid.max_radius();
        z.powi(3) / (PI / (4.0 * self.wavelength.meters()) * r_max.powi(4))
    }

    /// Fraunhofer-validity diagnostic: the ratio `z / (k·r²_max/2)` from
    /// `z ≫ k(ξ²+η²)_max / 2`. Values ≫ 1 mean far-field is safe.
    pub fn fraunhofer_validity_ratio(&self) -> f64 {
        let z = self.distance.meters();
        let k = self.wavelength.wavenumber();
        z / (k * self.grid.max_radius().powi(2) / 2.0)
    }

    /// Fresnel number `N_F = r²_max/(λz)` of the configured geometry.
    pub fn fresnel_number(&self) -> f64 {
        self.grid.max_radius().powi(2) / (self.wavelength.meters() * self.distance.meters())
    }
}

thread_local! {
    /// Per-thread scratch backing [`FreeSpace::propagate`] and
    /// [`FreeSpace::adjoint`], one per plane shape.
    static TLS_SCRATCH: RefCell<Vec<PropagationScratch>> = const { RefCell::new(Vec::new()) };
}

/// Lends this thread's scratch for `shape` to `f`, creating it on first
/// use for that shape on this thread.
fn with_tls_scratch<R>(shape: (usize, usize), f: impl FnOnce(&mut PropagationScratch) -> R) -> R {
    let mut scratch = TLS_SCRATCH.with(|cache| {
        let mut cache = cache.borrow_mut();
        match cache.iter().position(|s| s.shape() == shape) {
            Some(i) => cache.swap_remove(i),
            None => PropagationScratch::new(shape.0, shape.1),
        }
    });
    let out = f(&mut scratch);
    TLS_SCRATCH.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() < 8 {
            cache.push(scratch);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_grid(n: usize) -> Grid {
        Grid::square(n, PixelPitch::from_um(10.0))
    }

    const GREEN: f64 = 532.0;

    #[test]
    fn rs_transfer_unit_magnitude_propagating() {
        let grid = test_grid(32);
        let h = rayleigh_sommerfeld_tf(
            &grid,
            Wavelength::from_nm(GREEN),
            Distance::from_mm(10.0),
            false,
        );
        // pitch 10um >> lambda/2, so every sampled frequency is propagating
        for z in h.as_slice() {
            assert!(
                (z.norm() - 1.0).abs() < 1e-12,
                "expected |H|=1, got {}",
                z.norm()
            );
        }
    }

    #[test]
    fn rs_energy_conserved_without_band_limit() {
        let grid = test_grid(64);
        let prop = FreeSpace::with_options(
            grid,
            Wavelength::from_nm(GREEN),
            Distance::from_mm(5.0),
            Approximation::RayleighSommerfeld,
            false,
        );
        let mut u = Field::from_fn(64, 64, |r, c| {
            let inside = (24..40).contains(&r) && (24..40).contains(&c);
            if inside {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        });
        let p0 = u.total_power();
        prop.propagate(&mut u);
        assert!(
            (u.total_power() - p0).abs() < 1e-9 * p0,
            "unitary propagation must conserve energy"
        );
    }

    #[test]
    fn zero_distance_limit_is_identity() {
        let grid = test_grid(32);
        let prop = FreeSpace::with_options(
            grid,
            Wavelength::from_nm(GREEN),
            Distance::from_meters(1e-12),
            Approximation::RayleighSommerfeld,
            false,
        );
        let u0 = Field::from_fn(32, 32, |r, c| Complex64::new(r as f64, c as f64));
        let mut u = u0.clone();
        prop.propagate(&mut u);
        assert!(u.distance(&u0) / u0.total_power().sqrt() < 1e-4);
    }

    #[test]
    fn fresnel_matches_rs_in_paraxial_regime() {
        // Long distance, small aperture -> paraxial. Fields should agree.
        let grid = test_grid(64);
        let w = Wavelength::from_nm(GREEN);
        let z = Distance::from_mm(200.0);
        let rs = FreeSpace::with_options(grid, w, z, Approximation::RayleighSommerfeld, false);
        let fr = FreeSpace::with_options(grid, w, z, Approximation::Fresnel, false);
        let u0 = Field::from_fn(64, 64, |r, c| {
            let dr = r as f64 - 32.0;
            let dc = c as f64 - 32.0;
            Complex64::from_real((-(dr * dr + dc * dc) / 50.0).exp())
        });
        let mut u_rs = u0.clone();
        let mut u_fr = u0.clone();
        rs.propagate(&mut u_rs);
        fr.propagate(&mut u_fr);
        // Compare intensities (global phase may differ slightly).
        let i_rs = u_rs.intensity();
        let i_fr = u_fr.intensity();
        let corr = correlation(&i_rs, &i_fr);
        assert!(
            corr > 0.999,
            "paraxial RS/Fresnel correlation too low: {corr}"
        );
    }

    #[test]
    fn ir_and_tf_kernels_agree_at_critical_distance() {
        // At z = N·p²/λ both the impulse-response and transfer-function
        // samplings are valid; their spectra should closely agree.
        let n = 64;
        let pitch = 10e-6;
        let lambda = 500e-9;
        let z = n as f64 * pitch * pitch / lambda;
        let grid = Grid::square(n, PixelPitch::from_meters(pitch));
        let w = Wavelength::from_meters(lambda);
        let d = Distance::from_meters(z);
        let tf = fresnel_tf(&grid, w, d);
        let ir = fresnel_ir_spectrum(&grid, w, d);
        // Compare on the central (well-sampled) portion of the band.
        let mut num = 0.0;
        let mut den = 0.0;
        for r in 0..n {
            for c in 0..n {
                let fx = grid.fx(c).abs();
                let fy = grid.fy(r).abs();
                if fx < grid.nyquist() / 2.0 && fy < grid.nyquist() / 2.0 {
                    num += (tf[(r, c)] - ir[(r, c)]).norm_sqr();
                    den += tf[(r, c)].norm_sqr();
                }
            }
        }
        assert!(
            num / den < 0.05,
            "Fresnel IR/TF disagreement: {}",
            num / den
        );
    }

    #[test]
    fn rs_ir_spectrum_close_to_angular_spectrum() {
        let n = 64;
        let pitch = 10e-6;
        let lambda = 500e-9;
        let z = n as f64 * pitch * pitch / lambda; // critical sampling
        let grid = Grid::square(n, PixelPitch::from_meters(pitch));
        let w = Wavelength::from_meters(lambda);
        let d = Distance::from_meters(z);
        let tf = rayleigh_sommerfeld_tf(&grid, w, d, false);
        let ir = rayleigh_sommerfeld_ir_spectrum(&grid, w, d);
        let mut num = 0.0;
        let mut den = 0.0;
        for r in 0..n {
            for c in 0..n {
                let fx = grid.fx(c).abs();
                let fy = grid.fy(r).abs();
                if fx < grid.nyquist() / 2.0 && fy < grid.nyquist() / 2.0 {
                    num += (tf[(r, c)] - ir[(r, c)]).norm_sqr();
                    den += tf[(r, c)].norm_sqr();
                }
            }
        }
        assert!(num / den < 0.05, "RS IR/TF disagreement: {}", num / den);
    }

    #[test]
    fn adjoint_identity_spectral() {
        let grid = test_grid(16);
        for approx in [Approximation::RayleighSommerfeld, Approximation::Fresnel] {
            let prop = FreeSpace::new(
                grid,
                Wavelength::from_nm(GREEN),
                Distance::from_mm(30.0),
                approx,
            );
            check_adjoint(&prop);
        }
    }

    #[test]
    fn adjoint_identity_fraunhofer() {
        let grid = test_grid(16);
        let prop = FreeSpace::new(
            grid,
            Wavelength::from_nm(GREEN),
            Distance::from_meters(1.0),
            Approximation::Fraunhofer,
        );
        check_adjoint(&prop);
    }

    #[test]
    fn fraunhofer_in_place_shifts_match_the_staged_path() {
        // The shifts run in place on the plane; the path they replaced
        // staged the shifted plane in a second buffer. Same samples moved,
        // same FFT, so every entry point must agree to the bit.
        for (rows, cols) in [(8, 8), (7, 9), (9, 6)] {
            let grid = Grid::new(rows, cols, PixelPitch::from_um(10.0));
            let prop = FreeSpace::new(
                grid,
                Wavelength::from_nm(GREEN),
                Distance::from_meters(1.0),
                Approximation::Fraunhofer,
            );
            let Inner::SingleFourier {
                post_phase,
                scale,
                fft,
            } = &prop.inner
            else {
                unreachable!("Fraunhofer plans a single Fourier hop");
            };
            let n = (rows * cols) as f64;
            let staged = |x: &Field, adjoint: bool| {
                let mut u = x.clone();
                if adjoint {
                    u.hadamard_conj_assign(post_phase);
                }
                let mut shifted = u.ifftshift();
                let dir = if adjoint {
                    Direction::Inverse
                } else {
                    Direction::Forward
                };
                fft.process_with(&mut shifted, dir, &mut fft.make_workspace());
                let mut u = shifted.fftshift();
                if !adjoint {
                    u.hadamard_assign(post_phase);
                }
                let s = if adjoint { scale.conj() * n } else { *scale };
                for z in u.as_mut_slice() {
                    *z *= s;
                }
                u
            };
            let inputs: Vec<Field> = (0..3)
                .map(|b| {
                    Field::from_fn(rows, cols, |r, c| {
                        Complex64::new((r * cols + c + b) as f64 * 0.1, (r + 2 * b) as f64)
                    })
                })
                .collect();
            let mut scratch = prop.make_scratch();
            for adjoint in [false, true] {
                let mut batch = FieldBatch::zeros(inputs.len(), rows, cols);
                for (b, x) in inputs.iter().enumerate() {
                    let expect = staged(x, adjoint);
                    let (mut u, mut v) = (x.clone(), x.clone());
                    if adjoint {
                        prop.adjoint(&mut u);
                        prop.adjoint_with(&mut v, &mut scratch);
                    } else {
                        prop.propagate(&mut u);
                        prop.propagate_with(&mut v, &mut scratch);
                    }
                    assert_eq!(u, expect, "{rows}x{cols} adjoint={adjoint}");
                    assert_eq!(v, expect, "{rows}x{cols} adjoint={adjoint} (scratch)");
                    batch.copy_plane_from(b, x);
                }
                if adjoint {
                    prop.adjoint_batch_into(&mut batch, &mut scratch);
                } else {
                    prop.propagate_batch_into(&mut batch, &mut scratch);
                }
                for (b, x) in inputs.iter().enumerate() {
                    let expect = staged(x, adjoint);
                    assert_eq!(batch.plane(b), expect.as_slice(), "{rows}x{cols} batched");
                }
            }
        }
    }

    /// The implicit entry points run the same one-plane kernels as the
    /// scratch-threaded ones, so they agree bit for bit on every
    /// approximation.
    #[test]
    fn implicit_entry_points_equal_scratch_entry_points_bitwise() {
        let grid = Grid::new(12, 10, PixelPitch::from_um(10.0));
        for approx in [
            Approximation::RayleighSommerfeld,
            Approximation::Fresnel,
            Approximation::Fraunhofer,
        ] {
            let prop = FreeSpace::new(
                grid,
                Wavelength::from_nm(GREEN),
                Distance::from_mm(2.0),
                approx,
            );
            let x = Field::from_fn(12, 10, |r, c| {
                Complex64::new((r * 10 + c) as f64 * 0.07, (r as f64 - c as f64) * 0.3)
            });
            let mut scratch = prop.make_scratch();
            let (mut u, mut v) = (x.clone(), x.clone());
            prop.propagate(&mut u);
            prop.propagate_with(&mut v, &mut scratch);
            assert_eq!(u, v, "{approx:?} propagate");
            prop.adjoint(&mut u);
            prop.adjoint_with(&mut v, &mut scratch);
            assert_eq!(u, v, "{approx:?} adjoint");
        }
    }

    fn check_adjoint(prop: &FreeSpace) {
        let (rows, cols) = prop.grid().shape();
        let x = Field::from_fn(rows, cols, |r, c| {
            Complex64::new((r * c) as f64 * 0.03, r as f64 - c as f64)
        });
        let y = Field::from_fn(rows, cols, |r, c| {
            Complex64::new(c as f64 * 0.1, (r + 1) as f64 * 0.2)
        });
        let mut ax = x.clone();
        prop.propagate(&mut ax);
        let mut ahy = y.clone();
        prop.adjoint(&mut ahy);
        let lhs = ax.inner(&y);
        let rhs = x.inner(&ahy);
        assert!(
            (lhs - rhs).norm() < 1e-8 * (1.0 + lhs.norm()),
            "adjoint violated for {:?}: {lhs:?} vs {rhs:?}",
            prop.approximation()
        );
    }

    #[test]
    fn gaussian_beam_width_follows_analytic_law() {
        // w(z) = w0·sqrt(1 + (z/zR)²), zR = π w0²/λ.
        let n = 128;
        let pitch = 8e-6;
        let grid = Grid::square(n, PixelPitch::from_meters(pitch));
        let lambda = 532e-9;
        let w0 = 80e-6;
        let zr = PI * w0 * w0 / lambda;
        let z = zr; // at one Rayleigh range width grows by sqrt(2)
        let u0 = Field::from_fn(n, n, |r, c| {
            let x = grid.x_coord(c);
            let y = grid.y_coord(r);
            Complex64::from_real((-(x * x + y * y) / (w0 * w0)).exp())
        });
        let prop = FreeSpace::with_options(
            grid,
            Wavelength::from_meters(lambda),
            Distance::from_meters(z),
            Approximation::RayleighSommerfeld,
            false,
        );
        let mut u = u0.clone();
        prop.propagate(&mut u);
        let w_measured = beam_radius(&u, &grid);
        let w_expected = w0 * (1.0f64 + (z / zr).powi(2)).sqrt();
        let rel = (w_measured - w_expected).abs() / w_expected;
        assert!(
            rel < 0.03,
            "beam width off by {:.1}% (measured {w_measured:.2e}, expected {w_expected:.2e})",
            rel * 100.0
        );
    }

    /// Second-moment beam radius: w = sqrt(2·<r²>) for a Gaussian |U|² ∝ exp(-2r²/w²).
    fn beam_radius(u: &Field, grid: &Grid) -> f64 {
        let mut total = 0.0;
        let mut m2 = 0.0;
        for r in 0..grid.rows() {
            for c in 0..grid.cols() {
                let i = u[(r, c)].norm_sqr();
                let x = grid.x_coord(c);
                let y = grid.y_coord(r);
                total += i;
                m2 += i * (x * x + y * y);
            }
        }
        (2.0 * m2 / total).sqrt()
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            cov += (x - ma) * (y - mb);
            va += (x - ma).powi(2);
            vb += (y - mb).powi(2);
        }
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn validity_ratios_move_with_distance() {
        let grid = test_grid(64);
        let near = FreeSpace::new(
            grid,
            Wavelength::from_nm(GREEN),
            Distance::from_mm(1.0),
            Approximation::Fresnel,
        );
        let far = FreeSpace::new(
            grid,
            Wavelength::from_nm(GREEN),
            Distance::from_meters(10.0),
            Approximation::Fresnel,
        );
        assert!(far.fresnel_validity_ratio() > near.fresnel_validity_ratio());
        assert!(far.fraunhofer_validity_ratio() > near.fraunhofer_validity_ratio());
        assert!(far.fresnel_number() < near.fresnel_number());
    }

    #[test]
    fn fraunhofer_output_pitch_rescales() {
        let grid = test_grid(64);
        let w = Wavelength::from_nm(GREEN);
        let z = Distance::from_meters(1.0);
        let prop = FreeSpace::new(grid, w, z, Approximation::Fraunhofer);
        let expect = w.meters() * z.meters() / (64.0 * 10e-6);
        assert!((prop.output_pitch().meters() - expect).abs() < 1e-12);
        // Convolutional propagators keep the pitch.
        let rs = FreeSpace::new(grid, w, z, Approximation::RayleighSommerfeld);
        assert_eq!(rs.output_pitch(), grid.pitch());
    }

    #[test]
    fn fraunhofer_point_source_gives_flat_magnitude() {
        // The far field of a point source has uniform magnitude.
        let grid = test_grid(32);
        let prop = FreeSpace::new(
            grid,
            Wavelength::from_nm(GREEN),
            Distance::from_meters(1.0),
            Approximation::Fraunhofer,
        );
        let mut u = Field::zeros(32, 32);
        u[(16, 16)] = Complex64::ONE;
        prop.propagate(&mut u);
        let mags = u.amplitude();
        let first = mags[0];
        for m in mags {
            assert!((m - first).abs() < 1e-9 * first.max(1e-30));
        }
    }

    /// Regression test for the build-window race in `cached_transfer`: a
    /// builder that loses the race used to evict-and-replace the winner's
    /// entry (its pre-insert hit check happened before dropping the first
    /// lock), handing out two distinct `Arc`s for one key. Every racer
    /// must now come back with the *same* shared kernel. The key uses a
    /// pitch no other test touches, and the racers keep their `Arc`s
    /// alive, so concurrent cache traffic from sibling tests can neither
    /// evict the entry nor alias the key.
    #[test]
    fn racing_builders_share_one_cached_kernel() {
        let grid = Grid::square(24, PixelPitch::from_um(17.3));
        let w = Wavelength::from_nm(633.0);
        let d = Distance::from_mm(41.0);
        let barrier = std::sync::Barrier::new(8);
        let kernels: Vec<Arc<Field>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let barrier = &barrier;
                    let grid = &grid;
                    scope.spawn(move || {
                        barrier.wait();
                        rayleigh_sommerfeld_tf_cached(grid, w, d, true)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in &kernels[1..] {
            assert!(
                Arc::ptr_eq(&kernels[0], k),
                "racing builders must converge on one shared kernel"
            );
        }
        // And a later caller still gets the same pinned entry.
        let again = rayleigh_sommerfeld_tf_cached(&grid, w, d, true);
        assert!(Arc::ptr_eq(&kernels[0], &again));
    }

    /// The registry-tied sweep drops orphaned kernels but never pinned
    /// ones (asserted per key: global length would race sibling tests).
    #[test]
    fn sweep_drops_orphaned_kernels_and_spares_pinned() {
        let grid = Grid::square(16, PixelPitch::from_um(23.7));
        let w = Wavelength::from_nm(532.0);
        let pinned = fresnel_tf_cached(&grid, w, Distance::from_mm(77.0));
        sweep_transfer_cache();
        assert!(
            Arc::ptr_eq(
                &pinned,
                &fresnel_tf_cached(&grid, w, Distance::from_mm(77.0))
            ),
            "a pinned kernel must survive the sweep"
        );
        let orphan = fresnel_tf_cached(&grid, w, Distance::from_mm(78.0));
        drop(orphan);
        sweep_transfer_cache();
        // The orphan was evicted: rebuilding yields a fresh allocation
        // whose only owners are the cache and this binding.
        let rebuilt = fresnel_tf_cached(&grid, w, Distance::from_mm(78.0));
        assert_eq!(Arc::strong_count(&rebuilt), 2);
    }

    #[test]
    fn band_limit_zeroes_high_frequencies_at_long_distance() {
        let grid = test_grid(64);
        let h = rayleigh_sommerfeld_tf(
            &grid,
            Wavelength::from_nm(GREEN),
            Distance::from_meters(5.0),
            true,
        );
        // The corner of the frequency grid should be zeroed at 5 m.
        assert_eq!(h[(32, 32)], Complex64::ZERO);
        // DC must survive.
        assert!(h[(0, 0)].norm() > 0.99);
    }
}
