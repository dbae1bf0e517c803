//! Fast Fourier transforms for the optics kernels.
//!
//! The diffraction kernels in LightRidge are built on 2-D FFT convolution
//! (paper Eq. 6–7). This module implements the transforms from scratch:
//!
//! * **Radix-4/radix-8 Cooley-Tukey** (iterative, precomputed twiddles and
//!   bit-reversal permutation) for power-of-two sizes. Stages are fused in
//!   pairs into radix-4 butterflies — half the passes over the data of a
//!   plain radix-2 loop — with a single radix-8 stage first when the stage
//!   count is odd (only `n = 2` keeps a lone radix-2 stage).
//! * **Stockham mixed-radix** for 2·3·5·7-smooth sizes, which covers the
//!   paper's system resolutions (200², 350², 500²): one pass per factor
//!   with radix-2, radix-4 and a conjugate-pair odd-radix butterfly for 3,
//!   5 and 7, skipping every twiddle that is exactly 1.
//! * **Rader's algorithm** for prime lengths `p` whose `p − 1` is
//!   2·3·5·7-smooth: the length-`p` DFT becomes a length-`p−1` cyclic
//!   convolution run through the radix-2 or Stockham pipeline — one
//!   inner transform pair at size `p−1` instead of Bluestein's two at
//!   `m ≥ 2p−1`. This retires the Bluestein fallback for most primes
//!   (e.g. 197, 211); only primes like 23 or 199 whose `p − 1` has a
//!   factor above 7 still take the chirp-z path.
//! * **Bluestein's chirp-z algorithm** for every remaining size.
//! * A global, thread-safe **plan cache** so repeated propagations at the
//!   same resolution reuse twiddle tables and chirp spectra. Plan reuse is
//!   one of the runtime optimizations that separates LightRidge from the
//!   LightPipes baseline (paper Table 1, Fig. 8).
//! * A **zero-allocation 2-D pipeline**: [`Fft2`] transforms rows a group
//!   at a time and columns through a cache-blocked strided kernel that
//!   stages a few columns at a time in a reusable buffer — no transpose
//!   fields are ever materialized (earlier revisions allocated two full
//!   fields per 2-D transform). Large fields additionally split their
//!   row/column loops across the persistent worker pool (`crate::parallel`).
//! * **Batched entry points**: [`Fft2::fft2_batch_with`] /
//!   [`Fft2::ifft2_batch_with`] (and the direction-generic
//!   [`Fft2::process_batch_with`]) transform every plane of a
//!   [`FieldBatch`] with **one plan lookup** and one shared
//!   [`BatchWorkspace`], streaming the same precomputed twiddles across
//!   all `B` planes. A per-sample transform ([`Fft2::process_with`]) is
//!   the one-plane batch: both run through the same plane driver and the
//!   same kernels, so batched and per-sample transforms are
//!   **bit-identical** — the invariant the whole batched propagation stack
//!   (lr-optics `propagate_batch_into`, lr-core `infer_batch_into`, the
//!   lr-serve dispatcher) is built on.
//!
//! # Workspace-reuse contract
//!
//! All per-call scratch lives in an [`Fft2Workspace`] (2-D), a
//! [`BatchWorkspace`] (batched 2-D — one per-plane workspace shared by all
//! planes, sized independently of the batch count), or a plain
//! `Vec<Complex64>` (1-D, from [`FftPlan::make_scratch`]):
//!
//! * **Ownership** — the *caller* owns workspaces and passes them by
//!   `&mut`. [`Fft2::process_with`] performs **zero heap allocations** once
//!   the workspace has warmed up for its shape. The convenience entry
//!   points ([`Fft2::forward`], [`Fft2::inverse`], …) borrow a
//!   thread-local workspace keyed by shape, so they are also
//!   allocation-free in steady state without any API change.
//! * **Thread safety** — plans are immutable after construction and shared
//!   via `Arc`; the global plan cache is a mutex-guarded map touched once
//!   per new length. Workspaces are *not* `Sync`; each thread uses its
//!   own (the thread-local pool guarantees this for implicit calls).
//! * **Parallel mode** — when a field is large (≥ `PAR_MIN_LEN` samples),
//!   the current thread is not already inside a parallel region, and more
//!   than one worker is configured, row/column loops run on the persistent
//!   pool: each task takes whole `L`-row groups or whole column blocks, so
//!   the pool and the SIMD lanes compose, and each worker thread draws
//!   staging from its own thread-local pool (the caller's workspace is not
//!   shared across threads).
//!
//! Normalization convention: forward transforms are unnormalized, inverse
//! transforms carry the `1/N` factor. For the 2-D transforms the inverse
//! therefore scales by `1/(rows·cols)`.
//!
//! # Plan selection
//!
//! [`FftPlan::new`] picks, in order: the radix-4/8/2 power-of-two kernel;
//! the Stockham mixed-radix pipeline for 2·3·5·7-smooth lengths; Rader's
//! algorithm for primes `p` with smooth `p − 1`; Bluestein's chirp-z for
//! everything else. Power-of-two plans with an odd stage count open with
//! one **radix-8** stage (split-radix-style: three fused radix-2 levels,
//! two non-trivial twiddles) instead of the old radix-2 stage, so the
//! remaining passes are pure radix-4. Every fast path keeps its
//! pre-optimization oracle: `process_reference` runs plain radix-2 /
//! reference-Bluestein kernels and the fast paths agree with it to
//! ≤ 1e-12 relative (`radix4_agrees_with_reference_butterflies`). The
//! Bluestein oracle of a Stockham or Rader plan is built on the first
//! `process_reference` call, so resident plans carry only their fast path.
//!
//! # One kernel family: scalar is the 1-lane case
//!
//! Every plan kind has exactly one kernel body, generic over a
//! complex-lane type (`ComplexLanes`) that holds one complex sample per
//! lane in a split re/im, lane-major packed layout: element `i` occupies
//! `2L` f64s, `[re₀‥re_{L−1}, im₀‥im_{L−1}]`. [`Complex64`] is the 1-lane
//! case — its `#[repr(C)] (re, im)` layout already *is* the 1-lane packed
//! layout, so a 1-lane row runs in place on the caller's samples.
//! `VComplex<F64x2>` and `VComplex<F64x4>` carry 2 and 4 lanes: one
//! twiddle load drives `L` signals through the identical butterfly, and
//! every complex multiply is plain lanewise arithmetic — no shuffles.
//!
//! The lanes span **one plane**: the row pass packs `L` consecutive rows
//! at a time into lane staging (a register transpose of `L × L` tiles),
//! and the column pass stages each `COL_BLOCK`-column block as groups of
//! `L` adjacent columns. Rows or columns left over run at 2 lanes, then at
//! 1 lane. A batch is a loop over its planes through that one kernel, so a
//! per-sample call (B = 1, as in serving) runs the same vector kernels as
//! every plane of a batch. The lane width comes from
//! [`crate::simd::dispatch`] (SSE2 baseline / AVX2 by runtime detection on
//! x86-64, NEON on aarch64, 1 lane elsewhere; `LR_SIMD=scalar|x2|x4`
//! overrides), and the kernel profile attributes plane time to the
//! `simd_scalar` / `simd_sse2` / `simd_avx2` / `simd_neon` cell of the
//! dispatch level.
//!
//! **Equivalence contract**: every lane executes the exact operation
//! sequence of the 1-lane kernel — `ComplexLanes` mirrors [`Complex64`]'s
//! formulas operation for operation, and a plane always runs forward rows,
//! forward columns, the transfer multiply, inverse rows, inverse columns
//! in that order — so results are **bitwise identical** at every dispatch
//! level, and forced-scalar (`LR_SIMD=scalar`) simply runs every row and
//! column as a 1-lane group.
//! `batch_fft::forced_simd_levels_bitwise_match_scalar_oracle` pins this
//! lane independence (L = 2 and L = 4 equal L = 1, pooled too). The
//! serve-path bit-identity guarantee therefore holds unconditionally for
//! the FFT and transfer-apply kernels. The one tolerance-renegotiated
//! kernel is the detector readout ([`crate::simd::sum_norm_sqr`]): its
//! lane-partial reduction re-associates the intensity sum, and its scalar
//! arm stays the sequential oracle within a documented **≤ 1e-12
//! relative** tolerance. It is deliberately not a 1-lane instance of the
//! vector reduction, which would sum `re²` and `im²` as separate terms and
//! so would not be bitwise equal to `Σ (re² + im²)`. (Batched and
//! per-sample detector readouts share one kernel, so batched-vs-per-sample
//! stays exact; only SIMD-vs-scalar is tolerance-checked.)
//!
//! [`Fft2Workspace`] holds the axis-plan scratch and the lane staging —
//! one row group or one column block, never a whole plane — sized by
//! [`Fft2::make_workspace`] for the dispatch width.

use crate::batch::FieldBatch;
use crate::complex::Complex64;
use crate::field::Field;
use crate::parallel;
use crate::pinned_cache::PinnedCache;
use crate::simd::{self, SimdF64, SimdLevel};
use lr_obs::{KernelKind, KernelTimer};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `X_k = Σ x_j · e^{-2πi jk/N}` (unnormalized).
    Forward,
    /// `x_j = (1/N) Σ X_k · e^{+2πi jk/N}`.
    Inverse,
}

/// A reusable 1-D FFT plan for a fixed length.
///
/// Plans are cheap to share (`Arc`) and safe to use from multiple threads;
/// per-call scratch is passed in by the caller.
///
/// # Examples
///
/// ```
/// use lr_tensor::{Complex64, FftPlan, Direction};
/// let plan = FftPlan::new(6);
/// let mut data: Vec<Complex64> = (0..6).map(|i| Complex64::new(i as f64, 0.0)).collect();
/// let orig = data.clone();
/// let mut scratch = plan.make_scratch();
/// plan.process(&mut data, Direction::Forward, &mut scratch);
/// plan.process(&mut data, Direction::Inverse, &mut scratch);
/// for (a, b) in data.iter().zip(&orig) {
///     assert!((*a - *b).norm() < 1e-10);
/// }
/// ```
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
    /// The chirp-z oracle of a Stockham or Rader plan, built on the first
    /// [`FftPlan::process_reference`] call so that resident plans do not
    /// pay for oracle tables.
    reference: OnceLock<BluesteinPlan>,
}

#[derive(Debug)]
enum PlanKind {
    Radix2(Radix2Plan),
    /// Smooth (2·3·5·7-factorable) lengths — the paper's 200/350/500
    /// resolutions — run a Stockham autosort mixed-radix pipeline, several
    /// times cheaper than the Bluestein fallback.
    Mixed(MixedRadixPlan),
    /// Prime lengths `p` with 2·3·5·7-smooth `p − 1` run Rader's
    /// prime-length algorithm (a length-`p−1` cyclic convolution).
    Rader(RaderPlan),
    Bluestein(BluesteinPlan),
}

#[derive(Debug)]
struct Radix2Plan {
    /// Bit-reversal permutation indices.
    bitrev: Vec<u32>,
    /// `tw[k] = e^{-2πi k/n}` for `k < n/2` (reference kernel).
    twiddles: Vec<Complex64>,
    /// Opening stage when the radix-4 pass count alone cannot cover `n`.
    leading: Leading,
    /// Per-pass twiddle triples `(wa, wb0, wb1)` for the fused radix-4
    /// stages, laid out sequentially in traversal order so the hot loop
    /// streams them instead of gathering `tw[k·stride]`.
    fused: Vec<FusedStage>,
}

/// Opening butterfly stage of the power-of-two kernel. An even stage count
/// needs none; an odd count opens with one split-radix-style **radix-8**
/// butterfly (three fused radix-2 levels, twiddles `1, w₈, −j, w₈³` — two
/// complex multiplies per octet) except for `n = 2`, which keeps the plain
/// radix-2 pair.
#[derive(Debug)]
enum Leading {
    None,
    Radix2,
    Radix8 {
        /// `e^{−2πi/8}`.
        w1: Complex64,
        /// `e^{−2πi·3/8}`.
        w3: Complex64,
    },
}

/// One fused pair of stages (sizes `2h` and `4h`) of the radix-4 kernel.
#[derive(Debug)]
struct FusedStage {
    /// Half the first fused stage: quartets span `4·half` elements.
    half: usize,
    /// `[wa_k, wb0_k, wb1_k]` for `k in 1..half` (the `k = 0` lane has the
    /// trivial twiddles `1, 1, −j` and is special-cased).
    tw: Vec<Complex64>,
}

#[derive(Debug)]
struct BluesteinPlan {
    /// Inner power-of-two convolution length `m ≥ 2n-1`.
    m: usize,
    inner: Radix2Plan,
    /// Forward chirp `c_j = e^{-iπ j²/n}` for `j < n`.
    chirp: Vec<Complex64>,
    /// `c_k / m` — the output chirp with the inner-inverse normalization
    /// folded in (one multiply per sample instead of two).
    post_chirp: Vec<Complex64>,
    /// Forward FFT (length `m`) of the wrapped conjugate chirp.
    chirp_spectrum: Vec<Complex64>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be nonzero");
        let kind = if n.is_power_of_two() {
            PlanKind::Radix2(Radix2Plan::new(n))
        } else if let Some(factors) = MixedRadixPlan::factorize(n) {
            PlanKind::Mixed(MixedRadixPlan::new(n, &factors))
        } else if let Some(rader) = RaderPlan::try_new(n) {
            PlanKind::Rader(rader)
        } else {
            PlanKind::Bluestein(BluesteinPlan::new(n))
        };
        FftPlan {
            n,
            kind,
            reference: OnceLock::new(),
        }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the plan length is zero. Construction enforces `n > 0`, so
    /// this is honest but always `false` for plans built through
    /// [`FftPlan::new`].
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True if this plan's fast path uses Bluestein's algorithm (lengths
    /// with a prime factor above 7; the paper's smooth resolutions use the
    /// mixed-radix pipeline instead).
    pub fn is_bluestein(&self) -> bool {
        matches!(self.kind, PlanKind::Bluestein(_))
    }

    /// True if this plan uses the Stockham mixed-radix pipeline
    /// (non-power-of-two, 2·3·5·7-smooth length).
    pub fn is_mixed_radix(&self) -> bool {
        matches!(self.kind, PlanKind::Mixed(_))
    }

    /// True if this plan uses Rader's prime-length algorithm (prime `n`
    /// with 2·3·5·7-smooth `n − 1`).
    pub fn is_rader(&self) -> bool {
        matches!(self.kind, PlanKind::Rader(_))
    }

    /// Scratch length (in samples) this plan's fast path needs: `0` for
    /// power-of-two plans, `n` for the Stockham ping-pong buffer, the
    /// length-`n−1` convolution buffer (plus its ping-pong buffer for a
    /// Stockham inner plan) for Rader, and `m ≥ 2n−1` for Bluestein.
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            PlanKind::Radix2(_) => 0,
            PlanKind::Mixed(_) => self.n,
            PlanKind::Rader(r) => r.scratch_len(),
            PlanKind::Bluestein(b) => b.m,
        }
    }

    /// Allocates a scratch buffer sized for this plan. Reuse it across calls
    /// to avoid per-transform allocation.
    pub fn make_scratch(&self) -> Vec<Complex64> {
        vec![Complex64::ZERO; self.scratch_len()]
    }

    /// Transforms `data` in place (the 1-lane instance of the plan's
    /// kernel). `scratch` grows to [`FftPlan::scratch_len`] if shorter.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex64], dir: Direction, scratch: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        if scratch.len() < self.scratch_len() {
            scratch.resize(self.scratch_len(), Complex64::ZERO);
        }
        self.process_lanes::<Complex64>(as_f64s_mut(data), dir, as_f64s_mut(scratch));
    }

    /// Transforms `data` in place with the pre-optimization kernels: plain
    /// radix-2 butterflies, no stage fusion, and reference Bluestein for
    /// every other length. Kept as the oracle the fast paths are checked
    /// against; a Stockham or Rader plan builds its Bluestein oracle on the
    /// first call.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn process_reference(
        &self,
        data: &mut [Complex64],
        dir: Direction,
        scratch: &mut Vec<Complex64>,
    ) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        match dir {
            Direction::Forward => self.forward_reference(data, scratch),
            Direction::Inverse => {
                // x = conj(F(conj(X))) / n
                for z in data.iter_mut() {
                    *z = z.conj();
                }
                self.forward_reference(data, scratch);
                let inv_n = 1.0 / self.n as f64;
                for z in data.iter_mut() {
                    *z = z.conj() * inv_n;
                }
            }
        }
    }

    fn forward_reference(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        match &self.kind {
            PlanKind::Radix2(p) => p.forward_reference(data),
            PlanKind::Bluestein(p) => p.forward_reference(data, scratch),
            PlanKind::Mixed(_) | PlanKind::Rader(_) => self
                .reference
                .get_or_init(|| BluesteinPlan::new(self.n))
                .forward_reference(data, scratch),
        }
    }

    /// The plan's kernel over `C::LANES` independent length-`n` signals in
    /// the packed layout (see [`ComplexLanes`]). `scratch` must hold
    /// `scratch_len()·2L` f64s.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn process_lanes<C: ComplexLanes>(
        &self,
        data: &mut [f64],
        dir: Direction,
        scratch: &mut [f64],
    ) {
        debug_assert_eq!(data.len(), self.n * 2 * C::LANES);
        let inverse = dir == Direction::Inverse;
        let inv_n = 1.0 / self.n as f64;
        match &self.kind {
            PlanKind::Radix2(p) if inverse => {
                // Conjugated-twiddle kernel: bit-identical to the
                // conj(F(conj(·)))/n sandwich, two passes cheaper.
                C::radix2::<true>(p, data);
                map_packed::<C>(data, |z| z.scale(inv_n));
                return;
            }
            // x = conj(F(conj(X))) / n
            _ if inverse => map_packed::<C>(data, C::conj),
            _ => {}
        }
        match &self.kind {
            PlanKind::Radix2(p) => C::radix2::<false>(p, data),
            PlanKind::Mixed(p) => p.forward::<C>(data, scratch),
            PlanKind::Rader(p) => C::rader(p, data, scratch),
            PlanKind::Bluestein(p) => C::bluestein(p, data, scratch),
        }
        if inverse {
            map_packed::<C>(data, |z| z.conj().scale(inv_n));
        }
    }
}

/// Views samples as the interleaved `re, im, re, im, …` f64 sequence —
/// exactly the 1-lane packed layout the kernels run on.
fn as_f64s_mut(samples: &mut [Complex64]) -> &mut [f64] {
    // SAFETY: `Complex64` is `#[repr(C)] { re: f64, im: f64 }` — size 16,
    // align 8, no padding — so `len` samples are exactly `2·len`
    // initialized, suitably aligned f64s, borrowed mutably for the same
    // lifetime as `samples`.
    unsafe { std::slice::from_raw_parts_mut(samples.as_mut_ptr().cast::<f64>(), 2 * samples.len()) }
}

/// A complex sample per lane, in the packed layout every FFT kernel runs
/// on: element `i` of a buffer occupies `2·LANES` f64s at offset `i·2L` —
/// `LANES` real parts, then `LANES` imaginary parts.
///
/// [`Complex64`] is the 1-lane implementation (its `(re, im)` layout is the
/// 1-lane packing); [`VComplex`] carries 2 or 4 lanes. Every operation
/// follows [`Complex64`]'s formulas operation for operation, which is what
/// makes each lane of a wide group bitwise equal to the 1-lane kernel.
trait ComplexLanes: Copy {
    /// Number of complex samples (planes) per element.
    const LANES: usize;

    /// Broadcasts one complex value (a twiddle) to all lanes.
    fn splat(z: Complex64) -> Self;

    /// Loads one packed element. Kernels address elements by offsetting a
    /// `*const Self` cast from the f64 buffer — never by multiplying
    /// indices by `2L` — which tells the optimizer the offsets cannot
    /// wrap, as when indexing a slice; the Stockham and butterfly loops
    /// need that to compile as tightly as plain `Complex64` code.
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading `2·LANES` f64s and 8-byte aligned (it
    /// need not be aligned for `Self`).
    unsafe fn load(p: *const Self) -> Self;

    /// Stores one packed element.
    ///
    /// # Safety
    ///
    /// `p` must be valid for writing `2·LANES` f64s and 8-byte aligned.
    unsafe fn store(self, p: *mut Self);

    /// Loads `LANES` consecutive samples of an interleaved `re, im, …`
    /// run at `p` as one element, one sample per lane in the order
    /// [`SimdF64::load_complex`] picks.
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading `2·LANES` f64s and 8-byte aligned.
    unsafe fn load_run(p: *const f64) -> Self;

    /// Inverse of [`ComplexLanes::load_run`].
    ///
    /// # Safety
    ///
    /// `p` must be valid for writing `2·LANES` f64s and 8-byte aligned.
    unsafe fn store_run(self, p: *mut f64);

    /// Packs `LANES` consecutive rows of interleaved samples into packed
    /// elements, lane `l` carrying row `l` (see [`SimdF64::pack_rows`]).
    fn pack_rows(rows: &[f64], packed: &mut [f64]);

    /// Inverse of [`ComplexLanes::pack_rows`].
    fn unpack_rows(packed: &[f64], rows: &mut [f64]);

    fn add(self, o: Self) -> Self;

    fn sub(self, o: Self) -> Self;

    /// Complex multiply: `re = a.re·b.re − a.im·b.im`,
    /// `im = a.re·b.im + a.im·b.re`.
    fn mul(self, o: Self) -> Self;

    fn conj(self) -> Self;

    /// Multiplies both components by a real factor.
    fn scale(self, s: f64) -> Self;

    /// `∓j` rotation: forward `(im, −re)`, inverse `(−im, re)`.
    fn rot<const INV: bool>(self) -> Self;

    // Kernel entry points, each forwarding to one kernel body. The vector
    // instances are `inline(always)`, so every kernel flattens into the
    // `#[target_feature]` group entry point and the intrinsics inline. The
    // 1-lane instances carry no inlining hint: per-sample pipelines compile
    // each kernel like an ordinary function instead of flattening every
    // kernel into every caller.

    /// [`Radix2Plan::butterflies`].
    fn radix2<const INV: bool>(plan: &Radix2Plan, data: &mut [f64]);

    /// [`MixedRadixPlan::step`].
    fn stockham_step(stage: &MixedStage, src: &[f64], dst: &mut [f64]);

    /// [`RaderPlan::forward`].
    fn rader(plan: &RaderPlan, data: &mut [f64], scratch: &mut [f64]);

    /// [`BluesteinPlan::forward`].
    fn bluestein(plan: &BluesteinPlan, data: &mut [f64], scratch: &mut [f64]);
}

/// The [`ComplexLanes`] kernel entry points, with the given inlining.
macro_rules! kernel_entries {
    ($(#[$inline:meta])?) => {
        $(#[$inline])?
        fn radix2<const INV: bool>(plan: &Radix2Plan, data: &mut [f64]) {
            plan.butterflies::<Self, INV>(data)
        }

        $(#[$inline])?
        fn stockham_step(stage: &MixedStage, src: &[f64], dst: &mut [f64]) {
            MixedRadixPlan::step::<Self>(stage, src, dst)
        }

        $(#[$inline])?
        fn rader(plan: &RaderPlan, data: &mut [f64], scratch: &mut [f64]) {
            plan.forward::<Self>(data, scratch)
        }

        $(#[$inline])?
        fn bluestein(plan: &BluesteinPlan, data: &mut [f64], scratch: &mut [f64]) {
            plan.forward::<Self>(data, scratch)
        }
    };
}

impl ComplexLanes for Complex64 {
    const LANES: usize = 1;

    #[inline(always)]
    fn splat(z: Complex64) -> Self {
        z
    }

    #[inline(always)]
    unsafe fn load(p: *const Self) -> Self {
        // SAFETY: the caller provides two readable, 8-byte aligned f64s at
        // `p` — one `Complex64`, whose alignment is 8.
        unsafe { p.read() }
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut Self) {
        // SAFETY: the caller provides two writable, 8-byte aligned f64s.
        unsafe { p.write(self) }
    }

    #[inline(always)]
    unsafe fn load_run(p: *const f64) -> Self {
        // SAFETY: one sample is the 1-lane element (caller contract).
        unsafe { Self::load(p.cast()) }
    }

    #[inline(always)]
    unsafe fn store_run(self, p: *mut f64) {
        // SAFETY: as `load_run`.
        unsafe { self.store(p.cast()) }
    }

    #[inline(always)]
    fn pack_rows(rows: &[f64], packed: &mut [f64]) {
        packed.copy_from_slice(rows)
    }

    #[inline(always)]
    fn unpack_rows(packed: &[f64], rows: &mut [f64]) {
        rows.copy_from_slice(packed)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }

    #[inline(always)]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        Complex64::scale(self, s)
    }

    #[inline(always)]
    fn rot<const INV: bool>(self) -> Self {
        if INV {
            Complex64::new(-self.im, self.re)
        } else {
            Complex64::new(self.im, -self.re)
        }
    }
    kernel_entries!();
}

/// A complex number per vector lane, in split re/im form.
#[derive(Clone, Copy)]
struct VComplex<V> {
    re: V,
    im: V,
}

impl<V: SimdF64> ComplexLanes for VComplex<V> {
    // Element offsets step by `size_of::<Self>()`, which must be the packed
    // element's `2·LANES` f64s.
    const LANES: usize = {
        assert!(std::mem::size_of::<Self>() == 2 * V::LANES * std::mem::size_of::<f64>());
        V::LANES
    };

    #[inline(always)]
    fn splat(z: Complex64) -> Self {
        VComplex {
            re: V::splat(z.re),
            im: V::splat(z.im),
        }
    }

    #[inline(always)]
    unsafe fn load(p: *const Self) -> Self {
        let p = p.cast::<f64>();
        // SAFETY: caller provides 2·LANES readable f64s at `p`; the lane
        // loads are unaligned.
        unsafe {
            VComplex {
                re: V::load(p),
                im: V::load(p.add(V::LANES)),
            }
        }
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut Self) {
        let p = p.cast::<f64>();
        // SAFETY: caller provides 2·LANES writable f64s at `p`.
        unsafe {
            self.re.store(p);
            self.im.store(p.add(V::LANES));
        }
    }

    #[inline(always)]
    unsafe fn load_run(p: *const f64) -> Self {
        // SAFETY: caller provides 2·LANES readable f64s at `p`.
        let (re, im) = unsafe { V::load_complex(p) };
        VComplex { re, im }
    }

    #[inline(always)]
    unsafe fn store_run(self, p: *mut f64) {
        // SAFETY: caller provides 2·LANES writable f64s at `p`.
        unsafe { V::store_complex(self.re, self.im, p) }
    }

    #[inline(always)]
    fn pack_rows(rows: &[f64], packed: &mut [f64]) {
        V::pack_rows(rows, packed)
    }

    #[inline(always)]
    fn unpack_rows(packed: &[f64], rows: &mut [f64]) {
        V::unpack_rows(packed, rows)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        VComplex {
            re: self.re.add(o.re),
            im: self.im.add(o.im),
        }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        VComplex {
            re: self.re.sub(o.re),
            im: self.im.sub(o.im),
        }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        VComplex {
            re: self.re.mul(o.re).sub(self.im.mul(o.im)),
            im: self.re.mul(o.im).add(self.im.mul(o.re)),
        }
    }

    #[inline(always)]
    fn conj(self) -> Self {
        VComplex {
            re: self.re,
            im: self.im.neg(),
        }
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        let s = V::splat(s);
        VComplex {
            re: self.re.mul(s),
            im: self.im.mul(s),
        }
    }

    #[inline(always)]
    fn rot<const INV: bool>(self) -> Self {
        if INV {
            VComplex {
                re: self.im.neg(),
                im: self.re,
            }
        } else {
            VComplex {
                re: self.im,
                im: self.re.neg(),
            }
        }
    }
    kernel_entries!(#[inline(always)]);
}

/// Applies `f` to every element of a packed buffer in place.
#[cfg_attr(not(debug_assertions), inline(always))]
fn map_packed<C: ComplexLanes>(data: &mut [f64], f: impl Fn(C) -> C) {
    let stride = 2 * C::LANES;
    let ptr = data.as_mut_ptr().cast::<C>();
    for i in 0..data.len() / stride {
        // SAFETY: element i spans [i·2L, (i+1)·2L) ≤ data.len().
        unsafe {
            let p = ptr.add(i);
            f(C::load(p)).store(p);
        }
    }
}

/// Lanewise `*z *= h[i]` (or `h[i].conj()`) over a packed buffer, one
/// broadcast complex coefficient per element — the transfer-function and
/// Rader/Bluestein spectrum multiplies.
#[cfg_attr(not(debug_assertions), inline(always))]
fn mul_coeffs_packed<C: ComplexLanes>(data: &mut [f64], coeffs: &[Complex64], conj: bool) {
    let stride = 2 * C::LANES;
    assert!(data.len() >= coeffs.len() * stride);
    let ptr = data.as_mut_ptr().cast::<C>();
    for (i, &h) in coeffs.iter().enumerate() {
        let h = C::splat(if conj { h.conj() } else { h });
        // SAFETY: i < coeffs.len() ≤ data.len()/2L packed elements.
        unsafe {
            let p = ptr.add(i);
            C::load(p).mul(h).store(p);
        }
    }
}

impl Radix2Plan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let twiddles: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        // Precompute the fused-stage twiddle stream: after the optional
        // leading radix-8 (or radix-2 for n = 2) stage, each radix-4 pass
        // fuses stages of size `2h` and `4h`; its lane-k twiddles are
        // wa = e^{-2πik/2h}, wb0 = e^{-2πik/4h}, wb1 = e^{-2πi(k+h)/4h}.
        let (leading, first_len) = if bits.is_multiple_of(2) {
            (Leading::None, 2)
        } else if bits == 1 {
            (Leading::Radix2, 4)
        } else {
            (
                Leading::Radix8 {
                    w1: twiddles[n / 8],
                    w3: twiddles[3 * n / 8],
                },
                16,
            )
        };
        let mut fused = Vec::new();
        let mut len = first_len;
        while len * 2 <= n {
            let h = len / 2;
            let stride1 = n / len;
            let stride2 = n / (len * 2);
            let mut tw = Vec::with_capacity(3 * (h - 1));
            for k in 1..h {
                tw.push(twiddles[k * stride1]);
                tw.push(twiddles[k * stride2]);
                tw.push(twiddles[(k + h) * stride2]);
            }
            fused.push(FusedStage { half: h, tw });
            len *= 4;
        }
        Radix2Plan {
            bitrev,
            twiddles,
            leading,
            fused,
        }
    }
    /// Radix-4 butterfly network (with the optional radix-8 or radix-2
    /// opening stage) over `C::LANES` packed signals, bit-reversal
    /// permutation included. The twiddle stream is precomputed per stage
    /// in traversal order; the `k = 0` lane (twiddles `1, 1, ∓j`) is
    /// special-cased to pure adds/swaps. `INV` conjugates every twiddle:
    /// the unnormalized inverse, which lets the inverse transforms run
    /// without the two extra conjugation passes of `conj(F(conj(·)))`.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn butterflies<C: ComplexLanes, const INV: bool>(&self, data: &mut [f64]) {
        #[inline(always)]
        fn mul_tw<C: ComplexLanes, const INV: bool>(a: C, w: Complex64) -> C {
            a.mul(C::splat(if INV { w.conj() } else { w }))
        }
        let stride = 2 * C::LANES;
        let n = data.len() / stride;
        if n <= 1 {
            return;
        }
        let ptr = data.as_mut_ptr().cast::<C>();
        for (i, &r) in self.bitrev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                // SAFETY: i, r < n and i ≠ r — disjoint in-bounds packed
                // elements swap as whole lane groups.
                unsafe {
                    let a = C::load(ptr.add(i));
                    let b = C::load(ptr.add(r));
                    a.store(ptr.add(r));
                    b.store(ptr.add(i));
                }
            }
        }
        match &self.leading {
            Leading::None => {}
            Leading::Radix2 => {
                // n = 2: a single radix-2 pair (twiddle 1).
                let mut base = 0;
                while base < n {
                    // SAFETY: base + 1 < n (n is even here).
                    unsafe {
                        let pa = ptr.add(base);
                        let pb = ptr.add(base + 1);
                        let a = C::load(pa);
                        let b = C::load(pb);
                        a.add(b).store(pa);
                        a.sub(b).store(pb);
                    }
                    base += 2;
                }
            }
            Leading::Radix8 { w1, w3 } => {
                // Odd stage count, n ≥ 8: one radix-8 butterfly — the exact
                // composition of the three opening radix-2 levels (lengths
                // 2, 4, 8) with twiddles 1, ∓j, w₈^{±1}, w₈^{±3} — brings
                // the remaining count even for the radix-4 passes.
                let (w1, w3) = if INV {
                    (w1.conj(), w3.conj())
                } else {
                    (*w1, *w3)
                };
                let w1 = C::splat(w1);
                let w3 = C::splat(w3);
                let mut base = 0;
                while base < n {
                    // SAFETY: base + 7 < n (n is a multiple of 8 here); the
                    // octet's packed elements are disjoint and in bounds.
                    unsafe {
                        let p = |k: usize| ptr.add(base + k);
                        let a0 = C::load(p(0));
                        let a1 = C::load(p(1));
                        let a2 = C::load(p(2));
                        let a3 = C::load(p(3));
                        let a4 = C::load(p(4));
                        let a5 = C::load(p(5));
                        let a6 = C::load(p(6));
                        let a7 = C::load(p(7));
                        // Level 1 (pairs).
                        let b0 = a0.add(a1);
                        let b1 = a0.sub(a1);
                        let b2 = a2.add(a3);
                        let b3 = a2.sub(a3);
                        let b4 = a4.add(a5);
                        let b5 = a4.sub(a5);
                        let b6 = a6.add(a7);
                        let b7 = a6.sub(a7);
                        // Level 2 (quartets, twiddles 1 and ∓j).
                        let t3 = b3.rot::<INV>();
                        let t7 = b7.rot::<INV>();
                        let c0 = b0.add(b2);
                        let c2 = b0.sub(b2);
                        let c1 = b1.add(t3);
                        let c3 = b1.sub(t3);
                        let c4 = b4.add(b6);
                        let c6 = b4.sub(b6);
                        let c5 = b5.add(t7);
                        let c7 = b5.sub(t7);
                        // Level 3 (octet, twiddles 1, w₈, ∓j, w₈³).
                        let e5 = c5.mul(w1);
                        let t6 = c6.rot::<INV>();
                        let e7 = c7.mul(w3);
                        c0.add(c4).store(p(0));
                        c0.sub(c4).store(p(4));
                        c1.add(e5).store(p(1));
                        c1.sub(e5).store(p(5));
                        c2.add(t6).store(p(2));
                        c2.sub(t6).store(p(6));
                        c3.add(e7).store(p(3));
                        c3.sub(e7).store(p(7));
                    }
                    base += 8;
                }
            }
        }
        for stage in &self.fused {
            let h = stage.half;
            let block = 4 * h;
            let tw = stage.tw.as_ptr();
            let mut base = 0;
            while base < n {
                // SAFETY: every packed element index below is
                // < base + 4h ≤ n, and the twiddle stream holds 3·(h−1)
                // entries read at ti < 3(h−1).
                unsafe {
                    // k = 0: wa = wb0 = 1, wb1 = ∓j — no multiplies.
                    let p0 = ptr.add(base);
                    let p1 = ptr.add(base + h);
                    let p2 = ptr.add(base + 2 * h);
                    let p3 = ptr.add(base + 3 * h);
                    let a0 = C::load(p0);
                    let a1 = C::load(p1);
                    let a2 = C::load(p2);
                    let a3 = C::load(p3);
                    let u0 = a0.add(a1);
                    let u1 = a0.sub(a1);
                    let u2 = a2.add(a3);
                    let u3 = a2.sub(a3);
                    let v1 = u3.rot::<INV>();
                    u0.add(u2).store(p0);
                    u0.sub(u2).store(p2);
                    u1.add(v1).store(p1);
                    u1.sub(v1).store(p3);
                    let mut ti = 0;
                    for k in 1..h {
                        let wa = *tw.add(ti);
                        let wb0 = *tw.add(ti + 1);
                        let wb1 = *tw.add(ti + 2);
                        ti += 3;
                        let p0 = ptr.add(base + k);
                        let p1 = ptr.add(base + k + h);
                        let p2 = ptr.add(base + k + 2 * h);
                        let p3 = ptr.add(base + k + 3 * h);
                        let a0 = C::load(p0);
                        let a1 = mul_tw::<C, INV>(C::load(p1), wa);
                        let a2 = C::load(p2);
                        let a3 = mul_tw::<C, INV>(C::load(p3), wa);
                        let u0 = a0.add(a1);
                        let u1 = a0.sub(a1);
                        let u2 = a2.add(a3);
                        let u3 = a2.sub(a3);
                        let v0 = mul_tw::<C, INV>(u2, wb0);
                        let v1 = mul_tw::<C, INV>(u3, wb1);
                        u0.add(v0).store(p0);
                        u0.sub(v0).store(p2);
                        u1.add(v1).store(p1);
                        u1.sub(v1).store(p3);
                    }
                }
                base += block;
            }
        }
    }

    /// The pre-optimization butterfly loop: one radix-2 pass per stage.
    fn forward_reference(&self, data: &mut [Complex64]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        for (i, &r) in self.bitrev.iter().enumerate() {
            if i < r as usize {
                data.swap(i, r as usize);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for base in (0..n).step_by(len) {
                for k in 0..half {
                    let w = self.twiddles[k * stride];
                    let a = data[base + k];
                    let b = data[base + k + half] * w;
                    data[base + k] = a + b;
                    data[base + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

impl BluesteinPlan {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2Plan::new(m);
        // c_j = e^{-iπ j²/n}. j² is reduced mod 2n in integer arithmetic so
        // the phase argument stays small and fully precise for large n.
        let two_n = 2 * n as u64;
        let chirp: Vec<Complex64> = (0..n as u64)
            .map(|j| Complex64::cis(-PI * ((j * j) % two_n) as f64 / n as f64))
            .collect();
        // Wrapped conjugate chirp B: B[0..n) = conj(c), B[m-j] = conj(c_j).
        let mut b = vec![Complex64::ZERO; m];
        for j in 0..n {
            b[j] = chirp[j].conj();
            if j > 0 {
                b[m - j] = chirp[j].conj();
            }
        }
        inner.butterflies::<Complex64, false>(as_f64s_mut(&mut b));
        let inv_m = 1.0 / m as f64;
        let post_chirp = chirp.iter().map(|&c| c * inv_m).collect();
        BluesteinPlan {
            m,
            inner,
            chirp,
            post_chirp,
            chirp_spectrum: b,
        }
    }

    /// Chirp-z transform of `C::LANES` packed signals; `scratch` must hold
    /// at least `m·2L` f64s.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn forward<C: ComplexLanes>(&self, data: &mut [f64], scratch: &mut [f64]) {
        let stride = 2 * C::LANES;
        let n = data.len() / stride;
        let m = self.m;
        let buf = &mut scratch[..m * stride];
        // a_j = x_j · c_j, zero padded to m (only the tail needs clearing —
        // the head is overwritten).
        {
            let dp = data.as_ptr().cast::<C>();
            let bp = buf.as_mut_ptr().cast::<C>();
            for (j, &c) in self.chirp.iter().enumerate() {
                // SAFETY: j < n ≤ m packed elements on both sides.
                unsafe {
                    C::load(dp.add(j)).mul(C::splat(c)).store(bp.add(j));
                }
            }
        }
        buf[n * stride..].fill(0.0);
        // Pointwise multiply with the chirp spectrum (the circular
        // convolution theorem), then the unnormalized inner inverse.
        C::radix2::<false>(&self.inner, buf);
        mul_coeffs_packed::<C>(buf, &self.chirp_spectrum, false);
        C::radix2::<true>(&self.inner, buf);
        // X_k = c_k/m · conv_k.
        let bp = buf.as_ptr().cast::<C>();
        let dp = data.as_mut_ptr().cast::<C>();
        for (k, &c) in self.post_chirp.iter().enumerate() {
            // SAFETY: k < n ≤ m packed elements on both sides.
            unsafe {
                C::load(bp.add(k)).mul(C::splat(c)).store(dp.add(k));
            }
        }
    }

    /// The pre-optimization Bluestein pipeline: full-buffer re-zeroing,
    /// radix-2 inner transforms, and the conj-sandwich inner inverse.
    fn forward_reference(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        let n = data.len();
        let m = self.m;
        scratch.clear();
        scratch.resize(m, Complex64::ZERO);
        for j in 0..n {
            scratch[j] = data[j] * self.chirp[j];
        }
        self.inner.forward_reference(scratch);
        for (s, &h) in scratch.iter_mut().zip(&self.chirp_spectrum) {
            *s *= h;
        }
        for z in scratch.iter_mut() {
            *z = z.conj();
        }
        self.inner.forward_reference(scratch);
        let inv_m = 1.0 / m as f64;
        for k in 0..n {
            data[k] = scratch[k].conj() * inv_m * self.chirp[k];
        }
    }
}

/// Rader's prime-length FFT: for prime `p`, the nonzero outputs
/// `X[g^{−t}]` are `x₀` plus the length-`q = p−1` cyclic convolution of
/// the generator-permuted input `a[m] = x[g^m]` with `b[r] = W^{g^{−r}}`
/// (`W = e^{−2πi/p}`, `g` a primitive root mod `p`). The convolution runs
/// through the radix-2 kernel when `q` is a power of two, else the
/// Stockham pipeline — applicable exactly when `q` is 2·3·5·7-smooth.
/// `DFT(b)/q` is precomputed; the runtime cost is one forward + one
/// unnormalized inverse at length `q`, versus Bluestein's pair at
/// `m ≥ 2p−1`.
#[derive(Debug)]
struct RaderPlan {
    p: usize,
    /// `perm_in[m] = g^m mod p` — gather order for `a`.
    perm_in: Vec<u32>,
    /// `perm_out[t] = g^{−t} mod p` — scatter target for `x₀ + conv[t]`.
    perm_out: Vec<u32>,
    /// Forward inner transform of `b[r] = W^{g^{−r}} / q` (the `1/q`
    /// normalization of the unnormalized inner inverse folded in).
    b_spec: Vec<Complex64>,
    inner: RaderInner,
}

#[derive(Debug)]
enum RaderInner {
    Radix2(Radix2Plan),
    Mixed(MixedRadixPlan),
}

impl RaderPlan {
    /// Builds a plan for prime `p` with 2·3·5·7-smooth `p − 1`; `None` if
    /// `p` does not qualify (then Bluestein stays the fallback).
    fn try_new(p: usize) -> Option<Self> {
        if p < 3 || p > u32::MAX as usize || !is_prime(p) {
            return None;
        }
        let q = p - 1;
        let inner = if q.is_power_of_two() {
            RaderInner::Radix2(Radix2Plan::new(q))
        } else {
            RaderInner::Mixed(MixedRadixPlan::new(q, &MixedRadixPlan::factorize(q)?))
        };
        let g = primitive_root(p as u64);
        let g_inv = mod_pow(g, (p - 2) as u64, p as u64);
        let mut perm_in = Vec::with_capacity(q);
        let mut perm_out = Vec::with_capacity(q);
        let (mut f, mut fi) = (1u64, 1u64);
        for _ in 0..q {
            perm_in.push(f as u32);
            perm_out.push(fi as u32);
            f = f * g % p as u64;
            fi = fi * g_inv % p as u64;
        }
        let inv_q = 1.0 / q as f64;
        let mut b: Vec<Complex64> = perm_out
            .iter()
            .map(|&e| Complex64::cis(-2.0 * PI * e as f64 / p as f64) * inv_q)
            .collect();
        let mut scratch = vec![Complex64::ZERO; q];
        match &inner {
            RaderInner::Radix2(plan) => plan.butterflies::<Complex64, false>(as_f64s_mut(&mut b)),
            RaderInner::Mixed(plan) => {
                plan.forward::<Complex64>(as_f64s_mut(&mut b), as_f64s_mut(&mut scratch))
            }
        }
        Some(RaderPlan {
            p,
            perm_in,
            perm_out,
            b_spec: b,
            inner,
        })
    }

    /// Scratch samples needed: the length-`q` convolution buffer, plus the
    /// Stockham ping-pong buffer when the inner plan is mixed-radix.
    fn scratch_len(&self) -> usize {
        let q = self.p - 1;
        match self.inner {
            RaderInner::Radix2(_) => q,
            RaderInner::Mixed(_) => 2 * q,
        }
    }

    /// Rader transform of `C::LANES` packed signals; `scratch` must hold
    /// at least `scratch_len()·2L` f64s.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn forward<C: ComplexLanes>(&self, data: &mut [f64], scratch: &mut [f64]) {
        let stride = 2 * C::LANES;
        let q = self.p - 1;
        let (a, rest) = scratch.split_at_mut(q * stride);
        let x0;
        let mut x0_sum;
        {
            let dp = data.as_ptr().cast::<C>();
            let ap = a.as_mut_ptr().cast::<C>();
            // SAFETY: element 0 of a p-element packed buffer.
            x0 = unsafe { C::load(dp) };
            x0_sum = x0;
            for (mi, &idx) in self.perm_in.iter().enumerate() {
                // SAFETY: 1 ≤ idx < p elements of data; mi < q elements
                // of the convolution buffer.
                unsafe {
                    let v = C::load(dp.add(idx as usize));
                    v.store(ap.add(mi));
                    x0_sum = x0_sum.add(v);
                }
            }
        }
        match &self.inner {
            RaderInner::Radix2(plan) => {
                C::radix2::<false>(plan, a);
                mul_coeffs_packed::<C>(a, &self.b_spec, false);
                C::radix2::<true>(plan, a);
            }
            RaderInner::Mixed(plan) => {
                plan.forward::<C>(a, rest);
                mul_coeffs_packed::<C>(a, &self.b_spec, false);
                // Unnormalized inverse via the conj sandwich (the 1/q is
                // folded into b_spec).
                map_packed::<C>(a, C::conj);
                plan.forward::<C>(a, rest);
                map_packed::<C>(a, C::conj);
            }
        }
        // X[0] = Σ x; X[g^{−t}] = x₀ + conv[t].
        let ap = a.as_ptr().cast::<C>();
        let dp = data.as_mut_ptr().cast::<C>();
        // SAFETY: element 0 of the packed output.
        unsafe { x0_sum.store(dp) };
        for (t, &idx) in self.perm_out.iter().enumerate() {
            // SAFETY: t < q convolution elements; 1 ≤ idx < p outputs.
            unsafe {
                let conv = C::load(ap.add(t));
                x0.add(conv).store(dp.add(idx as usize));
            }
        }
    }
}

/// Deterministic trial-division primality (plan construction only).
fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// `b^e mod m` by square-and-multiply (`m < 2³²`, so products fit u64).
fn mod_pow(mut b: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    b %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    acc
}

/// Smallest primitive root mod prime `p`: the first `g` with
/// `g^{(p−1)/f} ≠ 1` for every prime factor `f` of `p − 1`.
fn primitive_root(p: u64) -> u64 {
    let q = p - 1;
    let mut factors = Vec::new();
    let mut rem = q;
    let mut d = 2;
    while d * d <= rem {
        if rem.is_multiple_of(d) {
            factors.push(d);
            while rem.is_multiple_of(d) {
                rem /= d;
            }
        }
        d += 1;
    }
    if rem > 1 {
        factors.push(rem);
    }
    (2..p)
        .find(|&g| factors.iter().all(|&f| mod_pow(g, q / f, p) != 1))
        .expect("every prime has a primitive root")
}
/// Stockham autosort mixed-radix FFT (decimation in frequency) for
/// 2·3·5·7-smooth lengths — which covers every resolution the paper
/// evaluates (200 = 2³·5², 350 = 2·5²·7, 500 = 2²·5³). Compared to the
/// Bluestein fallback this avoids the two length-`m ≥ 2n` inner transforms
/// and all chirp passes: one streaming pass per factor, ping-ponging
/// between the data and one scratch buffer, no permutation pass. Radix 2
/// and 4 run dedicated butterflies; radix 3, 5 and 7 run the
/// conjugate-pair kernel [`odd`].
#[derive(Debug)]
struct MixedRadixPlan {
    n: usize,
    stages: Vec<MixedStage>,
}

/// One radix-`r` Stockham pass. Entering sub-transform length is
/// `n' = radix·m`; `s` is the product of previously processed radices.
#[derive(Debug)]
struct MixedStage {
    radix: usize,
    m: usize,
    s: usize,
    /// `tw[(p−1)·(r−1) + u−1] = e^{−2πi·p·u/n'}` for `p ∈ 1..m` and
    /// `u ∈ 1..r` — the post-butterfly twiddles that are not exactly 1.
    /// Output `u = 0` and column `p = 0` twiddle by 1, so they are neither
    /// stored nor multiplied, and the last stage (`m = 1`) has no table.
    tw: Vec<Complex64>,
    /// Odd radices: `cos[u−1][t−1] = cos(2π·t·u/r)` and `sin[u−1][t−1] =
    /// sin(2π·t·u/r)` for `t, u ∈ 1..=r/2` — the real constants of [`odd`]
    /// (zero for radix 2 and 4, which do not read them).
    cos: [[f64; 3]; 3],
    sin: [[f64; 3]; 3],
}

impl MixedRadixPlan {
    /// Returns the stage radix sequence if `n` is 2·3·5·7-smooth (and not
    /// a power of two, which the dedicated radix-2 plan handles), else
    /// `None`. Radix-4/2 stages run first (short strides), the pricier
    /// odd radices last where the inner stride-`s` loops are long.
    fn factorize(n: usize) -> Option<Vec<usize>> {
        let mut rem = n;
        let mut count = [0usize; 4]; // twos, threes, fives, sevens
        for (i, p) in [2usize, 3, 5, 7].into_iter().enumerate() {
            while rem.is_multiple_of(p) {
                rem /= p;
                count[i] += 1;
            }
        }
        if rem != 1 {
            return None;
        }
        let mut factors = Vec::new();
        factors.extend(std::iter::repeat_n(4, count[0] / 2));
        if count[0] % 2 == 1 {
            factors.push(2);
        }
        factors.extend(std::iter::repeat_n(3, count[1]));
        factors.extend(std::iter::repeat_n(5, count[2]));
        factors.extend(std::iter::repeat_n(7, count[3]));
        Some(factors)
    }

    fn new(n: usize, factors: &[usize]) -> Self {
        let mut stages = Vec::with_capacity(factors.len());
        let mut np = n; // sub-transform length entering the stage
        let mut s = 1;
        for &r in factors {
            let m = np / r;
            let mut tw = Vec::with_capacity((m - 1) * (r - 1));
            for p in 1..m {
                for u in 1..r {
                    tw.push(Complex64::cis(-2.0 * PI * (p * u) as f64 / np as f64));
                }
            }
            let (mut cos, mut sin) = ([[0.0; 3]; 3], [[0.0; 3]; 3]);
            if r % 2 == 1 {
                for u in 1..=r / 2 {
                    for t in 1..=r / 2 {
                        let theta = 2.0 * PI * ((t * u) % r) as f64 / r as f64;
                        cos[u - 1][t - 1] = theta.cos();
                        sin[u - 1][t - 1] = theta.sin();
                    }
                }
            }
            stages.push(MixedStage {
                radix: r,
                m,
                s,
                tw,
                cos,
                sin,
            });
            np = m;
            s *= r;
        }
        debug_assert_eq!(np, 1, "factorization must cover n");
        MixedRadixPlan { n, stages }
    }
    /// Stockham transform of `C::LANES` packed signals, ping-ponging
    /// between `data` and `scratch` (at least `n·2L` f64s).
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn forward<C: ComplexLanes>(&self, data: &mut [f64], scratch: &mut [f64]) {
        let scratch = &mut scratch[..self.n * 2 * C::LANES];
        let mut in_data = true;
        for stage in &self.stages {
            if in_data {
                C::stockham_step(stage, data, scratch);
            } else {
                C::stockham_step(stage, scratch, data);
            }
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(scratch);
        }
    }

    /// One Stockham DIF pass: for every column `p < m` and offset `q < s`,
    /// gather `r` points strided `s·m` apart, run the radix-`r` butterfly,
    /// twiddle outputs `u ≥ 1` of columns `p ≥ 1` by `w^{p·u}`, and scatter
    /// with stride `s`. Radix 2 and 4 have their own butterflies; radix 3,
    /// 5 and 7 run [`odd`]. `factorize` emits no other radix.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn step<C: ComplexLanes>(stage: &MixedStage, src: &[f64], dst: &mut [f64]) {
        let len = stage.radix * stage.m * stage.s * 2 * C::LANES;
        assert!(src.len() >= len && dst.len() >= len);
        let sp = src.as_ptr().cast::<C>();
        let dp = dst.as_mut_ptr().cast::<C>();
        // SAFETY: both buffers hold r·m·s packed elements (asserted above)
        // and are distinct borrows.
        unsafe {
            match stage.radix {
                2 => stage.pass::<C, 2>(sp, dp),
                4 => stage.pass::<C, 4>(sp, dp),
                3 => stage.pass::<C, 3>(sp, dp),
                5 => stage.pass::<C, 5>(sp, dp),
                7 => stage.pass::<C, 7>(sp, dp),
                r => unreachable!("factorize emits no radix-{r} stage"),
            }
        }
    }
}

impl MixedStage {
    /// Runs this stage as radix `R` (see [`MixedRadixPlan::step`]).
    ///
    /// # Safety
    ///
    /// `sp` must be readable and `dp` writable for `R·m·s` packed elements
    /// each, and the two ranges must not overlap.
    #[cfg_attr(not(debug_assertions), inline(always))]
    unsafe fn pass<C: ComplexLanes, const R: usize>(&self, sp: *const C, dp: *mut C) {
        debug_assert_eq!(self.radix, R);
        // SAFETY: every column p < m (caller contract).
        unsafe {
            self.column::<C, R, false>(0, sp, dp, &[]);
            for (p, w) in (1..self.m).zip(self.tw.chunks_exact(R - 1)) {
                self.column::<C, R, true>(p, sp, dp, w);
            }
        }
    }

    /// Column `p` of a pass: for every `q < s`, the butterfly of
    /// `a_t = src[q + s·(p + m·t)]`, output `u` (times `w[u−1]` for
    /// `u ≥ 1` when `TW`) stored to `dst[q + s·(R·p + u)]`.
    ///
    /// # Safety
    ///
    /// As [`MixedStage::pass`], and `p < m`.
    #[cfg_attr(not(debug_assertions), inline(always))]
    unsafe fn column<C: ComplexLanes, const R: usize, const TW: bool>(
        &self,
        p: usize,
        sp: *const C,
        dp: *mut C,
        w: &[Complex64],
    ) {
        let (m, s) = (self.m, self.s);
        let (cos, sin) = (self.cos, self.sin);
        let mut wl = [C::splat(Complex64::ONE); R];
        if TW {
            for u in 1..R {
                wl[u] = C::splat(w[u - 1]);
            }
        }
        let mut a = [C::splat(Complex64::ZERO); R];
        for q in 0..s {
            // SAFETY: for q < s, p < m and t, u < R, q + s·(p + m·t) and
            // q + s·(R·p + u) are below s·m·R, the element count of both
            // buffers (caller contract).
            unsafe {
                for (t, at) in a.iter_mut().enumerate() {
                    *at = C::load(sp.add(q + s * (p + m * t)));
                }
                let mut x = a;
                match R {
                    2 => dft2(&a, &mut x),
                    4 => dft4(&a, &mut x),
                    _ => odd::<C, R>(&a, &mut x, &cos, &sin),
                }
                for u in 0..R {
                    let xu = if TW && u > 0 { x[u].mul(wl[u]) } else { x[u] };
                    xu.store(dp.add(q + s * (R * p + u)));
                }
            }
        }
    }
}

/// The 2-point DFT of `a` into `x`.
#[cfg_attr(not(debug_assertions), inline(always))]
fn dft2<C: ComplexLanes>(a: &[C], x: &mut [C]) {
    x[0] = a[0].add(a[1]);
    x[1] = a[0].sub(a[1]);
}

/// The 4-point DFT of `a` into `x`.
#[cfg_attr(not(debug_assertions), inline(always))]
fn dft4<C: ComplexLanes>(a: &[C], x: &mut [C]) {
    let t0 = a[0].add(a[2]);
    let t1 = a[1].add(a[3]);
    let t2 = a[0].sub(a[2]);
    let t3 = a[1].sub(a[3]);
    // -j·t3 (and +j·t3 through the subtraction)
    let jt3 = t3.rot::<false>();
    x[0] = t0.add(t1);
    x[1] = t2.add(jt3);
    x[2] = t0.sub(t1);
    x[3] = t2.sub(jt3);
}

/// The conjugate-pair `R`-point DFT of `a` into `x`, for odd `R ≤ 7`.
/// With `s_t = a_t + a_{R−t}` and `d_t = a_t − a_{R−t}` for
/// `t = 1..=R/2`, it writes `X_0 = a_0 + Σ s_t` and, for `u = 1..=R/2`,
/// `X_u = re_u − j·im_u` and `X_{R−u} = re_u + j·im_u`, where
/// `re_u = a_0 + Σ cos(2πtu/R)·s_t` and `im_u = Σ sin(2πtu/R)·d_t`
/// (`cos`, `sin` as in [`MixedStage`]). That is `(R−1)²/2` real-by-complex
/// products per butterfly, where the dense DFT matrix takes `(R−1)²`
/// complex ones.
#[cfg_attr(not(debug_assertions), inline(always))]
fn odd<C: ComplexLanes, const R: usize>(
    a: &[C],
    x: &mut [C],
    cos: &[[f64; 3]; 3],
    sin: &[[f64; 3]; 3],
) {
    let h = R / 2;
    let mut sum = [a[0]; 3];
    let mut dif = [a[0]; 3];
    for t in 1..=h {
        sum[t - 1] = a[t].add(a[R - t]);
        dif[t - 1] = a[t].sub(a[R - t]);
    }
    let mut x0 = a[0];
    for st in &sum[..h] {
        x0 = x0.add(*st);
    }
    x[0] = x0;
    for u in 1..=h {
        let mut re = a[0];
        for t in 1..=h {
            re = re.add(sum[t - 1].scale(cos[u - 1][t - 1]));
        }
        let mut im = dif[0].scale(sin[u - 1][0]);
        for t in 2..=h {
            im = im.add(dif[t - 1].scale(sin[u - 1][t - 1]));
        }
        let jim = im.rot::<false>(); // −j·im_u
        x[u] = re.add(jim);
        x[R - u] = re.sub(jim);
    }
}

/// Global plan cache keyed by transform length. Eviction semantics live
/// in [`PinnedCache`]: entries pinned by a live `Fft2` (and therefore a
/// live model or propagator) are never evicted; only plans orphaned by
/// their last user dropping are reclaimable.
static PLAN_CACHE: Mutex<Option<PinnedCache<usize, FftPlan>>> = Mutex::new(None);

/// Soft capacity of the plan cache. A DSE sweep over grid sizes produces a
/// stream of single-use lengths; past the cap, inserting a new plan first
/// evicts **orphaned** entries (refcount-held by nobody but the cache),
/// stalest hit first. Entries pinned by live plans are never evicted, so
/// the cache may exceed the cap while more than `PLAN_CACHE_CAP` distinct
/// lengths are simultaneously alive — in that state the cache is not the
/// retainer.
pub const PLAN_CACHE_CAP: usize = 64;

/// Returns a cached plan for length `n`, creating it on first use.
///
/// The cache is process-global and thread-safe; this is the fast path used
/// by all LightRidge propagation kernels. The LightPipes-style baseline
/// deliberately bypasses it to model plan-per-call overhead. Capacity
/// eviction is refcount-aware (see [`PLAN_CACHE_CAP`]); retired-model
/// cleanup goes through [`sweep_orphaned_plans`].
pub fn planner(n: usize) -> Arc<FftPlan> {
    let mut guard = PLAN_CACHE.lock();
    let cache = guard.get_or_insert_with(PinnedCache::new);
    if let Some(hit) = cache.hit(&n) {
        return hit;
    }
    let plan = Arc::new(FftPlan::new(n));
    cache.insert(n, Arc::clone(&plan), PLAN_CACHE_CAP);
    plan
}

/// Drops every cached plan that nothing outside the cache references any
/// more, returning how many were evicted. The serving runtime calls this
/// after reclaiming a retired model: the model's `Fft2`s (and their plan
/// `Arc`s) are gone by then, so its prewarmed plans show up here as
/// orphans — while plans shared with still-live models stay pinned and
/// survive, preserving flat first-request latency for the survivors.
pub fn sweep_orphaned_plans() -> usize {
    PLAN_CACHE
        .lock()
        .as_mut()
        .map_or(0, PinnedCache::sweep_orphans)
}

/// Clears the global plan cache (used by the runtime ablation benches).
pub fn clear_plan_cache() {
    *PLAN_CACHE.lock() = None;
}

/// Number of plans currently cached.
pub fn plan_cache_len() -> usize {
    PLAN_CACHE.lock().as_ref().map_or(0, PinnedCache::len)
}
/// Columns staged together by the column pass: 32 columns of `f64`
/// complex samples are 512 bytes per row — a handful of cache lines — so
/// the gather/scatter runs at near-streaming bandwidth. At `L` lanes the
/// block stages as `COL_BLOCK / L` groups of `L` adjacent columns.
const COL_BLOCK: usize = 32;

/// Fields with at least this many samples split their row/column FFT loops
/// across the persistent worker pool (200² and larger at the paper's
/// resolutions).
const PAR_MIN_LEN: usize = 32_768;

/// Owned scratch for one [`Fft2`] shape.
///
/// Holds the axis plans' scratch and the lane staging buffer — never a
/// whole plane. Allocated once per shape (`Fft2::make_workspace`) and
/// reused for every subsequent transform; see the module docs for the full
/// workspace-reuse contract.
#[derive(Debug, Clone)]
pub struct Fft2Workspace {
    rows: usize,
    cols: usize,
    /// Axis-plan scratch: the larger plan's `scratch_len()` elements of
    /// `L` lanes each.
    scratch: Vec<Complex64>,
    /// Lane staging: one packed group of `L` rows, or one block of
    /// `COL_BLOCK` columns.
    staging: Vec<Complex64>,
}

impl Fft2Workspace {
    /// Shape this workspace serves.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Heap bytes held by this workspace's scratch buffers (capacity, not
    /// length). Feeds the serving runtime's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        (self.scratch.capacity() + self.staging.capacity()) * std::mem::size_of::<Complex64>()
    }
}

/// Caller-owned scratch for the batched 2-D entry points
/// ([`Fft2::fft2_batch_with`] / [`Fft2::ifft2_batch_with`] /
/// [`Fft2::process_batch_with`]).
///
/// Per-plane scratch is independent of the batch count — every plane of a
/// [`FieldBatch`] reuses the one wrapped [`Fft2Workspace`] — so a single
/// `BatchWorkspace` serves any `B` at its shape with **zero allocations**
/// in steady state, exactly like the per-sample workspace contract (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    fft: Fft2Workspace,
}

impl BatchWorkspace {
    /// Plane shape this workspace serves.
    pub fn shape(&self) -> (usize, usize) {
        self.fft.shape()
    }

    /// The wrapped per-plane 2-D workspace.
    pub fn fft_mut(&mut self) -> &mut Fft2Workspace {
        &mut self.fft
    }

    /// Heap bytes held by this workspace's scratch buffers.
    pub fn resident_bytes(&self) -> usize {
        self.fft.resident_bytes()
    }
}

/// A 2-D FFT engine for a fixed field shape, holding one plan per axis.
///
/// # Examples
///
/// ```
/// use lr_tensor::{Complex64, Field, Fft2};
/// let fft = Fft2::new(4, 6);
/// let f = Field::from_fn(4, 6, |r, c| Complex64::new((r + c) as f64, 0.0));
/// let mut g = f.clone();
/// fft.forward(&mut g);
/// fft.inverse(&mut g);
/// assert!(f.distance(&g) < 1e-10);
/// ```
///
/// Allocation-sensitive callers own their scratch explicitly:
///
/// ```
/// use lr_tensor::{Complex64, Field, Fft2, Direction};
/// let fft = Fft2::new(8, 8);
/// let mut ws = fft.make_workspace();
/// let mut f = Field::ones(8, 8);
/// fft.process_with(&mut f, Direction::Forward, &mut ws); // no allocation
/// ```
#[derive(Debug, Clone)]
pub struct Fft2 {
    rows: usize,
    cols: usize,
    row_plan: Arc<FftPlan>,
    col_plan: Arc<FftPlan>,
}

/// What the plane driver does to each plane.
#[derive(Clone, Copy)]
enum PlaneOp<'a> {
    /// One 2-D transform.
    Fft(Direction),
    /// The fused `IFFT2( FFT2(plane) ⊙ H )`, with `conj(H)` for the
    /// adjoint.
    Convolve {
        transfer: &'a [Complex64],
        adjoint: bool,
    },
}

/// Scoped kernel timer for one FFT pass, attributed to the algorithm the
/// plan actually dispatches to (Stockham mixed-radix or Bluestein chirp-z;
/// pure radix-2/4 plans are only charged to the pass itself). Free when
/// kernel profiling is disabled — `KernelTimer::start*` returns an inert
/// guard without reading the clock.
#[inline]
fn pass_timer(kind: KernelKind, plan: &FftPlan) -> KernelTimer {
    if plan.is_bluestein() {
        KernelTimer::start_attributed(kind, KernelKind::Bluestein)
    } else if plan.is_mixed_radix() {
        KernelTimer::start_attributed(kind, KernelKind::Stockham)
    } else if plan.is_rader() {
        KernelTimer::start_attributed(kind, KernelKind::Rader)
    } else {
        KernelTimer::start(kind)
    }
}

/// Profile cell attributing plane work to the ISA of the dispatch level
/// that ran it (`simd_sse2` / `simd_avx2` / `simd_neon` / `simd_portable`;
/// `simd_scalar` covers scalar dispatch).
#[inline]
fn simd_cell(level: SimdLevel) -> KernelKind {
    match level.isa_name() {
        "sse2" => KernelKind::SimdSse2,
        "avx2" => KernelKind::SimdAvx2,
        "neon" => KernelKind::SimdNeon,
        "portable" => KernelKind::SimdPortable,
        _ => KernelKind::SimdScalar,
    }
}

impl Fft2 {
    /// Builds (or fetches from the global cache) plans for a `rows × cols`
    /// field.
    pub fn new(rows: usize, cols: usize) -> Self {
        Fft2 {
            rows,
            cols,
            row_plan: planner(cols),
            col_plan: planner(rows),
        }
    }

    /// Field shape this engine transforms.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Allocates a workspace sized for this engine's shape at the runtime
    /// dispatch width, so per-sample and batched calls through it are
    /// allocation-free from the first call.
    pub fn make_workspace(&self) -> Fft2Workspace {
        let mut ws = Fft2Workspace {
            rows: self.rows,
            cols: self.cols,
            scratch: Vec::new(),
            staging: Vec::new(),
        };
        self.reserve_lanes(&mut ws, simd::dispatch().lanes());
        ws
    }

    /// Allocates a batched workspace sized for this engine's shape (valid
    /// for any batch count — per-plane scratch is batch-independent).
    pub fn make_batch_workspace(&self) -> BatchWorkspace {
        BatchWorkspace {
            fft: self.make_workspace(),
        }
    }

    /// Grows `ws` to serve `lanes`-wide groups; a no-op once sized
    /// (steady-state zero allocation).
    fn reserve_lanes(&self, ws: &mut Fft2Workspace, lanes: usize) {
        let scratch = self.scratch_len(lanes);
        if ws.scratch.len() < scratch {
            ws.scratch.resize(scratch, Complex64::ZERO);
        }
        let staging = self.staging_len(lanes);
        if ws.staging.len() < staging {
            ws.staging.resize(staging, Complex64::ZERO);
        }
    }

    /// Axis-plan scratch for `lanes`-wide groups, in samples.
    fn scratch_len(&self, lanes: usize) -> usize {
        self.row_plan.scratch_len().max(self.col_plan.scratch_len()) * lanes
    }

    /// Lane staging for `lanes`-wide groups, in samples: a packed group of
    /// rows (1-lane rows run in place) or one column block.
    fn staging_len(&self, lanes: usize) -> usize {
        let row_group = if lanes > 1 { self.cols * lanes } else { 0 };
        row_group.max(self.rows * COL_BLOCK.min(self.cols))
    }

    /// In-place forward 2-D FFT.
    ///
    /// # Panics
    ///
    /// Panics if `field` does not match the planned shape.
    pub fn forward(&self, field: &mut Field) {
        self.process(field, Direction::Forward);
    }

    /// In-place inverse 2-D FFT (scaled by `1/(rows·cols)`).
    ///
    /// # Panics
    ///
    /// Panics if `field` does not match the planned shape.
    pub fn inverse(&self, field: &mut Field) {
        self.process(field, Direction::Inverse);
    }

    /// In-place 2-D transform in the given direction, using a thread-local
    /// workspace (allocation-free once warm for this shape).
    pub fn process(&self, field: &mut Field, dir: Direction) {
        with_tls_workspace(self, |fft, ws| fft.process_with(field, dir, ws));
    }

    /// In-place 2-D transform using caller-owned scratch: the one-plane
    /// batch, so it is bit-identical to the same plane inside any batched
    /// call. Performs no heap allocation (in sequential mode; see the
    /// module docs for how large fields borrow per-thread scratch in
    /// parallel mode instead).
    ///
    /// # Panics
    ///
    /// Panics if `field` or `workspace` does not match the planned shape.
    pub fn process_with(&self, field: &mut Field, dir: Direction, workspace: &mut Fft2Workspace) {
        assert_eq!(field.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        self.process_planes_with(field.as_mut_slice(), dir, workspace);
    }

    /// [`Fft2::process_with`] over a contiguous run of row-major planes
    /// given as raw samples (one plane for a per-sample call), each
    /// bit-identical to its own [`Fft2::process_with`] call.
    ///
    /// # Panics
    ///
    /// Panics if `planes` does not hold whole planes of the planned shape
    /// or `workspace` does not match it.
    pub fn process_planes_with(
        &self,
        planes: &mut [Complex64],
        dir: Direction,
        workspace: &mut Fft2Workspace,
    ) {
        self.run_planes(planes, PlaneOp::Fft(dir), workspace);
    }

    /// Transforms every active plane of `batch` in place: one shared
    /// workspace, one set of plans, the twiddle/chirp tables streamed over
    /// all `B` planes. Bit-identical to `B` separate
    /// [`Fft2::process_with`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the batch's plane shape or `workspace` does not match the
    /// planned shape.
    pub fn process_batch_with(
        &self,
        batch: &mut FieldBatch,
        dir: Direction,
        workspace: &mut BatchWorkspace,
    ) {
        assert_eq!(
            batch.plane_shape(),
            (self.rows, self.cols),
            "Fft2 batch plane shape mismatch"
        );
        self.run_planes(batch.as_mut_slice(), PlaneOp::Fft(dir), &mut workspace.fft);
    }

    /// Batched forward 2-D FFT over every active plane (see
    /// [`Fft2::process_batch_with`]).
    pub fn fft2_batch_with(&self, batch: &mut FieldBatch, workspace: &mut BatchWorkspace) {
        self.process_batch_with(batch, Direction::Forward, workspace);
    }

    /// Batched inverse 2-D FFT (scaled by `1/(rows·cols)` per plane; see
    /// [`Fft2::process_batch_with`]).
    pub fn ifft2_batch_with(&self, batch: &mut FieldBatch, workspace: &mut BatchWorkspace) {
        self.process_batch_with(batch, Direction::Inverse, workspace);
    }

    /// The pre-optimization 2-D pipeline: transform rows, materialize the
    /// transpose, transform the former columns as rows, transpose back —
    /// two full field allocations and copies per call, plain radix-2
    /// butterflies. Kept as the numerical oracle for the strided kernel and
    /// as the baseline the perf artifacts compare against.
    ///
    /// # Panics
    ///
    /// Panics if `field` does not match the planned shape.
    pub fn process_reference(&self, field: &mut Field, dir: Direction) {
        assert_eq!(field.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        let mut scratch = self.row_plan.make_scratch();
        for r in 0..self.rows {
            self.row_plan
                .process_reference(field.row_mut(r), dir, &mut scratch);
        }
        let mut t = field.transpose();
        let mut scratch = self.col_plan.make_scratch();
        for r in 0..self.cols {
            self.col_plan
                .process_reference(t.row_mut(r), dir, &mut scratch);
        }
        *field = t.transpose();
    }

    /// Fused `IFFT2( FFT2(field) ⊙ transfer )` — a single-pass free-space
    /// propagation step. This is the operator-fusion fast path the paper's
    /// runtime evaluation credits for part of the speedup.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match.
    pub fn convolve_spectrum(&self, field: &mut Field, transfer: &Field) {
        assert_eq!(field.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        with_tls_workspace(self, |fft, ws| {
            fft.convolve_spectrum_batch_with(field.as_mut_slice(), transfer, ws)
        });
    }

    /// Adjoint of [`Fft2::convolve_spectrum`]: propagates a gradient with the
    /// conjugated transfer function. Under the `(1, 1/N)` normalization the
    /// adjoint of `F⁻¹ diag(H) F` is exactly `F⁻¹ diag(H̄) F`.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match.
    pub fn convolve_spectrum_adjoint(&self, grad: &mut Field, transfer: &Field) {
        assert_eq!(grad.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        with_tls_workspace(self, |fft, ws| {
            fft.convolve_spectrum_adjoint_batch_with(grad.as_mut_slice(), transfer, ws)
        });
    }

    /// The fused `IFFT2( FFT2(plane) ⊙ transfer )` propagation step over a
    /// contiguous run of row-major planes (one plane for a per-sample
    /// call), every plane multiplied by the cached transfer kernel.
    /// Bitwise identical per plane at every batch size and dispatch level.
    /// Zero heap allocation once `workspace` is sized (sequential mode).
    ///
    /// # Panics
    ///
    /// Panics if `transfer`, `planes` or `workspace` does not match the
    /// planned shape.
    pub fn convolve_spectrum_batch_with(
        &self,
        planes: &mut [Complex64],
        transfer: &Field,
        workspace: &mut Fft2Workspace,
    ) {
        self.convolve_planes(planes, transfer, false, workspace);
    }

    /// Gradient propagation with the conjugated transfer function: the
    /// adjoint of [`Fft2::convolve_spectrum_batch_with`].
    ///
    /// # Panics
    ///
    /// Panics if `transfer`, `planes` or `workspace` does not match the
    /// planned shape.
    pub fn convolve_spectrum_adjoint_batch_with(
        &self,
        planes: &mut [Complex64],
        transfer: &Field,
        workspace: &mut Fft2Workspace,
    ) {
        self.convolve_planes(planes, transfer, true, workspace);
    }

    fn convolve_planes(
        &self,
        planes: &mut [Complex64],
        transfer: &Field,
        adjoint: bool,
        ws: &mut Fft2Workspace,
    ) {
        assert_eq!(
            transfer.shape(),
            (self.rows, self.cols),
            "transfer shape mismatch"
        );
        let op = PlaneOp::Convolve {
            transfer: transfer.as_slice(),
            adjoint,
        };
        self.run_planes(planes, op, ws);
    }

    /// True when one plane's row/column passes split across the worker
    /// pool: the plane is large, more than one worker is configured, and
    /// the caller is not already inside a parallel region.
    fn pooled(&self) -> bool {
        self.rows * self.cols >= PAR_MIN_LEN
            && parallel::threads() > 1
            && !parallel::in_parallel_region()
    }

    /// The plane driver behind every 2-D entry point: runs `op` on each
    /// plane in turn — a per-sample call is the one-plane batch — with the
    /// SIMD lanes of the dispatch level spanning rows and column groups of
    /// the plane. Every lane executes the 1-lane operation sequence, so
    /// results are bitwise identical at every level.
    fn run_planes(&self, planes: &mut [Complex64], op: PlaneOp, ws: &mut Fft2Workspace) {
        let plane_len = self.rows * self.cols;
        assert_eq!(planes.len() % plane_len, 0, "Fft2 plane length mismatch");
        assert_eq!(
            ws.shape(),
            (self.rows, self.cols),
            "Fft2 workspace shape mismatch"
        );
        let level = simd::dispatch();
        // Steady-state no-op: workspaces are sized for the dispatch width
        // when made; this covers a level forced since.
        self.reserve_lanes(ws, level.lanes());
        let pooled = self.pooled();
        for plane in planes.chunks_exact_mut(plane_len) {
            let _t = KernelTimer::start(simd_cell(level));
            let plane = as_f64s_mut(plane);
            match op {
                PlaneOp::Fft(dir) => self.fft2(level, plane, dir, ws, pooled),
                PlaneOp::Convolve { transfer, adjoint } => {
                    self.fft2(level, plane, Direction::Forward, ws, pooled);
                    {
                        let _t = KernelTimer::start(KernelKind::Transfer);
                        mul_coeffs_packed::<Complex64>(plane, transfer, adjoint);
                    }
                    self.fft2(level, plane, Direction::Inverse, ws, pooled);
                }
            }
        }
    }

    /// The row/column pipeline over one plane: rows transform in `L`-row
    /// groups through packed staging (1-lane rows in place), columns in
    /// `COL_BLOCK`-wide blocks staged as `L`-column groups — no transpose
    /// is ever materialized. With `pooled`, whole row groups and column
    /// blocks split across the worker pool, each worker drawing staging
    /// from its own thread-local pool.
    fn fft2(
        &self,
        level: SimdLevel,
        data: &mut [f64],
        dir: Direction,
        ws: &mut Fft2Workspace,
        pooled: bool,
    ) {
        let (rows, cols, lanes) = (self.rows, self.cols, level.lanes());
        debug_assert_eq!(data.len(), rows * cols * 2);
        let base = PlanePtr(data.as_mut_ptr());
        let (staging, scratch) = (as_f64s_mut(&mut ws.staging), as_f64s_mut(&mut ws.scratch));
        // Runs `items` (rows or columns) of `pass` in spans of `chunk`.
        let run = |pass, items: usize, chunk: usize, staging: &mut [f64], scratch: &mut [f64]| {
            let span = |base: &PlanePtr, lo: usize| Span {
                base: base.0,
                pass,
                lo,
                hi: (lo + chunk).min(items),
            };
            if !pooled {
                for lo in (0..items).step_by(chunk) {
                    // SAFETY: rows or columns of the plane `data`
                    // exclusively borrows; the buffers are sized by
                    // `reserve_lanes`.
                    unsafe { self.run_span(level, span(&base, lo), staging, scratch) }
                }
                return;
            }
            parallel::par_for(items.div_ceil(chunk), |t| {
                with_thread_scratch(self.staging_len(lanes), |staging| {
                    with_thread_scratch(self.scratch_len(lanes), |scratch| {
                        let (staging, scratch) = (as_f64s_mut(staging), as_f64s_mut(scratch));
                        // SAFETY: tasks own disjoint spans of the plane,
                        // reached through raw pointer arithmetic only, and
                        // the plane outlives par_for's completion barrier.
                        unsafe { self.run_span(level, span(&base, t * chunk), staging, scratch) }
                    })
                });
            });
        };
        {
            let _t = pass_timer(KernelKind::FftRows, &self.row_plan);
            // Whole `L`-row groups per task: only the last runs leftovers.
            let tasks = parallel::threads().min(rows).max(1) * 4;
            let chunk = if pooled {
                rows.div_ceil(tasks).next_multiple_of(lanes)
            } else {
                rows
            };
            run(Pass::Rows(dir), rows, chunk, staging, scratch);
        }
        let _t = pass_timer(KernelKind::FftCols, &self.col_plan);
        run(Pass::Cols(dir), cols, COL_BLOCK, staging, scratch);
    }

    /// Runs `span` in groups of the level's lane count.
    ///
    /// # Safety
    ///
    /// `span.base` must point to a `rows × cols` plane (`rows·cols·2` f64s)
    /// whose items `lo..hi` nobody else accesses during the call; `staging`
    /// and `scratch` must hold `staging_len` and `scratch_len` samples for
    /// the level's lanes.
    unsafe fn run_span(
        &self,
        level: SimdLevel,
        span: Span,
        staging: &mut [f64],
        scratch: &mut [f64],
    ) {
        // SAFETY: the caller's contract covers every arm; dispatch/force
        // clamp X4 to X2 unless AVX2 was detected at runtime on this CPU.
        unsafe {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::X4 => self.span_avx2(span, staging, scratch),
                #[cfg(not(target_arch = "x86_64"))]
                SimdLevel::X4 => self.span::<VComplex<simd::F64x4>>(span, staging, scratch),
                SimdLevel::X2 => self.span::<VComplex<simd::F64x2>>(span, staging, scratch),
                SimdLevel::Scalar => self.span::<Complex64>(span, staging, scratch),
            }
        }
    }

    /// [`Fft2::run_span`] at four lanes, compiled with AVX2 enabled so the
    /// generic kernels flatten into AVX instructions.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, plus [`Fft2::run_span`]'s contract.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn span_avx2(&self, span: Span, staging: &mut [f64], scratch: &mut [f64]) {
        // SAFETY: the caller's contract.
        unsafe { self.span::<VComplex<simd::F64x4>>(span, staging, scratch) }
    }

    /// Runs `span` in `C::LANES`-wide groups, then its leftovers at 2
    /// lanes and at 1 lane.
    ///
    /// # Safety
    ///
    /// [`Fft2::run_span`]'s contract.
    #[cfg_attr(not(debug_assertions), inline(always))]
    unsafe fn span<C: ComplexLanes>(
        &self,
        mut span: Span,
        staging: &mut [f64],
        scratch: &mut [f64],
    ) {
        // SAFETY: the caller's contract; each call starts where its
        // predecessor stopped.
        unsafe {
            span.lo = self.groups::<C>(span, staging, scratch);
            if C::LANES > 2 {
                span.lo = self.groups::<VComplex<simd::F64x2>>(span, staging, scratch);
            }
            if C::LANES > 1 {
                self.groups::<Complex64>(span, staging, scratch);
            }
        }
    }

    /// Runs as many whole `C::LANES`-wide groups of `span` as fit and
    /// returns the first item left over.
    ///
    /// # Safety
    ///
    /// [`Fft2::run_span`]'s contract.
    #[cfg_attr(not(debug_assertions), inline(always))]
    unsafe fn groups<C: ComplexLanes>(
        &self,
        span: Span,
        staging: &mut [f64],
        scratch: &mut [f64],
    ) -> usize {
        let (rows, cols, lanes) = (self.rows, self.cols, C::LANES);
        let Span { base, pass, lo, hi } = span;
        let groups = (hi - lo) / lanes;
        match pass {
            Pass::Rows(dir) => {
                let len = cols * 2 * lanes;
                assert!(lo + groups * lanes <= rows && (lanes == 1 || staging.len() >= len));
                for g in 0..groups {
                    // SAFETY: the group's `L` consecutive rows lie inside
                    // the plane and belong to this call alone.
                    let group = unsafe {
                        std::slice::from_raw_parts_mut(base.add((lo + g * lanes) * cols * 2), len)
                    };
                    if lanes == 1 {
                        self.row_plan.process_lanes::<C>(group, dir, scratch);
                    } else {
                        let packed = &mut staging[..len];
                        C::pack_rows(group, packed);
                        self.row_plan.process_lanes::<C>(packed, dir, scratch);
                        C::unpack_rows(packed, group);
                    }
                }
            }
            Pass::Cols(dir) => {
                let stride = 2 * lanes;
                assert!(lo + groups * lanes <= cols && staging.len() >= rows * groups * stride);
                // Group g of the span stages its column `L`-tuples at
                // slots g·rows‥(g+1)·rows.
                let sample = |r: usize, g: usize| (r * cols + lo + g * lanes) * 2;
                let staged = staging.as_mut_ptr().cast::<C>();
                for r in 0..rows {
                    for g in 0..groups {
                        // SAFETY: samples (r, lo+gL‥lo+gL+L) are inside the
                        // plane and in this call's columns; staging slot
                        // g·rows + r < rows·groups.
                        unsafe {
                            C::load_run(base.add(sample(r, g))).store(staged.add(g * rows + r))
                        }
                    }
                }
                for column in staging.chunks_exact_mut(rows * stride).take(groups) {
                    self.col_plan.process_lanes::<C>(column, dir, scratch);
                }
                let staged = staging.as_ptr().cast::<C>();
                for r in 0..rows {
                    for g in 0..groups {
                        // SAFETY: the gather's bounds, directions swapped.
                        unsafe {
                            C::load(staged.add(g * rows + r)).store_run(base.add(sample(r, g)))
                        }
                    }
                }
            }
        }
        lo + groups * lanes
    }
}

/// One axis pass of the 2-D pipeline: 1-D transforms of rows or columns.
#[derive(Clone, Copy)]
enum Pass {
    Rows(Direction),
    Cols(Direction),
}

/// Rows or columns `lo..hi` of one pass over the plane at `base`.
#[derive(Clone, Copy)]
struct Span {
    base: *mut f64,
    pass: Pass,
    lo: usize,
    hi: usize,
}

/// Shared-plane pointer handed to disjoint parallel tasks.
#[derive(Clone, Copy)]
struct PlanePtr(*mut f64);
// SAFETY: tasks dereference disjoint index ranges only (see call sites).
unsafe impl Send for PlanePtr {}
// SAFETY: same disjointness argument as `Send` above — shared references
// to the wrapper never alias writes to the same indices.
unsafe impl Sync for PlanePtr {}

thread_local! {
    /// Per-thread pool of scratch buffers for the parallel FFT loops.
    static THREAD_SCRATCH: RefCell<Vec<Vec<Complex64>>> = const { RefCell::new(Vec::new()) };
    /// Per-thread [`Fft2Workspace`] cache backing the implicit entry points.
    static TLS_WORKSPACES: RefCell<Vec<Fft2Workspace>> = const { RefCell::new(Vec::new()) };
}

/// Lends a per-thread scratch buffer of length exactly `min_len` to `f`.
/// Buffers are recycled, so steady-state use allocates nothing. Contents
/// are **unspecified** (only growth is zeroed — no full re-zeroing pass);
/// every consumer fully overwrites what it reads.
fn with_thread_scratch<R>(min_len: usize, f: impl FnOnce(&mut Vec<Complex64>) -> R) -> R {
    let mut buf = THREAD_SCRATCH.with(|pool| {
        let mut pool = pool.borrow_mut();
        let found = pool.iter().position(|b| b.capacity() >= min_len);
        match found {
            Some(i) => pool.swap_remove(i),
            None => Vec::with_capacity(min_len),
        }
    });
    buf.resize(min_len, Complex64::ZERO);
    let out = f(&mut buf);
    THREAD_SCRATCH.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < 8 {
            pool.push(buf);
        }
    });
    out
}

/// Lends the thread-local workspace for `fft`'s shape to `f`, creating it
/// on first use for that shape on this thread.
fn with_tls_workspace<R>(fft: &Fft2, f: impl FnOnce(&Fft2, &mut Fft2Workspace) -> R) -> R {
    let shape = fft.shape();
    let mut ws = TLS_WORKSPACES.with(|cache| {
        let mut cache = cache.borrow_mut();
        match cache.iter().position(|w| w.shape() == shape) {
            Some(i) => cache.swap_remove(i),
            None => fft.make_workspace(),
        }
    });
    let out = f(fft, &mut ws);
    TLS_WORKSPACES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() < 8 {
            cache.push(ws);
        }
    });
    out
}

/// Naive `O(n²)` DFT used as a reference in tests.
pub fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let w = Complex64::cis(sign * 2.0 * PI * (j * k % n) as f64 / n as f64);
            acc += x * w;
        }
        *o = match dir {
            Direction::Forward => acc,
            Direction::Inverse => acc / n as f64,
        };
    }
    out
}
#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(n: usize) {
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let orig = data.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut data, Direction::Forward, &mut scratch);
        plan.process(&mut data, Direction::Inverse, &mut scratch);
        for (a, b) in data.iter().zip(&orig) {
            assert!((*a - *b).norm() < 1e-9, "roundtrip failed for n={n}");
        }
    }

    #[test]
    fn roundtrip_power_of_two() {
        for n in [1, 2, 4, 8, 32, 64, 256, 1024] {
            roundtrip(n);
        }
    }

    #[test]
    fn roundtrip_arbitrary_sizes() {
        for n in [3, 5, 6, 7, 12, 100, 200, 350, 500] {
            roundtrip(n);
        }
    }

    fn against_naive(n: usize) {
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.5).sin()))
            .collect();
        let expected = dft_naive(&input, Direction::Forward);
        let plan = FftPlan::new(n);
        let mut data = input.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut data, Direction::Forward, &mut scratch);
        for (a, b) in data.iter().zip(&expected) {
            assert!(
                (*a - *b).norm() < 1e-8 * (n as f64),
                "mismatch vs naive DFT at n={n}"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        // Powers of two cover both the even (4, 16, 64, 256) and odd
        // (2, 8, 32, 128) stage-count paths of the radix-4 kernel. The odd
        // lengths run the conjugate-pair butterfly at radix 3, 5 and 7,
        // alone (3, 5, 7), repeated (9, 25, 49, 125, 343) and mixed (21,
        // 35, 63, 105), so both twiddled and last (m = 1) stages are hit.
        for n in [
            2, 3, 4, 5, 7, 8, 9, 16, 20, 21, 25, 31, 32, 35, 49, 63, 64, 100, 105, 125, 128, 256,
            343,
        ] {
            against_naive(n);
        }
    }

    #[test]
    fn radix4_agrees_with_reference_butterflies() {
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            let plan = FftPlan::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut fast = input.clone();
            let mut slow = input;
            let mut scratch = plan.make_scratch();
            plan.process(&mut fast, Direction::Forward, &mut scratch);
            plan.process_reference(&mut slow, Direction::Forward, &mut scratch);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(
                    (*a - *b).norm() <= 1e-12 * (1.0 + b.norm()),
                    "radix-4 diverged from radix-2 at n={n}"
                );
            }
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 16;
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        let plan = FftPlan::new(n);
        let mut scratch = plan.make_scratch();
        plan.process(&mut data, Direction::Forward, &mut scratch);
        for z in &data {
            assert!((*z - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn parseval_1d() {
        let n = 200; // 2³·5²: Stockham path
        let data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.1).sin(), (i as f64 * 0.2).cos()))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let plan = FftPlan::new(n);
        let mut spec = data.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut spec, Direction::Forward, &mut scratch);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        assert!(
            (freq_energy / n as f64 - time_energy).abs() < 1e-8 * time_energy,
            "Parseval violated"
        );
    }

    #[test]
    fn plan_reports_shape_facts() {
        // 200 = 2³·5² is smooth → mixed-radix fast path; its scratch is
        // the Stockham ping-pong buffer, not the Bluestein oracle's 512.
        let plan = FftPlan::new(200);
        assert_eq!(plan.len(), 200);
        assert!(!plan.is_empty());
        assert!(plan.is_mixed_radix());
        assert!(!plan.is_bluestein());
        assert_eq!(plan.scratch_len(), 200);

        // 211 is prime with smooth 210 = 2·3·5·7 → Rader path: the
        // length-210 convolution plus its Stockham ping-pong buffer.
        let prime = FftPlan::new(211);
        assert!(prime.is_rader());
        assert!(!prime.is_bluestein());
        assert!(!prime.is_mixed_radix());
        assert_eq!(prime.scratch_len(), 420);
        // 257 is prime with 256 = 2⁸ → Rader over the radix-2 kernel.
        assert_eq!(FftPlan::new(257).scratch_len(), 256);

        // 23 is prime but 22 = 2·11 is not smooth → true Bluestein path.
        let rough = FftPlan::new(23);
        assert!(rough.is_bluestein());
        assert!(!rough.is_rader());
        assert_eq!(rough.scratch_len(), 64); // (2·23−1).next_power_of_two()

        let pow2 = FftPlan::new(64);
        assert!(!pow2.is_bluestein());
        assert!(!pow2.is_mixed_radix());
        assert!(!pow2.is_rader());
        assert_eq!(pow2.scratch_len(), 0);
    }

    #[test]
    fn mixed_radix_factorization() {
        assert_eq!(MixedRadixPlan::factorize(200), Some(vec![4, 2, 5, 5]));
        assert_eq!(MixedRadixPlan::factorize(350), Some(vec![2, 5, 5, 7]));
        assert_eq!(MixedRadixPlan::factorize(500), Some(vec![4, 5, 5, 5]));
        assert_eq!(MixedRadixPlan::factorize(630), Some(vec![2, 3, 3, 5, 7]));
        assert_eq!(MixedRadixPlan::factorize(211), None); // prime
        assert_eq!(MixedRadixPlan::factorize(2 * 11), None); // factor 11
    }

    #[test]
    fn mixed_radix_matches_bluestein_reference_on_paper_sizes() {
        for n in [200usize, 350, 500, 105, 98, 45] {
            let plan = FftPlan::new(n);
            assert!(plan.is_mixed_radix(), "expected mixed-radix for {n}");
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.23).sin(), (i as f64 * 0.71).cos()))
                .collect();
            let mut fast = input.clone();
            let mut slow = input;
            let mut scratch = plan.make_scratch();
            plan.process(&mut fast, Direction::Forward, &mut scratch);
            plan.process_reference(&mut slow, Direction::Forward, &mut scratch);
            let scale = (n as f64).sqrt();
            for (a, b) in fast.iter().zip(&slow) {
                assert!(
                    (*a - *b).norm() <= 1e-10 * scale * (1.0 + b.norm()),
                    "mixed-radix diverged from Bluestein oracle at n={n}"
                );
            }
        }
    }

    #[test]
    fn fft2_roundtrip_mixed_sizes() {
        for &(r, c) in &[(4, 4), (8, 16), (5, 7), (20, 20), (3, 8), (40, 33)] {
            let fft = Fft2::new(r, c);
            let f = Field::from_fn(r, c, |i, j| {
                Complex64::new((i * c + j) as f64, (i + j) as f64)
            });
            let mut g = f.clone();
            fft.forward(&mut g);
            fft.inverse(&mut g);
            assert!(f.distance(&g) < 1e-8, "fft2 roundtrip {r}x{c}");
        }
    }

    #[test]
    fn fft2_workspace_path_matches_implicit_path() {
        for &(r, c) in &[(8, 8), (5, 12), (33, 50)] {
            let fft = Fft2::new(r, c);
            let f = Field::from_fn(r, c, |i, j| {
                Complex64::new((i as f64 * 0.7).cos(), (j as f64 * 0.3).sin())
            });
            let mut implicit = f.clone();
            fft.forward(&mut implicit);
            let mut ws = fft.make_workspace();
            let mut explicit = f.clone();
            fft.process_with(&mut explicit, Direction::Forward, &mut ws);
            assert_eq!(implicit, explicit, "workspace path diverged at {r}x{c}");
        }
    }

    #[test]
    fn fft2_strided_matches_reference_transpose_path() {
        for &(r, c) in &[(8, 8), (20, 20), (16, 50), (50, 16), (33, 40)] {
            let fft = Fft2::new(r, c);
            let f = Field::from_fn(r, c, |i, j| {
                Complex64::new((i as f64 * 1.1).sin() + 0.2, (j as f64 * 0.9).cos())
            });
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut fast = f.clone();
                fft.process(&mut fast, dir);
                let mut slow = f.clone();
                fft.process_reference(&mut slow, dir);
                let scale = slow.max_norm().max(1.0);
                for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                    assert!(
                        (*a - *b).norm() <= 1e-12 * scale,
                        "strided kernel diverged from transpose reference at {r}x{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn fft2_separable_impulse() {
        // FFT2 of a centered impulse is a pure phase ramp; of an origin
        // impulse it is flat ones.
        let fft = Fft2::new(8, 8);
        let mut f = Field::zeros(8, 8);
        f[(0, 0)] = Complex64::ONE;
        fft.forward(&mut f);
        for z in f.as_slice() {
            assert!((*z - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn fft2_dc_component_is_sum() {
        let fft = Fft2::new(6, 10);
        let f = Field::from_fn(6, 10, |i, j| Complex64::new(i as f64, j as f64));
        let total = f.sum();
        let mut g = f.clone();
        fft.forward(&mut g);
        assert!((g[(0, 0)] - total).norm() < 1e-9);
    }

    #[test]
    fn convolve_spectrum_identity_transfer() {
        let fft = Fft2::new(8, 8);
        let f = Field::from_fn(8, 8, |i, j| Complex64::new(i as f64, j as f64));
        let h = Field::ones(8, 8);
        let mut g = f.clone();
        fft.convolve_spectrum(&mut g, &h);
        assert!(f.distance(&g) < 1e-9);
    }

    #[test]
    fn convolve_adjoint_identity() {
        // <A x, y> == <x, A^H y> for A = IFFT ∘ diag(H) ∘ FFT.
        let fft = Fft2::new(8, 8);
        let h = Field::from_fn(8, 8, |i, j| {
            Complex64::cis(0.3 * i as f64 + 0.17 * j as f64) * (1.0 + 0.1 * j as f64)
        });
        let x = Field::from_fn(8, 8, |i, j| {
            Complex64::new((i * j) as f64 * 0.1, i as f64 - j as f64)
        });
        let y = Field::from_fn(8, 8, |i, j| Complex64::new((i + 2 * j) as f64 * 0.05, 1.0));
        let mut ax = x.clone();
        fft.convolve_spectrum(&mut ax, &h);
        let mut ahy = y.clone();
        fft.convolve_spectrum_adjoint(&mut ahy, &h);
        let lhs = ax.inner(&y);
        let rhs = x.inner(&ahy);
        assert!(
            (lhs - rhs).norm() < 1e-8,
            "adjoint identity violated: {lhs:?} vs {rhs:?}"
        );
    }

    #[test]
    fn reference_oracle_is_built_on_first_use() {
        for n in [200usize, 211] {
            let plan = FftPlan::new(n);
            let mut data: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 1.0)).collect();
            let mut scratch = plan.make_scratch();
            plan.process(&mut data, Direction::Forward, &mut scratch);
            assert!(
                plan.reference.get().is_none(),
                "fast path built the oracle at {n}"
            );
            plan.process_reference(&mut data, Direction::Inverse, &mut scratch);
            assert!(plan.reference.get().is_some(), "oracle missing at {n}");
        }
    }

    /// A `make_workspace()` workspace is sized for the dispatch width, so
    /// per-sample calls run their lanes without growing it, and it holds
    /// lane staging only — never a whole plane.
    #[test]
    fn per_sample_workspace_runs_lanes_without_plane_buffer() {
        for (rows, cols) in [(20, 24), (197, 200), (200, 200)] {
            let fft = Fft2::new(rows, cols);
            let mut ws = fft.make_workspace();
            let lanes = simd::dispatch().lanes();
            assert!(ws.staging.len() >= fft.staging_len(lanes));
            assert!(ws.scratch.len() >= fft.scratch_len(lanes));
            let before = ws.resident_bytes();
            if rows * cols >= 200 * 200 {
                let plane_bytes = rows * cols * std::mem::size_of::<Complex64>();
                assert!(
                    before < plane_bytes,
                    "{rows}x{cols} workspace holds {before} B, a plane is {plane_bytes} B"
                );
            }
            let mut f = Field::from_fn(rows, cols, |r, c| Complex64::new(r as f64, c as f64));
            fft.process_with(&mut f, Direction::Forward, &mut ws);
            let transfer = Field::ones(rows, cols);
            fft.convolve_spectrum_batch_with(f.as_mut_slice(), &transfer, &mut ws);
            assert_eq!(ws.resident_bytes(), before, "{rows}x{cols} workspace grew");
        }
    }

    /// Serializes the tests that clear, flood, or assert on the global
    /// plan cache — they would invalidate each other's expectations if the
    /// harness interleaved them.
    static CACHE_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Pin/orphan semantics of the registry-tied sweep, asserted per key
    /// (never on global cache length — other tests share the process
    /// cache): a pinned plan survives `sweep_orphaned_plans` and keeps
    /// returning the same `Arc`; once its last external reference drops,
    /// the sweep evicts it and the next `planner` call rebuilds.
    #[test]
    fn sweep_evicts_orphaned_plans_but_never_pinned_ones() {
        let _serial = CACHE_TEST_LOCK.lock();
        // Unique lengths no other test uses.
        let pinned = planner(1187);
        sweep_orphaned_plans();
        assert!(
            Arc::ptr_eq(&pinned, &planner(1187)),
            "a pinned plan must survive the sweep"
        );
        drop(pinned);
        let orphan = planner(1193);
        let before_sweep = planner(1193);
        assert!(Arc::ptr_eq(&orphan, &before_sweep));
        drop(orphan);
        drop(before_sweep);
        sweep_orphaned_plans();
        // 1187 and 1193 are both orphans now; a rebuild yields new plans.
        let rebuilt = planner(1193);
        assert_eq!(rebuilt.len(), 1193);
        assert_eq!(Arc::strong_count(&rebuilt), 2, "cache + this binding");
    }

    /// Capacity eviction picks the stalest orphan and never a pinned
    /// entry, so live models keep their prewarmed plans across DSE-style
    /// insert storms.
    #[test]
    fn capacity_eviction_spares_pinned_plans() {
        let _serial = CACHE_TEST_LOCK.lock();
        let pinned = planner(2099);
        // Flood the cache far past the cap with orphaned single-use plans.
        for n in 0..(2 * PLAN_CACHE_CAP) {
            drop(planner(3 * n + 3001));
        }
        assert!(
            Arc::ptr_eq(&pinned, &planner(2099)),
            "a pinned plan must survive capacity eviction"
        );
        assert!(
            plan_cache_len() <= PLAN_CACHE_CAP + 64,
            "orphan flood must not grow the cache unboundedly (len {})",
            plan_cache_len()
        );
    }

    #[test]
    fn plan_cache_shares_plans() {
        let _serial = CACHE_TEST_LOCK.lock();
        clear_plan_cache();
        let a = planner(64);
        let b = planner(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(plan_cache_len(), 1);
        let _c = planner(128);
        assert_eq!(plan_cache_len(), 2);
        clear_plan_cache();
        assert_eq!(plan_cache_len(), 0);
    }

    #[test]
    fn linearity() {
        let n = 48; // 2⁴·3: Stockham path
        let plan = FftPlan::new(n);
        let x: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.5)).collect();
        let y: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, -(i as f64))).collect();
        let alpha = Complex64::new(0.3, -0.8);

        let mut combo: Vec<Complex64> = x.iter().zip(&y).map(|(&a, &b)| a * alpha + b).collect();
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut combo, Direction::Forward, &mut scratch);
        plan.process(&mut fx, Direction::Forward, &mut scratch);
        plan.process(&mut fy, Direction::Forward, &mut scratch);
        for k in 0..n {
            let expect = fx[k] * alpha + fy[k];
            assert!((combo[k] - expect).norm() < 1e-7, "linearity failed at {k}");
        }
    }

    #[test]
    fn fft2_parallel_path_matches_sequential() {
        // 256×256 = 65536 samples crosses PAR_MIN_LEN, engaging the pooled
        // row/column loops when threads are available.
        let _guard = parallel::thread_count_test_guard();
        let n = 256;
        let fft = Fft2::new(n, n);
        let f = Field::from_fn(n, n, |r, c| {
            Complex64::new((r as f64 * 0.01).sin(), (c as f64 * 0.02).cos())
        });
        // Force threads() > 1 so the pooled branch runs even on a
        // single-core machine (the caller then claims every task itself).
        parallel::set_threads(4);
        let mut par = f.clone();
        fft.forward(&mut par);
        parallel::set_threads(1);
        let mut seq = f.clone();
        fft.forward(&mut seq);
        parallel::set_threads(0);
        assert_eq!(
            par, seq,
            "pooled FFT loops must be bit-identical to sequential"
        );
    }

    #[test]
    fn batched_transforms_attribute_dispatch_in_kernel_profile() {
        use crate::batch::FieldBatch;
        use lr_obs::{kernel_profile, reset_kernel_profile, set_kernel_profiling, KernelKind};

        // 31 rows → Rader plan (30 = 2·3·5), 16 cols → radix-2.
        let fft = Fft2::new(31, 16);
        let mut batch = FieldBatch::zeros(4, 31, 16);
        for b in 0..4 {
            let f = Field::from_fn(31, 16, |r, c| {
                Complex64::new((r + b) as f64 * 0.1, c as f64 * 0.2)
            });
            batch.copy_plane_from(b, &f);
        }
        let mut ws = fft.make_batch_workspace();
        set_kernel_profiling(true);
        reset_kernel_profile();
        fft.fft2_batch_with(&mut batch, &mut ws);
        set_kernel_profiling(false);
        let profile = kernel_profile();
        let cell = simd_cell(simd::dispatch());
        assert!(
            profile.get(cell).calls > 0,
            "batched transform must attribute time to the dispatched tier ({cell:?})"
        );
        assert!(
            profile.get(KernelKind::Rader).calls > 0,
            "prime-size rows must attribute their passes to the Rader cell"
        );
    }
}
