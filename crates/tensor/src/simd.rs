//! Vendored portable-SIMD shim: `f64xN` lane types over `std::arch`.
//!
//! This module is the dispatch substrate for the vector kernels behind
//! [`Fft2`](crate::Fft2), whose lanes span rows and columns of a plane,
//! and the detector readout in lr-core.
//! It deliberately mirrors the shape of `std::simd` (which is still
//! nightly-only) with exactly the operations the FFT kernels need, over
//! three backends:
//!
//! | lane type | x86-64            | aarch64                | other        |
//! |-----------|-------------------|------------------------|--------------|
//! | [`F64x2`] | SSE2 (`__m128d`)  | NEON (`float64x2_t`)   | `[f64; 2]`   |
//! | [`F64x4`] | AVX2 (`__m256d`)  | 2 × NEON               | `[f64; 4]`   |
//!
//! SSE2 and NEON are baseline features of their targets, so [`F64x2`] is
//! always safe to use. [`F64x4`] on x86-64 compiles to AVX instructions and
//! is only ever *executed* behind the runtime [`dispatch`] check (callers
//! wrap the flattened kernel in a `#[target_feature(enable = "avx2")]`
//! function and cite the dispatch guard in a `// SAFETY:` comment).
//!
//! # Dispatch
//!
//! [`dispatch`] picks a [`SimdLevel`] once per process and caches it in a
//! relaxed atomic (the value is a pure function of CPU features and the
//! environment, so racing initializers write the same byte). The `LR_SIMD`
//! environment variable (`scalar` / `x2` / `x4` / `auto`) overrides
//! detection — CI's `simd-scalar` step uses `LR_SIMD=scalar` to force the
//! oracle path — and [`force`] overrides it again from tests and benches.
//! Requested levels the CPU cannot execute are clamped down (e.g. `x4` on
//! x86-64 without AVX2 becomes `x2`), so every returned level is runnable.
//!
//! # Equivalence contract
//!
//! The FFT kernels are written once, generic over the lane width: scalar
//! execution is their 1-lane instance, and every lane of a 2- or 4-lane
//! group performs the 1-lane operation sequence, so all widths agree
//! *bitwise* (see `crate::fft` module docs). The one deliberate
//! re-association lives in [`sum_norm_sqr`], whose lane-partial reduction
//! is covered by the documented ≤1e-12 relative tolerance of the detector
//! readout; its scalar arm stays the sequential oracle rather than a
//! 1-lane instance of the vector reduction, which would sum `re²` and
//! `im²` as separate terms and so not be bitwise equal to it.

use crate::complex::Complex64;
use std::sync::atomic::{AtomicU8, Ordering};

/// The operations a lane type must provide for the vector kernels.
///
/// Every method is `#[inline(always)]` in every implementation: the vector
/// kernels are generic over `V: SimdF64` and must flatten completely into
/// their (possibly `#[target_feature]`-annotated) entry point so the
/// intrinsics inline instead of becoming per-operation function calls.
pub trait SimdF64: Copy + Send + Sync + 'static {
    /// Number of `f64` lanes.
    const LANES: usize;

    /// Broadcasts one value to all lanes.
    fn splat(v: f64) -> Self;

    /// Loads `LANES` consecutive `f64`s from `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reading `LANES` `f64`s.
    unsafe fn load(ptr: *const f64) -> Self;

    /// Stores the lanes to `LANES` consecutive `f64`s at `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for writing `LANES` `f64`s.
    unsafe fn store(self, ptr: *mut f64);

    /// Lanewise addition.
    fn add(self, other: Self) -> Self;

    /// Lanewise subtraction.
    fn sub(self, other: Self) -> Self;

    /// Lanewise multiplication.
    fn mul(self, other: Self) -> Self;

    /// Lanewise negation.
    fn neg(self) -> Self;

    /// Sums the lanes in ascending lane order (lane 0 first).
    ///
    /// The fixed order makes the reduction deterministic for a given lane
    /// width, so forced-width tests are reproducible.
    fn reduce_add(self) -> f64;

    // The complex-layout moves below only copy f64s, so every backend is
    // exact. The defaults move one f64 at a time; the x86-64 backends
    // override them with register shuffles.

    /// Splits `LANES` interleaved complex samples (`re₀, im₀, re₁, im₁, …`
    /// at `ptr`) into their real and imaginary lanes. Which lane carries
    /// which sample is the backend's choice, the same for every call (the
    /// defaults keep sample order), so callers must treat lanes as
    /// independent and write back with [`SimdF64::store_complex`].
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reading `2·LANES` `f64`s.
    #[inline(always)]
    unsafe fn load_complex(ptr: *const f64) -> (Self, Self) {
        let mut split = [0.0; 8];
        for l in 0..Self::LANES {
            // SAFETY: the caller provides 2·LANES readable f64s at `ptr`.
            unsafe {
                split[l] = *ptr.add(2 * l);
                split[4 + l] = *ptr.add(2 * l + 1);
            }
        }
        // SAFETY: `split` holds LANES ≤ 4 f64s from both offsets.
        unsafe {
            (
                Self::load(split.as_ptr()),
                Self::load(split.as_ptr().add(4)),
            )
        }
    }

    /// Inverse of [`SimdF64::load_complex`].
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for writing `2·LANES` `f64`s.
    #[inline(always)]
    unsafe fn store_complex(re: Self, im: Self, ptr: *mut f64) {
        let lanes = Self::LANES;
        for (l, part) in [re, im].into_iter().enumerate() {
            let mut split = [0.0; 4];
            // SAFETY: `split` holds 4 ≥ LANES f64s; the caller provides
            // 2·LANES writable f64s at `ptr`.
            unsafe {
                part.store(split.as_mut_ptr());
                for (k, &x) in split[..lanes].iter().enumerate() {
                    *ptr.add(2 * k + l) = x;
                }
            }
        }
    }

    /// Transposes a tile of `LANES` rows × `LANES` interleaved complex
    /// samples, row `l` at `src + l·stride`, into `LANES` split elements at
    /// `dst`: element `k` is `LANES` real parts then `LANES` imaginary
    /// parts, lane `l` carrying sample `k` of row `l`.
    ///
    /// # Safety
    ///
    /// Each row must be valid for reading `2·LANES` `f64`s, and `dst` for
    /// writing `2·LANES²`.
    #[inline(always)]
    unsafe fn pack_tile(src: *const f64, stride: usize, dst: *mut f64) {
        let lanes = Self::LANES;
        for (k, l) in (0..lanes).flat_map(|k| (0..lanes).map(move |l| (k, l))) {
            // SAFETY: sample k of row l and lane l of element k (caller
            // contract).
            unsafe {
                *dst.add(2 * lanes * k + l) = *src.add(l * stride + 2 * k);
                *dst.add(2 * lanes * k + lanes + l) = *src.add(l * stride + 2 * k + 1);
            }
        }
    }

    /// Inverse of [`SimdF64::pack_tile`].
    ///
    /// # Safety
    ///
    /// `src` must be valid for reading `2·LANES²` `f64`s, and each row at
    /// `dst + l·stride` for writing `2·LANES`.
    #[inline(always)]
    unsafe fn unpack_tile(src: *const f64, dst: *mut f64, stride: usize) {
        let lanes = Self::LANES;
        for (k, l) in (0..lanes).flat_map(|k| (0..lanes).map(move |l| (k, l))) {
            // SAFETY: as `pack_tile`, directions swapped.
            unsafe {
                *dst.add(l * stride + 2 * k) = *src.add(2 * lanes * k + l);
                *dst.add(l * stride + 2 * k + 1) = *src.add(2 * lanes * k + lanes + l);
            }
        }
    }

    /// Packs `LANES` consecutive rows of `n` interleaved complex samples
    /// each (`rows.len() = 2·n·LANES`) into `n` split elements, element `i`
    /// laid out as in [`SimdF64::pack_tile`]. Whole tiles go through
    /// `pack_tile`; the last `n mod LANES` samples move one f64 at a time.
    #[inline(always)]
    fn pack_rows(rows: &[f64], packed: &mut [f64]) {
        let lanes = Self::LANES;
        let n = rows.len() / (2 * lanes);
        assert_eq!(packed.len(), rows.len());
        let (src, dst) = (rows.as_ptr(), packed.as_mut_ptr());
        let tiled = n - n % lanes;
        for i in (0..tiled).step_by(lanes) {
            // SAFETY: samples i‥i+L of every row and elements i‥i+L are in
            // bounds (i + L ≤ n).
            unsafe { Self::pack_tile(src.add(2 * i), 2 * n, dst.add(2 * lanes * i)) }
        }
        for i in tiled..n {
            for l in 0..lanes {
                // SAFETY: sample i of row l and element i are in bounds.
                unsafe {
                    *dst.add(2 * lanes * i + l) = *src.add(2 * (l * n + i));
                    *dst.add(2 * lanes * i + lanes + l) = *src.add(2 * (l * n + i) + 1);
                }
            }
        }
    }

    /// Inverse of [`SimdF64::pack_rows`].
    #[inline(always)]
    fn unpack_rows(packed: &[f64], rows: &mut [f64]) {
        let lanes = Self::LANES;
        let n = rows.len() / (2 * lanes);
        assert_eq!(packed.len(), rows.len());
        let (src, dst) = (packed.as_ptr(), rows.as_mut_ptr());
        let tiled = n - n % lanes;
        for i in (0..tiled).step_by(lanes) {
            // SAFETY: as `pack_rows`, directions swapped.
            unsafe { Self::unpack_tile(src.add(2 * lanes * i), dst.add(2 * i), 2 * n) }
        }
        for i in tiled..n {
            for l in 0..lanes {
                // SAFETY: as `pack_rows`, directions swapped.
                unsafe {
                    *dst.add(2 * (l * n + i)) = *src.add(2 * lanes * i + l);
                    *dst.add(2 * (l * n + i) + 1) = *src.add(2 * lanes * i + lanes + l);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod backend {
    use super::SimdF64;
    use std::arch::x86_64::{
        __m128d, __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
        _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
        _mm256_xor_pd, _mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_storeu_pd,
        _mm_sub_pd, _mm_unpackhi_pd, _mm_unpacklo_pd, _mm_xor_pd,
    };

    /// Two `f64` lanes over SSE2 (part of the x86-64 baseline).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2(__m128d);

    impl SimdF64 for F64x2 {
        const LANES: usize = 2;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: SSE2 is baseline on x86-64; the instruction always
            // exists.
            F64x2(unsafe { _mm_set1_pd(v) })
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 2 f64s;
            // SSE2 is baseline on x86-64 so the instruction always exists.
            F64x2(unsafe { _mm_loadu_pd(ptr) })
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 2 f64s;
            // SSE2 is baseline on x86-64.
            unsafe { _mm_storeu_pd(ptr, self.0) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_add_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_sub_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_mul_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_xor_pd(self.0, _mm_set1_pd(-0.0)) })
        }

        #[inline(always)]
        fn reduce_add(self) -> f64 {
            let mut lanes = [0.0f64; 2];
            // SAFETY: `lanes` is a writable array of exactly 2 f64s.
            unsafe { _mm_storeu_pd(lanes.as_mut_ptr(), self.0) };
            lanes[0] + lanes[1]
        }

        #[inline(always)]
        unsafe fn load_complex(ptr: *const f64) -> (Self, Self) {
            // SAFETY: the caller guarantees 4 readable f64s; SSE2 is
            // baseline on x86-64.
            unsafe {
                let (a, b) = (_mm_loadu_pd(ptr), _mm_loadu_pd(ptr.add(2)));
                (F64x2(_mm_unpacklo_pd(a, b)), F64x2(_mm_unpackhi_pd(a, b)))
            }
        }

        #[inline(always)]
        unsafe fn store_complex(re: Self, im: Self, ptr: *mut f64) {
            // SAFETY: the caller guarantees 4 writable f64s; SSE2 is
            // baseline on x86-64.
            unsafe {
                _mm_storeu_pd(ptr, _mm_unpacklo_pd(re.0, im.0));
                _mm_storeu_pd(ptr.add(2), _mm_unpackhi_pd(re.0, im.0));
            }
        }

        #[inline(always)]
        unsafe fn pack_tile(src: *const f64, stride: usize, dst: *mut f64) {
            // Element k is [a_k, b_k] split into re and im lanes.
            for k in 0..2 {
                // SAFETY: sample k of both rows and element k of the tile
                // (caller contract); SSE2 is baseline on x86-64.
                unsafe {
                    let (a, b) = (
                        _mm_loadu_pd(src.add(2 * k)),
                        _mm_loadu_pd(src.add(stride + 2 * k)),
                    );
                    _mm_storeu_pd(dst.add(4 * k), _mm_unpacklo_pd(a, b));
                    _mm_storeu_pd(dst.add(4 * k + 2), _mm_unpackhi_pd(a, b));
                }
            }
        }

        #[inline(always)]
        unsafe fn unpack_tile(src: *const f64, dst: *mut f64, stride: usize) {
            for k in 0..2 {
                // SAFETY: as `pack_tile`, directions swapped.
                unsafe {
                    let (re, im) = (
                        _mm_loadu_pd(src.add(4 * k)),
                        _mm_loadu_pd(src.add(4 * k + 2)),
                    );
                    _mm_storeu_pd(dst.add(2 * k), _mm_unpacklo_pd(re, im));
                    _mm_storeu_pd(dst.add(stride + 2 * k), _mm_unpackhi_pd(re, im));
                }
            }
        }
    }

    /// Four `f64` lanes over AVX.
    ///
    /// The arithmetic methods compile to AVX/AVX2-era instructions that
    /// fault on CPUs without the feature, so this type must only *run*
    /// inside a `#[target_feature(enable = "avx2")]` region reached
    /// through the [`super::dispatch`] guard (which never reports
    /// [`super::SimdLevel::X4`] unless `avx2` was detected at runtime).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x4(__m256d);

    impl SimdF64 for F64x4 {
        const LANES: usize = 4;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard
            // (see the type-level comment).
            F64x4(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 4 f64s,
            // and execution is behind the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_loadu_pd(ptr) })
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 4 f64s,
            // and execution is behind the runtime AVX2 dispatch guard.
            unsafe { _mm256_storeu_pd(ptr, self.0) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_add_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_sub_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_mul_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }

        #[inline(always)]
        fn reduce_add(self) -> f64 {
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` is a writable array of exactly 4 f64s, and
            // execution is behind the runtime AVX2 dispatch guard.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), self.0) };
            ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
        }

        // The moves below shuffle within 128-bit halves (`unpack`) and
        // across them (`permute2f128`: 0x20 joins the low halves of both
        // operands, 0x31 the high halves).

        #[inline(always)]
        unsafe fn load_complex(ptr: *const f64) -> (Self, Self) {
            // Lanes carry samples 0, 2, 1, 3: unpacking within the 128-bit
            // halves needs no lane-crossing shuffle.
            // SAFETY: the caller guarantees 8 readable f64s; execution is
            // behind the runtime AVX2 dispatch guard.
            unsafe {
                let (x, y) = (_mm256_loadu_pd(ptr), _mm256_loadu_pd(ptr.add(4)));
                (
                    F64x4(_mm256_unpacklo_pd(x, y)),
                    F64x4(_mm256_unpackhi_pd(x, y)),
                )
            }
        }

        #[inline(always)]
        unsafe fn store_complex(re: Self, im: Self, ptr: *mut f64) {
            // SAFETY: the caller guarantees 8 writable f64s; execution is
            // behind the runtime AVX2 dispatch guard.
            unsafe {
                _mm256_storeu_pd(ptr, _mm256_unpacklo_pd(re.0, im.0));
                _mm256_storeu_pd(ptr.add(4), _mm256_unpackhi_pd(re.0, im.0));
            }
        }

        #[inline(always)]
        unsafe fn pack_tile(src: *const f64, stride: usize, dst: *mut f64) {
            // Rows a‥d, two samples (k, k+1) per load.
            for k in [0, 2] {
                // SAFETY: samples k, k+1 of every row and elements k, k+1
                // of the tile (caller contract); execution is behind the
                // runtime AVX2 dispatch guard.
                unsafe {
                    let a = _mm256_loadu_pd(src.add(2 * k));
                    let b = _mm256_loadu_pd(src.add(stride + 2 * k));
                    let c = _mm256_loadu_pd(src.add(2 * stride + 2 * k));
                    let d = _mm256_loadu_pd(src.add(3 * stride + 2 * k));
                    // [a_k.re b_k.re a_k+1.re b_k+1.re], likewise im and c, d.
                    let (re_ab, im_ab) = (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
                    let (re_cd, im_cd) = (_mm256_unpacklo_pd(c, d), _mm256_unpackhi_pd(c, d));
                    let e = dst.add(8 * k);
                    _mm256_storeu_pd(e, _mm256_permute2f128_pd::<0x20>(re_ab, re_cd));
                    _mm256_storeu_pd(e.add(4), _mm256_permute2f128_pd::<0x20>(im_ab, im_cd));
                    _mm256_storeu_pd(e.add(8), _mm256_permute2f128_pd::<0x31>(re_ab, re_cd));
                    _mm256_storeu_pd(e.add(12), _mm256_permute2f128_pd::<0x31>(im_ab, im_cd));
                }
            }
        }

        #[inline(always)]
        unsafe fn unpack_tile(src: *const f64, dst: *mut f64, stride: usize) {
            for k in [0, 2] {
                // SAFETY: as `pack_tile`, directions swapped.
                unsafe {
                    let e = src.add(8 * k);
                    let (re0, im0) = (_mm256_loadu_pd(e), _mm256_loadu_pd(e.add(4)));
                    let (re1, im1) = (_mm256_loadu_pd(e.add(8)), _mm256_loadu_pd(e.add(12)));
                    let re_ab = _mm256_permute2f128_pd::<0x20>(re0, re1);
                    let re_cd = _mm256_permute2f128_pd::<0x31>(re0, re1);
                    let im_ab = _mm256_permute2f128_pd::<0x20>(im0, im1);
                    let im_cd = _mm256_permute2f128_pd::<0x31>(im0, im1);
                    let row = dst.add(2 * k);
                    _mm256_storeu_pd(row, _mm256_unpacklo_pd(re_ab, im_ab));
                    _mm256_storeu_pd(row.add(stride), _mm256_unpackhi_pd(re_ab, im_ab));
                    _mm256_storeu_pd(row.add(2 * stride), _mm256_unpacklo_pd(re_cd, im_cd));
                    _mm256_storeu_pd(row.add(3 * stride), _mm256_unpackhi_pd(re_cd, im_cd));
                }
            }
        }
    }

    /// True when [`F64x4`] is executable on this CPU.
    #[inline]
    pub fn x4_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    pub const X2_NAME: &str = "sse2";
    pub const X4_NAME: &str = "avx2";
}

#[cfg(target_arch = "aarch64")]
mod backend {
    use super::SimdF64;
    use std::arch::aarch64::{
        float64x2_t, vaddq_f64, vdupq_n_f64, vgetq_lane_f64, vld1q_f64, vmulq_f64, vnegq_f64,
        vst1q_f64, vsubq_f64,
    };

    /// Two `f64` lanes over NEON (part of the aarch64 baseline).
    #[derive(Clone, Copy, Debug)]
    #[allow(unused_unsafe)] // NEON intrinsics are safe on recent toolchains
    pub struct F64x2(float64x2_t);

    #[allow(unused_unsafe)]
    impl SimdF64 for F64x2 {
        const LANES: usize = 2;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vdupq_n_f64(v) })
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 2 f64s;
            // NEON is baseline on aarch64.
            F64x2(unsafe { vld1q_f64(ptr) })
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 2 f64s;
            // NEON is baseline on aarch64.
            unsafe { vst1q_f64(ptr, self.0) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vaddq_f64(self.0, other.0) })
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vsubq_f64(self.0, other.0) })
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vmulq_f64(self.0, other.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vnegq_f64(self.0) })
        }

        #[inline(always)]
        fn reduce_add(self) -> f64 {
            // SAFETY: NEON is baseline on aarch64; lane indices are in range.
            unsafe { vgetq_lane_f64::<0>(self.0) + vgetq_lane_f64::<1>(self.0) }
        }
    }

    /// Four `f64` lanes as a pair of NEON vectors (aarch64 has no native
    /// 256-bit type; the pair still halves loop overhead per element).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x4(F64x2, F64x2);

    impl SimdF64 for F64x4 {
        const LANES: usize = 4;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            F64x4(F64x2::splat(v), F64x2::splat(v))
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 4 f64s,
            // so both 2-lane halves are in bounds.
            unsafe { F64x4(F64x2::load(ptr), F64x2::load(ptr.add(2))) }
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 4 f64s.
            unsafe {
                self.0.store(ptr);
                self.1.store(ptr.add(2));
            }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            F64x4(self.0.add(other.0), self.1.add(other.1))
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            F64x4(self.0.sub(other.0), self.1.sub(other.1))
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            F64x4(self.0.mul(other.0), self.1.mul(other.1))
        }

        #[inline(always)]
        fn neg(self) -> Self {
            F64x4(self.0.neg(), self.1.neg())
        }

        #[inline(always)]
        fn reduce_add(self) -> f64 {
            let a = self.0;
            let b = self.1;
            // Ascending lane order: ((l0 + l1) + l2) + l3.
            // SAFETY: NEON is baseline on aarch64; lane indices are in range.
            #[allow(unused_unsafe)]
            unsafe {
                use std::arch::aarch64::vgetq_lane_f64;
                ((vgetq_lane_f64::<0>(a.0) + vgetq_lane_f64::<1>(a.0)) + vgetq_lane_f64::<0>(b.0))
                    + vgetq_lane_f64::<1>(b.0)
            }
        }
    }

    /// True when [`F64x4`] is executable on this CPU (always: the pair-of-
    /// NEON polyfill needs nothing beyond the aarch64 baseline).
    #[inline]
    pub fn x4_available() -> bool {
        true
    }

    pub const X2_NAME: &str = "neon";
    pub const X4_NAME: &str = "neon";
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod backend {
    use super::SimdF64;

    /// Two `f64` lanes as a plain array (portable fallback; the compiler's
    /// auto-vectorizer is free to do better).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2([f64; 2]);

    /// Four `f64` lanes as a plain array (portable fallback).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x4([f64; 4]);

    macro_rules! array_backend {
        ($name:ident, $lanes:expr) => {
            impl SimdF64 for $name {
                const LANES: usize = $lanes;

                #[inline(always)]
                fn splat(v: f64) -> Self {
                    $name([v; $lanes])
                }

                #[inline(always)]
                unsafe fn load(ptr: *const f64) -> Self {
                    // SAFETY: the caller guarantees `ptr` is readable for
                    // `LANES` f64s.
                    $name(unsafe { std::ptr::read_unaligned(ptr as *const [f64; $lanes]) })
                }

                #[inline(always)]
                unsafe fn store(self, ptr: *mut f64) {
                    // SAFETY: the caller guarantees `ptr` is writable for
                    // `LANES` f64s.
                    unsafe { std::ptr::write_unaligned(ptr as *mut [f64; $lanes], self.0) }
                }

                #[inline(always)]
                fn add(self, other: Self) -> Self {
                    let mut out = self.0;
                    for (o, b) in out.iter_mut().zip(other.0) {
                        *o += b;
                    }
                    $name(out)
                }

                #[inline(always)]
                fn sub(self, other: Self) -> Self {
                    let mut out = self.0;
                    for (o, b) in out.iter_mut().zip(other.0) {
                        *o -= b;
                    }
                    $name(out)
                }

                #[inline(always)]
                fn mul(self, other: Self) -> Self {
                    let mut out = self.0;
                    for (o, b) in out.iter_mut().zip(other.0) {
                        *o *= b;
                    }
                    $name(out)
                }

                #[inline(always)]
                fn neg(self) -> Self {
                    let mut out = self.0;
                    for o in out.iter_mut() {
                        *o = -*o;
                    }
                    $name(out)
                }

                #[inline(always)]
                fn reduce_add(self) -> f64 {
                    let mut sum = self.0[0];
                    for &lane in &self.0[1..] {
                        sum += lane;
                    }
                    sum
                }
            }
        };
    }

    array_backend!(F64x2, 2);
    array_backend!(F64x4, 4);

    /// True when [`F64x4`] is executable on this CPU (always: plain arrays).
    #[inline]
    pub fn x4_available() -> bool {
        true
    }

    pub const X2_NAME: &str = "portable";
    pub const X4_NAME: &str = "portable";
}

pub use backend::{F64x2, F64x4};

/// How many planes the batched kernels co-process per vector operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// One plane at a time: the 1-lane instance of the same kernels the
    /// wider levels run, so every level is bitwise equal to this one.
    Scalar,
    /// Two planes per op ([`F64x2`]: SSE2 / NEON / portable).
    X2,
    /// Four planes per op ([`F64x4`]: AVX2 on x86-64, polyfilled elsewhere).
    X4,
}

impl SimdLevel {
    /// Lane count at this level (1, 2, or 4).
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::X2 => 2,
            SimdLevel::X4 => 4,
        }
    }

    /// ISA name for profile attribution: `scalar`, `sse2`, `avx2`, `neon`,
    /// or `portable`.
    #[inline]
    pub fn isa_name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::X2 => backend::X2_NAME,
            SimdLevel::X4 => backend::X4_NAME,
        }
    }
}

// Encoding for the dispatch cache cell: 0 = uninitialized.
const UNSET: u8 = 0;
const SCALAR: u8 = 1;
const X2: u8 = 2;
const X4: u8 = 3;

// Relaxed is sufficient: the cached value is a pure function of CPU
// features and LR_SIMD, so racing initializers store the same byte and the
// cell gates no other memory. `force` stores are test/bench-only and the
// affected tests serialize themselves.
static DISPATCH: AtomicU8 = AtomicU8::new(UNSET);

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => SCALAR,
        SimdLevel::X2 => X2,
        SimdLevel::X4 => X4,
    }
}

/// Clamps a requested level to what this CPU can execute.
fn clamp(level: SimdLevel) -> SimdLevel {
    if level == SimdLevel::X4 && !backend::x4_available() {
        SimdLevel::X2
    } else {
        level
    }
}

fn detect() -> SimdLevel {
    match std::env::var("LR_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "scalar" | "off" | "0" | "1" => SimdLevel::Scalar,
            "x2" | "2" => SimdLevel::X2,
            "x4" | "4" => clamp(SimdLevel::X4),
            _ => default_level(),
        },
        Err(_) => default_level(),
    }
}

fn default_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if backend::x4_available() {
            SimdLevel::X4
        } else {
            SimdLevel::X2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::X2
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// Returns the process-wide SIMD dispatch level, detecting it on first use.
///
/// Honors `LR_SIMD` (`scalar` / `x2` / `x4` / `auto`) and any active
/// [`force`] override; the result is always executable on this CPU.
#[inline]
pub fn dispatch() -> SimdLevel {
    match DISPATCH.load(Ordering::Relaxed) {
        SCALAR => SimdLevel::Scalar,
        X2 => SimdLevel::X2,
        X4 => SimdLevel::X4,
        _ => {
            let level = detect();
            DISPATCH.store(encode(level), Ordering::Relaxed);
            level
        }
    }
}

/// Overrides the dispatch level for tests and benches.
///
/// `Some(level)` pins dispatch to `level` (clamped to what the CPU can
/// execute — ask [`dispatch`] afterwards for the effective value);
/// `None` clears the override so the next [`dispatch`] call re-detects.
/// Process-global: concurrent tests that use this must serialize on a lock
/// and restore `force(None)` before releasing it.
pub fn force(level: Option<SimdLevel>) {
    let byte = match level {
        None => UNSET,
        Some(l) => encode(clamp(l)),
    };
    DISPATCH.store(byte, Ordering::Relaxed);
}

#[inline(always)]
fn sum_norm_sqr_v<V: SimdF64>(samples: &[Complex64]) -> f64 {
    // Complex64 is repr(C) { re, im }, so a plane of samples is a flat
    // sequence of 2·len interleaved f64s; Σ|z|² = Σ re² + Σ im² does not
    // care which component a lane holds.
    let total = 2 * samples.len();
    let ptr = samples.as_ptr() as *const f64;
    let mut acc = V::splat(0.0);
    let mut i = 0;
    while i + V::LANES <= total {
        // SAFETY: i + LANES ≤ total f64s backing `samples` (repr(C) layout).
        let v = unsafe { V::load(ptr.add(i)) };
        acc = acc.add(v.mul(v));
        i += V::LANES;
    }
    let mut sum = acc.reduce_add();
    while i < total {
        // SAFETY: i < total f64s backing `samples`.
        let x = unsafe { *ptr.add(i) };
        sum += x * x;
        i += 1;
    }
    sum
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sum_norm_sqr_avx2(samples: &[Complex64]) -> f64 {
    sum_norm_sqr_v::<F64x4>(samples)
}

/// Sum of `|z|²` over a slice, vectorized per the current [`dispatch`].
///
/// At [`SimdLevel::Scalar`] this is the exact sequential reduction (the
/// oracle). Wider levels reduce lane partials first, which re-associates
/// the sum; callers (the detector readout) cover the difference with the
/// documented ≤1e-12 relative tolerance.
pub fn sum_norm_sqr(samples: &[Complex64]) -> f64 {
    match dispatch() {
        SimdLevel::Scalar => {
            let mut sum = 0.0;
            for z in samples {
                sum += z.norm_sqr();
            }
            sum
        }
        SimdLevel::X2 => sum_norm_sqr_v::<F64x2>(samples),
        SimdLevel::X4 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: dispatch() only returns X4 on x86-64 when AVX2
                // was detected at runtime (detect/force both clamp).
                unsafe { sum_norm_sqr_avx2(samples) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                sum_norm_sqr_v::<F64x4>(samples)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // `force` is process-global; tests that touch it serialize here.
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn dispatch_returns_executable_level() {
        let level = dispatch();
        assert!(level.lanes() == 1 || level.lanes() == 2 || level.lanes() == 4);
        assert!(!level.isa_name().is_empty());
    }

    #[test]
    fn force_overrides_and_clears() {
        let _guard = FORCE_LOCK.lock().unwrap();
        force(Some(SimdLevel::Scalar));
        assert_eq!(dispatch(), SimdLevel::Scalar);
        force(Some(SimdLevel::X2));
        assert_eq!(dispatch(), SimdLevel::X2);
        force(Some(SimdLevel::X4));
        // X4 may legitimately clamp to X2 on CPUs without AVX2.
        assert!(dispatch() >= SimdLevel::X2);
        force(None);
        let redetected = dispatch();
        assert!(redetected.lanes() >= 1);
    }

    #[test]
    fn lane_ops_match_scalar() {
        let _guard = FORCE_LOCK.lock().unwrap();
        fn check<V: SimdF64>() {
            let a_src: Vec<f64> = (0..V::LANES).map(|i| 1.5 + i as f64).collect();
            let b_src: Vec<f64> = (0..V::LANES).map(|i| -0.25 * (i as f64 + 1.0)).collect();
            // SAFETY: both sources hold exactly LANES f64s.
            let (a, b) = unsafe { (V::load(a_src.as_ptr()), V::load(b_src.as_ptr())) };
            let mut out = vec![0.0; V::LANES];
            type BinOp = fn(f64, f64) -> f64;
            let cases: [(V, BinOp); 3] = [
                (a.add(b), |x, y| x + y),
                (a.sub(b), |x, y| x - y),
                (a.mul(b), |x, y| x * y),
            ];
            for (op, expect) in cases {
                // SAFETY: `out` holds exactly LANES f64s.
                unsafe { op.store(out.as_mut_ptr()) };
                for i in 0..V::LANES {
                    assert_eq!(out[i], expect(a_src[i], b_src[i]));
                }
            }
            // SAFETY: `out` holds exactly LANES f64s.
            unsafe { a.neg().store(out.as_mut_ptr()) };
            for i in 0..V::LANES {
                assert_eq!(out[i], -a_src[i]);
            }
            let sum: f64 = a_src.iter().sum();
            assert_eq!(a.reduce_add(), sum);
            // SAFETY: `out` holds exactly LANES f64s.
            unsafe { V::splat(3.25).store(out.as_mut_ptr()) };
            assert!(out.iter().all(|&x| x == 3.25));
        }
        check::<F64x2>();
        if backend::x4_available() {
            check::<F64x4>();
        }
    }

    /// Four plain lanes inheriting every default method of [`SimdF64`]
    /// (what the aarch64 and portable backends run).
    #[derive(Clone, Copy)]
    struct Plain([f64; 4]);

    impl SimdF64 for Plain {
        const LANES: usize = 4;
        fn splat(v: f64) -> Self {
            Plain([v; 4])
        }
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller provides 4 readable f64s.
            Plain(unsafe { ptr.cast::<[f64; 4]>().read_unaligned() })
        }
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller provides 4 writable f64s.
            unsafe { ptr.cast::<[f64; 4]>().write_unaligned(self.0) }
        }
        fn add(self, _: Self) -> Self {
            unimplemented!()
        }
        fn sub(self, _: Self) -> Self {
            unimplemented!()
        }
        fn mul(self, _: Self) -> Self {
            unimplemented!()
        }
        fn neg(self) -> Self {
            unimplemented!()
        }
        fn reduce_add(self) -> f64 {
            unimplemented!()
        }
    }

    #[test]
    fn complex_layout_moves_match_index_formulas() {
        fn check<V: SimdF64>() {
            let lanes = V::LANES;
            // Three whole tiles per row plus one leftover sample.
            let n = 3 * lanes + 1;
            let rows: Vec<f64> = (0..2 * n * lanes).map(|i| i as f64).collect();
            let mut packed = vec![0.0; rows.len()];
            V::pack_rows(&rows, &mut packed);
            for (i, l) in (0..n).flat_map(|i| (0..lanes).map(move |l| (i, l))) {
                assert_eq!(packed[2 * lanes * i + l], rows[2 * (l * n + i)]);
                assert_eq!(packed[2 * lanes * i + lanes + l], rows[2 * (l * n + i) + 1]);
            }
            let mut back = vec![0.0; rows.len()];
            V::unpack_rows(&packed, &mut back);
            assert_eq!(back, rows);
            // SAFETY: `rows`, `packed` and `back` hold ≥ 2·LANES f64s.
            unsafe {
                let (re, im) = V::load_complex(rows.as_ptr());
                re.store(packed.as_mut_ptr());
                im.store(packed.as_mut_ptr().add(lanes));
                V::store_complex(re, im, back.as_mut_ptr());
            }
            // Each lane holds one whole sample, every sample exactly once.
            let mut samples: Vec<usize> = (0..lanes)
                .map(|l| {
                    let s = packed[l] as usize / 2;
                    assert_eq!(
                        (packed[l], packed[lanes + l]),
                        (rows[2 * s], rows[2 * s + 1])
                    );
                    s
                })
                .collect();
            samples.sort_unstable();
            assert_eq!(samples, (0..lanes).collect::<Vec<_>>());
            assert_eq!(back[..2 * lanes], rows[..2 * lanes]);
        }
        check::<Plain>();
        check::<F64x2>();
        if backend::x4_available() {
            check::<F64x4>();
        }
    }

    #[test]
    fn sum_norm_sqr_matches_scalar_within_tolerance() {
        let _guard = FORCE_LOCK.lock().unwrap();
        for len in [0usize, 1, 2, 3, 7, 8, 33, 100] {
            let samples: Vec<Complex64> = (0..len)
                .map(|i| {
                    let t = i as f64 * 0.37;
                    Complex64::new(t.sin() * 1.75, t.cos() - 0.5)
                })
                .collect();
            force(Some(SimdLevel::Scalar));
            let exact = sum_norm_sqr(&samples);
            for level in [SimdLevel::X2, SimdLevel::X4] {
                force(Some(level));
                let got = sum_norm_sqr(&samples);
                let tol = 1e-12 * (1.0 + exact.abs());
                assert!(
                    (got - exact).abs() <= tol,
                    "len {len} level {level:?}: {got} vs {exact}"
                );
            }
            force(None);
        }
    }

    #[test]
    fn sum_norm_sqr_exact_on_small_integers() {
        let _guard = FORCE_LOCK.lock().unwrap();
        let samples: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new((i % 5) as f64, (i % 3) as f64))
            .collect();
        let expect: f64 = samples.iter().map(|z| z.norm_sqr()).sum();
        for level in [SimdLevel::Scalar, SimdLevel::X2, SimdLevel::X4] {
            force(Some(level));
            // Small-integer squares sum exactly in f64 under any
            // association, so every lane width agrees bitwise here.
            assert_eq!(sum_norm_sqr(&samples), expect);
        }
        force(None);
    }
}
