//! # lr-tensor
//!
//! Complex-valued tensor and FFT substrate for
//! [LightRidge-RS](https://github.com/lightridge/lightridge-rs), a Rust
//! reproduction of the LightRidge diffractive optical neural network (DONN)
//! framework (ASPLOS 2023/24).
//!
//! The crate provides the three tensor-level operators the paper identifies
//! as the DONN workload (Fig. 8): complex 2-D FFT and inverse 2-D FFT
//! ([`Fft2::process_planes`]), and fused complex elementwise
//! multiplication ([`Field::hadamard_assign`], fused into the free-space
//! hop by [`Fft2::convolve_planes`]) — plus the plan cache and
//! batch-parallel execution that give LightRidge its runtime edge over the
//! LightPipes-style baseline. Every 2-D entry point takes a slice of
//! `B ≥ 1` whole planes and one caller-owned [`Fft2Workspace`].
//!
//! ## Example
//!
//! ```
//! use lr_tensor::{Complex64, Field, Fft2};
//!
//! // A 64×64 field with a centered square aperture.
//! let mut u = Field::from_fn(64, 64, |r, c| {
//!     let inside = (24..40).contains(&r) && (24..40).contains(&c);
//!     if inside { Complex64::ONE } else { Complex64::ZERO }
//! });
//!
//! // Propagate through a (here: identity) spectral transfer function.
//! let h = Field::ones(64, 64);
//! let fft = Fft2::new(64, 64);
//! fft.convolve_planes(u.as_mut_slice(), &h, &mut fft.make_workspace());
//! assert!((u.total_power() - 256.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod batch;
mod complex;
mod fft;
mod field;
pub mod parallel;
mod pinned_cache;
pub mod simd;
mod sync;

pub use batch::FieldBatch;
pub use complex::{Complex64, J};
pub use fft::{
    clear_plan_cache, dft_naive, plan_cache_len, planner, sweep_orphaned_plans, Direction, Fft2,
    Fft2Workspace, FftPlan, PLAN_CACHE_CAP,
};
pub use field::{fftshift_in_place, ifftshift_in_place, Field};
pub use pinned_cache::PinnedCache;
