//! # lr-optics
//!
//! Optical physics kernels for LightRidge-RS: laser source models, sampling
//! grids with physical units, and FFT-based scalar diffraction (paper
//! §3.1.1) in all three classical approximations — Rayleigh-Sommerfeld
//! (angular spectrum), Fresnel, and Fraunhofer — each with an exact adjoint
//! for gradient-based DONN training.
//!
//! ## Example: double-slit interference
//!
//! ```
//! use lr_optics::{aperture, Approximation, Distance, FreeSpace, Grid, PixelPitch, Wavelength};
//!
//! let grid = Grid::square(128, PixelPitch::from_um(10.0));
//! let mut u = aperture::double_slit(&grid, 20e-6, 200e-6);
//! let prop = FreeSpace::new(
//!     grid,
//!     Wavelength::from_nm(532.0),
//!     Distance::from_mm(50.0),
//!     Approximation::RayleighSommerfeld,
//! );
//! prop.propagate_with(&mut u, &mut prop.make_scratch());
//! // Interference fringes appear on axis.
//! assert!(u.total_power() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod aperture;
mod diffraction;
mod grid;
mod laser;
mod units;

pub use diffraction::{
    clear_transfer_cache, fresnel_ir_spectrum, fresnel_tf, fresnel_tf_cached,
    rayleigh_sommerfeld_ir_spectrum, rayleigh_sommerfeld_tf, rayleigh_sommerfeld_tf_cached,
    sweep_transfer_cache, transfer_cache_len, Approximation, FreeSpace, PropagationScratch,
};
pub use grid::Grid;
pub use laser::{bessel_j0, BeamProfile, Laser};
pub use units::{Distance, PixelPitch, Wavelength};
