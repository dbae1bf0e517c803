//! Closes the validation chain: the *production* Rayleigh-Sommerfeld
//! kernel in `lr-optics` (FFT transfer-function method on `lr-tensor`
//! fields) must agree with this crate's independent naive-DFT oracle —
//! which in turn is validated against the Maxwell-solving FDTD engine in
//! `cross_engine.rs`. Together: production kernels ⇔ oracle ⇔ Maxwell.

use lr_fdtd::validate::angular_spectrum_1d;
use lr_optics::{Approximation, Distance, FreeSpace, Grid, PixelPitch, Wavelength};
use lr_tensor::{Complex64, Field};

#[test]
fn production_rs_kernel_matches_the_naive_oracle_in_1d() {
    // A 1-row field exercises the same 2-D kernel with f_y = 0 only, which
    // is exactly the oracle's 1-D transfer function.
    let n = 96;
    let pitch_m = 10e-6;
    let wavelength_m = 532e-9;
    let z_m = 3e-3;

    // Smooth asymmetric profile (real amplitudes plus a phase ramp).
    let profile: Vec<(f64, f64)> = (0..n)
        .map(|j| {
            let x = (j as f64 - n as f64 / 2.0) / 12.0;
            let a = (-x * x / 2.0).exp();
            let phase = 0.15 * j as f64;
            (a * phase.cos(), a * phase.sin())
        })
        .collect();

    // Production kernel on a 1×n field.
    let grid = Grid::new(1, n, PixelPitch::from_meters(pitch_m));
    let propagator = FreeSpace::new(
        grid,
        Wavelength::from_meters(wavelength_m),
        Distance::from_meters(z_m),
        Approximation::RayleighSommerfeld,
    );
    let mut field = Field::from_fn(1, n, |_, c| Complex64::new(profile[c].0, profile[c].1));
    propagator.propagate_with(&mut field, &mut propagator.make_scratch());

    // Oracle (same length units: metres).
    let oracle = angular_spectrum_1d(&profile, pitch_m, wavelength_m, z_m);

    let mut err2 = 0.0;
    let mut norm2 = 0.0;
    for j in 0..n {
        let got = field[(0, j)];
        let want = oracle[j];
        err2 += (got.re - want.0).powi(2) + (got.im - want.1).powi(2);
        norm2 += want.0 * want.0 + want.1 * want.1;
    }
    let rel = (err2 / norm2).sqrt();
    assert!(
        rel < 1e-9,
        "production RS kernel diverges from the naive oracle: relative error {rel:.3e}"
    );
}

#[test]
fn production_kernel_matches_oracle_across_distances() {
    let n = 64;
    let pitch_m = 8e-6;
    let wavelength_m = 633e-9;
    let profile: Vec<(f64, f64)> = (0..n)
        .map(|j| {
            if (24..40).contains(&j) {
                (1.0, 0.0)
            } else {
                (0.0, 0.0)
            }
        })
        .collect();

    for &z_mm in &[0.5, 2.0, 8.0] {
        let z_m = z_mm * 1e-3;
        let grid = Grid::new(1, n, PixelPitch::from_meters(pitch_m));
        // Band-limiting off: the oracle implements the *exact* (unclipped)
        // angular spectrum; the Matsushima clip is a separate fidelity
        // feature checked below.
        let propagator = FreeSpace::with_options(
            grid,
            Wavelength::from_meters(wavelength_m),
            Distance::from_meters(z_m),
            Approximation::RayleighSommerfeld,
            false,
        );
        let mut field = Field::from_fn(1, n, |_, c| Complex64::new(profile[c].0, profile[c].1));
        propagator.propagate_with(&mut field, &mut propagator.make_scratch());
        let oracle = angular_spectrum_1d(&profile, pitch_m, wavelength_m, z_m);

        let max_err = (0..n)
            .map(|j| {
                let got = field[(0, j)];
                ((got.re - oracle[j].0).powi(2) + (got.im - oracle[j].1).powi(2)).sqrt()
            })
            .fold(0.0, f64::max);
        assert!(max_err < 1e-9, "z = {z_mm} mm: max abs error {max_err:.3e}");
    }
}

/// The default (band-limited) kernel can only *remove* spectral content
/// relative to the exact oracle — never invent it.
#[test]
fn band_limiting_only_removes_energy() {
    let n = 64;
    let pitch_m = 8e-6;
    let wavelength_m = 633e-9;
    let z_m = 8e-3; // long hop: the Matsushima clip engages
    let profile: Vec<(f64, f64)> = (0..n)
        .map(|j| {
            if (24..40).contains(&j) {
                (1.0, 0.0)
            } else {
                (0.0, 0.0)
            }
        })
        .collect();

    let grid = Grid::new(1, n, PixelPitch::from_meters(pitch_m));
    let propagator = FreeSpace::new(
        grid,
        Wavelength::from_meters(wavelength_m),
        Distance::from_meters(z_m),
        Approximation::RayleighSommerfeld,
    );
    let mut field = Field::from_fn(1, n, |_, c| Complex64::new(profile[c].0, profile[c].1));
    propagator.propagate_with(&mut field, &mut propagator.make_scratch());
    let limited_power: f64 = (0..n).map(|j| field[(0, j)].norm_sqr()).sum();

    let oracle = angular_spectrum_1d(&profile, pitch_m, wavelength_m, z_m);
    let exact_power: f64 = oracle.iter().map(|(re, im)| re * re + im * im).sum();

    assert!(
        limited_power <= exact_power * (1.0 + 1e-9),
        "band limiting added energy: {limited_power} > {exact_power}"
    );
    assert!(
        limited_power > 0.5 * exact_power,
        "band limiting removed most of the field: {limited_power} vs {exact_power}"
    );
}
