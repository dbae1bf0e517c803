//! Quantitative wave-optics validation of the diffraction kernels against
//! closed-form results — the numerical analogue of the paper's claim that
//! the FFT-based kernels "precisely correlate to low-level physics".

use lr_optics::{aperture, Approximation, Distance, FreeSpace, Grid, PixelPitch, Wavelength};
use lr_tensor::{Complex64, Field};

/// Talbot self-imaging: a periodic amplitude grating reproduces itself at
/// the Talbot distance `z_T = 2·p²/λ` (p = grating period).
#[test]
fn talbot_self_imaging_of_periodic_grating() {
    let n = 256;
    let pitch = 4e-6;
    let lambda = 532e-9;
    let grid = Grid::square(n, PixelPitch::from_meters(pitch));

    // Binary grating with period 16 pixels = 64 µm.
    let period_px = 16usize;
    let period = period_px as f64 * pitch;
    let grating = Field::from_fn(n, n, |_, c| {
        if (c / (period_px / 2)).is_multiple_of(2) {
            Complex64::ONE
        } else {
            Complex64::ZERO
        }
    });

    let z_talbot = 2.0 * period * period / lambda;
    let prop = FreeSpace::with_options(
        grid,
        Wavelength::from_meters(lambda),
        Distance::from_meters(z_talbot),
        Approximation::RayleighSommerfeld,
        false,
    );
    let mut u = grating.clone();
    prop.propagate_with(&mut u, &mut prop.make_scratch());

    // Compare intensity profiles (use a central row away from edges).
    let row = n / 2;
    let orig: Vec<f64> = (0..n).map(|c| grating[(row, c)].norm_sqr()).collect();
    let imaged: Vec<f64> = (0..n).map(|c| u[(row, c)].norm_sqr()).collect();
    let corr = pearson(&orig, &imaged);
    assert!(
        corr > 0.9,
        "Talbot image should reproduce the grating: r = {corr}"
    );

    // At half the Talbot distance the image is shifted by half a period —
    // correlation with the unshifted grating should be strongly negative.
    let prop_half = FreeSpace::with_options(
        grid,
        Wavelength::from_meters(lambda),
        Distance::from_meters(z_talbot / 2.0),
        Approximation::RayleighSommerfeld,
        false,
    );
    let mut u2 = grating.clone();
    prop_half.propagate_with(&mut u2, &mut prop_half.make_scratch());
    let half: Vec<f64> = (0..n).map(|c| u2[(row, c)].norm_sqr()).collect();
    let corr_half = pearson(&orig, &half);
    assert!(
        corr_half < -0.5,
        "half-Talbot image should be contrast-reversed: r = {corr_half}"
    );
}

/// Double-slit interference: fringe spacing on the far screen is `λ·z/d`
/// (d = slit separation).
#[test]
fn double_slit_fringe_spacing_matches_theory() {
    let n = 512;
    let pitch = 5e-6;
    let lambda = 532e-9;
    let grid = Grid::square(n, PixelPitch::from_meters(pitch));
    let separation = 100e-6;
    // Short enough that the diffracted light stays well inside the window
    // (no periodic-wraparound fringes); band-limiting suppresses the rest.
    let z = 0.02;

    let mut u = aperture::double_slit(&grid, 10e-6, separation);
    let prop = FreeSpace::with_options(
        grid,
        Wavelength::from_meters(lambda),
        Distance::from_meters(z),
        Approximation::RayleighSommerfeld,
        true,
    );
    prop.propagate_with(&mut u, &mut prop.make_scratch());

    // Fringe period in pixels along the central row.
    let expected = lambda * z / separation; // 266 µm
    let expected_px = expected / pitch;

    // Measure the average distance between intensity maxima near center.
    let row = n / 2;
    let profile: Vec<f64> = (n / 4..3 * n / 4).map(|c| u[(row, c)].norm_sqr()).collect();
    let mut peaks = Vec::new();
    for i in 2..profile.len() - 2 {
        if profile[i] > profile[i - 1]
            && profile[i] >= profile[i + 1]
            && profile[i] > 0.3 * profile.iter().cloned().fold(0.0, f64::max)
        {
            peaks.push(i);
        }
    }
    assert!(
        peaks.len() >= 3,
        "need several fringes, found {}",
        peaks.len()
    );
    let spacings: Vec<f64> = peaks.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    let mean_spacing = spacings.iter().sum::<f64>() / spacings.len() as f64;
    let rel = (mean_spacing - expected_px).abs() / expected_px;
    assert!(
        rel < 0.15,
        "fringe spacing {mean_spacing:.1}px vs theory {expected_px:.1}px ({:.0}% off)",
        rel * 100.0
    );
}

/// Fraunhofer diffraction of a square aperture: the far-field intensity is
/// a separable sinc², with first zeros at `x = λz/w` (w = aperture width).
#[test]
fn fraunhofer_sinc_zeros_of_square_aperture() {
    let n = 256;
    let pitch = 10e-6;
    let lambda = 532e-9;
    let grid = Grid::square(n, PixelPitch::from_meters(pitch));
    // Square aperture 32 px = 320 µm wide.
    let half_w = 160e-6;
    let u0 = aperture::rectangular(&grid, half_w, half_w);

    let z = 2.0;
    let prop = FreeSpace::new(
        grid,
        Wavelength::from_meters(lambda),
        Distance::from_meters(z),
        Approximation::Fraunhofer,
    );
    let mut u = u0;
    prop.propagate_with(&mut u, &mut prop.make_scratch());

    // First zero at x = λz/w from the optical axis, in *output* pixels.
    let out_pitch = prop.output_pitch().meters();
    let w = 2.0 * half_w + pitch; // inclusive pixel count effect
    let first_zero_m = lambda * z / w;
    let first_zero_px = (first_zero_m / out_pitch).round() as usize;

    let row = n / 2;
    let center = u[(row, n / 2)].norm_sqr();
    let at_zero = u[(row, n / 2 + first_zero_px)].norm_sqr();
    assert!(
        at_zero < 0.02 * center,
        "sinc first zero should be dark: center {center:.3e}, zero {at_zero:.3e}"
    );
    // Secondary lobe between first and second zero is bright again.
    let at_lobe = u[(row, n / 2 + first_zero_px * 3 / 2)].norm_sqr();
    assert!(
        at_lobe > at_zero * 5.0,
        "secondary sinc lobe should reappear"
    );
}

/// Free-space propagation is reciprocal: propagating forward by z then
/// applying the adjoint returns the input exactly (unitary + adjoint =
/// inverse on the propagating band).
#[test]
fn adjoint_inverts_unitary_propagation() {
    let n = 64;
    let grid = Grid::square(n, PixelPitch::from_um(20.0));
    let prop = FreeSpace::with_options(
        grid,
        Wavelength::from_nm(532.0),
        Distance::from_mm(30.0),
        Approximation::RayleighSommerfeld,
        false,
    );
    let u0 = Field::from_fn(n, n, |r, c| {
        Complex64::new((r as f64 * 0.2).sin(), (c as f64 * 0.15).cos())
    });
    let mut u = u0.clone();
    let mut scratch = prop.make_scratch();
    prop.propagate_with(&mut u, &mut scratch);
    prop.adjoint_with(&mut u, &mut scratch);
    assert!(
        u.distance(&u0) < 1e-8 * u0.total_power().sqrt(),
        "A^H A = I for unitary propagation"
    );
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
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
