//! # lr-lightpipes
//!
//! A faithful re-implementation of the *performance characteristics* of the
//! LightPipes-class optics packages the paper benchmarks against (Table 1,
//! Fig. 8–9). The physics is identical to `lr-optics` (angular-spectrum
//! scalar diffraction) — what differs is everything the paper identifies as
//! LightPipes' runtime limitations:
//!
//! * **No tensor representation** — fields are nested `Vec<Vec<Complex64>>`
//!   rows, so every operation chases pointers instead of streaming a flat
//!   buffer.
//! * **No operator fusion** — every step (`fft2`, transfer multiply,
//!   `ifft2`) materializes a fresh field.
//! * **No plan caching** — FFT twiddles, bit orders, Bluestein chirps, and
//!   transfer functions are recomputed on every call.
//! * **Recursive FFT** — textbook recursive Cooley-Tukey with per-level
//!   allocation, plus a per-call Bluestein fallback for non-power-of-two
//!   sizes.
//!
//! The public API mirrors LightPipes' command style: [`begin`],
//! [`forvard`] (sic — the original's name), [`phase_mask`], [`intensity`].
//!
//! ## Example
//!
//! ```
//! use lr_lightpipes as lp;
//! let f = lp::begin(64, 10e-6, 532e-9);
//! let f = lp::forvard(&f, 0.01);
//! let i = lp::intensity(&f);
//! assert_eq!(i.len(), 64);
//! ```

#![warn(missing_docs)]

use lr_tensor::Complex64;
use std::f64::consts::PI;

/// A LightPipes-style wavefield: nested rows of complex samples plus the
/// beam bookkeeping carried by every command.
#[derive(Debug, Clone, PartialEq)]
pub struct LpField {
    /// Row-of-rows sample storage (deliberately not a flat tensor).
    pub grid: Vec<Vec<Complex64>>,
    /// Pixel pitch in metres.
    pub pitch: f64,
    /// Wavelength in metres.
    pub wavelength: f64,
}

impl LpField {
    /// Side length in samples (fields are square, as in LightPipes).
    pub fn size(&self) -> usize {
        self.grid.len()
    }

    /// Total power `Σ|U|²`.
    pub fn total_power(&self) -> f64 {
        self.grid
            .iter()
            .flat_map(|row| row.iter())
            .map(|z| z.norm_sqr())
            .sum()
    }
}

/// `Begin`: creates a uniform unit-amplitude field of `n × n` samples.
///
/// # Panics
///
/// Panics if `n == 0` or physical parameters are non-positive.
pub fn begin(n: usize, pitch_m: f64, wavelength_m: f64) -> LpField {
    assert!(n > 0, "field size must be nonzero");
    assert!(
        pitch_m > 0.0 && wavelength_m > 0.0,
        "physical parameters must be positive"
    );
    LpField {
        grid: vec![vec![Complex64::ONE; n]; n],
        pitch: pitch_m,
        wavelength: wavelength_m,
    }
}

/// Replaces the field amplitude with an intensity image (input encoding).
///
/// # Panics
///
/// Panics if the image size does not match.
pub fn substitute_intensity(field: &LpField, image: &[f64]) -> LpField {
    let n = field.size();
    assert_eq!(image.len(), n * n, "image size mismatch");
    let mut out = field.clone();
    for (r, row) in out.grid.iter_mut().enumerate() {
        for (c, z) in row.iter_mut().enumerate() {
            *z = Complex64::from_real(image[r * n + c]);
        }
    }
    out
}

/// `Forvard`: free-space propagation over `z` metres using the
/// angular-spectrum method, recomputing the transfer function and all FFT
/// internals on every call (no plans, no fusion).
pub fn forvard(field: &LpField, z: f64) -> LpField {
    let n = field.size();
    // Step 1: forward FFT (fresh allocation).
    let spectrum = fft2(&field.grid, false);
    // Step 2: build the transfer function from scratch.
    let transfer = build_transfer(n, field.pitch, field.wavelength, z);
    // Step 3: unfused elementwise multiply into yet another field.
    let multiplied = complex_mm(&spectrum, &transfer);
    // Step 4: inverse FFT.
    let grid = fft2(&multiplied, true);
    LpField {
        grid,
        pitch: field.pitch,
        wavelength: field.wavelength,
    }
}

/// Applies a per-pixel phase mask (radians).
///
/// # Panics
///
/// Panics if the mask size does not match.
pub fn phase_mask(field: &LpField, phases: &[f64]) -> LpField {
    let n = field.size();
    assert_eq!(phases.len(), n * n, "mask size mismatch");
    let mut out = field.clone();
    for (r, row) in out.grid.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v *= Complex64::cis(phases[r * n + c]);
        }
    }
    out
}

/// Reads the intensity image as nested rows.
pub fn intensity(field: &LpField) -> Vec<Vec<f64>> {
    field
        .grid
        .iter()
        .map(|row| row.iter().map(|z| z.norm_sqr()).collect())
        .collect()
}

/// Angular-spectrum transfer function, recomputed per call.
pub fn build_transfer(n: usize, pitch: f64, wavelength: f64, z: f64) -> Vec<Vec<Complex64>> {
    let k = 2.0 * PI / wavelength;
    let df = 1.0 / (n as f64 * pitch);
    let freq = |i: usize| -> f64 {
        let i = i as isize;
        let n = n as isize;
        (if i <= n / 2 { i } else { i - n }) as f64 * df
    };
    (0..n)
        .map(|r| {
            (0..n)
                .map(|c| {
                    let fx = freq(c) * wavelength;
                    let fy = freq(r) * wavelength;
                    let s = 1.0 - fx * fx - fy * fy;
                    if s >= 0.0 {
                        Complex64::cis(k * z * s.sqrt())
                    } else {
                        Complex64::from_real((-k * z * (-s).sqrt()).exp())
                    }
                })
                .collect()
        })
        .collect()
}

/// Unfused complex elementwise multiply, allocating the result.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn complex_mm(a: &[Vec<Complex64>], b: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
    assert_eq!(a.len(), b.len(), "shape mismatch");
    a.iter()
        .zip(b)
        .map(|(ra, rb)| {
            assert_eq!(ra.len(), rb.len(), "shape mismatch");
            ra.iter().zip(rb).map(|(&x, &y)| x * y).collect()
        })
        .collect()
}

/// 2-D FFT over nested rows: per-row transform, full transpose (new nested
/// allocation), per-row transform, transpose back.
pub fn fft2(grid: &[Vec<Complex64>], inverse: bool) -> Vec<Vec<Complex64>> {
    let rows: Vec<Vec<Complex64>> = grid.iter().map(|row| fft1(row, inverse)).collect();
    let t = transpose(&rows);
    let cols: Vec<Vec<Complex64>> = t.iter().map(|row| fft1(row, inverse)).collect();
    transpose(&cols)
}

fn transpose(grid: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
    let rows = grid.len();
    let cols = grid[0].len();
    (0..cols)
        .map(|c| (0..rows).map(|r| grid[r][c]).collect())
        .collect()
}

/// 1-D FFT, choosing recursive radix-2 or per-call Bluestein.
pub fn fft1(data: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = data.len();
    let result = if n.is_power_of_two() {
        fft_recursive(data, inverse)
    } else {
        bluestein(data, inverse)
    };
    if inverse {
        result.into_iter().map(|z| z / n as f64).collect()
    } else {
        result
    }
}

/// Textbook recursive Cooley-Tukey: splits into fresh even/odd vectors at
/// every level and calls `cis` per twiddle (unnormalized).
fn fft_recursive(data: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = data.len();
    if n <= 1 {
        return data.to_vec();
    }
    let even: Vec<Complex64> = data.iter().step_by(2).copied().collect();
    let odd: Vec<Complex64> = data.iter().skip(1).step_by(2).copied().collect();
    let fe = fft_recursive(&even, inverse);
    let fo = fft_recursive(&odd, inverse);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = vec![Complex64::ZERO; n];
    for k in 0..n / 2 {
        let w = Complex64::cis(sign * 2.0 * PI * k as f64 / n as f64);
        let t = w * fo[k];
        out[k] = fe[k] + t;
        out[k + n / 2] = fe[k] - t;
    }
    out
}

/// Bluestein chirp-z for arbitrary sizes, recomputing the chirp and its
/// spectrum on every call (unnormalized forward transform).
fn bluestein(data: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = data.len();
    let m = (2 * n - 1).next_power_of_two();
    let sign = if inverse { -1.0 } else { 1.0 };
    let two_n = 2 * n as u64;
    let chirp: Vec<Complex64> = (0..n as u64)
        .map(|j| Complex64::cis(sign * -PI * ((j * j) % two_n) as f64 / n as f64))
        .collect();
    let mut a = vec![Complex64::ZERO; m];
    for j in 0..n {
        a[j] = data[j] * chirp[j];
    }
    let mut b = vec![Complex64::ZERO; m];
    for j in 0..n {
        b[j] = chirp[j].conj();
        if j > 0 {
            b[m - j] = chirp[j].conj();
        }
    }
    let fa = fft_recursive(&a, false);
    let fb = fft_recursive(&b, false);
    let prod: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x * y).collect();
    let conj_prod: Vec<Complex64> = prod.iter().map(|z| z.conj()).collect();
    let conv_unscaled = fft_recursive(&conj_prod, false);
    (0..n)
        .map(|k| conv_unscaled[k].conj() * (1.0 / m as f64) * chirp[k])
        .collect()
}

/// Flattens nested rows into a row-major buffer (for comparisons against
/// the `lr-tensor` flat representation).
pub fn flatten(grid: &[Vec<Complex64>]) -> Vec<Complex64> {
    grid.iter().flat_map(|row| row.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_optics::{Approximation, Distance, FreeSpace, Grid, PixelPitch, Wavelength};
    use lr_tensor::Field;

    #[test]
    fn fft1_roundtrip_pow2_and_arbitrary() {
        for n in [8usize, 16, 20, 50] {
            let data: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.4).sin(), (i as f64 * 0.9).cos()))
                .collect();
            let back = fft1(&fft1(&data, false), true);
            for (a, b) in back.iter().zip(&data) {
                assert!((*a - *b).norm() < 1e-8, "roundtrip failed at n={n}");
            }
        }
    }

    #[test]
    fn fft1_matches_lr_tensor_fft() {
        for n in [16usize, 20] {
            let data: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64, (i as f64 * 0.5).sin()))
                .collect();
            let naive = fft1(&data, false);
            let plan = lr_tensor::planner(n);
            let mut fast = data.clone();
            let mut scratch = plan.make_scratch();
            plan.process(&mut fast, lr_tensor::Direction::Forward, &mut scratch);
            for (a, b) in naive.iter().zip(&fast) {
                assert!((*a - *b).norm() < 1e-7, "naive/fast FFT mismatch at n={n}");
            }
        }
    }

    #[test]
    fn forvard_matches_lightridge_propagation() {
        // Same physics: forvard must agree with lr-optics' non-band-limited
        // angular spectrum to numerical precision.
        let n = 32;
        let pitch = 10e-6;
        let lambda = 532e-9;
        let z = 0.005;

        let lp = begin(n, pitch, lambda);
        // A square aperture input.
        let image: Vec<f64> = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                f64::from((12..20).contains(&r) && (12..20).contains(&c))
            })
            .collect();
        let lp = substitute_intensity(&lp, &image);
        let lp_out = forvard(&lp, z);

        let grid = Grid::square(n, PixelPitch::from_meters(pitch));
        let prop = FreeSpace::with_options(
            grid,
            Wavelength::from_meters(lambda),
            Distance::from_meters(z),
            Approximation::RayleighSommerfeld,
            false,
        );
        let mut lr_field = Field::from_amplitudes(n, n, &image);
        prop.propagate_with(&mut lr_field, &mut prop.make_scratch());

        let lp_flat = flatten(&lp_out.grid);
        for (a, b) in lp_flat.iter().zip(lr_field.as_slice()) {
            assert!((*a - *b).norm() < 1e-8, "engines disagree: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn forvard_conserves_energy() {
        let f = begin(64, 10e-6, 532e-9);
        let p0 = f.total_power();
        let out = forvard(&f, 0.01);
        assert!((out.total_power() - p0).abs() < 1e-6 * p0);
    }

    #[test]
    fn phase_mask_preserves_intensity() {
        let f = begin(16, 10e-6, 532e-9);
        let phases: Vec<f64> = (0..256).map(|i| i as f64 * 0.1).collect();
        let out = phase_mask(&f, &phases);
        let i = intensity(&out);
        for row in i {
            for v in row {
                assert!((v - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn complex_mm_elementwise() {
        let a = vec![vec![Complex64::new(1.0, 2.0); 3]; 3];
        let b = vec![vec![Complex64::new(0.0, 1.0); 3]; 3];
        let c = complex_mm(&a, &b);
        assert_eq!(c[1][1], Complex64::new(-2.0, 1.0));
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        let n = 12;
        let data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let expected = lr_tensor::dft_naive(&data, lr_tensor::Direction::Forward);
        let got = fft1(&data, false);
        for (a, b) in got.iter().zip(&expected) {
            assert!((*a - *b).norm() < 1e-7);
        }
    }

    #[test]
    fn non_pow2_roundtrip_through_forvard() {
        // 20×20 exercises the Bluestein path end to end.
        let f = begin(20, 10e-6, 532e-9);
        let p0 = f.total_power();
        let out = forvard(&f, 0.002);
        assert!((out.total_power() - p0).abs() < 1e-6 * p0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn begin_rejects_empty() {
        let _ = begin(0, 1e-6, 500e-9);
    }
}
