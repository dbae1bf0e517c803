//! §2.1 scaling argument: FDTD vs FFT-based scalar diffraction.
//!
//! The paper rejects FDTD for DONN emulation because "FDTD requires the
//! entire computational domain to be sufficiently fine gridded, which
//! means the DONN system size will be expanded exponentially in the
//! FDTD-based emulation" — while the FFT kernel's cost depends only on the
//! plane resolution, never on the physical propagation distance. This
//! experiment measures both engines on hops small enough for FDTD to
//! finish, then extrapolates the analytic cost model (validated against
//! those measurements) to the paper's prototype scale.

use crate::common::{Mode, Report};
use lr_bench::median_ns;
use lr_fdtd::validate::{fdtd_hop_cost, fft_hop_cost};
use lr_fdtd::{CwLineSource, Fdtd2D, SimGrid};
use lr_tensor::{Complex64, Fft2, Field};

/// Runs the experiment.
pub fn run(mode: Mode) -> Report {
    let mut report = Report::new("§2.1: FDTD vs FFT-kernel emulation cost");
    let cells_per_wavelength = 12.0;
    let runs = mode.pick(3, 5);

    // Hop sizes in wavelengths: aperture × distance, both gridded by FDTD.
    let hops: &[(usize, usize)] = mode.pick(
        &[(8, 8), (16, 16), (32, 32), (48, 48)][..],
        &[(8, 8), (16, 16), (32, 32), (64, 64), (96, 96)][..],
    );

    report.line("measured: one free-space hop (aperture W λ, distance Z λ)");
    report.line(&format!(
        "{:>10} {:>12} {:>12} {:>10} {:>14}",
        "W=Z (λ)", "FDTD (s)", "FFT (s)", "ratio", "model ratio"
    ));

    let mut last_measured_ratio = 0.0;
    for &(w, z) in hops {
        let ny = (w as f64 * cells_per_wavelength) as usize;
        let nx = (z as f64 * cells_per_wavelength) as usize + 30;
        let fdtd_ns = median_ns(runs, || {
            let grid = SimGrid::new(nx, ny, cells_per_wavelength);
            let mut sim = Fdtd2D::new(grid);
            sim.add_source(CwLineSource::uniform(4, ny));
            // Run until the wave crosses the domain twice (steady state).
            let steps = 2 * grid.steps_to_cross(nx);
            sim.run(steps);
            std::hint::black_box(sim.field_energy());
        });

        // The FFT kernel that does the same job: the plane sampled at the
        // *device pitch*. One hop = FFT2 → transfer multiply → iFFT2. The
        // paper's planes use pitches of tens of λ; here we match the FDTD
        // aperture in λ at a typical 2λ pitch so the comparison is
        // conservative (finer than real devices).
        let n = ((w as f64 / 2.0) as usize).max(8);
        let fft = Fft2::new(n, n);
        let transfer = Field::from_fn(n, n, |r, c| Complex64::cis((r * c) as f64 * 1e-3));
        let fft_ns = median_ns(runs, || {
            let mut f = Field::ones(n, n);
            fft.convolve_spectrum(&mut f, &transfer);
            std::hint::black_box(&f);
        });

        let measured = fdtd_ns / fft_ns;
        last_measured_ratio = measured;
        let model = fdtd_hop_cost(w as f64, z as f64, cells_per_wavelength).ops
            / fft_hop_cost(n as f64).ops;
        report.line(&format!(
            "{:>10} {:>12.4} {:>12.6} {:>9.0}x {:>13.0}x",
            w,
            fdtd_ns * 1e-9,
            fft_ns * 1e-9,
            measured,
            model
        ));
    }

    report.blank();
    report.line("extrapolated to the paper's prototype (200x200 @ 36 um, 532 nm, 0.3 m):");
    let aperture_wl = 200.0 * 36e-6 / 532e-9;
    let distance_wl = 0.3 / 532e-9;
    let paper_fdtd = fdtd_hop_cost(aperture_wl, distance_wl, 15.0);
    let paper_fft = fft_hop_cost(200.0);
    report.row(
        "FDTD/FFT op ratio per hop",
        "infeasible (\"exponential\" blowup)",
        &format!("{:.1e}x", paper_fdtd.ops / paper_fft.ops),
    );
    report.row(
        "FDTD working set",
        "infeasible",
        &format!(
            "{:.1} TB (FFT kernel: {:.1} MB)",
            paper_fdtd.memory_bytes / 1e12,
            paper_fft.memory_bytes / 1e6
        ),
    );

    report.blank();
    let pass = last_measured_ratio > 100.0 && paper_fdtd.ops / paper_fft.ops > 1e9;
    report.line(&format!(
        "shape check: FDTD >100x slower already at toy scale and >1e9x at paper scale: {}",
        if pass { "PASS" } else { "FAIL" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_ratio_is_astronomical() {
        let fdtd = fdtd_hop_cost(200.0 * 36e-6 / 532e-9, 0.3 / 532e-9, 15.0);
        let fft = fft_hop_cost(200.0);
        assert!(fdtd.ops / fft.ops > 1e9);
    }
}
