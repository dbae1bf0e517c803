//! Figure 8: per-operator speedup breakdown, LightRidge vs LightPipes.
//!
//! The paper decomposes the 5-layer DONN workload into its three dominant
//! tensor operators — FFT2, iFFT2, and complex elementwise multiplication —
//! and reports per-operator and overall speedups (CPU: 11×/10×/4×, overall
//! 6.4×). We time the same operators in both engines on this machine.

use crate::common::{lightpipes_forward, lightridge_forward, speedup, Mode, Report};
use lr_bench::median_ns;
use lr_tensor::{Complex64, Fft2, Field};

/// Runs the experiment.
pub fn run(mode: Mode) -> Report {
    let mut report = Report::new("Figure 8: operator speedup breakdown (LightRidge vs LightPipes)");
    let n = mode.pick(128, 500);
    let depth = 5;
    let runs = mode.pick(5, 3);
    report.line(&format!("workload: {depth}-layer DONN forward at {n}x{n}"));

    // Inputs.
    let field = Field::from_fn(n, n, |r, c| {
        Complex64::new((r as f64 * 0.1).sin(), (c as f64 * 0.05).cos())
    });
    let transfer = Field::from_fn(n, n, |r, c| Complex64::cis((r * c) as f64 * 1e-4));
    let lp_grid: Vec<Vec<Complex64>> = (0..n)
        .map(|r| (0..n).map(|c| field[(r, c)]).collect())
        .collect();
    let lp_transfer: Vec<Vec<Complex64>> = (0..n)
        .map(|r| (0..n).map(|c| transfer[(r, c)]).collect())
        .collect();

    // --- FFT2 ---
    let fft = Fft2::new(n, n);
    let lr_fft = median_ns(runs, || {
        let mut f = field.clone();
        fft.forward(&mut f);
        std::hint::black_box(&f);
    });
    let lp_fft = median_ns(runs, || {
        let out = lr_lightpipes::fft2(&lp_grid, false);
        std::hint::black_box(&out);
    });

    // --- iFFT2 ---
    let lr_ifft = median_ns(runs, || {
        let mut f = field.clone();
        fft.inverse(&mut f);
        std::hint::black_box(&f);
    });
    let lp_ifft = median_ns(runs, || {
        let out = lr_lightpipes::fft2(&lp_grid, true);
        std::hint::black_box(&out);
    });

    // --- Complex MM ---
    // The transfer is unit-magnitude, so repeated in-place multiplication
    // keeps the buffer bounded; this times the fused kernel itself rather
    // than an allocation.
    let mut mm_buf = field.clone();
    let lr_mm = median_ns(runs, || {
        mm_buf.hadamard_assign(&transfer);
        std::hint::black_box(&mm_buf);
    });
    let lp_mm = median_ns(runs, || {
        let out = lr_lightpipes::complex_mm(&lp_grid, &lp_transfer);
        std::hint::black_box(&out);
    });

    // --- Overall: full 5-layer forward ---
    let phases: Vec<f64> = (0..n * n).map(|i| (i % 628) as f64 * 0.01).collect();
    let lr_total = median_ns(runs, || {
        std::hint::black_box(lightridge_forward(
            &fft,
            field.clone(),
            &transfer,
            &phases,
            depth,
        ));
    });
    let lp_total = median_ns(runs, || {
        let start = lr_lightpipes::LpField {
            grid: lp_grid.clone(),
            pitch: 10e-6,
            wavelength: 532e-9,
        };
        std::hint::black_box(lightpipes_forward(start, &phases, depth));
    });

    report.row("FFT2 speedup", "11x (CPU)", &speedup(lp_fft, lr_fft));
    report.row("iFFT2 speedup", "10x (CPU)", &speedup(lp_ifft, lr_ifft));
    report.row("Complex MM speedup", "4x (CPU)", &speedup(lp_mm, lr_mm));
    report.row(
        "overall forward speedup",
        "6.4x (CPU)",
        &speedup(lp_total, lr_total),
    );
    report.blank();
    report.line(&format!(
        "absolute times (median of {runs}): LR fft2 {:.1}ms, LP fft2 {:.1}ms, LR fwd {:.1}ms, LP fwd {:.1}ms",
        lr_fft * 1e-6,
        lp_fft * 1e-6,
        lr_total * 1e-6,
        lp_total * 1e-6
    ));
    let pass = lp_fft / lr_fft > 1.5 && lp_total / lr_total > 1.5;
    report.line(&format!(
        "shape check: LightRidge faster on every operator and overall: {}",
        if pass { "PASS" } else { "FAIL" }
    ));
    report
}
