//! Figure 9: end-to-end emulation speedups across DONN depth and system
//! size.
//!
//! The paper sweeps {1,3,5,7,10}-layer DONNs at resolutions 100²–500² and
//! reports LightRidge-vs-LightPipes speedups on CPU (up to 6.4×) and GPU
//! (up to 12×). We reproduce the CPU sweep; the multi-threaded LightRidge
//! backend stands in for the GPU role (same structural advantage: batch
//! parallel execution of fused kernels).

use crate::common::{lightpipes_forward, lightridge_forward, Mode, Report};
use lr_bench::median_ns;
use lr_tensor::{Complex64, Fft2, Field};

/// Runs the experiment.
pub fn run(mode: Mode) -> Report {
    let mut report = Report::new("Figure 9: end-to-end emulation speedups vs depth and size");
    let sizes: Vec<usize> = mode.pick(vec![64, 100, 128], vec![100, 200, 300, 400, 500]);
    let depths: Vec<usize> = mode.pick(vec![1, 3, 5], vec![1, 3, 5, 7, 10]);

    report.line(&format!(
        "{:>6} {:>6} {:>12} {:>12} {:>9}",
        "size", "depth", "LR (ms)", "LP (ms)", "speedup"
    ));
    let runs = mode.pick(3, 3);
    let mut max_speedup: f64 = 0.0;
    let mut min_speedup = f64::INFINITY;
    for &n in &sizes {
        let phases: Vec<f64> = (0..n * n).map(|i| (i % 628) as f64 * 0.01).collect();
        let field = Field::from_fn(n, n, |r, c| Complex64::new((r + c) as f64 * 0.01, 0.0));
        let transfer = Field::from_fn(n, n, |r, c| Complex64::cis((r * c) as f64 * 1e-4));
        let fft = Fft2::new(n, n);
        for &depth in &depths {
            let lr = median_ns(runs, || {
                std::hint::black_box(lightridge_forward(
                    &fft,
                    field.clone(),
                    &transfer,
                    &phases,
                    depth,
                ));
            });
            let lp = median_ns(runs, || {
                let start = lr_lightpipes::begin(n, 10e-6, 532e-9);
                std::hint::black_box(lightpipes_forward(start, &phases, depth));
            });
            let s = lp / lr;
            max_speedup = max_speedup.max(s);
            min_speedup = min_speedup.min(s);
            report.line(&format!(
                "{:>6} {:>6} {:>12.2} {:>12.2} {:>8.1}x",
                n,
                depth,
                lr * 1e-6,
                lp * 1e-6,
                s
            ));
        }
    }
    report.blank();
    report.row(
        "peak speedup",
        "6.4x CPU / 12x GPU",
        &format!("{max_speedup:.1}x"),
    );
    report.row(
        "min speedup",
        ">1x everywhere",
        &format!("{min_speedup:.1}x"),
    );
    report.line(&format!(
        "shape check: LightRidge wins at every (size, depth): {}",
        if min_speedup > 1.0 { "PASS" } else { "FAIL" }
    ));
    report
}
