//! Shared utilities for the per-figure experiment regenerators.
//!
//! Timings come from [`lr_bench::median_ns`], the one sampler the
//! `lr-bench` perf artifacts use too.

use lr_lightpipes::LpField;
use lr_tensor::{Complex64, Fft2, Field};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Minutes on a 2-core box: reduced sizes/samples/epochs. Shapes of the
    /// paper's results are preserved; absolute numbers are smaller.
    Quick,
    /// Closer to paper scale (hours). Same code paths.
    Full,
}

impl Mode {
    /// Picks `quick` or `full` value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Mode::Quick => quick,
            Mode::Full => full,
        }
    }
}

/// The hand-rolled LightRidge `depth`-layer forward the Fig. 8 / Fig. 9 /
/// Table 1 comparisons time: per layer, one spectral convolution with
/// `transfer` and a phase mask computed with `cis` on every call.
pub fn lightridge_forward(
    fft: &Fft2,
    mut field: Field,
    transfer: &Field,
    phases: &[f64],
    depth: usize,
) -> Field {
    for _ in 0..depth {
        fft.convolve_spectrum(&mut field, transfer);
        for (z, &p) in field.as_mut_slice().iter_mut().zip(phases) {
            *z *= Complex64::cis(p);
        }
    }
    field
}

/// The same `depth`-layer forward written against the LightPipes-style
/// engine: one `forvard` hop (1 cm) and one `phase_mask` per layer.
pub fn lightpipes_forward(mut field: LpField, phases: &[f64], depth: usize) -> LpField {
    for _ in 0..depth {
        field = lr_lightpipes::forvard(&field, 0.01);
        field = lr_lightpipes::phase_mask(&field, phases);
    }
    field
}

/// A report accumulator: builds the text block an experiment prints and
/// archives.
#[derive(Debug, Default, Clone)]
pub struct Report {
    lines: Vec<String>,
}

impl Report {
    /// Creates an empty report with a title banner.
    pub fn new(title: &str) -> Self {
        let mut r = Report::default();
        r.line(&format!("==== {title} ===="));
        r
    }

    /// Appends one line.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        self.lines.push(s.to_string());
    }

    /// Appends a `paper vs measured` row.
    pub fn row(&mut self, label: &str, paper: &str, measured: &str) {
        self.line(&format!(
            "{label:<38} paper: {paper:<18} measured: {measured}"
        ));
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// The accumulated text.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a speedup ratio like `6.4x`.
pub fn speedup(baseline: f64, ours: f64) -> String {
    format!("{:.1}x", baseline / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_pick() {
        assert_eq!(Mode::Quick.pick(1, 2), 1);
        assert_eq!(Mode::Full.pick(1, 2), 2);
    }

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("t");
        r.row("metric", "1.0", "0.9");
        assert!(r.text().contains("==== t ===="));
        assert!(r.text().contains("metric"));
    }

    #[test]
    fn speedup_format() {
        assert_eq!(speedup(6.4, 1.0), "6.4x");
    }
}
