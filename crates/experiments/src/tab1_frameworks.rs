//! Table 1: programming-framework comparison.
//!
//! The paper compares LightRidge against LightPipes and hand-written
//! PyTorch/TF DONN codebases on four axes: optics kernels, DSE support,
//! lines-of-code to express a 5-layer DONN (validation and training), and
//! pre-fabrication runtime. We measure LoC from representative programs in
//! both styles and time the validation workload in both engines.

use crate::common::{lightpipes_forward, lightridge_forward, speedup, Mode, Report};
use lr_bench::median_ns;
use lr_tensor::{Complex64, Fft2, Field};

/// The 5-layer DONN in LightRidge's textual DSL — the complete program
/// Table 1 counts, covering model definition *and* training setup. It is
/// parsed and compiled below, so the LoC figure is backed by code that
/// actually runs.
const LIGHTRIDGE_PROGRAM: &str = "\
system five_layer_mnist {
    laser { wavelength = 532 nm; }
    grid { size = 200; pixel = 36 um; }
    propagation { distance = 300 mm; approx = rayleigh_sommerfeld; }
    layers { diffractive x 5; }
    detector { classes = 10; det_size = 20; }
    training { epochs = 5; learning_rate = 0.5; batch_size = 500; }
}";

/// The same *validation-only* workload written against a LightPipes-style
/// API: manual per-layer plumbing, no trainable layers, no detector
/// abstraction (training is not expressible at all — the kernels are not
/// differentiable).
const LIGHTPIPES_PROGRAM: &str = r#"
let mut field = lp::begin(200, 36.0e-6, 532e-9);
field = lp::substitute_intensity(&field, &image);
field = lp::forvard(&field, 0.3);
field = lp::phase_mask(&field, &phases_layer1);
field = lp::forvard(&field, 0.3);
field = lp::phase_mask(&field, &phases_layer2);
field = lp::forvard(&field, 0.3);
field = lp::phase_mask(&field, &phases_layer3);
field = lp::forvard(&field, 0.3);
field = lp::phase_mask(&field, &phases_layer4);
field = lp::forvard(&field, 0.3);
field = lp::phase_mask(&field, &phases_layer5);
field = lp::forvard(&field, 0.3);
let pattern = lp::intensity(&field);
let mut logits = vec![0.0; 10];
for (k, region) in regions.iter().enumerate() {
    for r in region.rows() {
        for c in region.cols() {
            logits[k] += pattern[r][c];
        }
    }
}
let prediction = argmax(&logits);
"#;

fn loc(program: &str) -> usize {
    program.lines().filter(|l| !l.trim().is_empty()).count()
}

/// Runs the experiment.
pub fn run(mode: Mode) -> Report {
    let mut report = Report::new("Table 1: framework comparison");
    let n = mode.pick(128, 500);
    let runs = mode.pick(5, 3);

    // Prove the counted DSL program is executable: parse, validate, and
    // compile it into a real model with the advertised shape.
    let spec = lr_dsl::parse_spec(LIGHTRIDGE_PROGRAM).expect("Table 1 DSL program must be valid");
    let compiled = lr_dsl::compile(&spec);
    assert_eq!(compiled.model.depth(), 5);
    assert_eq!(compiled.model.num_classes(), 10);
    report.line(&format!(
        "DSL program compiles: {} modulating layers, {} classes, {} trainable parameters",
        spec.num_modulating_layers(),
        compiled.model.num_classes(),
        compiled.model.num_params()
    ));
    report.blank();

    // Feature matrix.
    report.line(&format!(
        "{:<28} {:>14} {:>6} {:>10} {:>10}",
        "framework", "optics kernels", "DSE", "LoC (val)", "LoC (train)"
    ));
    let lr_loc = loc(LIGHTRIDGE_PROGRAM);
    let lp_loc = loc(LIGHTPIPES_PROGRAM);
    report.line(&format!(
        "{:<28} {:>14} {:>6} {:>10} {:>10}",
        "LightRidge-RS", "yes", "yes", lr_loc, lr_loc
    ));
    report.line(&format!(
        "{:<28} {:>14} {:>6} {:>10} {:>10}",
        "LightPipes-style", "yes", "no", lp_loc, "n/a (not differentiable)"
    ));
    report.row(
        "LoC ratio (validation)",
        "2x",
        &format!("{:.1}x", lp_loc as f64 / lr_loc as f64),
    );

    // Pre-fab runtime: one 5-layer validation pass per engine.
    let phases: Vec<f64> = (0..n * n).map(|i| (i % 628) as f64 * 0.01).collect();
    let fft = Fft2::new(n, n);
    let transfer = Field::from_fn(n, n, |r, c| Complex64::cis((r * c) as f64 * 1e-4));
    let lr_time = median_ns(runs, || {
        std::hint::black_box(lightridge_forward(
            &fft,
            Field::ones(n, n),
            &transfer,
            &phases,
            5,
        ));
    });
    let lp_time = median_ns(runs, || {
        let start = lr_lightpipes::begin(n, 10e-6, 532e-9);
        std::hint::black_box(lightpipes_forward(start, &phases, 5));
    });
    report.row(
        "pre-fab emulation runtime ratio",
        "mins-hrs vs days",
        &speedup(lp_time, lr_time),
    );
    report.blank();
    let pass = lp_loc > lr_loc && lp_time > lr_time;
    report.line(&format!(
        "shape check: LightRidge fewer LoC and faster runtime: {}",
        if pass { "PASS" } else { "FAIL" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_nonempty_lines() {
        assert_eq!(loc("a\n\nb\n  \nc"), 3);
    }

    #[test]
    fn dsl_program_is_shorter() {
        assert!(loc(LIGHTRIDGE_PROGRAM) < loc(LIGHTPIPES_PROGRAM));
    }
}
