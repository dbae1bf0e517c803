//! Figure 6: prototype validation — simulated vs "experimental" detector
//! patterns for digits 0–9.
//!
//! The paper trains a 3-layer visible-range DONN with LightRidge, loads the
//! phase masks onto physical SLMs, and shows the measured camera patterns
//! match the emulation per digit. Our "experiment" is the emulated bench:
//! the LC2012 device model with frozen fabrication errors and a 10-bit
//! noisy camera. The figure's claim becomes a per-digit Pearson
//! correlation between emulated and captured patterns.

use crate::common::{f3, Mode, Report};
use lightridge::deploy::{pattern_correlations, HardwareEnvironment, PhysicalDonn};
use lightridge::train::{self, TrainConfig};
use lightridge::{viz, Detector, DonnBuilder};
use lr_datasets::digits::{self, DigitsConfig};
use lr_hardware::SlmModel;
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::Field;

/// Runs the experiment.
pub fn run(mode: Mode) -> Report {
    let mut report =
        Report::new("Figure 6: prototype validation (simulation vs emulated hardware)");
    let size = mode.pick(32, 200);
    let (n_train, epochs) = mode.pick((600, 12), (2000, 100));
    let grid = Grid::square(size, PixelPitch::from_um(36.0));
    let device = SlmModel::lc2012();

    // 3-layer codesign model, as deployed on the paper's optical table.
    let mut model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(mode.pick(20.0, 280.0)))
        .codesign_layers(3, device, 1.0)
        .detector(Detector::grid_layout(size, size, 10, size / 8))
        .init_seed(2)
        .build();

    let config = DigitsConfig {
        size,
        ..Default::default()
    };
    let data = digits::generate(n_train, &config, 3);
    let tc = TrainConfig {
        epochs,
        batch_size: 25,
        learning_rate: 0.3,
        seed: 2,
        ..TrainConfig::default()
    };
    train::train(&mut model, &data, &tc);

    let env = HardwareEnvironment::prototype(4);
    let physical = PhysicalDonn::deploy(&model, &env);

    // One clean sample of each digit.
    let clean_config = DigitsConfig {
        size,
        jitter: 0.0,
        noise: 0.0,
        ..Default::default()
    };
    let inputs: Vec<Vec<f64>> = digits::generate(10, &clean_config, 99)
        .into_iter()
        .map(|(img, _)| img)
        .collect();

    let corrs = pattern_correlations(&model, &env, &inputs);
    report.line("per-digit Pearson correlation, emulated vs captured pattern:");
    for (d, c) in corrs.iter().enumerate() {
        report.line(&format!("  digit {d}: r = {}", f3(*c)));
    }
    let mean_corr = corrs.iter().sum::<f64>() / corrs.len() as f64;
    report.row(
        "mean sim/experiment pattern correlation",
        "visually identical",
        &format!("r = {}", f3(mean_corr)),
    );

    // Show one side-by-side pattern (digit 0), like the figure.
    let input = Field::from_amplitudes(size, size, &inputs[0]);
    let sim = model.detector_pattern(&input);
    let exp = physical.capture(&input, 1);
    report.line("digit 0 detector patterns:");
    report.line(&viz::side_by_side(
        &sim,
        &exp,
        size,
        size,
        24,
        ("simulation", "experiment"),
    ));

    // Deployed accuracy, the other half of the figure's claim.
    let test = digits::generate(100, &config, 7);
    let emu_acc = train::evaluate(&model, &test);
    let dep_acc = physical.evaluate(&test);
    report.row(
        "emulation accuracy",
        "~0.97 (binarized MNIST)",
        &f3(emu_acc),
    );
    report.row(
        "deployed (hardware) accuracy",
        "matches emulation",
        &f3(dep_acc),
    );
    report.line(&format!(
        "shape check: mean correlation {} > 0.8 and |emu-deploy| {} < 0.15: {}",
        f3(mean_corr),
        f3((emu_acc - dep_acc).abs()),
        if mean_corr > 0.8 && (emu_acc - dep_acc).abs() < 0.15 {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    report
}
