//! The paper's §5.1 visible-range prototype, end to end on an emulated
//! bench: codesign training against the LC2012 SLM's measured-style
//! response curve, fabrication export, deployment with per-unit
//! fabrication errors and camera noise, and the Fig. 6 simulation-vs-
//! experiment pattern comparison.
//!
//! Run with: `cargo run --release --example prototype_532nm`

use lightridge::deploy::{to_system, HardwareEnvironment, PhysicalDonn};
use lightridge::train::{self, TrainConfig};
use lightridge::{viz, Detector, DonnBuilder};
use lr_datasets::digits::{self, DigitsConfig};
use lr_hardware::SlmModel;
use lr_nn::metrics::pearson;
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::Field;

fn main() {
    let size = 32;
    let device = SlmModel::lc2012();
    println!(
        "target device: {} ({} levels, max quantization error {:.4} rad)",
        device.name(),
        device.num_levels(),
        device.max_quantization_error()
    );

    // DSE-informed prototype parameters (scaled down from 200x200/0.28m).
    let grid = Grid::square(size, PixelPitch::from_um(36.0));
    let mut model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(20.0))
        .codesign_layers(3, device.clone(), 1.0)
        .detector(Detector::grid_layout(size, size, 10, size / 8))
        .build();

    let config = DigitsConfig {
        size,
        ..Default::default()
    };
    let data = lr_datasets::split(digits::generate(700, &config, 9), 6.0 / 7.0);
    let tc = TrainConfig {
        epochs: 10,
        batch_size: 25,
        learning_rate: 0.3,
        initial_temperature: 0.8,
        final_temperature: 0.2,
        verbose: true,
        ..TrainConfig::default()
    };
    train::train(&mut model, &data.train, &tc);
    println!(
        "emulation accuracy: {:.3}",
        train::evaluate(&model, &data.test)
    );

    // Fabrication export — what `lr.model.to_system` hands to the lab.
    let export = to_system(&model, &device);
    println!("\nfabrication export:\n{}", export.summary());

    // Deploy on the emulated bench and compare patterns (Fig. 6).
    let env = HardwareEnvironment::prototype(42);
    let physical = PhysicalDonn::deploy(&model, &env);
    println!("deployed accuracy:  {:.3}", physical.evaluate(&data.test));

    let (img, label) = &data.test[1];
    let input = Field::from_amplitudes(size, size, img);
    let sim = model.detector_pattern(&input);
    let exp = physical.capture(&input, 1);
    println!(
        "\ndetector patterns for a test digit (class {label}), correlation r = {:.3}:",
        pearson(&sim, &exp)
    );
    println!(
        "{}",
        viz::side_by_side(&sim, &exp, size, size, 26, ("simulation", "experiment"))
    );
}
