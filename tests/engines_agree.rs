//! Cross-engine validation: a trained LightRidge DONN and the
//! LightPipes-style baseline engine implement the *same physics*, so
//! running the same trained phase masks through both must produce the same
//! detector readings. This is the software analogue of the paper's
//! hardware-correlation claim: the fast kernels are exactly as precise as
//! the reference implementation.

use lightridge::train::{self, TrainConfig};
use lightridge::{CodesignMode, Detector, DonnBuilder};
use lr_datasets::digits::{self, DigitsConfig};
use lr_lightpipes as lp;
use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::Field;

#[test]
fn trained_donn_forward_matches_lightpipes_reference() {
    let size = 24;
    let pitch = 36e-6;
    let z = 0.012;
    let grid = Grid::square(size, PixelPitch::from_meters(pitch));

    // Train a small model (band-limiting off so both engines share the
    // exact same transfer function).
    let mut model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_meters(z))
        .approximation(Approximation::RayleighSommerfeld)
        .diffractive_layers(2)
        .detector(Detector::grid_layout(size, size, 10, 3))
        .init_seed(6)
        .build();
    let config = DigitsConfig {
        size,
        ..Default::default()
    };
    let data = digits::generate(120, &config, 5);
    train::train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 2,
            batch_size: 20,
            learning_rate: 0.3,
            ..Default::default()
        },
    );

    // Rebuild the model without band-limiting for the comparison.
    let masks = model.phase_masks();
    let prop = lr_optics::FreeSpace::with_options(
        grid,
        Wavelength::from_nm(532.0),
        Distance::from_meters(z),
        Approximation::RayleighSommerfeld,
        false,
    );

    let (img, _) = &data[0];

    // LightRidge path (manual, band-limit off).
    let mut u = Field::from_amplitudes(size, size, img);
    for mask in &masks {
        prop.propagate(&mut u);
        for (zv, &p) in u.as_mut_slice().iter_mut().zip(mask) {
            *zv *= lr_tensor::Complex64::cis(p);
        }
    }
    prop.propagate(&mut u);
    let lr_logits = model.detector().read(&u);

    // LightPipes path: same masks, same physics, naive engine.
    let mut f = lp::begin(size, pitch, 532e-9);
    f = lp::substitute_intensity(&f, img);
    for mask in &masks {
        f = lp::forvard(&f, z);
        f = lp::phase_mask(&f, mask);
    }
    f = lp::forvard(&f, z);
    let intensity: Vec<f64> = lp::intensity(&f).into_iter().flatten().collect();
    let lp_logits = model.detector().read_intensity(&intensity);

    for (k, (a, b)) in lr_logits.iter().zip(&lp_logits).enumerate() {
        assert!(
            (a - b).abs() < 1e-6 * (1.0 + a.abs()),
            "engines disagree on detector region {k}: {a} vs {b}"
        );
    }
}

#[test]
fn band_limited_model_still_classifies_like_reference() {
    // With band-limiting on (the default), logits may differ slightly from
    // the naive engine, but predictions should agree on easy inputs.
    let size = 24;
    let grid = Grid::square(size, PixelPitch::from_um(36.0));
    let mut model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(12.0))
        .diffractive_layers(2)
        .detector(Detector::grid_layout(size, size, 10, 3))
        .init_seed(8)
        .build();
    let config = DigitsConfig {
        size,
        ..Default::default()
    };
    let data = digits::generate(200, &config, 6);
    train::train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 4,
            batch_size: 20,
            learning_rate: 0.3,
            ..Default::default()
        },
    );
    // The emulation (soft) and the trace-based deployment (hard has no
    // codesign layers here, so they are identical paths) agree exactly.
    let (img, _) = &data[0];
    let input = Field::from_amplitudes(size, size, img);
    let a = model.infer(&input);
    let b = model.forward_trace(&input, CodesignMode::Deploy, 0).logits;
    for (x, y) in a.iter().zip(&b[0]) {
        assert!((x - y).abs() < 1e-12, "raw layers must be mode-independent");
    }
}
