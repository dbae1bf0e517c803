//! Property-based tests (proptest) over the core physics and training
//! invariants, spanning crates: FFT algebra, propagation unitarity,
//! adjoint consistency, detector linearity, device quantization, and loss
//! gradients — all on randomized inputs.

use lightridge::{Detector, DetectorRegion};
use lr_hardware::{circular_distance, SlmModel};
use lr_optics::{Approximation, Distance, FreeSpace, Grid, PixelPitch, Wavelength};
use lr_tensor::{Complex64, Direction, Field};
use proptest::prelude::*;

fn complex_strategy() -> impl Strategy<Value = Complex64> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex64::new(re, im))
}

fn field_strategy(max_side: usize) -> impl Strategy<Value = Field> {
    (2usize..=max_side).prop_flat_map(|n| {
        proptest::collection::vec(complex_strategy(), n * n)
            .prop_map(move |data| Field::from_vec(n, n, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fft_roundtrip_is_identity(field in field_strategy(24)) {
        let (r, c) = field.shape();
        let fft = lr_tensor::Fft2::new(r, c);
        let mut ws = fft.make_workspace();
        let mut g = field.clone();
        fft.process_planes(g.as_mut_slice(), Direction::Forward, &mut ws);
        fft.process_planes(g.as_mut_slice(), Direction::Inverse, &mut ws);
        prop_assert!(field.distance(&g) < 1e-7 * (1.0 + field.total_power().sqrt()));
    }

    #[test]
    fn fft_preserves_energy_parseval(field in field_strategy(20)) {
        let (r, c) = field.shape();
        let fft = lr_tensor::Fft2::new(r, c);
        let mut g = field.clone();
        fft.process_planes(g.as_mut_slice(), Direction::Forward, &mut fft.make_workspace());
        let lhs = g.total_power() / (r * c) as f64;
        let rhs = field.total_power();
        prop_assert!((lhs - rhs).abs() < 1e-7 * (1.0 + rhs));
    }

    #[test]
    fn propagation_conserves_energy_without_band_limit(
        field in field_strategy(16),
        z_mm in 0.1f64..50.0,
    ) {
        let (n, _) = field.shape();
        let grid = Grid::square(n, PixelPitch::from_um(36.0));
        let prop = FreeSpace::with_options(
            grid,
            Wavelength::from_nm(532.0),
            Distance::from_mm(z_mm),
            Approximation::RayleighSommerfeld,
            false,
        );
        let before = field.total_power();
        let mut u = field;
        prop.propagate_with(&mut u, &mut prop.make_scratch());
        // 36 µm pitch puts every sampled frequency in the propagating band,
        // so |H| = 1 everywhere and energy is conserved exactly.
        prop_assert!((u.total_power() - before).abs() < 1e-7 * (1.0 + before));
    }

    #[test]
    fn propagation_adjoint_identity(
        x in field_strategy(12),
        z_mm in 0.5f64..30.0,
        fresnel in proptest::bool::ANY,
    ) {
        let (n, _) = x.shape();
        let grid = Grid::square(n, PixelPitch::from_um(36.0));
        let approx = if fresnel { Approximation::Fresnel } else { Approximation::RayleighSommerfeld };
        let prop = FreeSpace::new(grid, Wavelength::from_nm(532.0), Distance::from_mm(z_mm), approx);
        let y = Field::from_fn(n, n, |r, c| Complex64::new((r + 1) as f64 * 0.1, c as f64 * 0.2));
        let mut scratch = prop.make_scratch();
        let mut ax = x.clone();
        prop.propagate_with(&mut ax, &mut scratch);
        let mut ahy = y.clone();
        prop.adjoint_with(&mut ahy, &mut scratch);
        let lhs = ax.inner(&y);
        let rhs = x.inner(&ahy);
        prop_assert!((lhs - rhs).norm() < 1e-6 * (1.0 + lhs.norm()));
    }

    #[test]
    fn detector_reading_is_additive_in_intensity(
        field in field_strategy(16),
        scale in 0.1f64..5.0,
    ) {
        let (n, _) = field.shape();
        if n < 8 { return Ok(()); }
        let det = Detector::new(n, n, vec![
            DetectorRegion::new(0, 0, 2, 2),
            DetectorRegion::new(n - 3, n - 3, 2, 2),
        ]);
        let base = det.read(&field);
        let scaled = det.read(&field.scaled(scale));
        for (a, b) in base.iter().zip(&scaled) {
            // |s·U|² = s²·|U|²
            prop_assert!((b - a * scale * scale).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn slm_quantization_is_idempotent(phase in 0.0f64..50.0, bits in 1u32..8) {
        let slm = SlmModel::uniform_bits(bits);
        let q1 = slm.quantize(phase);
        let q2 = slm.quantize(q1);
        prop_assert!(circular_distance(q1, q2) < 1e-12);
        // Quantization error bounded by half a level step.
        let step = std::f64::consts::TAU / slm.num_levels() as f64;
        prop_assert!(circular_distance(phase, q1) <= step / 2.0 + 1e-9);
    }

    #[test]
    fn softmax_mse_gradient_descends(logits in proptest::collection::vec(-5.0f64..5.0, 2..10)) {
        let n = logits.len();
        let target = lr_nn::loss::one_hot(0, n);
        let (loss, grad) = lr_nn::loss::softmax_mse(&logits, &target);
        // A small step against the gradient must not increase the loss.
        let stepped: Vec<f64> = logits.iter().zip(&grad).map(|(l, g)| l - 1e-4 * g).collect();
        let (loss2, _) = lr_nn::loss::softmax_mse(&stepped, &target);
        prop_assert!(loss2 <= loss + 1e-9);
    }

    #[test]
    fn pad_crop_preserves_content(field in field_strategy(12), extra in 1usize..8) {
        let (r, c) = field.shape();
        let padded = field.pad_centered(r + 2 * extra, c + 2 * extra);
        prop_assert!((padded.total_power() - field.total_power()).abs() < 1e-12);
        let back = padded.crop_centered(r, c);
        prop_assert_eq!(back, field);
    }

    #[test]
    fn gbdt_never_predicts_outside_target_hull(
        ys in proptest::collection::vec(0.0f64..1.0, 4..20),
        probe in -2.0f64..2.0,
    ) {
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64 / ys.len() as f64]).collect();
        let model = lr_dse::GradientBoostingRegressor::fit(
            &xs,
            &ys,
            lr_dse::BoostConfig { n_estimators: 30, learning_rate: 0.3, max_depth: 2 },
        );
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let pred = model.predict(&[probe]);
        // Squared-loss boosting with mean leaves stays within the hull, up
        // to shrinkage overshoot of one learning-rate step.
        let slack = 0.3 * (hi - lo) + 1e-9;
        prop_assert!(pred >= lo - slack && pred <= hi + slack, "pred {} outside [{}, {}]", pred, lo, hi);
    }
}
