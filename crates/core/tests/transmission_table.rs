//! The transmission-table contract: every phase-modulating layer caches its
//! per-pixel transmission, so a parameter write must empty that table and
//! the next pass must see the new parameters. After each `&mut` mutator,
//! per-sample and batched logits in Soft and Deploy mode are **bitwise**
//! equal to a freshly built model holding the same parameters; clones share
//! the table until one of them writes, and a write to either side leaves the
//! other's logits untouched. The first pass after a write fills the table
//! once even when many threads run it at the same time (CI runs this file
//! under ThreadSanitizer).

use lightridge::{CodesignMode, Detector, DonnBuilder, DonnModel, Layer};
use lr_hardware::SlmModel;
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::{parallel, Complex64, Field};
use std::sync::Barrier;

const ROWS: usize = 12;
const COLS: usize = 10;
const BATCH: usize = 3;

/// Two raw layers, a nonlinearity and two codesign layers.
fn build() -> DonnModel {
    let grid = Grid::new(ROWS, COLS, PixelPitch::from_um(36.0));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(20.0))
        .gamma(1.3)
        .diffractive_layers(2)
        .nonlinearity(0.3, 0.8)
        .codesign_layers(2, SlmModel::ideal(6), 0.7)
        .detector(Detector::grid_layout(ROWS, COLS, 4, 2))
        .init_seed(5)
        .build()
}

/// A freshly built model carrying `model`'s parameters, γ and τ; its tables
/// have never been filled from other parameters.
fn fresh_like(model: &DonnModel) -> DonnModel {
    let mut fresh = build();
    for (dst, src) in fresh.layers_mut().iter_mut().zip(model.layers()) {
        match (dst, src) {
            (Layer::Diffractive(d), Layer::Diffractive(s)) => {
                d.set_gamma(s.gamma());
                d.phases_mut().copy_from_slice(s.phases());
            }
            (Layer::Codesign(d), Layer::Codesign(s)) => {
                d.set_temperature(s.temperature());
                d.logits_mut().copy_from_slice(s.logits());
            }
            (Layer::Nonlinear(_), Layer::Nonlinear(_)) => {}
            _ => unreachable!("same builder, same stack"),
        }
    }
    fresh
}

fn inputs() -> Vec<Field> {
    (0..BATCH)
        .map(|b| {
            Field::from_fn(ROWS, COLS, |r, c| {
                Complex64::new(((r * 3 + c + b) % 5) as f64 * 0.25, (c % 3) as f64 * 0.1)
            })
        })
        .collect()
}

/// Per-sample then batched logits, Soft then Deploy, as raw bits.
fn logits(model: &DonnModel) -> Vec<Vec<u64>> {
    let inputs = inputs();
    let refs: Vec<&Field> = inputs.iter().collect();
    let mut ws = model.make_workspace();
    let mut batch_ws = model.make_batch_workspace(BATCH);
    let mut out = Vec::new();
    for mode in [CodesignMode::Soft, CodesignMode::Deploy] {
        for input in &inputs {
            let mut l = Vec::new();
            model.infer_mode_into(input, mode, &mut ws, &mut l);
            out.push(l);
        }
        let mut batched = vec![Vec::new(); BATCH];
        model.infer_batch_into(&refs, mode, &mut batch_ws, &mut batched);
        out.extend(batched);
    }
    out.into_iter()
        .map(|l| l.into_iter().map(f64::to_bits).collect())
        .collect()
}

fn raw(model: &mut DonnModel, i: usize) -> &mut lightridge::DiffractiveLayer {
    match &mut model.layers_mut()[i] {
        Layer::Diffractive(l) => l,
        _ => panic!("layer {i} is not a raw layer"),
    }
}

fn codesign(model: &mut DonnModel, i: usize) -> &mut lightridge::CodesignLayer {
    match &mut model.layers_mut()[i] {
        Layer::Codesign(l) => l,
        _ => panic!("layer {i} is not a codesign layer"),
    }
}

type Mutator = (&'static str, fn(&mut DonnModel));

/// Every `&mut` mutator of a phase-modulating layer, applied to one layer
/// (or, for the model-wide setters, to every layer of the kind).
const MUTATORS: &[Mutator] = &[
    ("params_mut (raw)", |m| {
        for p in m.layers_mut()[0].params_mut() {
            *p += 0.37;
        }
    }),
    ("params_mut (codesign)", |m| {
        for (i, p) in m.layers_mut()[3].params_mut().iter_mut().enumerate() {
            *p += (i % 5) as f64 * 0.21;
        }
    }),
    ("phases_mut", |m| raw(m, 1).phases_mut()[7] = -2.5),
    ("set_gamma", |m| m.set_gamma(0.6)),
    ("randomize_phases", |m| raw(m, 1).randomize_phases(99)),
    ("logits_mut", |m| {
        let l = codesign(m, 4).logits_mut();
        l[0] = 3.0;
        l[13] = -1.0;
    }),
    ("set_temperature", |m| m.set_temperature(0.2)),
    ("randomize_logits", |m| codesign(m, 3).randomize_logits(77)),
    ("init_from_phases", |m| {
        let phases: Vec<f64> = (0..ROWS * COLS).map(|p| p as f64 * 0.41).collect();
        codesign(m, 4).init_from_phases(&phases, 4.0);
    }),
];

#[test]
fn every_mutator_empties_the_tables() {
    let mut model = build();
    model.prewarm();
    for (name, mutate) in MUTATORS {
        // Fill every table from the current parameters, then write.
        let before = logits(&model);
        mutate(&mut model);
        let after = logits(&model);
        assert_eq!(after, logits(&fresh_like(&model)), "{name}: stale table");
        assert_ne!(after, before, "{name}: the write must change the logits");
    }
}

#[test]
fn a_write_to_a_clone_leaves_the_other_side_alone() {
    for (name, mutate) in MUTATORS {
        let mut original = build();
        original.prewarm();
        let original_logits = logits(&original);

        // Original → clone: the clone shares the filled table, then writes.
        let mut clone = original.clone();
        assert_eq!(logits(&clone), original_logits, "{name}: clone differs");
        mutate(&mut clone);
        let clone_logits = logits(&clone);
        assert_eq!(clone_logits, logits(&fresh_like(&clone)), "{name}: clone");
        assert_eq!(logits(&original), original_logits, "{name}: original moved");

        // Clone → original: a write to the original leaves the clone alone.
        let other = original.clone();
        mutate(&mut original);
        assert_eq!(logits(&other), original_logits, "{name}: clone moved");
        assert_eq!(logits(&original), logits(&fresh_like(&original)), "{name}");
        assert_eq!(clone_logits, logits(&original), "{name}: same write twice");
    }
}

#[test]
fn concurrent_first_forward_after_a_write_agrees() {
    let mut model = build();
    model.prewarm();
    for p in model.layers_mut()[0].params_mut() {
        *p -= 1.1;
    }
    codesign(&mut model, 3).logits_mut()[2] = 2.0;
    let expected = logits(&fresh_like(&model));

    // Every worker runs the first pass after the write at once, so they
    // race to fill the same empty tables.
    let workers = parallel::threads().max(2);
    let start = Barrier::new(workers);
    let results: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    logits(&model)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for got in results {
        assert_eq!(got, expected);
    }
}
