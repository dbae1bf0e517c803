//! Inputs and models shared by the workloads, and the measured phase that
//! interleaves the cold set-ups `setup_s` times with the timed operations.

use crate::report::{SetupTimes, WINDOWS};
use lightridge::train::LabeledImage;
use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_datasets::digits::{self, DigitsConfig};
use lr_optics::{Grid, PixelPitch, Wavelength};
use std::time::{Duration, Instant};

/// Cold set-ups at the start of each window; `setup_s` is the mean of the
/// per-window medians.
const SETUPS_PER_WINDOW: usize = 5;

/// A phase-only classifier in the D2NN standard: `n`×`n` grid at 36 µm
/// pitch, 532 nm, the builder's default 0.3 m spacing with
/// Rayleigh–Sommerfeld propagation, `depth` raw diffractive layers and a
/// 10-class detector grid.
pub fn classifier(n: usize, depth: usize, seed: u64) -> DonnModel {
    DonnBuilder::new(
        Grid::square(n, PixelPitch::from_um(36.0)),
        Wavelength::from_nm(532.0),
    )
    .diffractive_layers(depth)
    .detector(Detector::grid_layout(n, n, 10, n / 8))
    .init_seed(seed)
    .build()
}

/// `count` procedural digits at `size`×`size`.
pub fn digits(count: usize, size: usize, seed: u64) -> Vec<LabeledImage> {
    let config = DigitsConfig {
        size,
        ..DigitsConfig::default()
    };
    digits::generate(count, &config, seed)
}

/// Per-phase stopwatch handed to one set-up.
#[derive(Default)]
pub struct Phases {
    pub data: f64,
    pub build: f64,
    pub prewarm: f64,
    pub server: f64,
}

/// Times `f` and adds its duration to `slot`.
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// Runs the measured phase: `WINDOWS` windows, each opening with
/// `SETUPS_PER_WINDOW` set-ups from cold global caches (FFT plans and
/// transfer functions cleared; each instance dropped untimed) and then
/// calling `op(window)` until the window's share of `budget` has passed.
/// Spreading the set-ups over the phase keeps one slow or fast phase of
/// the host from moving all of them. Returns the set-up times.
pub fn measured_phase<T>(
    budget: Duration,
    mut set_up: impl FnMut(&mut Phases) -> T,
    mut op: impl FnMut(usize),
) -> SetupTimes {
    let mut times = SetupTimes::default();
    for window in 0..WINDOWS {
        for _ in 0..SETUPS_PER_WINDOW {
            lr_tensor::clear_plan_cache();
            lr_optics::clear_transfer_cache();
            let mut phases = Phases::default();
            let t = Instant::now();
            let instance = set_up(&mut phases);
            times.total.push(t.elapsed().as_secs_f64());
            drop(instance);
            times.data.push(phases.data);
            times.build.push(phases.build);
            times.prewarm.push(phases.prewarm);
            times.server.push(phases.server);
        }
        let end = Instant::now() + budget / WINDOWS as u32;
        while Instant::now() < end {
            op(window);
        }
    }
    times
}

/// SplitMix64: derives independent seeds for each input from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
