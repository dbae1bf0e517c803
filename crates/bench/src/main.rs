//! `lr-bench` — machine-readable perf artifacts.
//!
//! Default (kernels) mode emits `BENCH_kernels.json` with median
//! wall-clock timings of the operators the paper's Fig. 8 tracks: the
//! 2-D FFT at the system resolutions, next to the transpose-based
//! reference FFT2 (`Fft2::process_reference`) at 200². It also gates the
//! fused batched forward pass against a B=1 loop at a pow2-friendly
//! (200) and a prime Rader-path (197) grid (`forward_batch/*`), and
//! sweeps the SIMD kernels at forced lane widths (`simd_lanes/*`, see
//! [`simd_lanes_medians`]). Future PRs diff this file to keep a perf
//! trajectory.
//!
//! `lr-bench serve` runs the deterministic synthetic load generator
//! against the sharded `lr-serve` runtime — both in-process and through
//! the `lr-net` socket front end over loopback TCP — and emits
//! `BENCH_serve.json` (see `serve_bench`). `lr-bench compare` diffs a
//! current artifact against a committed baseline and fails on
//! regression — the CI perf gate (see `compare`).
//!
//! Every timing comes from [`lr_bench::median_ns`] and every artifact is
//! a [`Json`] value written by [`write_json`]. An unwritable output path
//! exits with code 2 before anything is measured.
//!
//! Usage:
//! * `lr-bench [--out PATH] [--quick]`
//! * `lr-bench serve [--out PATH] [--quick] [--shards N] [--trace-out PATH]`
//! * `lr-bench compare --baseline <file> --current <file> [--tolerance-pct N]`

mod compare;
mod serve_bench;

use lightridge::{CodesignMode, Detector, DonnBuilder, DonnModel};
use lr_bench::json::{write_json, Json};
use lr_bench::{create_output, median_ns};
use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::simd::{self, SimdLevel};
use lr_tensor::{parallel, Complex64, Direction, Fft2, Field, FieldBatch};
use std::io::Write as _;
use std::path::Path;

/// Plane sizes of the Fig. 8 FFT2 sweep. The reference FFT2 runs at the
/// first one only.
const FFT_SIZES: [usize; 3] = [200, 350, 500];

/// Grids of the batched-forward sweep: 200 takes the pow2-friendly
/// paths; 197 is prime, so every per-plane FFT takes the Rader path
/// (196 = 2²·7² is smooth) and the gate covers more than the fast path.
const FORWARD_GRIDS: [usize; 2] = [200, 197];

/// Lane widths of the SIMD sweep; the first is the scalar anchor.
const SIMD_WIDTHS: [(&str, SimdLevel); 3] = [
    ("scalar", SimdLevel::Scalar),
    ("x2", SimdLevel::X2),
    ("x4", SimdLevel::X4),
];

/// Kernels of the SIMD sweep.
const SIMD_KERNELS: [&str; 3] = ["fft2_batch", "transfer_apply", "detector_readout"];

/// Raw medians of one kernel run, in nanoseconds. [`kernel_artifact`]
/// gives them their metric names.
struct KernelRun {
    /// Forward `Fft2::process_planes` on one plane at each of
    /// [`FFT_SIZES`].
    fft2: [f64; 3],
    /// `Fft2::process_reference` at `FFT_SIZES[0]`.
    fft2_reference: f64,
    /// `(batched, B=1 loop)` over 16 inputs of a 3-layer model at each of
    /// [`FORWARD_GRIDS`].
    forward_batch: [(f64, f64); 2],
    /// `[kernel][width]` over [`SIMD_KERNELS`] × [`SIMD_WIDTHS`]; `None`
    /// where this CPU cannot execute the width.
    simd_lanes: [[Option<f64>; 3]; 3],
    /// Lane count the runtime detector picks on this machine.
    dispatch_width: usize,
}

fn make_field(n: usize) -> Field {
    Field::from_fn(n, n, |r, c| {
        Complex64::new((r as f64 * 0.1).sin(), (c as f64 * 0.07).cos())
    })
}

fn donn(grid_n: usize, depth: usize) -> DonnModel {
    let grid = Grid::square(grid_n, PixelPitch::from_um(36.0));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(300.0))
        .approximation(Approximation::RayleighSommerfeld)
        .diffractive_layers(depth)
        .detector(Detector::grid_layout(grid_n, grid_n, 10, grid_n / 12))
        .build()
}

/// Times the fused batched forward pass (`infer_batch_into`) and a B=1
/// `infer_into` loop over the same inputs, returning `(batched, loop)`.
/// Both run the same per-plane kernels — the SIMD lanes span rows and
/// columns of one plane either way — so the delta is dispatch, plan
/// lookup and transfer broadcast amortized across the batch.
fn forward_batch_medians(model: &DonnModel, batch: &[Field], samples: usize) -> (f64, f64) {
    let input_refs: Vec<&Field> = batch.iter().collect();
    let mut batch_ws = model.make_batch_workspace(batch.len());
    let mut outputs: Vec<Vec<f64>> = (0..batch.len())
        .map(|_| Vec::with_capacity(model.num_classes()))
        .collect();
    let batched_ns = median_ns(samples, || {
        model.infer_batch_into(&input_refs, CodesignMode::Soft, &mut batch_ws, &mut outputs);
        std::hint::black_box(&outputs);
    });
    let mut sample_ws = model.make_workspace();
    let per_sample_ns = median_ns(samples, || {
        for (input, out) in batch.iter().zip(outputs.iter_mut()) {
            model.infer_into(input, &mut sample_ws, out);
        }
        std::hint::black_box(&outputs);
    });
    (batched_ns, per_sample_ns)
}

/// Sweeps the SIMD kernels at forced lane widths: `[kernel][width]`
/// medians plus the lane count the runtime detector picks here.
///
/// 128×128 planes stay under the pooled-parallel threshold
/// (`PAR_MIN_LEN`), so every width runs single-threaded on any machine.
/// Widths the CPU cannot execute (`force` clamps them) are
/// skipped — the committed baselines assume an AVX2-capable x86-64 host,
/// which every hosted CI runner provides. `force` is process-global; this
/// sweep runs single-threaded and restores auto-detection afterwards.
fn simd_lanes_medians(samples: usize) -> ([[Option<f64>; 3]; 3], usize) {
    const N: usize = 128;
    const B: usize = 8;
    // Speedup ratios divide two noisy medians, so this sweep needs
    // tighter medians than the raw trend metrics even in --quick mode.
    let samples = samples.max(11);
    let fft = Fft2::new(N, N);
    let transfer = make_field(N);
    let plane = make_field(N);
    let mut batch = FieldBatch::zeros(B, N, N);
    for b in 0..B {
        batch.copy_plane_from(b, &plane);
    }
    let mut planes: Vec<Complex64> = Vec::with_capacity(B * N * N);
    for _ in 0..B {
        planes.extend_from_slice(plane.as_slice());
    }

    let mut medians = [[None; 3]; 3];
    for (w, &(_, level)) in SIMD_WIDTHS.iter().enumerate() {
        simd::force(Some(level));
        if simd::dispatch() != level {
            // Clamped: this CPU cannot execute the requested width.
            continue;
        }
        let mut ws = fft.make_workspace();
        medians[0][w] = Some(median_ns(samples, || {
            fft.process_planes(batch.as_mut_slice(), Direction::Forward, &mut ws);
            fft.process_planes(batch.as_mut_slice(), Direction::Inverse, &mut ws);
            std::hint::black_box(&batch);
        }));
        medians[1][w] = Some(median_ns(samples, || {
            fft.convolve_planes(&mut planes, &transfer, &mut ws);
            std::hint::black_box(&planes);
        }));
        medians[2][w] = Some(median_ns(samples, || {
            // 16 repetitions per timed iteration: one reduction over the
            // 8-plane buffer is ~100 µs, too small for a stable median on
            // a noisy box. The emitted value is the 16-rep total; the
            // gated speedup ratios are unaffected by the constant factor.
            for _ in 0..16 {
                std::hint::black_box(simd::sum_norm_sqr(&planes));
            }
        }));
    }
    simd::force(None);
    (medians, simd::dispatch().lanes())
}

fn measure_kernels(quick: bool) -> KernelRun {
    let (fft_samples, fwd_samples) = if quick { (5, 3) } else { (15, 7) };

    // --- Fig. 8 FFT2 kernels, and the reference FFT2 at 200 ------------
    let mut fft2 = [0.0; 3];
    let mut fft2_reference = 0.0;
    for (i, &n) in FFT_SIZES.iter().enumerate() {
        let fft = Fft2::new(n, n);
        let base = make_field(n);
        let mut f = base.clone();
        let mut ws = fft.make_workspace();
        fft2[i] = median_ns(fft_samples, || {
            f.copy_from(&base);
            fft.process_planes(f.as_mut_slice(), Direction::Forward, &mut ws);
        });
        if i == 0 {
            fft2_reference = median_ns(fft_samples, || {
                f.copy_from(&base);
                fft.process_reference(&mut f, Direction::Forward);
            });
        }
    }

    // --- Fused batched forward vs a B=1 loop ----------------------------
    let forward_batch = FORWARD_GRIDS.map(|n| {
        let batch: Vec<Field> = (0..16)
            .map(|i| {
                Field::from_fn(n, n, |r, c| {
                    Complex64::from_real(if (r + c + i) % 7 < 3 { 1.0 } else { 0.0 })
                })
            })
            .collect();
        forward_batch_medians(&donn(n, 3), &batch, fwd_samples)
    });

    // --- SIMD lane-width sweep ------------------------------------------
    let (simd_lanes, dispatch_width) = simd_lanes_medians(fft_samples);

    KernelRun {
        fft2,
        fft2_reference,
        forward_batch,
        simd_lanes,
        dispatch_width,
    }
}

/// Names the medians of `run` and wraps them in the kernel artifact.
///
/// Only the scalar anchor of the SIMD sweep (largest, most stable) lands
/// as raw nanoseconds; the vector widths land as scalar-relative
/// speedups — gating both the ratio and its noisy numerator would double
/// the flake exposure without adding information.
fn kernel_artifact(quick: bool, run: &KernelRun) -> Json {
    let mut medians: Vec<(String, Json)> = Vec::new();
    let mut push = |name: String, v: f64| medians.push((name, v.into()));
    for (&n, &ns) in FFT_SIZES.iter().zip(&run.fft2) {
        push(format!("fig8_fft2/lightridge/{n}"), ns);
        if n == FFT_SIZES[0] {
            push(format!("fig8_fft2/reference/{n}"), run.fft2_reference);
            push(format!("fig8_fft2/speedup/{n}"), run.fft2_reference / ns);
        }
    }
    for (&n, &(batched, per_sample)) in FORWARD_GRIDS.iter().zip(&run.forward_batch) {
        let tag = format!("{n}x3x16");
        push(format!("forward_batch/lightridge/{tag}"), batched);
        push(format!("forward_batch/per_sample/{tag}"), per_sample);
        push(format!("forward_batch/speedup/{tag}"), per_sample / batched);
    }
    for (w, &(width, _)) in SIMD_WIDTHS.iter().enumerate() {
        for (kernel, m) in SIMD_KERNELS.iter().zip(&run.simd_lanes) {
            match (m[0], m[w]) {
                (Some(scalar), _) if w == 0 => push(format!("simd_lanes/{kernel}/scalar"), scalar),
                (Some(scalar), Some(ns)) => {
                    push(format!("simd_lanes/{kernel}/{width}_speedup"), scalar / ns)
                }
                _ => {}
            }
        }
    }
    push(
        "simd_lanes/dispatch_width".to_string(),
        run.dispatch_width as f64,
    );
    Json::obj([
        ("generated_by", "lr-bench".into()),
        ("threads", parallel::threads().into()),
        ("mode", if quick { "quick" } else { "full" }.into()),
        ("median_ns", Json::Obj(medians)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_bench::run(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..]);
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_kernels.json", String::as_str);
    let quick = args.iter().any(|a| a == "--quick");
    let mut out = create_output(Path::new(out_path));

    let json = write_json(&kernel_artifact(quick, &measure_kernels(quick)));
    out.write_all(json.as_bytes())
        .expect("failed to write bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_bench::json::parse_json;
    use std::collections::BTreeSet;

    /// The flattened metric paths of an artifact.
    pub(crate) fn paths(artifact: &Json) -> BTreeSet<String> {
        let mut flat = Vec::new();
        compare::flatten(artifact, "", &mut flat);
        flat.into_iter().map(|(path, _)| path).collect()
    }

    #[test]
    fn kernel_artifact_emits_every_baseline_metric() {
        let run = KernelRun {
            fft2: [1.0, 2.0, 3.0],
            fft2_reference: 4.0,
            forward_batch: [(5.0, 6.0), (7.0, 8.0)],
            simd_lanes: [[Some(9.0); 3]; 3],
            dispatch_width: 4,
        };
        let baseline = parse_json(include_str!("../../../BENCH_kernels.baseline.json")).unwrap();
        assert_eq!(paths(&kernel_artifact(true, &run)), paths(&baseline));
    }
}
