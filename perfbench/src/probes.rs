//! Kernel probes on the model's 200² planes, at B = the training shard
//! size and at B = 1. They run inside the worker pool, one probe set per
//! worker at once, because that is how `train()` and `evaluate()` call
//! these kernels. Flop and byte counts are computed, not measured.

use crate::report::{median, Report};
use crate::train::BATCH;
use lightridge::DonnModel;
use lr_optics::PropagationScratch;
use lr_tensor::{parallel, Complex64, Direction, Fft2, Field, FieldBatch};
use std::time::Instant;

/// Timed repetitions per probe and worker.
const REPS: usize = 15;

/// Median nanoseconds per plane of `op` on `state`, which is reset from
/// `pristine` (untimed) before each repetition.
fn ns_per_plane<T: Clone>(
    state: &mut T,
    pristine: &T,
    planes: usize,
    mut op: impl FnMut(&mut T),
) -> f64 {
    op(state);
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            state.clone_from(pristine);
            let t = Instant::now();
            op(state);
            t.elapsed().as_nanos() as f64 / planes as f64
        })
        .collect();
    median(&times)
}

pub fn run(report: &mut Report, model: &DonnModel) {
    let (rows, cols) = model.grid().shape();
    let workers = parallel::threads();
    let shard = BATCH.div_ceil(workers);
    let per_worker: Vec<[f64; 6]> = parallel::par_map(workers, |w| {
        let plane = Field::from_fn(rows, cols, |r, c| {
            Complex64::new(((r + w) as f64 * 0.1).sin(), (c as f64 * 0.07).cos())
        });
        let mut batch = FieldBatch::zeros(shard, rows, cols);
        for b in 0..shard {
            batch.copy_plane_from(b, &plane);
        }
        let pristine_batch = batch.clone();
        let mut single = plane.clone();
        let fft = Fft2::new(rows, cols);
        let mut fft_batch_ws = fft.make_batch_workspace();
        let mut fft_ws = fft.make_workspace();
        let hop = model.final_propagator();
        let mut batch_scratch = PropagationScratch::new_batched(rows, cols);
        let mut scratch = PropagationScratch::new(rows, cols);
        let mut logits = vec![Vec::new(); shard];
        [
            ns_per_plane(&mut batch, &pristine_batch, shard, |b| {
                fft.fft2_batch_with(b, &mut fft_batch_ws)
            }),
            ns_per_plane(&mut single, &plane, 1, |f| {
                fft.process_with(f, Direction::Forward, &mut fft_ws)
            }),
            ns_per_plane(&mut batch, &pristine_batch, shard, |b| {
                hop.propagate_batch_into(b, &mut batch_scratch)
            }),
            ns_per_plane(&mut batch, &pristine_batch, shard, |b| {
                hop.adjoint_batch_into(b, &mut batch_scratch)
            }),
            ns_per_plane(&mut single, &plane, 1, |f| {
                hop.propagate_with(f, &mut scratch)
            }),
            ns_per_plane(&mut batch, &pristine_batch, shard, |b| {
                model.detector().read_batch_into(b, &mut logits)
            }),
        ]
    });
    let samples = REPS * workers;
    let probe = |i: usize| median(&per_worker.iter().map(|p| p[i]).collect::<Vec<_>>());
    let names = [
        "tensor.fft2_batch_ns_per_plane",
        "tensor.fft2_ns_per_plane",
        "optics.propagate_batch_ns_per_plane",
        "optics.adjoint_batch_ns_per_plane",
        "optics.propagate_ns_per_plane",
        "core.detector_read_batch_ns_per_plane",
    ];
    for (i, name) in names.into_iter().enumerate() {
        report.metric(name, probe(i), samples);
    }
    // Computed counts: 5·N·log₂N flops for an N-point complex FFT (the
    // 2-D plane has N = rows·cols points), and one read plus one write of
    // the complex128 plane.
    let n = (rows * cols) as f64;
    let flops = 5.0 * n * n.log2();
    report.metric("tensor.fft2_flops_per_plane", flops, 1);
    report.metric(
        "kernel.bytes_per_plane",
        2.0 * n * std::mem::size_of::<Complex64>() as f64,
        1,
    );
    report.metric("tensor.fft2_batch_gflops", flops / probe(0), samples);
}
