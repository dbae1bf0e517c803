//! Counting-allocator proof of the zero-copy propagation pipeline: after
//! warm-up, the workspace-threaded forward pass performs **zero heap
//! allocations** per sample — and, with the trace ring, so does the full
//! forward-trace + backward training step of one sample (a one-plane
//! batch). Whole batches (`infer_batch_into`, and `forward_trace_batch_into`
//! with `backward_batch_with` through a `BatchTraceRing`) carry the same
//! contract: one `BatchWorkspace` serves them with zero steady-state
//! allocations and stays bit-identical to one-sample passes — on a
//! codesign stack too, in Soft and Deploy inference and the Gumbel
//! training step. A parameter write empties the written layers'
//! transmission tables: the first pass after it allocates one table per
//! layer, and from then on inference and training allocate nothing again.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so any concurrently running test would pollute the
//! counters. Sequential mode is forced (`set_threads(1)`) because the
//! pooled FFT path intentionally draws from per-worker thread-local
//! scratch instead of the caller's workspace. The forward and backward
//! phases run inside the one test function for the same reason.

use lightridge::{BatchTraceRing, CodesignMode, Detector, DonnBuilder, ModelGrads};
use lr_nn::loss::{one_hot_into, softmax_mse_into};
use lr_obs::{kernel_profile, reset_kernel_profile, set_kernel_profiling, KernelKind};
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::{parallel, Complex64, Field, FieldBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator — the count is the
// only addition, and it never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's own contract to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's own contract to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's own contract to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_forward_pass_allocates_nothing() {
    parallel::set_threads(1);

    // A 3-layer 64×64 DONN — the same shape of pipeline as the paper's
    // 200² systems (diffract → modulate per layer → final hop → detector).
    let grid = Grid::square(64, PixelPitch::from_um(36.0));
    let build_raw = || {
        DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(40.0))
            .diffractive_layers(3)
            .detector(Detector::grid_layout(64, 64, 10, 5))
            .build()
    };
    let model = build_raw();

    let input = Field::from_fn(64, 64, |r, c| {
        Complex64::from_real(if (r / 8 + c / 8) % 2 == 0 { 1.0 } else { 0.0 })
    });
    let mut ws = model.make_workspace();
    let mut logits = Vec::with_capacity(model.num_classes());

    // Warm-up: fills the global plan/transfer caches, sizes the workspace
    // scratch, and reserves the logits buffer.
    for _ in 0..3 {
        model.infer_into(&input, &mut ws, &mut logits);
    }
    let reference_logits = logits.clone();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        model.infer_into(&input, &mut ws, &mut logits);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state forward pass must not allocate (got {} allocations over 10 passes)",
        after - before
    );
    // And it must still compute the right thing.
    assert_eq!(logits, reference_logits);
    assert!(logits.iter().all(|l| l.is_finite() && *l >= 0.0));
    assert!(logits.iter().sum::<f64>() > 0.0);

    // ---- Backward pass: the trace ring extends zero-allocation to the
    // full training step of one sample (forward trace + loss + backward
    // of a one-plane batch). ----
    let mut one_input = FieldBatch::zeros(1, 64, 64);
    one_input.copy_plane_from(0, &input);
    let mut ring = BatchTraceRing::new(2);
    let mut grads = ModelGrads::zeros_like(&model);
    let mut target = Vec::with_capacity(model.num_classes());
    let mut logit_grads = vec![Vec::with_capacity(model.num_classes())];

    // Warm-up: fills the ring slots (2 traces), the loss buffers, and the
    // workspace gradient plane.
    let train_step = |ring: &mut BatchTraceRing,
                      grads: &mut ModelGrads,
                      target: &mut Vec<f64>,
                      logit_grads: &mut [Vec<f64>],
                      ws: &mut lightridge::BatchWorkspace| {
        let trace = ring.forward(&model, &one_input, CodesignMode::Soft, &[7], ws);
        one_hot_into(2, model.num_classes(), target);
        let loss = softmax_mse_into(&trace.logits[0], target, &mut logit_grads[0]);
        model.backward_batch_with(trace, logit_grads, grads, ws);
        loss
    };
    for _ in 0..3 {
        train_step(
            &mut ring,
            &mut grads,
            &mut target,
            &mut logit_grads,
            &mut ws,
        );
    }
    let reference_loss = train_step(
        &mut ring,
        &mut grads,
        &mut target,
        &mut logit_grads,
        &mut ws,
    );
    let reference_norm = grads.norm();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut last_loss = 0.0;
    for _ in 0..10 {
        last_loss = train_step(
            &mut ring,
            &mut grads,
            &mut target,
            &mut logit_grads,
            &mut ws,
        );
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state training step must not allocate (got {} allocations over 10 steps)",
        after - before
    );
    // Reused traces/buffers must still compute the same things.
    assert_eq!(last_loss, reference_loss);
    assert!(
        grads.norm() > reference_norm,
        "gradients must keep accumulating"
    );

    // ---- Batched inference: a whole batch through one BatchWorkspace
    // must allocate nothing in steady state and stay bit-identical to the
    // per-sample path. ----
    const BATCH: usize = 4;
    let inputs_vec: Vec<Field> = (0..BATCH)
        .map(|b| {
            Field::from_fn(64, 64, |r, c| {
                Complex64::from_real(if (r / 4 + c / 4 + b) % 3 == 0 {
                    1.0
                } else {
                    0.0
                })
            })
        })
        .collect();
    let input_refs: Vec<&Field> = inputs_vec.iter().collect();
    let mut batch_ws = model.make_batch_workspace(BATCH);
    let mut outputs: Vec<Vec<f64>> = (0..BATCH)
        .map(|_| Vec::with_capacity(model.num_classes()))
        .collect();
    for _ in 0..3 {
        model.infer_batch_into(&input_refs, CodesignMode::Soft, &mut batch_ws, &mut outputs);
    }
    let reference_outputs = outputs.clone();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        model.infer_batch_into(&input_refs, CodesignMode::Soft, &mut batch_ws, &mut outputs);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state batched inference must not allocate (got {} allocations over 10 passes)",
        after - before
    );
    assert_eq!(outputs, reference_outputs);
    for (input, out) in inputs_vec.iter().zip(&outputs) {
        let mut per_sample = Vec::with_capacity(model.num_classes());
        model.infer_into(input, &mut ws, &mut per_sample);
        assert_eq!(
            out, &per_sample,
            "batched inference must stay bit-identical to per-sample"
        );
    }

    // ---- Batched training step: the whole batch forwards and backwards
    // as one FieldBatch through a BatchTraceRing — zero steady-state
    // allocations for the diffractive stack. ----
    let mut batch_inputs = FieldBatch::zeros(BATCH, 64, 64);
    for (b, input) in inputs_vec.iter().enumerate() {
        batch_inputs.copy_plane_from(b, input);
    }
    let seeds: Vec<u64> = (0..BATCH as u64).map(|b| b * 7919 + 13).collect();
    let mut batch_ring = BatchTraceRing::new(1);
    let mut batch_grads = ModelGrads::zeros_like(&model);
    let mut batch_logit_grads: Vec<Vec<f64>> = (0..BATCH)
        .map(|_| Vec::with_capacity(model.num_classes()))
        .collect();
    let batch_step = |ring: &mut BatchTraceRing,
                      grads: &mut ModelGrads,
                      target: &mut Vec<f64>,
                      logit_grads: &mut [Vec<f64>],
                      ws: &mut lightridge::BatchWorkspace|
     -> f64 {
        let trace = ring.forward(&model, &batch_inputs, CodesignMode::Soft, &seeds, ws);
        let mut loss = 0.0;
        for (b, lg) in logit_grads.iter_mut().enumerate().take(BATCH) {
            one_hot_into(b % model.num_classes(), model.num_classes(), target);
            loss += softmax_mse_into(&trace.logits[b], target, lg);
        }
        model.backward_batch_with(trace, logit_grads, grads, ws);
        loss
    };
    for _ in 0..3 {
        batch_step(
            &mut batch_ring,
            &mut batch_grads,
            &mut target,
            &mut batch_logit_grads,
            &mut batch_ws,
        );
    }
    let reference_batch_loss = batch_step(
        &mut batch_ring,
        &mut batch_grads,
        &mut target,
        &mut batch_logit_grads,
        &mut batch_ws,
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut last_batch_loss = 0.0;
    for _ in 0..10 {
        last_batch_loss = batch_step(
            &mut batch_ring,
            &mut batch_grads,
            &mut target,
            &mut batch_logit_grads,
            &mut batch_ws,
        );
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state batched training step must not allocate (got {} allocations over 10 steps)",
        after - before
    );
    assert_eq!(last_batch_loss, reference_batch_loss);

    // ---- After a parameter write: one warm forward refills the written
    // model's tables, then inference and batched training steps allocate
    // nothing and match a freshly built model with the same parameters. ----
    let mut written = build_raw();
    for p in written.layers_mut()[1].params_mut() {
        *p += 0.5;
    }
    let mut fresh = build_raw();
    fresh.layers_mut()[1]
        .params_mut()
        .copy_from_slice(written.layers()[1].params());
    let written_step = |model: &lightridge::DonnModel,
                        ring: &mut BatchTraceRing,
                        grads: &mut ModelGrads,
                        target: &mut Vec<f64>,
                        logit_grads: &mut [Vec<f64>],
                        ws: &mut lightridge::BatchWorkspace|
     -> f64 {
        let trace = ring.forward(model, &batch_inputs, CodesignMode::Soft, &seeds, ws);
        let mut loss = 0.0;
        for (b, lg) in logit_grads.iter_mut().enumerate().take(BATCH) {
            one_hot_into(b % model.num_classes(), model.num_classes(), target);
            loss += softmax_mse_into(&trace.logits[b], target, lg);
        }
        model.backward_batch_with(trace, logit_grads, grads, ws);
        loss
    };
    written.infer_into(&input, &mut ws, &mut logits);
    let mut written_grads = ModelGrads::zeros_like(&written);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        written.infer_into(&input, &mut ws, &mut logits);
    }
    let mut written_loss = 0.0;
    for _ in 0..10 {
        written_grads.scale(0.0);
        written_loss = written_step(
            &written,
            &mut batch_ring,
            &mut written_grads,
            &mut target,
            &mut batch_logit_grads,
            &mut batch_ws,
        );
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "after a parameter write and one warm forward, inference and training must not \
         allocate (got {} allocations over 10 passes + 10 steps)",
        after - before
    );
    let mut fresh_logits = Vec::new();
    fresh.infer_into(&input, &mut ws, &mut fresh_logits);
    assert_eq!(
        logits, fresh_logits,
        "written model must infer like a fresh one"
    );
    assert_ne!(logits, reference_logits, "the write must change the logits");
    let mut fresh_grads = ModelGrads::zeros_like(&fresh);
    let fresh_loss = written_step(
        &fresh,
        &mut batch_ring,
        &mut fresh_grads,
        &mut target,
        &mut batch_logit_grads,
        &mut batch_ws,
    );
    assert_eq!(written_loss, fresh_loss);
    for i in 0..written.depth() {
        assert_eq!(
            written_grads.layer(i),
            fresh_grads.layer(i),
            "layer {i} grads"
        );
    }

    // ---- Codesign stack: batched Soft and Deploy inference (the tiled
    // per-pixel state modulation) and the batched traced forward +
    // backward (Gumbel Train mode) allocate nothing in steady state, and
    // inference stays bit-identical to per-sample. ----
    let codesign = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(40.0))
        .diffractive_layers(1)
        .nonlinearity(0.3, 0.8)
        .codesign_layers(2, lr_hardware::SlmModel::ideal(8), 0.7)
        .detector(Detector::grid_layout(64, 64, 10, 5))
        .build();
    let mut cs_ws = codesign.make_batch_workspace(BATCH);
    let mut cs_per_sample_ws = codesign.make_workspace();
    for mode in [CodesignMode::Soft, CodesignMode::Deploy] {
        for _ in 0..3 {
            codesign.infer_batch_into(&input_refs, mode, &mut cs_ws, &mut outputs);
        }
        let reference_outputs = outputs.clone();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10 {
            codesign.infer_batch_into(&input_refs, mode, &mut cs_ws, &mut outputs);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state batched {mode:?} inference on a codesign stack must not allocate \
             (got {} allocations over 10 passes)",
            after - before
        );
        assert_eq!(outputs, reference_outputs);
        for (input, out) in inputs_vec.iter().zip(&outputs) {
            let mut per_sample = Vec::with_capacity(codesign.num_classes());
            codesign.infer_mode_into(input, mode, &mut cs_per_sample_ws, &mut per_sample);
            assert_eq!(
                out, &per_sample,
                "batched {mode:?} inference must stay bit-identical to per-sample"
            );
        }
    }
    let mut cs_ring = BatchTraceRing::new(1);
    let mut cs_grads = ModelGrads::zeros_like(&codesign);
    let cs_step = |ring: &mut BatchTraceRing,
                   grads: &mut ModelGrads,
                   target: &mut Vec<f64>,
                   logit_grads: &mut [Vec<f64>],
                   ws: &mut lightridge::BatchWorkspace|
     -> f64 {
        let trace = ring.forward(&codesign, &batch_inputs, CodesignMode::Train, &seeds, ws);
        let mut loss = 0.0;
        for (b, lg) in logit_grads.iter_mut().enumerate().take(BATCH) {
            one_hot_into(b % codesign.num_classes(), codesign.num_classes(), target);
            loss += softmax_mse_into(&trace.logits[b], target, lg);
        }
        codesign.backward_batch_with(trace, logit_grads, grads, ws);
        loss
    };
    for _ in 0..3 {
        cs_step(
            &mut cs_ring,
            &mut cs_grads,
            &mut target,
            &mut batch_logit_grads,
            &mut cs_ws,
        );
    }
    let reference_cs_loss = cs_step(
        &mut cs_ring,
        &mut cs_grads,
        &mut target,
        &mut batch_logit_grads,
        &mut cs_ws,
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut last_cs_loss = 0.0;
    for _ in 0..10 {
        last_cs_loss = cs_step(
            &mut cs_ring,
            &mut cs_grads,
            &mut target,
            &mut batch_logit_grads,
            &mut cs_ws,
        );
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state batched training step on a codesign stack must not allocate \
         (got {} allocations over 10 steps)",
        after - before
    );
    assert_eq!(last_cs_loss, reference_cs_loss);

    // ---- Kernel profiling: with the profiler ON, the same steady-state
    // forward pass must still allocate nothing (the aggregation cells are
    // process-global atomics), and so must profiled batched codesign
    // inference and training; the profile must attribute time to the FFT
    // passes, the transfer-function apply, the per-pixel modulation, and
    // the detector readout.
    // With it OFF again, the counters must stop moving. ----
    reset_kernel_profile();
    set_kernel_profiling(true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        model.infer_into(&input, &mut ws, &mut logits);
    }
    for mode in [CodesignMode::Soft, CodesignMode::Deploy] {
        codesign.infer_batch_into(&input_refs, mode, &mut cs_ws, &mut outputs);
    }
    cs_step(
        &mut cs_ring,
        &mut cs_grads,
        &mut target,
        &mut batch_logit_grads,
        &mut cs_ws,
    );
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "kernel-profiled forward passes must not allocate (got {} allocations)",
        after - before
    );
    let profile = kernel_profile();
    for kind in [
        KernelKind::FftRows,
        KernelKind::FftCols,
        KernelKind::Transfer,
        KernelKind::Detector,
        KernelKind::Modulate,
    ] {
        let stat = profile.get(kind);
        assert!(
            stat.calls > 0,
            "profiler on: {} must record calls",
            stat.name()
        );
    }
    // 64 is a power of two: the radix-2/4 path, no Stockham or Bluestein.
    assert_eq!(profile.get(KernelKind::Stockham).calls, 0);
    assert_eq!(profile.get(KernelKind::Bluestein).calls, 0);

    set_kernel_profiling(false);
    let frozen = kernel_profile();
    for _ in 0..10 {
        model.infer_into(&input, &mut ws, &mut logits);
    }
    assert_eq!(
        kernel_profile(),
        frozen,
        "profiler off: kernel counters must not move"
    );

    parallel::set_threads(0);
}
