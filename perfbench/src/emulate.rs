//! The `emulate` workload: repeated `evaluate()` calls over a fixed
//! held-out digits set on the same 200×200×5 model as `train`.
//!
//! Why it exists: it uses the same kernels differently — forward only,
//! per-sample `infer` sharded across workers, no backward and no
//! `FieldBatch` — so a change that speeds batched training at the expense
//! of per-sample inference shows here.

use crate::report::{median, rate, Report, WindowStats, WINDOWS};
use crate::setup::{self, derive_seed, timed, Phases};
use crate::{probes, Args};
use lightridge::train::{evaluate, LabeledImage};
use lightridge::{CodesignMode, DonnModel};
use lr_nn::metrics::argmax;
use lr_tensor::{parallel, Field};
use std::time::Instant;

const GRID: usize = 200;
const DEPTH: usize = 5;
/// Held-out images per `evaluate()` call.
const SAMPLES: usize = 16;
/// Planes per `infer_batch_into` call of the batched cross-check.
const CHECK_BATCH: usize = 16;

pub fn run(args: &Args, report: &mut Report) {
    let set_up = |p: &mut Phases| {
        let data = timed(&mut p.data, || {
            setup::digits(SAMPLES, GRID, derive_seed(args.seed, 11))
        });
        let model = timed(&mut p.build, || {
            setup::classifier(GRID, DEPTH, derive_seed(args.seed, 12))
        });
        timed(&mut p.prewarm, || model.prewarm());
        (data, model)
    };
    let (data, model) = set_up(&mut Phases::default());

    // Untimed warm-up call; its accuracy is the reference.
    let reference = evaluate(&model, &data);
    report.check(
        reference.to_bits() == batched_accuracy(&model, &data).to_bits(),
        "evaluate() accuracy equals the batched infer_batch_into argmax accuracy",
    );

    let mut calls = vec![Vec::new(); WINDOWS];
    let times = setup::measured_phase(args.untraced_budget(), set_up, |window| {
        let t = Instant::now();
        let accuracy = evaluate(&model, &data);
        calls[window].push(t.elapsed().as_secs_f64());
        report.check(
            accuracy.to_bits() == reference.to_bits(),
            "evaluate() accuracy is the same on every call",
        );
    });
    report.setup(&times);
    let n = calls.iter().map(Vec::len).sum();
    let windows: Vec<WindowStats> = calls
        .iter()
        .map(|w| WindowStats::of_ops(SAMPLES, w))
        .collect();
    report.end_to_end(&windows, n);
    if !args.trace {
        return;
    }
    let throughput = rate(SAMPLES, &calls.concat());

    let mut make_workspace = Vec::new();
    let mut infers = Vec::new();
    let mut pool_wait = Vec::new();
    let mut residuals = Vec::new();
    let mut traced_wall = 0.0;
    let start = Instant::now();
    while start.elapsed() < args.traced_budget() {
        let sweep = traced_sweep(&model, &data);
        report.check_replica(
            sweep.accuracy.to_bits() == reference.to_bits(),
            "traced sweep reproduces evaluate() accuracy",
        );
        let slowest = sweep
            .shards
            .iter()
            .max_by(|a, b| a.total.total_cmp(&b.total))
            .expect("at least one shard");
        let waited = sweep.wall - slowest.total;
        let covered = slowest.make_workspace + slowest.infers.iter().sum::<f64>();
        pool_wait.push(waited);
        residuals.push(sweep.wall - waited - covered);
        traced_wall += sweep.wall;
        for shard in &sweep.shards {
            make_workspace.push(shard.make_workspace);
            infers.extend_from_slice(&shard.infers);
        }
    }
    let sweeps = residuals.len();
    report.metric(
        "core.make_workspace_us",
        median(&make_workspace) * 1e6,
        make_workspace.len(),
    );
    report.metric("core.infer_p50_us", median(&infers) * 1e6, infers.len());
    report.metric("tensor.pool_wait_ms", median(&pool_wait) * 1e3, sweeps);
    report.metric("unattributed_ms", median(&residuals) * 1e3, sweeps);
    let traced_throughput = (SAMPLES * sweeps) as f64 / traced_wall;
    report.metric(
        "trace_overhead_frac",
        1.0 - traced_throughput / throughput,
        sweeps,
    );
    probes::run(report, &model);
}

/// Argmax accuracy through the batched inference path.
fn batched_accuracy(model: &DonnModel, data: &[LabeledImage]) -> f64 {
    let (rows, cols) = model.grid().shape();
    let mut ws = model.make_batch_workspace(CHECK_BATCH);
    let mut outputs = vec![Vec::new(); CHECK_BATCH];
    let mut correct = 0usize;
    for chunk in data.chunks(CHECK_BATCH) {
        let fields: Vec<Field> = chunk
            .iter()
            .map(|(img, _)| Field::from_amplitudes(rows, cols, img))
            .collect();
        let inputs: Vec<&Field> = fields.iter().collect();
        let outputs = &mut outputs[..chunk.len()];
        model.infer_batch_into(&inputs, CodesignMode::Soft, &mut ws, outputs);
        correct += chunk
            .iter()
            .zip(outputs.iter())
            .filter(|((_, label), logits)| argmax(logits) == *label)
            .count();
    }
    correct as f64 / data.len() as f64
}

/// Spans of one worker shard of a sweep, in seconds.
struct Shard {
    total: f64,
    make_workspace: f64,
    infers: Vec<f64>,
}

struct Sweep {
    accuracy: f64,
    wall: f64,
    shards: Vec<Shard>,
}

/// One `evaluate()` call rebuilt from its public parts — the same shard
/// split and per-image `infer_mode_into` — with a span around each call.
fn traced_sweep(model: &DonnModel, data: &[LabeledImage]) -> Sweep {
    let t_sweep = Instant::now();
    let (rows, cols) = model.grid().shape();
    let workers = parallel::threads().min(data.len()).max(1);
    let shard_size = data.len().div_ceil(workers);
    let shards = parallel::par_map(workers, |w| {
        let t_shard = Instant::now();
        let t = Instant::now();
        let mut ws = model.make_workspace();
        let make_workspace = t.elapsed().as_secs_f64();
        let mut logits = Vec::with_capacity(model.num_classes());
        let mut correct = 0usize;
        let mut infers = Vec::with_capacity(shard_size);
        for (img, label) in data.iter().skip(w * shard_size).take(shard_size) {
            let input = Field::from_amplitudes(rows, cols, img);
            let t = Instant::now();
            model.infer_mode_into(&input, CodesignMode::Soft, &mut ws, &mut logits);
            infers.push(t.elapsed().as_secs_f64());
            correct += usize::from(argmax(&logits) == *label);
        }
        let shard = Shard {
            total: t_shard.elapsed().as_secs_f64(),
            make_workspace,
            infers,
        };
        (correct, shard)
    });
    let correct: usize = shards.iter().map(|s| s.0).sum();
    Sweep {
        accuracy: correct as f64 / data.len() as f64,
        wall: t_sweep.elapsed().as_secs_f64(),
        shards: shards.into_iter().map(|s| s.1).collect(),
    }
}
