//! The `train` workload: repeated one-epoch `train()` calls on the D2NN
//! standard model, each started from the same initial model.
//!
//! Why it exists: batched forward+backward FFT, propagation and adjoint
//! kernels do almost all of the work here, so this is where multi-core
//! scheduling of the batched kernels shows.

use crate::report::{median, rate, Report, WindowStats, WINDOWS};
use crate::setup::{self, derive_seed, timed, Phases};
use crate::{probes, Args};
use lightridge::train::{train, LabeledImage, TrainConfig};
use lightridge::{BatchTraceRing, CodesignMode, DonnModel, ModelGrads};
use lr_nn::loss::{one_hot_into, softmax_mse_into};
use lr_nn::metrics::argmax;
use lr_nn::{Adam, Optimizer};
use lr_tensor::{parallel, FieldBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

const GRID: usize = 200;
const DEPTH: usize = 5;
/// Batch size of every training step.
pub const BATCH: usize = 32;
/// Training images: two whole batches per epoch.
const SAMPLES: usize = 2 * BATCH;

pub fn run(args: &Args, report: &mut Report) {
    let set_up = |p: &mut Phases| {
        let data = timed(&mut p.data, || {
            setup::digits(SAMPLES, GRID, derive_seed(args.seed, 1))
        });
        let model = timed(&mut p.build, || {
            setup::classifier(GRID, DEPTH, derive_seed(args.seed, 2))
        });
        timed(&mut p.prewarm, || model.prewarm());
        (data, model)
    };
    let (data, model) = set_up(&mut Phases::default());
    let config = TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        seed: derive_seed(args.seed, 3),
        ..TrainConfig::default()
    };

    // Untimed warm-up epoch; its result is the reference every later
    // epoch must reproduce bit for bit.
    let mut reference = model.clone();
    let reference_loss = train(&mut reference, &data, &config)[0].loss;
    report.check(reference_loss.is_finite(), "warm-up epoch loss is finite");

    let mut epochs = vec![Vec::new(); WINDOWS];
    let times = setup::measured_phase(args.untraced_budget(), set_up, |window| {
        let mut trained = model.clone();
        let t = Instant::now();
        let history = train(&mut trained, &data, &config);
        epochs[window].push(t.elapsed().as_secs_f64());
        let loss = history.first().map_or(f64::NAN, |s| s.loss);
        report.check(
            loss.is_finite() && same_phases(&trained, &reference),
            "train() epoch is finite and bitwise equal to the warm-up epoch",
        );
    });
    report.setup(&times);
    let n = epochs.iter().map(Vec::len).sum();
    let windows: Vec<WindowStats> = epochs
        .iter()
        .map(|w| WindowStats::of_ops(SAMPLES, w))
        .collect();
    report.end_to_end(&windows, n);
    if !args.trace {
        return;
    }
    let throughput = rate(SAMPLES, &epochs.concat());

    let mut steps = Vec::new();
    let mut residuals = Vec::new();
    let mut traced_wall = 0.0;
    let start = Instant::now();
    while start.elapsed() < args.traced_budget() {
        let epoch = traced_epoch(&model, &data, &config);
        report.check_replica(
            same_phases(&epoch.model, &reference)
                && epoch.loss.to_bits() == reference_loss.to_bits(),
            "traced epoch reproduces train() bit for bit",
        );
        let attributed: f64 = epoch.steps.iter().map(Step::attributed).sum();
        residuals.push(epoch.wall - attributed);
        traced_wall += epoch.wall;
        steps.extend(epoch.steps);
    }
    let n = steps.len();
    let per_step = |f: fn(&Step) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    report.metric(
        "core.make_batch_workspace_ms",
        per_step(|s| s.slowest.make_workspace) * 1e3,
        n,
    );
    report.metric(
        "core.forward_trace_batch_ms",
        per_step(|s| s.slowest.forward) * 1e3,
        n,
    );
    report.metric(
        "core.backward_batch_ms",
        per_step(|s| s.slowest.backward) * 1e3,
        n,
    );
    report.metric("nn.loss_us", per_step(|s| s.slowest.loss) * 1e6, n);
    report.metric("core.grads_merge_us", per_step(|s| s.merge) * 1e6, n);
    report.metric("nn.adam_us", per_step(|s| s.adam) * 1e6, n);
    report.metric("tensor.pool_wait_ms", per_step(|s| s.pool_wait) * 1e3, n);
    report.metric("unattributed_ms", median(&residuals) * 1e3, residuals.len());
    let traced_throughput = (SAMPLES * residuals.len()) as f64 / traced_wall;
    report.metric(
        "trace_overhead_frac",
        1.0 - traced_throughput / throughput,
        residuals.len(),
    );
    probes::run(report, &model);
}

/// True when every layer's parameters of `a` and `b` are bitwise equal.
fn same_phases(a: &DonnModel, b: &DonnModel) -> bool {
    a.layers().len() == b.layers().len()
        && a.layers().iter().zip(b.layers()).all(|(x, y)| {
            x.params().len() == y.params().len()
                && x.params()
                    .iter()
                    .zip(y.params())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Spans of one worker shard of a training step, in seconds.
#[derive(Default, Clone, Copy)]
struct Shard {
    total: f64,
    make_workspace: f64,
    forward: f64,
    loss: f64,
    backward: f64,
}

/// Spans of one training step, in seconds. Shard spans are those of the
/// step's slowest shard, which the step waits for.
struct Step {
    slowest: Shard,
    merge: f64,
    adam: f64,
    /// Step wall time minus the serial spans minus the slowest shard.
    pool_wait: f64,
}

impl Step {
    /// The part of the step's wall time that a span covers.
    fn attributed(&self) -> f64 {
        let s = &self.slowest;
        s.make_workspace + s.forward + s.loss + s.backward + self.merge + self.adam + self.pool_wait
    }
}

struct TracedEpoch {
    model: DonnModel,
    loss: f64,
    wall: f64,
    steps: Vec<Step>,
}

/// One epoch of `train()` rebuilt from its public parts, with a span
/// around each call: the same shuffle, Gumbel seeds, shard split and
/// accumulation order, so the result is bitwise equal to `train()`'s.
fn traced_epoch(init: &DonnModel, data: &[LabeledImage], config: &TrainConfig) -> TracedEpoch {
    let mut model = init.clone();
    let t_epoch = Instant::now();
    let mut opt = Adam::new(config.learning_rate);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    model.set_temperature(config.initial_temperature);
    order.shuffle(&mut rng);
    let classes = model.num_classes();
    let (rows, cols) = model.grid().shape();
    let mut epoch_loss = 0.0;
    let mut steps = Vec::new();
    // `train()` numbers its single epoch 0 in the Gumbel seeds.
    let epoch = 0u64;

    for (batch_idx, batch) in order.chunks(config.batch_size).enumerate() {
        let t_step = Instant::now();
        let workers = parallel::threads().min(batch.len()).max(1);
        let shard_size = batch.len().div_ceil(workers);
        let frozen = &model;
        let shards = parallel::par_map(workers, |w| {
            let t_shard = Instant::now();
            let mut spans = Shard::default();
            let shard: Vec<usize> = batch
                .iter()
                .skip(w * shard_size)
                .take(shard_size)
                .copied()
                .collect();
            let bsz = shard.len();
            let mut grads = ModelGrads::zeros_like(frozen);
            let mut loss_sum = 0.0;
            if bsz == 0 {
                return (grads, loss_sum, spans);
            }
            let mut ws = timed(&mut spans.make_workspace, || {
                frozen.make_batch_workspace(bsz)
            });
            let mut ring = BatchTraceRing::new(1);
            let mut inputs = FieldBatch::zeros(bsz, rows, cols);
            let mut seeds = Vec::with_capacity(bsz);
            let mut target = Vec::with_capacity(classes);
            let mut logit_grads: Vec<Vec<f64>> =
                (0..bsz).map(|_| Vec::with_capacity(classes)).collect();
            for (b, &idx) in shard.iter().enumerate() {
                inputs.set_plane_amplitudes(b, &data[idx].0);
                seeds.push(
                    epoch
                        .wrapping_mul(1_000_003)
                        .wrapping_add((batch_idx as u64).wrapping_mul(4099))
                        .wrapping_add(idx as u64),
                );
            }
            let trace = timed(&mut spans.forward, || {
                ring.forward(frozen, &inputs, CodesignMode::Train, &seeds, &mut ws)
            });
            timed(&mut spans.loss, || {
                for (b, &idx) in shard.iter().enumerate() {
                    one_hot_into(data[idx].1, classes, &mut target);
                    loss_sum += softmax_mse_into(&trace.logits[b], &target, &mut logit_grads[b]);
                    std::hint::black_box(argmax(&trace.logits[b]));
                }
            });
            timed(&mut spans.backward, || {
                frozen.backward_batch_with(trace, &logit_grads, &mut grads, &mut ws)
            });
            spans.total = t_shard.elapsed().as_secs_f64();
            (grads, loss_sum, spans)
        });

        let mut merge = 0.0;
        let total = timed(&mut merge, || {
            let mut total = ModelGrads::zeros_like(&model);
            let mut loss_sum = 0.0;
            for (g, l, _) in &shards {
                total.accumulate(g);
                loss_sum += l;
            }
            epoch_loss += loss_sum;
            total.scale(1.0 / batch.len() as f64);
            total
        });
        let mut adam = 0.0;
        timed(&mut adam, || {
            for (i, layer) in model.layers_mut().iter_mut().enumerate() {
                opt.step(i, layer.params_mut(), total.layer(i));
            }
        });
        let wall = t_step.elapsed().as_secs_f64();
        let slowest = shards
            .iter()
            .map(|s| s.2)
            .max_by(|a, b| a.total.total_cmp(&b.total))
            .unwrap_or_default();
        steps.push(Step {
            slowest,
            merge,
            adam,
            pool_wait: wall - merge - adam - slowest.total,
        });
    }
    TracedEpoch {
        loss: epoch_loss / data.len() as f64,
        model,
        wall: t_epoch.elapsed().as_secs_f64(),
        steps,
    }
}
