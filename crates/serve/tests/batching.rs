//! Dispatcher-level batched-execution tests: coalesced micro-batches must
//! execute as **single batched forwards** (observable via the
//! `batched_samples` / `batch_executions` counters), stay bit-identical to
//! direct inference, and split per model — not per sample — when a batch
//! mixes models. Physical (hardware-emulated) variants coalesce and
//! execute the same way: there is no per-sample execution path.

use lightridge::deploy::HardwareEnvironment;
use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_serve::{BatchPolicy, ModelRegistry, ReadoutMode, Server, Transport};
use lr_tensor::{Complex64, Field};
use std::sync::Barrier;
use std::time::Duration;

fn donn(n: usize, depth: usize, seed: u64) -> DonnModel {
    let grid = Grid::square(n, PixelPitch::from_um(36.0));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(25.0))
        .diffractive_layers(depth)
        .detector(Detector::grid_layout(n, n, 4, n / 6))
        .init_seed(seed)
        .build()
}

fn sample(n: usize, phase: usize) -> Field {
    Field::from_fn(n, n, |r, c| {
        Complex64::from_real(if (r + c + phase) % 5 < 2 { 1.0 } else { 0.0 })
    })
}

/// Coalesced micro-batches execute as one batched forward: with 8 blocked
/// clients racing a generous coalescing window, at least one execution
/// must cover more than one request, every request must be served through
/// the batched path, and every result must stay bit-identical.
#[test]
fn coalesced_batches_execute_as_single_batched_forwards() {
    let model = donn(16, 2, 31);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model.clone(), ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 8,
            // A generous window so concurrently released clients coalesce
            // deterministically even on a single-core runner.
            max_delay: Duration::from_millis(25),
            shards: 1,
            workers: 1,
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();
    let expected: Vec<Vec<f64>> = (0..8).map(|p| model.infer(&sample(16, p))).collect();

    let clients = 8;
    let rounds = 4;
    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        for t in 0..clients {
            let mut client = server.client();
            let barrier = &barrier;
            let expected = &expected;
            scope.spawn(move || {
                let mut logits = Vec::new();
                for _ in 0..rounds {
                    barrier.wait();
                    client.infer(id, &sample(16, t), &mut logits).unwrap();
                    assert_eq!(&logits, &expected[t], "request {t} changed under batching");
                }
            });
        }
    });

    let stats = server.stats();
    let total = (clients * rounds) as u64;
    assert_eq!(stats.completed, total);
    assert_eq!(
        stats.batched_samples, total,
        "every emulated request must be served through a batched forward"
    );
    assert!(stats.batch_executions >= 1);
    assert!(
        stats.batch_executions < stats.batched_samples,
        "with {clients} clients racing a {rounds}-round window, at least one \
         coalesced batch must have executed more than one request \
         (executions {}, samples {})",
        stats.batch_executions,
        stats.batched_samples
    );
    assert!(stats.mean_executed_batch > 1.0);
    server.shutdown();
}

/// A micro-batch mixing two models splits into per-model runs (both still
/// batched — never per-sample) and every result stays bit-identical.
#[test]
fn mixed_model_batches_split_per_model_and_stay_batched() {
    let model_a = donn(16, 1, 41);
    let model_b = donn(16, 2, 42);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("a", 1, model_a.clone(), ReadoutMode::Emulation);
    registry.register_emulated("b", 1, model_b.clone(), ReadoutMode::Deployed);
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_millis(10),
            // One shard so both models' requests land in one queue and can
            // coalesce into mixed batches.
            shards: 1,
            workers: 1,
            ..BatchPolicy::default()
        },
    );
    let a = server.resolve("a", None).unwrap();
    let b = server.resolve("b", None).unwrap();
    let expected_a: Vec<Vec<f64>> = (0..3).map(|p| model_a.infer(&sample(16, p))).collect();
    let expected_b: Vec<Vec<f64>> = (0..3)
        .map(|p| model_b.infer_deployed(&sample(16, p)))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..6 {
            let mut client = server.client();
            let expected_a = &expected_a;
            let expected_b = &expected_b;
            scope.spawn(move || {
                let mut logits = Vec::new();
                for _ in 0..3 {
                    if t % 2 == 0 {
                        client.infer(a, &sample(16, t / 2), &mut logits).unwrap();
                        assert_eq!(&logits, &expected_a[t / 2]);
                    } else {
                        client.infer(b, &sample(16, t / 2), &mut logits).unwrap();
                        assert_eq!(&logits, &expected_b[t / 2]);
                    }
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.completed, 18);
    assert_eq!(
        stats.batched_samples, 18,
        "a mixed batch must split into per-model batched runs, not fall \
         back to per-sample dispatch"
    );
    server.shutdown();
}

/// Physical (hardware-emulated) variants run through the same staged
/// batched forward as emulated ones: a physical-only burst coalesces into
/// at least one execution of more than one request, mixed emulated and
/// physical traffic is served wholly through batched forwards, and every
/// result stays bit-identical to direct inference.
#[test]
fn physical_variants_coalesce_into_batched_forwards() {
    let emulated = donn(16, 1, 51);
    let physical = donn(16, 1, 52);
    let env = HardwareEnvironment::prototype(9);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("em", 1, emulated.clone(), ReadoutMode::Emulation);
    registry.register_physical("hw", 1, &physical, &env);
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 8,
            // The same generous window as the emulated coalescing test.
            max_delay: Duration::from_millis(25),
            shards: 1,
            workers: 1,
            ..BatchPolicy::default()
        },
    );
    let em = server.resolve("em", None).unwrap();
    let hw = server.resolve("hw", None).unwrap();
    let phys = lightridge::deploy::PhysicalDonn::deploy(&physical, &env);
    let expected_em: Vec<Vec<f64>> = (0..8).map(|p| emulated.infer(&sample(16, p))).collect();
    let expected_hw: Vec<Vec<f64>> = (0..8).map(|p| phys.infer(&sample(16, p))).collect();

    let clients = 8;
    let rounds = 4;
    // `physical_only`: every client targets the physical variant;
    // otherwise odd clients do and even clients target the emulated one.
    let burst = |physical_only: bool| {
        let barrier = Barrier::new(clients);
        std::thread::scope(|scope| {
            for t in 0..clients {
                let mut client = server.client();
                let barrier = &barrier;
                let (id, expected) = if physical_only || t % 2 == 1 {
                    (hw, &expected_hw)
                } else {
                    (em, &expected_em)
                };
                scope.spawn(move || {
                    let mut logits = Vec::new();
                    for _ in 0..rounds {
                        barrier.wait();
                        client.infer(id, &sample(16, t), &mut logits).unwrap();
                        assert_eq!(&logits, &expected[t], "request {t} changed under batching");
                    }
                });
            }
        });
    };

    burst(true);
    let stats = server.stats();
    let total = (clients * rounds) as u64;
    assert_eq!(stats.completed, total);
    assert_eq!(stats.batched_samples, total);
    assert!(
        stats.batch_executions < stats.batched_samples,
        "with {clients} clients racing a {rounds}-round window, at least one \
         physical execution must have covered more than one request \
         (executions {}, samples {})",
        stats.batch_executions,
        stats.batched_samples
    );

    burst(false);
    let stats = server.stats();
    assert_eq!(stats.completed, 2 * total);
    assert_eq!(
        stats.batched_samples, stats.completed,
        "emulated and physical requests alike run through batched forwards"
    );
    server.shutdown();
}
