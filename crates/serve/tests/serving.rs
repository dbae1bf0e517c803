//! Integration tests for the serving runtime: registry resolution,
//! bit-identical results, batcher determinism, backpressure, shedding,
//! per-model caps, and metrics.

use lightridge::deploy::HardwareEnvironment;
use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_serve::{
    AdmissionPolicy, BatchPolicy, ModelRegistry, ReadoutMode, ServeError, Server, Transport,
};
use lr_tensor::{Complex64, Field};
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

#[test]
fn registry_resolves_versions() {
    let mut registry = ModelRegistry::new();
    let v1 = registry.register_emulated("digits", 1, donn(16, 1, 3), ReadoutMode::Emulation);
    let v3 = registry.register_emulated("digits", 3, donn(16, 2, 4), ReadoutMode::Emulation);
    let v2 = registry.register_emulated("digits", 2, donn(16, 1, 5), ReadoutMode::Emulation);
    let other = registry.register_emulated("letters", 1, donn(16, 1, 6), ReadoutMode::Deployed);

    assert_eq!(registry.resolve("digits", Some(1)), Some(v1));
    assert_eq!(registry.resolve("digits", Some(2)), Some(v2));
    assert_eq!(
        registry.resolve("digits", None),
        Some(v3),
        "latest version wins"
    );
    assert_eq!(registry.resolve("letters", None), Some(other));
    assert_eq!(registry.resolve("letters", Some(9)), None);
    assert_eq!(registry.resolve("missing", None), None);
    assert_eq!(registry.len(), 4);
}

#[test]
#[should_panic(expected = "already registered")]
fn registry_refuses_duplicate_name_version() {
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, donn(16, 1, 1), ReadoutMode::Emulation);
    registry.register_emulated("m", 1, donn(16, 1, 2), ReadoutMode::Emulation);
}

#[test]
#[should_panic(expected = "supervisor_tick must be positive")]
fn start_rejects_a_zero_supervisor_tick() {
    // A zero tick would make the supervisor's timed wait return at once
    // and spin a core; `start` refuses it like the other zero knobs.
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, donn(16, 1, 1), ReadoutMode::Emulation);
    let _server = Server::start(
        registry,
        BatchPolicy {
            supervisor_tick: Duration::ZERO,
            ..BatchPolicy::default()
        },
    );
}

#[test]
fn served_results_bit_identical_to_direct_inference() {
    let model_a = donn(16, 2, 11);
    let model_b = donn(24, 3, 12);
    let physical = donn(16, 2, 13);
    let env = HardwareEnvironment::prototype(7);

    let mut registry = ModelRegistry::new();
    registry.register_emulated("a", 1, model_a.clone(), ReadoutMode::Emulation);
    registry.register_emulated("b", 1, model_b.clone(), ReadoutMode::Deployed);
    registry.register_physical("bench", 1, &physical, &env);
    let server = Server::start(registry, BatchPolicy::default());

    let a = server.resolve("a", None).unwrap();
    let b = server.resolve("b", None).unwrap();
    let bench = server.resolve("bench", None).unwrap();
    let mut client = server.client();
    let mut logits = Vec::new();

    let phys = lightridge::deploy::PhysicalDonn::deploy(&physical, &env);
    for phase in 0..6 {
        let xa = sample(16, phase);
        client.infer(a, &xa, &mut logits).unwrap();
        assert_eq!(
            logits,
            model_a.infer(&xa),
            "emulation readout must be bit-identical"
        );

        let xb = sample(24, phase);
        client.infer(b, &xb, &mut logits).unwrap();
        assert_eq!(
            logits,
            model_b.infer_deployed(&xb),
            "deployed readout must be bit-identical"
        );

        client.infer(bench, &xa, &mut logits).unwrap();
        assert_eq!(
            logits,
            phys.infer(&xa),
            "physical bench must be bit-identical"
        );
    }
    server.shutdown();
}

#[test]
fn batcher_results_independent_of_arrival_order() {
    // The same 12 requests, submitted in three different permutations from
    // three rounds of concurrent clients, must each produce exactly the
    // logits of a direct inference — batch composition and arrival order
    // must never leak into the numbers.
    let model = donn(16, 2, 21);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model.clone(), ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 5,
            max_delay: Duration::from_millis(2),
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();

    let expected: Vec<Vec<f64>> = (0..12).map(|p| model.infer(&sample(16, p))).collect();
    let orders: [Vec<usize>; 3] = [
        (0..12).collect(),
        (0..12).rev().collect(),
        vec![6, 1, 11, 3, 9, 0, 7, 4, 10, 2, 8, 5],
    ];
    for order in &orders {
        std::thread::scope(|scope| {
            for &p in order {
                let mut client = server.client();
                let expected = &expected;
                scope.spawn(move || {
                    let mut logits = Vec::new();
                    client.infer(id, &sample(16, p), &mut logits).unwrap();
                    assert_eq!(&logits, &expected[p], "request {p} changed under batching");
                });
            }
        });
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 36);
    server.shutdown();
}

#[test]
fn backpressure_rejects_at_queue_cap() {
    // Server with no room: queue_cap 1 and a slow-ish batch window. Flood
    // it from many threads; some requests must be refused with QueueFull,
    // and every refused request must leave the server consistent (all
    // successful ones still bit-identical).
    let model = donn(16, 1, 31);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model.clone(), ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 2,
            max_delay: Duration::from_millis(4),
            queue_cap: 1,
            admission: AdmissionPolicy::RejectNew,
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();
    let expected = model.infer(&sample(16, 0));

    let outcomes: Vec<Result<(), ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let mut client = server.client();
                let expected = &expected;
                scope.spawn(move || {
                    let mut logits = Vec::new();
                    let r = client.infer(id, &sample(16, 0), &mut logits);
                    if r.is_ok() {
                        assert_eq!(&logits, expected);
                    }
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let rejected = outcomes
        .iter()
        .filter(|r| **r == Err(ServeError::QueueFull))
        .count();
    assert_eq!(
        ok + rejected,
        16,
        "only QueueFull failures expected: {outcomes:?}"
    );
    assert!(ok >= 1, "at least one request must get through");
    let stats = server.stats();
    assert_eq!(stats.completed, ok as u64);
    assert_eq!(stats.rejected, rejected as u64);
    server.shutdown();
}

#[test]
fn shed_oldest_drops_queued_work_for_fresh_requests() {
    let model = donn(16, 1, 41);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model.clone(), ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 2,
            max_delay: Duration::from_millis(4),
            queue_cap: 1,
            admission: AdmissionPolicy::ShedOldest,
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();

    let outcomes: Vec<Result<(), ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let mut client = server.client();
                scope.spawn(move || {
                    let mut logits = Vec::new();
                    client.infer(id, &sample(16, 0), &mut logits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Under shed-oldest nothing is rejected at admission; failures (if
    // any) are sheds of already-queued work.
    for r in &outcomes {
        assert!(
            matches!(r, Ok(()) | Err(ServeError::Shed)),
            "unexpected outcome {r:?}"
        );
    }
    let ok = outcomes.iter().filter(|r| r.is_ok()).count() as u64;
    let shed = outcomes
        .iter()
        .filter(|r| **r == Err(ServeError::Shed))
        .count() as u64;
    let stats = server.stats();
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.rejected, 0);
    server.shutdown();
}

#[test]
fn per_model_inflight_cap_isolates_models() {
    let mut registry = ModelRegistry::new();
    registry.register_emulated("hot", 1, donn(16, 1, 51), ReadoutMode::Emulation);
    registry.register_emulated("cold", 1, donn(16, 1, 52), ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 4,
            max_delay: Duration::from_millis(2),
            queue_cap: 64,
            per_model_inflight_cap: 1,
            ..BatchPolicy::default()
        },
    );
    let hot = server.resolve("hot", None).unwrap();
    let cold = server.resolve("cold", None).unwrap();

    let hot_outcomes: Vec<Result<(), ServeError>> = std::thread::scope(|scope| {
        // Saturate the hot model...
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mut client = server.client();
                scope.spawn(move || {
                    let mut logits = Vec::new();
                    client.infer(hot, &sample(16, 1), &mut logits)
                })
            })
            .collect();
        // ...while the cold model must always stay servable.
        let mut client = server.client();
        let mut logits = Vec::new();
        for _ in 0..4 {
            client
                .infer(cold, &sample(16, 2), &mut logits)
                .expect("cold model starved");
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &hot_outcomes {
        assert!(
            matches!(r, Ok(()) | Err(ServeError::ModelBusy)),
            "unexpected outcome {r:?}"
        );
    }
    server.shutdown();
}

#[test]
fn client_validates_model_and_shape() {
    let mut registry = ModelRegistry::new();
    let id = registry.register_emulated("m", 1, donn(16, 1, 61), ReadoutMode::Emulation);
    let server = Server::start(registry, BatchPolicy::default());
    let mut client = server.client();
    let mut logits = Vec::new();
    assert_eq!(
        client.infer(id, &sample(24, 0), &mut logits),
        Err(ServeError::ShapeMismatch {
            expected: (16, 16),
            got: (24, 24)
        })
    );
    server.shutdown();
}

#[test]
fn shutdown_refuses_new_requests() {
    let mut registry = ModelRegistry::new();
    let id = registry.register_emulated("m", 1, donn(16, 1, 71), ReadoutMode::Emulation);
    let server = Server::start(registry, BatchPolicy::default());
    let mut client = server.client();
    let mut logits = Vec::new();
    client.infer(id, &sample(16, 0), &mut logits).unwrap();
    server.shutdown();
    // The client still holds the core; submission must now fail cleanly.
    assert_eq!(
        client.infer(id, &sample(16, 0), &mut logits),
        Err(ServeError::ShuttingDown)
    );
}

#[test]
fn stats_track_throughput_and_latency() {
    let model = donn(16, 2, 81);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
    let server = Server::start(registry, BatchPolicy::default());
    let id = server.resolve("m", None).unwrap();
    let mut client = server.client();
    let mut logits = Vec::new();
    for p in 0..20 {
        client.infer(id, &sample(16, p), &mut logits).unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.latency.count, 20);
    assert!(stats.latency.p50_ns > 0);
    assert!(stats.latency.p99_ns >= stats.latency.p50_ns);
    assert!(stats.latency.max_ns >= stats.latency.p99_ns);
    assert!(stats.throughput_rps > 0.0);
    assert!(stats.batches >= 1);
    assert_eq!(stats.per_model.len(), 1);
    assert_eq!(stats.per_model[0].completed, 20);
    assert_eq!(stats.per_model[0].name, "m");
    server.shutdown();
}
