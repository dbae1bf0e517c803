//! Chaos suite: deterministic fault injection against the serving
//! runtime. A seeded [`FaultPlan`] drives panics, stalls, queue-full
//! bursts, and dispatcher kills through the runtime's seams, and every
//! test asserts the fault-tolerance contract: **every submitted request
//! resolves** (Ok or a typed [`ServeError`]) within its deadline plus ε,
//! survivors stay **bit-identical** to direct `DonnModel::infer`, and the
//! server keeps serving afterwards.
//!
//! Each `#[test]` uses its own geometry (grid size / pitch / distance) so
//! the process-global caches shared by tests running in parallel threads
//! never alias across tests.

use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_serve::{
    AdmissionPolicy, BatchPolicy, FaultKind, FaultPlan, ModelLifecycle, ModelRegistry, ReadoutMode,
    ServeError, Server, Transport,
};
use lr_tensor::{Complex64, Field};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn donn(n: usize, depth: usize, seed: u64, pitch_um: f64, dist_mm: f64) -> DonnModel {
    let grid = Grid::square(n, PixelPitch::from_um(pitch_um));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(dist_mm))
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

/// Suppresses the default panic-hook spew for *injected* faults (their
/// payloads all contain "injected fault") while leaving real panics —
/// including test assertion failures — fully reported.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.contains("injected fault")) {
                return;
            }
            prev(info);
        }));
    });
}

/// Deadline semantics, both halves: a request whose deadline has already
/// passed is refused at admission with `Deadline`, and a request that
/// expires *while queued* behind a stalled worker is failed by the
/// dispatcher's pre-staging sweep — it never burns a batched forward.
#[test]
fn deadlines_reject_expired_and_expire_queued_work() {
    silence_injected_panics();
    let model = donn(12, 1, 501, 30.0, 12.0);
    let input = sample(12, 0);
    let expected = model.infer(&input);
    let plan = Arc::new(FaultPlan::new(11).with_stall(Duration::from_millis(200)));
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 1,
            workers: 1,
            max_delay: Duration::from_micros(200),
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();
    let mut logits = Vec::new();

    // Already expired at admission: typed rejection, nothing queued.
    let mut client = server.client();
    assert_eq!(
        client.infer_with_deadline(id, &input, Instant::now(), &mut logits),
        Err(ServeError::Deadline)
    );
    assert_eq!(server.stats().deadline_expired, 1);

    // Stall the worker on request A; request B, queued behind the stall
    // with a 50ms deadline, must expire in the queue and resolve as
    // `Deadline` without executing.
    plan.trigger(FaultKind::SlowWorker);
    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut client = server.client();
            let mut logits = Vec::new();
            client.infer(id, &input, &mut logits).map(|()| logits)
        });
        // Let A reach the stalled worker before B enqueues.
        std::thread::sleep(Duration::from_millis(40));
        let b_deadline = Instant::now() + Duration::from_millis(50);
        let mut client = server.client();
        let started = Instant::now();
        assert_eq!(
            client.infer_with_deadline(id, &input, b_deadline, &mut logits),
            Err(ServeError::Deadline),
            "request queued behind a stalled worker must expire, not execute"
        );
        // Resolved within deadline + ε (the stall bounds the sweep delay).
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "expired request must resolve promptly, not hang"
        );
        assert_eq!(
            a.join().expect("thread A must finish").as_deref(),
            Ok(&expected[..]),
            "the stalled request itself still completes bit-identically"
        );
    });
    let stats = server.stats();
    assert_eq!(stats.deadline_expired, 2);
    assert_eq!(plan.fired(FaultKind::SlowWorker), 1);
    server.shutdown();
}

/// Panic isolation: an injected panic inside a forward fails only its own
/// request with a typed `WorkerPanic`, the workspace is rebuilt through
/// the prewarm path, and the very next request serves bit-identically.
#[test]
fn panic_in_forward_fails_one_request_and_recovers() {
    silence_injected_panics();
    let model = donn(16, 2, 502, 31.0, 14.0);
    let input = sample(16, 1);
    let expected = model.infer(&input);
    let plan = Arc::new(FaultPlan::new(12));
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 1,
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();
    let mut client = server.client();
    let mut logits = Vec::new();

    plan.trigger(FaultKind::PanicInForward);
    assert_eq!(
        client.infer(id, &input, &mut logits),
        Err(ServeError::WorkerPanic),
        "the panicking run's request must fail typed, not hang or abort"
    );
    for _ in 0..4 {
        client.infer(id, &input, &mut logits).unwrap();
        assert_eq!(
            logits, expected,
            "post-rebuild serving must stay bit-identical"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.quarantined_models, 0, "one panic must not quarantine");
    assert_eq!(stats.completed, 4);
    server.shutdown();
}

/// Quarantine: a model that panics on every serve crosses
/// `quarantine_after` and is pulled from rotation — admission fails fast
/// with `Quarantined`, the lifecycle is observable, and retire + reclaim
/// still work on the quarantined slot.
#[test]
fn consecutive_panics_quarantine_the_model() {
    silence_injected_panics();
    let model = donn(12, 2, 503, 32.0, 16.0);
    let input = sample(12, 2);
    let plan = Arc::new(FaultPlan::new(13).with_rate(FaultKind::PanicInForward, 1000));
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 1,
            quarantine_after: 2,
            supervisor_tick: Duration::from_millis(1),
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();
    let mut client = server.client();
    let mut logits = Vec::new();

    // Every serve panics; after the second the streak crosses the
    // threshold and the supervisor flips the slot. The flip is
    // asynchronous, so poll: each attempt resolves typed either way.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut worker_panics = 0u64;
    loop {
        match client.infer(id, &input, &mut logits) {
            Err(ServeError::WorkerPanic) => worker_panics += 1,
            Err(ServeError::Quarantined) => break,
            other => panic!("expected WorkerPanic or Quarantined, got {other:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "quarantine must engage after {worker_panics} consecutive panics"
        );
    }
    assert!(
        worker_panics >= 2,
        "quarantine must not engage before the threshold"
    );
    assert!(matches!(
        server.lifecycle(id),
        Some(ModelLifecycle::Quarantined { .. })
    ));
    let stats = server.stats();
    assert_eq!(stats.quarantined_models, 1);
    assert_eq!(stats.completed, 0);

    // Quarantine is a traffic decision, not a terminal state: the slot
    // retires and reclaims like any live one.
    assert!(server.retire(id), "quarantined model must retire");
    assert!(server.reclaim(id), "retired model must reclaim");
    assert!(matches!(
        server.lifecycle(id),
        Some(ModelLifecycle::Reclaimed { .. })
    ));
    assert_eq!(
        client.infer(id, &input, &mut logits),
        Err(ServeError::UnknownModel)
    );
    server.shutdown();
}

/// The `InProcessClient` hang regression: a client whose request is
/// staged when its dispatcher dies must resolve with `ChannelClosed`
/// (retry-safe) instead of waiting forever, and the supervisor must
/// respawn the dispatcher so the shard keeps serving.
#[test]
fn dispatcher_kill_resolves_staged_requests_and_respawns() {
    silence_injected_panics();
    let model = donn(16, 1, 504, 33.0, 18.0);
    let input = sample(16, 3);
    let expected = model.infer(&input);
    let plan = Arc::new(FaultPlan::new(14));
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 1,
            supervisor_tick: Duration::from_millis(1),
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();
    let mut client = server.client();
    let mut logits = Vec::new();

    // The dispatcher drains the request, stages it, then dies on the
    // injected kill — the supervisor resolves the staged waiter.
    plan.trigger(FaultKind::KillDispatcher);
    let started = Instant::now();
    assert_eq!(
        client.infer(id, &input, &mut logits),
        Err(ServeError::ChannelClosed),
        "a staged request must not hang on dispatcher death"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "ChannelClosed must resolve promptly"
    );
    // Retry until the respawned dispatcher serves it (the queue accepted
    // work the whole time; only the worker thread was being rebuilt).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.infer(id, &input, &mut logits) {
            Ok(()) => break,
            Err(ServeError::ChannelClosed) => {
                assert!(Instant::now() < deadline, "respawn must restore service");
            }
            other => panic!("expected Ok or ChannelClosed on retry, got {other:?}"),
        }
    }
    assert_eq!(logits, expected, "post-respawn serving stays bit-identical");
    let stats = server.stats();
    assert_eq!(stats.dispatcher_respawns, 1);
    assert_eq!(plan.fired(FaultKind::KillDispatcher), 1);
    server.shutdown();
}

/// The queue-full seam produces exactly the typed error (and counter)
/// its organic counterpart would.
#[test]
fn queue_full_seam_fails_typed() {
    silence_injected_panics();
    let model = donn(12, 1, 505, 34.0, 20.0);
    let input = sample(12, 4);
    let expected = model.infer(&input);
    let plan = Arc::new(FaultPlan::new(15));
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 1,
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();
    let mut client = server.client();
    let mut logits = Vec::new();

    plan.trigger(FaultKind::QueueFull);
    assert_eq!(
        client.infer(id, &input, &mut logits),
        Err(ServeError::QueueFull),
        "an injected queue-full burst refuses admission, typed"
    );
    client.infer(id, &input, &mut logits).unwrap();
    assert_eq!(logits, expected);
    let stats = server.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.rejected, 1);
    server.shutdown();
}

/// Shed ordering under `ShedOldest` is least-remaining-lifetime, not
/// arrival order: with the queue full, the victim is the queued request
/// closest to its deadline even if it arrived last.
#[test]
fn shed_victim_is_least_remaining_lifetime() {
    silence_injected_panics();
    let model = donn(12, 1, 506, 35.0, 22.0);
    let input = sample(12, 5);
    let expected = model.infer(&input);
    let plan = Arc::new(FaultPlan::new(16).with_stall(Duration::from_millis(300)));
    let mut registry = ModelRegistry::new();
    registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 1,
            workers: 1,
            queue_cap: 2,
            admission: AdmissionPolicy::ShedOldest,
            max_delay: Duration::from_micros(200),
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let id = server.resolve("m", None).unwrap();

    // r1 stalls the worker; r2 (far deadline) then r3 (near deadline)
    // fill the queue; r4's arrival must shed r3 — the least lifetime —
    // even though r2 arrived before it.
    plan.trigger(FaultKind::SlowWorker);
    std::thread::scope(|scope| {
        let run = |deadline_ms: u64, settle_ms: u64| {
            let server = &server;
            let input = &input;
            move || {
                std::thread::sleep(Duration::from_millis(settle_ms));
                let mut client = server.client();
                let mut logits = Vec::new();
                let deadline = Instant::now() + Duration::from_millis(deadline_ms);
                client
                    .infer_with_deadline(id, input, deadline, &mut logits)
                    .map(|()| logits)
            }
        };
        let r1 = scope.spawn(run(20_000, 0));
        let r2 = scope.spawn(run(10_000, 60));
        let r3 = scope.spawn(run(5_000, 120));
        let r4 = scope.spawn(run(8_000, 180));
        assert_eq!(
            r3.join().expect("r3 thread").as_deref(),
            Err(&ServeError::Shed),
            "the near-deadline request must be the shed victim"
        );
        for (name, handle) in [("r1", r1), ("r2", r2), ("r4", r4)] {
            assert_eq!(
                handle.join().expect("request thread").as_deref(),
                Ok(&expected[..]),
                "{name} must complete bit-identically"
            );
        }
    });
    assert_eq!(server.stats().shed, 1);
    server.shutdown();
}

/// The headline chaos property: a seeded mix of panics, stalls, and
/// queue-full bursts over 2 shards, 4 client threads, and a mid-run register → retire → reclaim cycle. Every request resolves —
/// Ok (bit-identical to direct infer) or a typed error — within its
/// deadline plus ε, and the lifecycle machinery stays intact throughout.
#[test]
fn seeded_chaos_churn_resolves_every_request() {
    silence_injected_panics();
    let model_a = donn(16, 2, 507, 36.5, 24.0);
    let model_b = donn(16, 2, 508, 36.5, 24.0);
    let model_a2 = donn(16, 2, 509, 36.5, 24.0);
    let input = sample(16, 6);
    let expected_a = model_a.infer(&input);
    let expected_b = model_b.infer(&input);
    let expected_a2 = model_a2.infer(&input);
    let plan = Arc::new(
        FaultPlan::new(0xC4A05)
            .with_rate(FaultKind::PanicInForward, 30)
            .with_rate(FaultKind::SlowWorker, 5)
            .with_rate(FaultKind::QueueFull, 20)
            .with_stall(Duration::from_millis(1)),
    );
    let mut registry = ModelRegistry::new();
    registry.register_emulated("a", 1, model_a, ReadoutMode::Emulation);
    registry.register_emulated("b", 1, model_b, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 2,
            max_batch: 4,
            max_delay: Duration::from_micros(200),
            default_deadline: Duration::from_secs(1),
            // Panics here are injected noise, not a broken model: keep
            // the model in rotation for the whole run.
            quarantine_after: 0,
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let a1 = server.resolve("a", Some(1)).unwrap();
    let b1 = server.resolve("b", Some(1)).unwrap();
    let epsilon = Duration::from_secs(4);

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..4usize {
            let server = &server;
            let input = &input;
            let expected_a = &expected_a;
            let expected_b = &expected_b;
            workers.push(scope.spawn(move || {
                let (id, expected) = if t < 2 {
                    (a1, expected_a)
                } else {
                    (b1, expected_b)
                };
                let mut client = server.client();
                let mut logits = Vec::new();
                let mut ok = 0u64;
                let mut typed_errors = 0u64;
                for _ in 0..60 {
                    let started = Instant::now();
                    match client.infer(id, input, &mut logits) {
                        Ok(()) => {
                            assert_eq!(
                                &logits, expected,
                                "a served request must stay bit-identical under faults"
                            );
                            ok += 1;
                        }
                        // Every error is a typed ServeError by
                        // construction; any hang would trip the
                        // deadline+ε bound below instead.
                        Err(_) => typed_errors += 1,
                    }
                    assert!(
                        started.elapsed() <= Duration::from_secs(1) + epsilon,
                        "every request must resolve within deadline+\u{3b5}"
                    );
                }
                (ok, typed_errors)
            }));
        }
        // Mid-run churn on the main thread: flip "a" to v2, retire v1,
        // reclaim it — all while the four client threads keep firing.
        std::thread::sleep(Duration::from_millis(30));
        let a2 = server.register_emulated("a", 2, model_a2, ReadoutMode::Emulation);
        let mut client = server.client();
        let mut logits = Vec::new();
        let mut a2_ok = 0u64;
        while a2_ok < 3 {
            if client.infer(a2, &input, &mut logits).is_ok() {
                assert_eq!(logits, expected_a2, "v2 must serve bit-identically");
                a2_ok += 1;
            }
        }
        assert!(server.retire(a1));
        // Reclaim can abort (false) only on shutdown or a dead
        // dispatcher; neither fault is in this plan, so it must succeed.
        assert!(server.reclaim(a1), "mid-churn reclaim must complete");
        assert_eq!(
            server.lifecycle(a1),
            Some(ModelLifecycle::Reclaimed {
                retired_at: server.epoch() - 1
            })
        );
        let (mut total_ok, mut total_errors) = (0u64, 0u64);
        for handle in workers {
            let (ok, errs) = handle.join().expect("client thread must finish");
            total_ok += ok;
            total_errors += errs;
        }
        assert_eq!(
            total_ok + total_errors,
            240,
            "every submitted request must resolve"
        );
        assert!(total_ok > 0, "the fault mix must not starve all traffic");
    });
    let stats = server.stats();
    assert_eq!(stats.reclaimed_models, 1);
    // The seeded schedule is rate-calibrated; with 240+ serves at these
    // rates at least one fault of the high-rate kinds must have fired.
    assert!(
        plan.fired(FaultKind::QueueFull) + plan.fired(FaultKind::PanicInForward) > 0,
        "the plan must actually have exercised its seams"
    );
    server.shutdown();
}
