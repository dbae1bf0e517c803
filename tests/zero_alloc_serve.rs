//! Counting-allocator proof of the serving-path contract on the **sharded**
//! runtime: once the server is warm, a mixed two-model workload served
//! through 2 shards (affinity routing, per-shard queues and dispatchers)
//! performs **zero heap allocations** per request — client slot reuse,
//! bounded queues, per-worker **batched** workspaces (every emulated
//! request executes as a batched forward through a `BatchWorkspace`; the
//! final stats assertions prove the batched path served the whole
//! workload), registry/in-flight/metrics snapshot loads, and atomic
//! histograms all included — and still returns logits bit-identical to
//! direct inference.
//!
//! The test then performs a **live version flip mid-run**
//! (`Server::register_emulated` on the running server): registration may
//! allocate (it builds and warms the new workspaces), but once the new
//! version has served its first warming requests, the steady-state window
//! covering *both* the old and new versions must again be allocation-free
//! and bit-identical on both sides of the flip.
//!
//! Finally the superseded version is **retired and reclaimed** mid-run:
//! the drain-fenced reclaim frees its per-worker workspaces (drops only —
//! the allocator counts allocations), after which the surviving models'
//! steady state must *still* be allocation-free and bit-identical.
//!
//! A last phase injects a **worker panic** through the fault plan: the
//! panicking run fails only its own request (`WorkerPanic`), the
//! dispatcher rebuilds the poisoned workspace through the prewarm path
//! (rebuilding allocates — outside the window), and the steady state
//! *after the rebuild* must once more be allocation-free and
//! bit-identical. Fault hooks are armed-trigger-only here (all rates
//! zero), so the measured windows also prove the injection seams
//! themselves are allocation-free when quiet.
//!
//! A later server serves a **physical** (hardware-emulated) variant:
//! bursts of 1..=`max_batch` concurrent requests coalesce into staged
//! batched runs of the deployed system, and the steady state must be
//! allocation-free and bitwise equal to `PhysicalDonn::infer`.
//!
//! The last phases go **over the wire**: the two-model workload served
//! through `Server::listen` on loopback TCP, then on a Unix-domain socket.
//! Each warmed session must stay allocation-free across steady requests,
//! typed request errors (`ShapeMismatch`, which keeps the connection
//! open) alternating with good requests, and — after the client
//! reconnects and re-warms its new connection — a second steady window.
//! The net event-loop thread is inside the count like every other thread.
//!
//! Like `zero_alloc.rs`, this must stay a single-test binary: the counting
//! allocator is process-global. Sequential mode is forced
//! (`set_threads(1)`) so shard partitions have width 0 and batch execution
//! runs inline on each dispatcher thread; the allocator counts allocations
//! from *every* thread, so the dispatchers' steady state is covered too.

use lightridge::deploy::{HardwareEnvironment, PhysicalDonn};
use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_serve::{
    BatchPolicy, FaultKind, FaultPlan, ModelId, ModelRegistry, NetBind, NetClient, NetConfig,
    NetError, ReadoutMode, ServeError, Server, StageLatency, TraceConfig, Transport,
};
use lr_tensor::{parallel, Complex64, Field};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

fn assert_no_overflow(stage: &StageLatency, ctx: &str) {
    for (name, s) in [
        ("queue_wait", stage.queue_wait),
        ("staging", stage.staging),
        ("forward", stage.forward),
        ("respond", stage.respond),
    ] {
        assert_eq!(s.overflow, 0, "{ctx}: {name} histogram must not overflow");
    }
}

/// One model's request stream for the socket phases.
struct Stream<'a> {
    model: ModelId,
    input: &'a Field,
    reference: &'a [f64],
}

/// Allocations made while `f` runs, on any thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// One warmed socket session per stream (a connection's request slot
/// holds one input shape, like an in-process client's): steady requests,
/// then `ShapeMismatch` errors alternating with good requests, then a
/// reconnect and a re-warmed steady window. Every measured window must
/// count zero allocations and every reply must be bit-identical.
fn socket_sessions_allocate_nothing(
    transport: &str,
    connect: &dyn Fn() -> NetClient,
    a: &Stream<'_>,
    b: &Stream<'_>,
) {
    let mut logits = Vec::new();
    let mut serve = |client: &mut NetClient, s: &Stream<'_>| {
        client.infer(s.model, s.input, &mut logits).unwrap();
        assert_eq!(
            logits, s.reference,
            "{transport}: reply must be bit-identical"
        );
    };
    // `b`'s plane sent to `a`'s model: a request-level error that leaves
    // the connection usable.
    let mismatch = |client: &mut NetClient| {
        let mut logits = Vec::new();
        let outcome = client.infer(a.model, b.input, &mut logits);
        assert!(
            matches!(
                outcome,
                Err(NetError::Serve(ServeError::ShapeMismatch { .. }))
            ),
            "{transport}: a wrong-shaped plane must fail typed, got {outcome:?}"
        );
    };
    let (mut client_a, mut client_b) = (connect(), connect());
    // Warm-up: sizes both connections' slots and wire buffers, including
    // the larger error-path frame on `a`'s connection.
    for _ in 0..4 {
        serve(&mut client_a, a);
        serve(&mut client_b, b);
        mismatch(&mut client_a);
    }
    let steady = allocations_during(|| {
        for _ in 0..10 {
            serve(&mut client_a, a);
            serve(&mut client_b, b);
        }
    });
    assert_eq!(
        steady, 0,
        "{transport}: steady socket path must not allocate (got {steady} over 20 requests)"
    );
    let errors = allocations_during(|| {
        for _ in 0..10 {
            mismatch(&mut client_a);
            serve(&mut client_a, a);
        }
    });
    assert_eq!(
        errors, 0,
        "{transport}: typed errors must not allocate (got {errors} over 10 error+ok pairs)"
    );
    // Reconnect: the old connections close and new ones are accepted
    // (both allocate, outside the window), then re-warm and measure again.
    drop((client_a, client_b));
    let (mut client_a, mut client_b) = (connect(), connect());
    for _ in 0..4 {
        serve(&mut client_a, a);
        serve(&mut client_b, b);
    }
    let rewarmed = allocations_during(|| {
        for _ in 0..10 {
            serve(&mut client_a, a);
            serve(&mut client_b, b);
        }
    });
    assert_eq!(
        rewarmed, 0,
        "{transport}: steady state after a reconnect must not allocate \
         (got {rewarmed} over 20 requests)"
    );
}

fn donn(n: usize, depth: usize, seed: u64) -> DonnModel {
    let grid = Grid::square(n, PixelPitch::from_um(36.0));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(30.0))
        .diffractive_layers(depth)
        .detector(Detector::grid_layout(n, n, 4, n / 8))
        .init_seed(seed)
        .build()
}

#[test]
fn steady_state_sharded_serve_path_allocates_nothing() {
    parallel::set_threads(1);

    // The injected panic in the final phase is expected; keep its payload
    // out of the test output while leaving real panics fully reported.
    {
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
    }

    // A mixed two-model workload on two shards: different geometries,
    // different readout schemes, interleaved per request — ids 0 and 1
    // affinity-route to shards 0 and 1, and each dispatcher must juggle
    // its models' workspaces without allocating.
    let model_a = donn(32, 2, 5);
    let model_b = donn(48, 3, 6);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("a", 1, model_a.clone(), ReadoutMode::Emulation);
    registry.register_emulated("b", 1, model_b.clone(), ReadoutMode::Deployed);
    // A quiet fault plan (all rates zero, triggers armed manually in the
    // final phase) keeps the injection seams live on the measured path.
    let plan = Arc::new(FaultPlan::new(9));
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 2,
            max_batch: 4,
            // Zero delay: with a single blocking client there is nothing
            // to coalesce with; don't sleep inside the measured window.
            max_delay: Duration::ZERO,
            faults: Some(Arc::clone(&plan)),
            ..BatchPolicy::default()
        },
    );
    let a = server.resolve("a", None).unwrap();
    let b = server.resolve("b", None).unwrap();

    let input_a = Field::from_fn(32, 32, |r, c| {
        Complex64::from_real(if (r / 4 + c / 4) % 2 == 0 { 1.0 } else { 0.0 })
    });
    let input_b = Field::from_fn(48, 48, |r, c| {
        Complex64::from_real(if (r + 2 * c) % 7 < 3 { 1.0 } else { 0.0 })
    });
    let reference_a = model_a.infer(&input_a);
    let reference_b = model_b.infer_deployed(&input_b);

    // One client per request stream (a client's reusable slot holds one
    // input shape); the workload stays interleaved across both models —
    // and therefore both shards — at the server.
    let mut client_a = server.client();
    let mut client_b = server.client();
    let mut logits = Vec::new();

    // Warm-up: sizes each client slot and fills every reusable buffer on
    // the path.
    for _ in 0..4 {
        client_a.infer(a, &input_a, &mut logits).unwrap();
        assert_eq!(logits, reference_a);
        client_b.infer(b, &input_b, &mut logits).unwrap();
        assert_eq!(logits, reference_b);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        client_a.infer(a, &input_a, &mut logits).unwrap();
        client_b.infer(b, &input_b, &mut logits).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state sharded serve path must not allocate (got {} allocations over 20 requests)",
        after - before
    );

    // Still bit-identical to direct inference after the measured window.
    client_a.infer(a, &input_a, &mut logits).unwrap();
    assert_eq!(logits, reference_a);
    client_b.infer(b, &input_b, &mut logits).unwrap();
    assert_eq!(logits, reference_b);

    // ---- Live version flip mid-run -----------------------------------
    // Registration itself may allocate (new snapshot, warmed workspaces);
    // after the flip and a short warm-up of the *new* version's client
    // slot, the steady state spanning old + new versions must again be
    // allocation-free.
    let model_a2 = donn(32, 3, 7); // same geometry, different stack
    let a2 = server.register_emulated("a", 2, model_a2.clone(), ReadoutMode::Emulation);
    assert_eq!(
        server.resolve("a", None),
        Some(a2),
        "flip must be visible immediately"
    );
    assert_eq!(server.epoch(), 1);
    let reference_a2 = model_a2.infer(&input_a);

    // Warm the new version's client slot — and touch *every* shard once
    // so each dispatcher adopts its mailed workspaces (a one-time
    // registration cost: one Vec push per worker) outside the window.
    let mut client_a2 = server.client();
    for _ in 0..4 {
        client_a2.infer(a2, &input_a, &mut logits).unwrap();
        assert_eq!(logits, reference_a2);
        client_b.infer(b, &input_b, &mut logits).unwrap();
        assert_eq!(logits, reference_b);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        client_a.infer(a, &input_a, &mut logits).unwrap();
        client_a2.infer(a2, &input_a, &mut logits).unwrap();
        client_b.infer(b, &input_b, &mut logits).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "post-flip steady state must not allocate (got {} allocations over 30 requests)",
        after - before
    );

    // Bit-identical on both sides of the flip.
    client_a.infer(a, &input_a, &mut logits).unwrap();
    assert_eq!(
        logits, reference_a,
        "v1 must stay bit-identical after the flip"
    );
    client_a2.infer(a2, &input_a, &mut logits).unwrap();
    assert_eq!(
        logits, reference_a2,
        "v2 must be bit-identical to direct inference"
    );
    client_b.infer(b, &input_b, &mut logits).unwrap();
    assert_eq!(logits, reference_b);

    // ---- Mid-run retire + reclaim ------------------------------------
    // Retire the superseded version and reclaim its memory. Reclaim
    // itself may *free* (drops are not allocations, and the counting
    // allocator only counts allocations), but the serving path for the
    // survivors must stay allocation-free afterwards — no reallocation,
    // no workspace rebuilding, no snapshot-chain growth per request —
    // and bit-identical on both surviving models.
    let resident_before = server.stats().resident_workspace_bytes;
    assert!(server.retire(a));
    assert!(server.reclaim(a));
    let resident_after = server.stats().resident_workspace_bytes;
    assert!(
        resident_after < resident_before,
        "reclaim must free the retired version's workspaces \
         ({resident_after} vs {resident_before} bytes)"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        client_a2.infer(a2, &input_a, &mut logits).unwrap();
        client_b.infer(b, &input_b, &mut logits).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "post-reclaim steady state must not allocate (got {} allocations over 20 requests)",
        after - before
    );

    // The retired id is refused; the survivors are still bit-identical.
    assert_eq!(
        client_a.infer(a, &input_a, &mut logits),
        Err(ServeError::UnknownModel),
        "reclaimed model must be refused at admission"
    );
    client_a2.infer(a2, &input_a, &mut logits).unwrap();
    assert_eq!(
        logits, reference_a2,
        "surviving v2 must stay bit-identical after the reclaim"
    );
    client_b.infer(b, &input_b, &mut logits).unwrap();
    assert_eq!(logits, reference_b);

    // ---- Injected panic + workspace rebuild --------------------------
    // One armed trigger panics the next forward: only that request fails
    // (typed), the dispatcher rebuilds its poisoned workspace through the
    // prewarm path (the rebuild allocates — that's the warm-up), and the
    // steady state after recovery must be allocation-free again.
    plan.trigger(FaultKind::PanicInForward);
    assert_eq!(
        client_a2.infer(a2, &input_a, &mut logits),
        Err(ServeError::WorkerPanic),
        "the panicking run must fail only its own request"
    );
    for _ in 0..4 {
        client_a2.infer(a2, &input_a, &mut logits).unwrap();
        assert_eq!(logits, reference_a2);
        client_b.infer(b, &input_b, &mut logits).unwrap();
        assert_eq!(logits, reference_b);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        client_a2.infer(a2, &input_a, &mut logits).unwrap();
        client_b.infer(b, &input_b, &mut logits).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "post-rebuild steady state must not allocate (got {} allocations over 20 requests)",
        after - before
    );

    client_a2.infer(a2, &input_a, &mut logits).unwrap();
    assert_eq!(
        logits, reference_a2,
        "rebuilt workspace must serve bit-identically"
    );
    client_b.infer(b, &input_b, &mut logits).unwrap();
    assert_eq!(logits, reference_b);

    let stats = server.stats();
    assert_eq!(stats.completed, 123);
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(
        stats.quarantined_models, 0,
        "a single panic must not quarantine"
    );
    // Every request in this workload targets an emulated variant, so the
    // dispatcher must have served all of them through batched forwards on
    // the per-worker BatchWorkspaces (B=1 batches for these sequential
    // blocking clients) — the batched serve path is exactly what the
    // allocation windows above measured.
    assert_eq!(
        stats.batched_samples, 123,
        "every emulated request must execute through the batched path"
    );
    assert!(stats.batch_executions > 0);
    assert_eq!(stats.reclaimed_models, 1);
    assert!(stats.reclaimed_bytes > 0);
    assert!(stats.latency.p50_ns > 0);
    assert_eq!(stats.per_shard.len(), 2);
    assert!(
        stats.per_shard.iter().all(|s| s.completed > 0),
        "both shards must have served their affinity traffic"
    );
    // The always-on stage breakdown must have recorded every completion
    // without saturating any histogram.
    assert_eq!(stats.stage_latency.forward.count, stats.completed);
    assert_no_overflow(&stats.stage_latency, "server");
    for (i, sh) in stats.per_shard.iter().enumerate() {
        assert_no_overflow(&sh.stage_latency, &format!("shard {i}"));
    }
    // Tracing was never enabled on this server.
    assert!(server.drain_trace().is_none());
    server.shutdown();

    // ---- Tracing enabled: recording must be allocation-free ----------
    // A second server with the trace ring on and *every* request sampled
    // (1000‰): span recording is a cursor bump plus atomic slot writes
    // into the preallocated ring, so the steady-state window must still
    // count zero allocations. Draining/exporting allocates by design and
    // stays outside the window.
    let model_c = donn(32, 2, 11);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("c", 1, model_c.clone(), ReadoutMode::Emulation);
    let traced = Server::start(
        registry,
        BatchPolicy {
            shards: 2,
            max_batch: 4,
            max_delay: Duration::ZERO,
            trace: Some(Arc::new(TraceConfig {
                sample_per_mille: 1000,
                ..TraceConfig::default()
            })),
            ..BatchPolicy::default()
        },
    );
    let c = traced.resolve("c", None).unwrap();
    let reference_c = model_c.infer(&input_a);
    let mut client_c = traced.client();
    for _ in 0..4 {
        client_c.infer(c, &input_a, &mut logits).unwrap();
        assert_eq!(logits, reference_c);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        client_c.infer(c, &input_a, &mut logits).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "traced serve path must not allocate while recording \
         (got {} allocations over 10 fully-sampled requests)",
        after - before
    );
    assert_eq!(logits, reference_c);

    // The window really was recorded: every request left its four stage
    // spans in the ring, none were lost, and no histogram overflowed.
    let snapshot = traced.drain_trace().expect("tracing is enabled");
    assert_eq!(snapshot.dropped, 0, "ring must not have wrapped");
    assert_eq!(
        snapshot.events.len(),
        14 * 4,
        "every request must contribute its four stage spans"
    );
    let traced_stats = traced.stats();
    assert_eq!(traced_stats.completed, 14);
    assert_no_overflow(&traced_stats.stage_latency, "traced server");
    traced.shutdown();

    // ---- Physical variant: coalesced runs of 1..=max_batch -----------
    // One persistent client thread per batch slot (spawned outside the
    // windows). Each burst releases the first k of them together through
    // a barrier; the coalescing window gathers their requests into staged
    // runs of the deployed system, so the windows cover physical runs of
    // every size up to `max_batch`.
    let max_batch = 4;
    let model_p = donn(32, 2, 13);
    let env = HardwareEnvironment::prototype(4);
    let mut registry = ModelRegistry::new();
    registry.register_physical("p", 1, &model_p, &env);
    let physical = Server::start(
        registry,
        BatchPolicy {
            shards: 1,
            max_batch,
            max_delay: Duration::from_millis(25),
            ..BatchPolicy::default()
        },
    );
    let p = physical.resolve("p", None).unwrap();
    let deployed = PhysicalDonn::deploy(&model_p, &env);
    let inputs: Vec<Field> = (0..max_batch)
        .map(|t| {
            Field::from_fn(32, 32, |r, c| {
                Complex64::from_real(if (r + c + 3 * t) % 5 < 2 { 1.0 } else { 0.1 })
            })
        })
        .collect();
    let references: Vec<Vec<f64>> = inputs.iter().map(|x| deployed.infer(x)).collect();
    let active = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
    let start = Barrier::new(max_batch + 1);
    let done = Barrier::new(max_batch + 1);
    let allocations = std::thread::scope(|scope| {
        for t in 0..max_batch {
            let mut client = physical.client();
            let (active, mismatches, start, done) = (&active, &mismatches, &start, &done);
            let (input, reference) = (&inputs[t], &references[t]);
            scope.spawn(move || {
                let mut logits = Vec::with_capacity(reference.len());
                loop {
                    start.wait();
                    let k = active.load(Ordering::SeqCst);
                    if k == 0 {
                        break;
                    }
                    if t < k
                        && (client.infer(p, input, &mut logits).is_err() || logits != *reference)
                    {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                    done.wait();
                }
            });
        }
        let burst = |k: usize| {
            active.store(k, Ordering::SeqCst);
            start.wait();
            done.wait();
        };
        for k in (1..=max_batch).chain(1..=max_batch) {
            burst(k);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..3 {
            for k in 1..=max_batch {
                burst(k);
            }
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        // Release the client threads before any assertion can unwind.
        active.store(0, Ordering::SeqCst);
        start.wait();
        after - before
    });
    assert_eq!(
        allocations, 0,
        "coalesced physical runs must not allocate (got {allocations} allocations)"
    );
    assert_eq!(
        mismatches.load(Ordering::SeqCst),
        0,
        "every physical reply must be bitwise equal to PhysicalDonn::infer"
    );
    let physical_stats = physical.stats();
    let bursts = (5 * max_batch * (max_batch + 1) / 2) as u64;
    assert_eq!(physical_stats.completed, bursts);
    assert_eq!(physical_stats.batched_samples, bursts);
    assert!(
        physical_stats.batch_executions < physical_stats.batched_samples,
        "at least one physical run must have coalesced more than one request \
         (executions {}, samples {})",
        physical_stats.batch_executions,
        physical_stats.batched_samples
    );
    physical.shutdown();

    // ---- Over the wire: TCP, then UDS --------------------------------
    let mut registry = ModelRegistry::new();
    registry.register_emulated("a", 1, model_a.clone(), ReadoutMode::Emulation);
    registry.register_emulated("b", 1, model_b.clone(), ReadoutMode::Deployed);
    let served = Server::start(
        registry,
        BatchPolicy {
            shards: 2,
            max_batch: 4,
            max_delay: Duration::ZERO,
            ..BatchPolicy::default()
        },
    );
    let a = Stream {
        model: served.resolve("a", None).unwrap(),
        input: &input_a,
        reference: &reference_a,
    };
    let b = Stream {
        model: served.resolve("b", None).unwrap(),
        input: &input_b,
        reference: &reference_b,
    };
    let mut tcp = served
        .listen(
            NetBind::Tcp(([127, 0, 0, 1], 0).into()),
            NetConfig::default(),
        )
        .expect("bind a loopback TCP listener");
    let addr = tcp.local_addr().expect("TCP listener has an address");
    socket_sessions_allocate_nothing(
        "tcp",
        &|| NetClient::connect_tcp(addr).expect("connect over TCP"),
        &a,
        &b,
    );
    tcp.shutdown();
    let path = std::env::temp_dir().join(format!("lr-zero-alloc-{}.sock", std::process::id()));
    let mut uds = served
        .listen(NetBind::Unix(path.clone()), NetConfig::default())
        .expect("bind a Unix-domain listener");
    socket_sessions_allocate_nothing(
        "uds",
        &|| NetClient::connect_unix(&path).expect("connect over UDS"),
        &a,
        &b,
    );
    uds.shutdown();
    let served_stats = served.stats();
    // Per transport: 8 warm-up + 20 steady, 10 good requests between the
    // errors, 8 re-warm + 20 after the reconnect.
    assert_eq!(served_stats.completed, 2 * 66);
    assert_no_overflow(&served_stats.stage_latency, "socket server");
    served.shutdown();
    parallel::set_threads(0);
}
