//! `lr-bench serve` — deterministic synthetic load test of the `lr-serve`
//! runtime, emitting `BENCH_serve.json`.
//!
//! The build environment has no network, so the "traffic" is an
//! **open-loop arrival schedule**: every client thread precomputes, from a
//! fixed seed, the arrival time and target model of each of its requests
//! (exponential interarrivals at the configured offered rate, mixed
//! model/readout choice), then fires each request at its scheduled time.
//! The schedule never depends on observed latency, so the offered load —
//! and therefore the artifact — is reproducible run to run; only the
//! measured latencies vary with the machine.
//!
//! Three scenarios run on a mixed two-model registry (an emulation-readout
//! stack and a deployed-readout stack of a different geometry), sharded
//! across `--shards N` dispatchers (default 2):
//!
//! * `steady_mixed` — offered rate ≈ 50% of calibrated single-worker
//!   capacity: everything should complete; this is the throughput/latency
//!   baseline future PRs diff.
//! * `overload_shed` — offered rate ≈ 4× capacity against a short queue:
//!   exercises admission control; the artifact records how much was
//!   rejected and how far p99 stretches under saturation.
//! * `colocated_partitioned` — steady serving while a training loop
//!   hammers the **global** pool; shards run on their own dedicated pool
//!   partitions, so training cannot head-of-line-block serving.
//!
//! Every scenario block includes **per-shard** completion/steal counters
//! and p50/p95/p99, so shard imbalance and work stealing are visible in
//! the artifact.
//!
//! A fourth scenario, `churn`, exercises the **memory lifecycle**: a
//! register→serve→retire→reclaim loop over fresh model versions (the
//! DSE-sweep / per-perturbation-retraining deployment shape) against a
//! long-lived survivor. Its `resident_workspace_bytes` records the
//! resident per-worker workspace memory *after* the loop — flat at the
//! survivor's baseline when reclaim works, and growing linearly in churn
//! count when it leaks, which is why `lr-bench compare` gates on it
//! (lower is better).
//!
//! A fifth scenario, `chaos`, runs the **fault-tolerance contract** under
//! a seeded [`FaultPlan`]: injected worker panics, stalls, queue-full
//! bursts, and one mid-run dispatcher kill, layered
//! over a register→retire→reclaim churn loop, all while client threads
//! hammer a survivor model. Its `unresolved_requests` (requests that
//! neither returned Ok nor a typed error before the watchdog) and
//! `bitwise_mismatches` (Ok results that diverged from direct inference)
//! are **gated at exactly 0** by `lr-bench compare` — the committed
//! baseline is 0, and the zero-baseline rule maps any nonzero current
//! value to a tripped gate. `p99_survivor_ns` records the tail the
//! survivor's successful requests paid under the fault mix
//! (informational).
//!
//! A sixth scenario, `socket_tcp`, drives the same steady mixed load
//! through the **network front end** ([`Server::listen`], loopback TCP,
//! the `lr-net` wire protocol) instead of the in-process client. Its
//! latencies are **coordinated-omission-safe**: each request's latency is
//! measured from its *scheduled* open-loop arrival time, not from when
//! the blocking client got around to sending it, so a stalled server
//! inflates the recorded tail instead of silently thinning the sample.
//! The artifact adds the wire-side `recv`/`decode` stage quantiles and
//! the connection-layer counters; `throughput_rps` and the histogram
//! `overflow` fields gate, the socket latencies stay informational (they
//! carry loopback + syscall noise the in-process `steady_mixed` gate
//! already excludes).

use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_bench::create_output;
use lr_bench::json::{write_json, Json};
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_serve::{
    AdmissionPolicy, BatchPolicy, FaultKind, FaultPlan, LatencyHistogram, LatencySummary, ModelId,
    ModelRegistry, NetBind, NetClient, NetConfig, NetStats, ReadoutMode, Server, ServerStats,
    StageLatency, TraceConfig, TraceSnapshot, Transport,
};
use lr_tensor::{parallel, Complex64, Field};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn donn(n: usize, depth: usize, seed: u64) -> DonnModel {
    let grid = Grid::square(n, PixelPitch::from_um(36.0));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(30.0))
        .diffractive_layers(depth)
        .detector(Detector::grid_layout(n, n, 4, n / 8))
        .init_seed(seed)
        .build()
}

fn make_input(n: usize, phase: usize) -> Field {
    Field::from_fn(n, n, |r, c| {
        Complex64::from_real(if (r + c + phase) % 5 < 2 { 1.0 } else { 0.0 })
    })
}

/// One precomputed request of the open-loop schedule.
struct ScheduledRequest {
    /// Offset from the scenario epoch.
    at: Duration,
    /// Which registered model to hit.
    model: ModelId,
    /// Which of the pregenerated inputs to send.
    input_idx: usize,
}

/// Per-thread deterministic schedule: exponential interarrivals at
/// `rate_rps` requests/second for this thread, 70/30 model mix.
fn build_schedule(
    seed: u64,
    requests: usize,
    rate_rps: f64,
    model_a: ModelId,
    model_b: ModelId,
    num_inputs: usize,
) -> Vec<ScheduledRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..requests)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_rps;
            let pick_b: f64 = rng.gen_range(0.0..1.0);
            ScheduledRequest {
                at: Duration::from_secs_f64(t),
                model: if pick_b < 0.3 { model_b } else { model_a },
                input_idx: rng.gen_range(0..num_inputs),
            }
        })
        .collect()
}

struct ScenarioOutcome {
    offered_rps: f64,
    ok: u64,
    failed: u64,
    wall_secs: f64,
    stats: ServerStats,
}

/// Runs one scenario: `threads` open-loop clients firing their schedules
/// at a fresh server over a two-model registry, optionally with a
/// co-located "training" thread hammering the **global** pool for the
/// whole scenario, returning outcome counters plus the server's own stats
/// snapshot.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    policy: BatchPolicy,
    rate_rps: f64,
    threads: usize,
    requests_per_thread: usize,
    seed: u64,
    model_a: &DonnModel,
    model_b: &DonnModel,
    colocate_training: bool,
) -> ScenarioOutcome {
    let mut registry = ModelRegistry::new();
    let a =
        registry.register_emulated("mnist-emulated", 1, model_a.clone(), ReadoutMode::Emulation);
    let b = registry.register_emulated("mnist-deployed", 1, model_b.clone(), ReadoutMode::Deployed);
    let server = Server::start(registry, policy);

    let (na, _) = model_a.grid().shape();
    let (nb, _) = model_b.grid().shape();
    let inputs_a: Vec<Field> = (0..4).map(|p| make_input(na, p)).collect();
    let inputs_b: Vec<Field> = (0..4).map(|p| make_input(nb, p)).collect();

    let per_thread_rate = rate_rps / threads as f64;
    let stop_training = AtomicBool::new(false);
    let epoch = Instant::now();
    let (ok, failed) = std::thread::scope(|scope| {
        // Co-located "training": batch after batch of emulation forward
        // passes submitted to the global pool, competing for its single
        // job slot exactly like a training loop in the same process.
        if colocate_training {
            let stop = &stop_training;
            let train_inputs = &inputs_a;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = parallel::par_map(8, |i| {
                        model_a.infer(&train_inputs[i % train_inputs.len()])
                    });
                }
            });
        }
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let schedule = build_schedule(
                    seed.wrapping_add(t as u64),
                    requests_per_thread,
                    per_thread_rate,
                    a,
                    b,
                    inputs_a.len(),
                );
                // Each stream keeps one client per model so slots stay
                // shape-stable (the zero-allocation serving contract).
                let mut client_a = server.client();
                let mut client_b = server.client();
                let inputs_a = &inputs_a;
                let inputs_b = &inputs_b;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut failed = 0u64;
                    let mut logits = Vec::new();
                    for req in &schedule {
                        let target = epoch + req.at;
                        let now = Instant::now();
                        if target > now {
                            std::thread::sleep(target - now);
                        }
                        let result = if req.model == a {
                            client_a.infer(a, &inputs_a[req.input_idx], &mut logits)
                        } else {
                            client_b.infer(b, &inputs_b[req.input_idx], &mut logits)
                        };
                        match result {
                            Ok(()) => ok += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        // Collect joins first and stop the training loop *before*
        // unwrapping: if a load thread panicked, the scope must still be
        // able to join the training thread (which spins on this flag) —
        // otherwise the bench (and the CI perf-gate job) hangs instead of
        // reporting the panic.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop_training.store(true, Ordering::Relaxed);
        joined
            .into_iter()
            .map(|r| r.expect("load thread panicked"))
            .fold((0u64, 0u64), |(o, f), (a, b)| (o + a, f + b))
    });
    let wall_secs = epoch.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    ScenarioOutcome {
        offered_rps: rate_rps,
        ok,
        failed,
        wall_secs,
        stats,
    }
}

struct SocketOutcome {
    offered_rps: f64,
    ok: u64,
    failed: u64,
    wall_secs: f64,
    /// Client-observed latency, **coordinated-omission-safe**: measured
    /// from each request's scheduled open-loop arrival time, not its
    /// actual (possibly delayed) send time.
    latency: LatencySummary,
    net: NetStats,
    stats: ServerStats,
}

/// Runs the steady mixed load through the network front end over loopback
/// TCP: `threads` blocking `lr-net` clients firing their open-loop
/// schedules at a socket-served fresh server.
///
/// Coordinated-omission handling: a blocking client that falls behind its
/// schedule does **not** skip or re-time requests — it fires immediately
/// and the latency is still measured from the scheduled arrival, so the
/// time spent waiting for the server counts against the server.
fn run_socket(
    policy: BatchPolicy,
    rate_rps: f64,
    threads: usize,
    requests_per_thread: usize,
    seed: u64,
    model_a: &DonnModel,
    model_b: &DonnModel,
) -> SocketOutcome {
    let mut registry = ModelRegistry::new();
    let a =
        registry.register_emulated("mnist-emulated", 1, model_a.clone(), ReadoutMode::Emulation);
    let b = registry.register_emulated("mnist-deployed", 1, model_b.clone(), ReadoutMode::Deployed);
    let server = Server::start(registry, policy);
    let net = server
        .listen(
            NetBind::Tcp("127.0.0.1:0".parse().unwrap()),
            NetConfig::default(),
        )
        .expect("bind loopback listener");
    let addr = net.local_addr().unwrap();

    let (na, _) = model_a.grid().shape();
    let (nb, _) = model_b.grid().shape();
    let inputs_a: Vec<Field> = (0..4).map(|p| make_input(na, p)).collect();
    let inputs_b: Vec<Field> = (0..4).map(|p| make_input(nb, p)).collect();

    let per_thread_rate = rate_rps / threads as f64;
    let latency = LatencyHistogram::new();
    let epoch = Instant::now();
    let (ok, failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let schedule = build_schedule(
                    seed.wrapping_add(t as u64),
                    requests_per_thread,
                    per_thread_rate,
                    a,
                    b,
                    inputs_a.len(),
                );
                // One connection per model, mirroring the in-process
                // clients: the server-side slot stays shape-stable.
                let mut client_a = NetClient::connect_tcp(addr).expect("connect");
                let mut client_b = NetClient::connect_tcp(addr).expect("connect");
                let inputs_a = &inputs_a;
                let inputs_b = &inputs_b;
                let latency = &latency;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut failed = 0u64;
                    let mut logits = Vec::new();
                    for req in &schedule {
                        let target = epoch + req.at;
                        let now = Instant::now();
                        if target > now {
                            std::thread::sleep(target - now);
                        }
                        let result = if req.model == a {
                            client_a.infer(a, &inputs_a[req.input_idx], &mut logits)
                        } else {
                            client_b.infer(b, &inputs_b[req.input_idx], &mut logits)
                        };
                        // From the *scheduled* arrival: open-loop timing
                        // that a slow server cannot thin out.
                        let ns = u64::try_from(
                            Instant::now().saturating_duration_since(target).as_nanos(),
                        )
                        .unwrap_or(u64::MAX);
                        latency.record(ns);
                        match result {
                            Ok(()) => ok += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("socket load thread panicked"))
            .fold((0u64, 0u64), |(o, f), (a, b)| (o + a, f + b))
    });
    let wall_secs = epoch.elapsed().as_secs_f64();
    let net_stats = net.stats();
    drop(net);
    let stats = server.stats();
    server.shutdown();
    SocketOutcome {
        offered_rps: rate_rps,
        ok,
        failed,
        wall_secs,
        latency: latency.summary(),
        net: net_stats,
        stats,
    }
}

#[derive(Default)]
struct ChurnOutcome {
    cycles: usize,
    baseline_resident_bytes: u64,
    peak_resident_bytes: u64,
    resident_workspace_bytes: u64,
    reclaimed_models: u64,
    reclaimed_bytes: u64,
    swept_cache_entries: u64,
    completed: u64,
    wall_secs: f64,
}

/// Runs the memory-lifecycle churn scenario: `cycles` rounds of
/// register → serve → retire → reclaim of a fresh model version, with a
/// long-lived survivor taking traffic through every round. Peak resident
/// bytes shows the transient cost of one extra version; the end value
/// proves reclaim returned the runtime to the survivor's baseline.
fn run_churn(
    policy: BatchPolicy,
    cycles: usize,
    survivor: &DonnModel,
    churn_n: usize,
    churn_depth: usize,
) -> ChurnOutcome {
    let mut registry = ModelRegistry::new();
    let keeper =
        registry.register_emulated("survivor", 1, survivor.clone(), ReadoutMode::Emulation);
    let server = Server::start(registry, policy);
    let (n, _) = survivor.grid().shape();
    let keeper_input = make_input(n, 0);
    let churn_input = make_input(churn_n, 1);

    let baseline = server.stats().resident_workspace_bytes;
    let mut peak = baseline;
    let mut keeper_client = server.client();
    let mut logits = Vec::new();
    let epoch = Instant::now();
    for cycle in 0..cycles {
        let model = donn(churn_n, churn_depth, 7000 + cycle as u64);
        let id = server.register_emulated(
            "churn",
            cycle as u32 + 1,
            model,
            if cycle % 2 == 0 {
                ReadoutMode::Emulation
            } else {
                ReadoutMode::Deployed
            },
        );
        let mut client = server.client();
        for _ in 0..4 {
            client
                .infer(id, &churn_input, &mut logits)
                .expect("churn model must serve");
            keeper_client
                .infer(keeper, &keeper_input, &mut logits)
                .expect("survivor must serve");
        }
        peak = peak.max(server.stats().resident_workspace_bytes);
        assert!(server.retire(id), "churn version must retire");
        assert!(server.reclaim(id), "churn version must reclaim");
    }
    let wall_secs = epoch.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    ChurnOutcome {
        cycles,
        baseline_resident_bytes: baseline,
        peak_resident_bytes: peak,
        resident_workspace_bytes: stats.resident_workspace_bytes,
        reclaimed_models: stats.reclaimed_models,
        reclaimed_bytes: stats.reclaimed_bytes,
        swept_cache_entries: stats.swept_cache_entries,
        completed: stats.completed,
        wall_secs,
    }
}

#[derive(Default)]
struct ChaosOutcome {
    /// Drained trace (only when `--trace-out` enabled tracing).
    trace: Option<TraceSnapshot>,
    submitted: u64,
    ok: u64,
    typed_errors: u64,
    unresolved_requests: u64,
    bitwise_mismatches: u64,
    churn_cycles: usize,
    deadline_expired: u64,
    worker_panics: u64,
    dispatcher_respawns: u64,
    shed: u64,
    rejected: u64,
    reclaimed_models: u64,
    resident_workspace_bytes: u64,
    p99_survivor_ns: u64,
    wall_ms: u64,
}

/// Runs the fault-tolerance contract under load: `threads` clients hammer
/// a survivor model while a seeded fault plan injects panics, stalls,
/// and queue-full bursts, one dispatcher is killed
/// mid-run, and a churn thread register→serve→retire→reclaims fresh
/// versions throughout. Client threads are **detached** (not scoped) so a
/// hung request cannot hang the bench: a watchdog counts whatever never
/// resolved as `unresolved_requests` and the artifact still gets written
/// (the gate then fails on the count, which is the point).
#[allow(clippy::too_many_arguments)]
fn run_chaos(
    shards: usize,
    threads: usize,
    requests_per_thread: usize,
    cycles: usize,
    survivor: &DonnModel,
    churn_n: usize,
    churn_depth: usize,
    trace: Option<Arc<TraceConfig>>,
) -> ChaosOutcome {
    // Injected panics unwind with a payload containing "injected fault";
    // keep them out of stderr while leaving real panics fully reported.
    {
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

    let plan = Arc::new(
        FaultPlan::new(0xC4A05)
            .with_rate(FaultKind::PanicInForward, 50)
            .with_rate(FaultKind::SlowWorker, 10)
            .with_rate(FaultKind::QueueFull, 15)
            .with_stall(Duration::from_millis(1)),
    );
    let mut registry = ModelRegistry::new();
    let keeper =
        registry.register_emulated("survivor", 1, survivor.clone(), ReadoutMode::Emulation);
    let server = Arc::new(Server::start(
        registry,
        BatchPolicy {
            max_batch: 4,
            max_delay: Duration::from_micros(200),
            queue_cap: 16,
            admission: AdmissionPolicy::RejectNew,
            shards,
            // Pin worker contexts to the shard count so the gated
            // end-of-run resident bytes mean the same thing on any
            // runner (same rationale as the churn scenario).
            workers: shards,
            default_deadline: Duration::from_millis(500),
            // Injected panics are noise, not a broken model: keep the
            // survivor in rotation for the whole scenario.
            quarantine_after: 0,
            supervisor_tick: Duration::from_millis(1),
            faults: Some(Arc::clone(&plan)),
            trace,
            ..BatchPolicy::default()
        },
    ));
    let (n, _) = survivor.grid().shape();
    let input = Arc::new(make_input(n, 0));
    let expected = Arc::new(survivor.infer(&input));

    let submitted = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let typed_errors = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(AtomicU64::new(0));
    let remaining = Arc::new(AtomicU64::new((threads * requests_per_thread) as u64));
    let churn_done = Arc::new(AtomicBool::new(false));
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(
        threads * requests_per_thread,
    )));
    let watchdog = Instant::now() + Duration::from_secs(60);
    let epoch = Instant::now();

    let mut handles = Vec::new();
    for _ in 0..threads {
        let server = Arc::clone(&server);
        let input = Arc::clone(&input);
        let expected = Arc::clone(&expected);
        let submitted = Arc::clone(&submitted);
        let ok = Arc::clone(&ok);
        let typed_errors = Arc::clone(&typed_errors);
        let mismatches = Arc::clone(&mismatches);
        let remaining = Arc::clone(&remaining);
        let latencies = Arc::clone(&latencies);
        handles.push(std::thread::spawn(move || {
            let mut client = server.client();
            let mut logits = Vec::new();
            for _ in 0..requests_per_thread {
                submitted.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                match client.infer(keeper, &input, &mut logits) {
                    Ok(()) => {
                        if logits == *expected {
                            ok.fetch_add(1, Ordering::Relaxed);
                            latencies
                                .lock()
                                .expect("latency vec poisoned")
                                .push(t0.elapsed().as_nanos() as u64);
                        } else {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Every Err is a typed ServeError by construction; a
                    // hang would show up as `remaining` never draining.
                    Err(_) => {
                        typed_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                remaining.fetch_sub(1, Ordering::Relaxed);
            }
        }));
    }
    // Lifecycle churn alongside the faults: fresh versions register,
    // serve a couple of requests, retire, and reclaim. Reclaim aborts
    // (returns false) while a dispatcher is down, so it retries until the
    // supervisor has healed the shard.
    {
        let server = Arc::clone(&server);
        let submitted = Arc::clone(&submitted);
        let ok = Arc::clone(&ok);
        let typed_errors = Arc::clone(&typed_errors);
        let mismatches = Arc::clone(&mismatches);
        let churn_done = Arc::clone(&churn_done);
        let churn_input = make_input(churn_n, 1);
        handles.push(std::thread::spawn(move || {
            for cycle in 0..cycles {
                let model = donn(churn_n, churn_depth, 9000 + cycle as u64);
                let expected = model.infer(&churn_input);
                let id = server.register_emulated(
                    "churn",
                    cycle as u32 + 1,
                    model,
                    ReadoutMode::Emulation,
                );
                let mut client = server.client();
                let mut logits = Vec::new();
                let mut served = 0u32;
                while served < 2 && Instant::now() < watchdog {
                    submitted.fetch_add(1, Ordering::Relaxed);
                    match client.infer(id, &churn_input, &mut logits) {
                        Ok(()) => {
                            served += 1;
                            if logits == expected {
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            typed_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                assert!(server.retire(id), "churn version must retire");
                while !server.reclaim(id) && Instant::now() < watchdog {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            churn_done.store(true, Ordering::Relaxed);
        }));
    }
    // One deterministic dispatcher kill mid-run: the staged requests must
    // resolve as ChannelClosed and the supervisor must respawn the shard.
    std::thread::sleep(Duration::from_millis(20));
    plan.trigger(FaultKind::KillDispatcher);

    while Instant::now() < watchdog
        && (remaining.load(Ordering::Relaxed) > 0 || !churn_done.load(Ordering::Relaxed))
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    // A stuck churn thread (hung retire/reclaim) counts as one unresolved
    // operation alongside any client requests that never came back.
    let unresolved =
        remaining.load(Ordering::Relaxed) + u64::from(!churn_done.load(Ordering::Relaxed));
    let wall_ms = epoch.elapsed().as_millis() as u64;
    let stats = server.stats();
    let trace = server.drain_trace();
    let p99_survivor_ns = {
        let mut lat = latencies.lock().expect("latency vec poisoned").clone();
        lat.sort_unstable();
        if lat.is_empty() {
            0
        } else {
            lat[(lat.len() * 99 / 100).min(lat.len() - 1)]
        }
    };
    if unresolved == 0 {
        for h in handles {
            h.join().expect("chaos thread panicked");
        }
        if let Ok(server) = Arc::try_unwrap(server) {
            server.shutdown();
        }
    }
    // else: leak the hung threads and the server — the artifact records
    // the failure and the gate trips on `unresolved_requests`; joining
    // would hang the bench (and the CI job) instead of reporting it.

    ChaosOutcome {
        trace,
        submitted: submitted.load(Ordering::Relaxed),
        ok: ok.load(Ordering::Relaxed),
        typed_errors: typed_errors.load(Ordering::Relaxed),
        unresolved_requests: unresolved,
        bitwise_mismatches: mismatches.load(Ordering::Relaxed),
        churn_cycles: cycles,
        deadline_expired: stats.deadline_expired,
        worker_panics: stats.worker_panics,
        dispatcher_respawns: stats.dispatcher_respawns,
        shed: stats.shed,
        rejected: stats.rejected,
        reclaimed_models: stats.reclaimed_models,
        resident_workspace_bytes: stats.resident_workspace_bytes,
        p99_survivor_ns,
        wall_ms,
    }
}

/// Everything one `lr-bench serve` run measured; [`serve_artifact`]
/// turns it into the artifact.
struct ServeRun {
    shards: usize,
    /// Human-readable description of the mixed two-model workload.
    workload: String,
    load_threads: usize,
    requests_per_thread: usize,
    capacity_rps: f64,
    steady: ScenarioOutcome,
    overload: ScenarioOutcome,
    colocated_partitioned: ScenarioOutcome,
    churn: ChurnOutcome,
    chaos: ChaosOutcome,
    socket: SocketOutcome,
}

/// The four request stages of a [`StageLatency`], by artifact name.
fn stages(stage: &StageLatency) -> [(&'static str, &LatencySummary); 4] {
    [
        ("queue_wait", &stage.queue_wait),
        ("staging", &stage.staging),
        ("forward", &stage.forward),
        ("respond", &stage.respond),
    ]
}

/// An end-to-end latency distribution.
fn latency_json(l: &LatencySummary) -> Json {
    Json::obj([
        ("p50", l.p50_ns.into()),
        ("p95", l.p95_ns.into()),
        ("p99", l.p99_ns.into()),
        ("mean", l.mean_ns.into()),
        ("max", l.max_ns.into()),
    ])
}

/// Named stage quantiles plus each histogram's overflow count (which
/// `compare` gates at 0).
fn stage_json<'a>(named: impl IntoIterator<Item = (&'static str, &'a LatencySummary)>) -> Json {
    Json::Obj(
        named
            .into_iter()
            .map(|(name, s)| {
                let quantiles = Json::obj([
                    ("p50", s.p50_ns.into()),
                    ("p95", s.p95_ns.into()),
                    ("p99", s.p99_ns.into()),
                    ("overflow", s.overflow.into()),
                ]);
                (name.to_string(), quantiles)
            })
            .collect(),
    )
}

fn throughput_rps(ok: u64, wall_secs: f64) -> Json {
    (ok as f64 / wall_secs.max(1e-12)).into()
}

fn scenario_json(o: &ScenarioOutcome) -> Json {
    let s = &o.stats;
    let per_shard = s
        .per_shard
        .iter()
        .map(|sh| {
            Json::obj([
                ("shard", sh.shard.into()),
                ("completed", sh.completed.into()),
                ("batches", sh.batches.into()),
                ("stolen", sh.stolen.into()),
                ("p50", sh.latency.p50_ns.into()),
                ("p95", sh.latency.p95_ns.into()),
                ("p99", sh.latency.p99_ns.into()),
            ])
        })
        .collect();
    Json::obj([
        ("offered_rps", o.offered_rps.into()),
        ("wall_secs", o.wall_secs.into()),
        ("client_ok", o.ok.into()),
        ("client_failed", o.failed.into()),
        ("completed", s.completed.into()),
        ("rejected", s.rejected.into()),
        ("shed", s.shed.into()),
        ("throughput_rps", throughput_rps(o.ok, o.wall_secs)),
        ("mean_batch_size", s.mean_batch_size.into()),
        ("batched_samples", s.batched_samples.into()),
        ("batch_executions", s.batch_executions.into()),
        ("mean_executed_batch", s.mean_executed_batch.into()),
        ("latency_ns", latency_json(&s.latency)),
        ("stage_latency_ns", stage_json(stages(&s.stage_latency))),
        ("per_shard", Json::Arr(per_shard)),
    ])
}

fn churn_json(o: &ChurnOutcome) -> Json {
    Json::obj([
        ("cycles", o.cycles.into()),
        ("wall_secs", o.wall_secs.into()),
        ("completed", o.completed.into()),
        ("baseline_resident_bytes", o.baseline_resident_bytes.into()),
        ("peak_resident_bytes", o.peak_resident_bytes.into()),
        (
            "resident_workspace_bytes",
            o.resident_workspace_bytes.into(),
        ),
        ("reclaimed_models", o.reclaimed_models.into()),
        ("reclaimed_bytes", o.reclaimed_bytes.into()),
        ("swept_cache_entries", o.swept_cache_entries.into()),
    ])
}

fn chaos_json(o: &ChaosOutcome) -> Json {
    Json::obj([
        ("wall_ms", o.wall_ms.into()),
        ("submitted", o.submitted.into()),
        ("ok", o.ok.into()),
        ("typed_errors", o.typed_errors.into()),
        ("unresolved_requests", o.unresolved_requests.into()),
        ("bitwise_mismatches", o.bitwise_mismatches.into()),
        ("churn_cycles", o.churn_cycles.into()),
        ("deadline_expired", o.deadline_expired.into()),
        ("worker_panics", o.worker_panics.into()),
        ("dispatcher_respawns", o.dispatcher_respawns.into()),
        ("shed", o.shed.into()),
        ("rejected", o.rejected.into()),
        ("reclaimed_models", o.reclaimed_models.into()),
        (
            "resident_workspace_bytes",
            o.resident_workspace_bytes.into(),
        ),
        ("p99_survivor_ns", o.p99_survivor_ns.into()),
    ])
}

fn socket_json(o: &SocketOutcome) -> Json {
    let n = &o.net;
    Json::obj([
        ("offered_rps", o.offered_rps.into()),
        ("wall_secs", o.wall_secs.into()),
        ("client_ok", o.ok.into()),
        ("client_failed", o.failed.into()),
        ("throughput_rps", throughput_rps(o.ok, o.wall_secs)),
        ("completed", o.stats.completed.into()),
        ("connections_accepted", n.accepted.into()),
        ("frames_admitted", n.requests.into()),
        ("responses", n.responses.into()),
        ("request_errors", n.request_errors.into()),
        ("protocol_errors", n.protocol_errors.into()),
        ("latency_ns", latency_json(&o.latency)),
        // The two wire-side stages; the in-process four follow.
        (
            "wire_stage_latency_ns",
            stage_json([("recv", &n.recv), ("decode", &n.decode)]),
        ),
        (
            "stage_latency_ns",
            stage_json(stages(&o.stats.stage_latency)),
        ),
        ("mean_batch_size", o.stats.mean_batch_size.into()),
    ])
}

/// Builds the `BENCH_serve.json` artifact. Each scenario's
/// `stage_latency_ns` block holds the four stages that tile every
/// request's end-to-end latency (shared boundary timestamps), so the
/// stage p50s sum to roughly the end-to-end p50 — that invariant is what
/// makes the breakdown diffable: a tail regression shows up *in* a stage,
/// not beside them.
fn serve_artifact(quick: bool, run: &ServeRun) -> Json {
    Json::obj([
        ("generated_by", "lr-bench serve".into()),
        ("threads", parallel::threads().into()),
        ("mode", if quick { "quick" } else { "full" }.into()),
        ("shards", run.shards.into()),
        ("workload", run.workload.as_str().into()),
        ("load_threads", run.load_threads.into()),
        ("requests_per_thread", run.requests_per_thread.into()),
        ("calibrated_capacity_rps", run.capacity_rps.into()),
        (
            "scenarios",
            Json::obj([
                ("steady_mixed", scenario_json(&run.steady)),
                ("overload_shed", scenario_json(&run.overload)),
                (
                    "colocated_partitioned",
                    scenario_json(&run.colocated_partitioned),
                ),
                ("churn", churn_json(&run.churn)),
                ("chaos", chaos_json(&run.chaos)),
                ("socket_tcp", socket_json(&run.socket)),
            ]),
        ),
    ])
}

/// Prints the per-stage / per-shard latency breakdown table for one
/// scenario to stderr (the artifact JSON carries the same quantiles).
fn print_stage_table(name: &str, stats: &ServerStats) {
    eprintln!("stage latency breakdown ({name}):");
    eprintln!(
        "  {:<12} {:>12} {:>12} {:>12} {:>10} {:>9}",
        "stage", "p50_ns", "p95_ns", "p99_ns", "count", "overflow"
    );
    for (stage, s) in stages(&stats.stage_latency) {
        eprintln!(
            "  {:<12} {:>12} {:>12} {:>12} {:>10} {:>9}",
            stage, s.p50_ns, s.p95_ns, s.p99_ns, s.count, s.overflow
        );
    }
    for sh in &stats.per_shard {
        let st = &sh.stage_latency;
        eprintln!(
            "  shard {}: p50 queue_wait {} | staging {} | forward {} | respond {}",
            sh.shard, st.queue_wait.p50_ns, st.staging.p50_ns, st.forward.p50_ns, st.respond.p50_ns
        );
    }
}

/// Runs every scenario. `trace` enables full-sampling request tracing on
/// the `chaos` scenario.
fn measure_serve(quick: bool, shards: usize, trace: bool) -> ServeRun {
    // Mixed two-model workload: emulation readout at one geometry,
    // deployed readout at another.
    let (na, nb, depth, threads, per_thread) = if quick {
        (32, 48, 2, 2, 60)
    } else {
        (64, 96, 3, 4, 150)
    };
    let model_a = donn(na, depth, 5);
    let model_b = donn(nb, depth, 6);

    // Calibrate capacity from the direct single-worker inference cost of
    // the 70/30 mix so offered rates mean the same thing on any machine.
    let mut ws_a = model_a.make_workspace();
    let mut ws_b = model_b.make_workspace();
    let mut logits = Vec::new();
    let input_a = make_input(na, 0);
    let input_b = make_input(nb, 0);
    model_a.infer_into(&input_a, &mut ws_a, &mut logits); // warm plans
    model_b.infer_into(&input_b, &mut ws_b, &mut logits);
    let t0 = Instant::now();
    let calib_rounds = if quick { 10 } else { 20 };
    for _ in 0..calib_rounds {
        for _ in 0..7 {
            model_a.infer_into(&input_a, &mut ws_a, &mut logits);
        }
        for _ in 0..3 {
            model_b.infer_into(&input_b, &mut ws_b, &mut logits);
        }
    }
    let mixed_cost = t0.elapsed().as_secs_f64() / (calib_rounds as f64 * 10.0);
    let capacity_rps = 1.0 / mixed_cost.max(1e-9);

    let steady_policy = BatchPolicy {
        max_batch: 8,
        max_delay: Duration::from_micros(500),
        queue_cap: 128,
        admission: AdmissionPolicy::RejectNew,
        shards,
        ..BatchPolicy::default()
    };
    let steady = run_scenario(
        steady_policy.clone(),
        0.5 * capacity_rps,
        threads,
        per_thread,
        42,
        &model_a,
        &model_b,
        false,
    );
    // Overload needs more concurrent clients than the batchers + queues
    // can absorb (threads > shards * (max_batch + queue_cap)), otherwise
    // blocking clients self-throttle below the cap and nothing is shed.
    let overload_threads = threads * 4;
    let overload = run_scenario(
        BatchPolicy {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_cap: 2,
            admission: AdmissionPolicy::ShedOldest,
            shards,
            ..BatchPolicy::default()
        },
        4.0 * capacity_rps,
        overload_threads,
        per_thread.div_ceil(4),
        43,
        &model_a,
        &model_b,
        false,
    );
    // Co-located training: the same steady load while a training loop
    // runs on the global pool; each shard serves on its own partition.
    let colocated_partitioned = run_scenario(
        steady_policy.clone(),
        0.5 * capacity_rps,
        threads,
        per_thread.div_ceil(2),
        44,
        &model_a,
        &model_b,
        true,
    );
    // Memory lifecycle: register/retire/reclaim churn against a
    // long-lived survivor. The gated `resident_workspace_bytes` must come
    // back flat to the survivor's baseline after every cycle reclaims.
    // `workers` is pinned to the shard count (one context per shard):
    // resident bytes scale with the number of worker contexts, and the
    // gate compares against a committed baseline, so the metric must mean
    // the same thing regardless of the runner's core count.
    let churn = run_churn(
        BatchPolicy {
            workers: shards,
            ..steady_policy.clone()
        },
        if quick { 4 } else { 8 },
        &model_a,
        nb,
        depth,
    );
    // Fault-tolerance contract under a seeded fault mix plus lifecycle
    // churn; `unresolved_requests` and `bitwise_mismatches` gate at 0.
    let chaos = run_chaos(
        shards,
        threads,
        per_thread,
        if quick { 3 } else { 6 },
        &model_a,
        nb,
        depth,
        // Sample every request when a trace artifact was asked for: the
        // chaos scenario is short, and a full timeline is what makes each
        // fault attributable to the requests around it.
        trace.then(|| {
            Arc::new(TraceConfig {
                sample_per_mille: 1000,
                ring_capacity: 1 << 16,
                ..TraceConfig::default()
            })
        }),
    );
    // Same steady mixed load, but through the network front end: loopback
    // TCP, wire framing, and the event-driven connection layer in front of
    // the exact same admission path. `throughput_rps` and the histogram
    // `overflow` fields gate; the CO-safe socket latencies stay
    // informational (loopback jitter is not a regression signal).
    let socket = run_socket(
        steady_policy,
        0.5 * capacity_rps,
        threads,
        per_thread,
        45,
        &model_a,
        &model_b,
    );

    ServeRun {
        shards,
        workload: format!("{na}x{na}@emulated (70%) + {nb}x{nb}@deployed (30%), depth {depth}"),
        load_threads: threads,
        requests_per_thread: per_thread,
        capacity_rps,
        steady,
        overload,
        colocated_partitioned,
        churn,
        chaos,
        socket,
    }
}

/// Entry point for
/// `lr-bench serve [--out PATH] [--quick] [--shards N] [--trace-out PATH]`.
///
/// `--trace-out PATH` enables request-path tracing (full sampling) on the
/// `chaos` scenario and writes the drained span/instant timeline as
/// Chrome trace-event JSON to `PATH` — loadable in Perfetto, with every
/// injected panic, respawn, shed, and deadline expiry visible as an
/// instant event next to the request spans it disrupted.
pub fn run(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let out_path = flag("--out").map_or("BENCH_serve.json", String::as_str);
    let trace_path = flag("--trace-out");
    let quick = args.iter().any(|a| a == "--quick");
    let shards = match flag("--shards").map(|v| v.parse::<usize>()) {
        None => 2,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!(
                "usage: lr-bench serve [--out PATH] [--quick] [--shards N] [--trace-out PATH] \
                 (--shards takes a positive integer)"
            );
            std::process::exit(2);
        }
    };
    let mut out = create_output(Path::new(out_path));
    let trace_out = trace_path.map(|p| (p, create_output(Path::new(p))));

    let mut run = measure_serve(quick, shards, trace_out.is_some());
    let json = write_json(&serve_artifact(quick, &run));
    out.write_all(json.as_bytes())
        .expect("failed to write serve bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // Per-stage / per-shard breakdown tables for the scenarios whose
    // stage histograms carry a steady signal.
    print_stage_table("steady_mixed", &run.steady.stats);
    print_stage_table("overload_shed", &run.overload.stats);
    print_stage_table("colocated_partitioned", &run.colocated_partitioned.stats);

    if let Some((path, mut file)) = trace_out {
        let snapshot = run
            .chaos
            .trace
            .take()
            .expect("--trace-out enabled tracing on the chaos scenario");
        file.write_all(snapshot.to_chrome_json().as_bytes())
            .expect("failed to write trace artifact");
        eprintln!(
            "wrote {path} ({} events, {} dropped)",
            snapshot.events.len(),
            snapshot.dropped
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::paths;
    use lr_bench::json::parse_json;

    #[test]
    fn serve_artifact_emits_every_baseline_metric() {
        // A real (idle) two-shard server supplies a stats snapshot of the
        // right shape; every counter in it is zero.
        let mut registry = ModelRegistry::new();
        registry.register_emulated("tiny", 1, donn(8, 1, 1), ReadoutMode::Emulation);
        let server = Server::start(
            registry,
            BatchPolicy {
                shards: 2,
                ..BatchPolicy::default()
            },
        );
        let stats = server.stats();
        server.shutdown();
        let scenario = || ScenarioOutcome {
            offered_rps: 10.0,
            ok: 9,
            failed: 1,
            wall_secs: 1.0,
            stats: stats.clone(),
        };
        let run = ServeRun {
            shards: 2,
            workload: "synthetic".to_string(),
            load_threads: 2,
            requests_per_thread: 5,
            capacity_rps: 20.0,
            steady: scenario(),
            overload: scenario(),
            colocated_partitioned: scenario(),
            churn: ChurnOutcome::default(),
            chaos: ChaosOutcome::default(),
            socket: SocketOutcome {
                offered_rps: 10.0,
                ok: 10,
                failed: 0,
                wall_secs: 1.0,
                latency: stats.latency,
                net: NetStats {
                    accepted: 4,
                    closed: 4,
                    refused: 0,
                    protocol_errors: 0,
                    requests: 10,
                    responses: 10,
                    request_errors: 0,
                    recv: stats.latency,
                    decode: stats.latency,
                },
                stats: stats.clone(),
            },
        };
        let baseline = parse_json(include_str!("../../../BENCH_serve.baseline.json")).unwrap();
        assert_eq!(paths(&serve_artifact(true, &run)), paths(&baseline));
    }
}
