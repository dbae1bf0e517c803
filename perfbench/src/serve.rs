//! The `serve` workload: a closed loop of 2 client threads, each owning
//! one `NetClient` on loopback TCP and pinned to one model — a 64×64×3
//! model with emulation readout and a 96×96×3 model with deployed
//! readout — against a `Server` with one worker and the default batching
//! window. The worker moves to the next CPU every segment (see
//! [`place_workers`]).
//!
//! Why it exists: kernels are small here (planes under the parallel
//! threshold, batches of at most 2), so the wire, admission, batching
//! window, dispatch and reply layers dominate. A closed loop is the honest
//! shape because `NetClient` blocks and the protocol allows one request in
//! flight per connection.
//!
//! The traced phase runs a fresh deployment the same way and splits the
//! client's median latency into the stage histograms the server keeps
//! anyway (`Server::stats()`, `NetServer::stats()`); the client-side span
//! is the per-request timing the untraced phase also takes, so
//! `trace_overhead_frac` here is the difference between two deployments.

use crate::report::{mean, ranked, Report, WindowStats};
use crate::setup::{self, derive_seed, timed, Phases};
use crate::Args;
use lightridge::{CodesignMode, DonnModel};
use lr_serve::{
    BatchPolicy, LatencySummary, ModelId, ModelRegistry, NetBind, NetClient, NetConfig, NetServer,
    ReadoutMode, Server, ServerStats,
};
use lr_tensor::Field;
use std::time::{Duration, Instant};

const DEPTH: usize = 3;
/// Server workers. The default, one per thread of the pool, oversubscribes
/// a 2-vCPU host next to the two client threads and the event loop: over
/// five seeds on a 2-vCPU VM it raised the run-to-run spread of the median
/// latency from 0.10 to 0.28 of the median.
const WORKERS: usize = 1;
/// Distinct inputs per model, sent round-robin.
const INPUTS: usize = 16;
/// Untimed requests per client before measuring.
const WARMUP: usize = 32;
/// Length of one closed-loop segment. The end-to-end figures are means
/// over the segments (see [`crate::report::WINDOWS`]); a segment is long
/// enough for about ten replies past its p99.
const SEGMENT: Duration = Duration::from_secs(2);
/// Latencies each client records per segment, in a buffer allocated and
/// touched before measuring so that the benchmark's memory does not grow
/// with the number of replies; replies past it go unrecorded.
const RING: usize = 1 << 15;

/// One client's model, inputs and the logits each input must get back.
struct Lane {
    id: ModelId,
    mode: CodesignMode,
    model: DonnModel,
    inputs: Vec<Field>,
    expected: Vec<Vec<f64>>,
}

impl Lane {
    /// Computes the logits direct inference gives for each input.
    fn expect_direct(&mut self) {
        let mut ws = self.model.make_workspace();
        self.expected = self
            .inputs
            .iter()
            .map(|input| {
                let mut logits = Vec::new();
                self.model
                    .infer_mode_into(input, self.mode, &mut ws, &mut logits);
                logits
            })
            .collect();
    }
}

/// A running server with its socket front end and connected clients.
/// Fields drop in order: clients disconnect, then the listener and the
/// server shut down.
struct Deployment {
    clients: Vec<NetClient>,
    net: NetServer,
    server: Server,
    lanes: Vec<Lane>,
}

/// Builds inputs and models, starts the server and connects the clients.
/// The expected logits are left for [`Lane::expect_direct`], outside the
/// timed set-up.
fn deploy(seed: u64, p: &mut Phases) -> Deployment {
    let specs = [
        (64, ReadoutMode::Emulation, CodesignMode::Soft),
        (96, ReadoutMode::Deployed, CodesignMode::Deploy),
    ];
    let inputs: Vec<Vec<Field>> = timed(&mut p.data, || {
        specs
            .iter()
            .enumerate()
            .map(|(k, &(n, ..))| {
                setup::digits(INPUTS, n, derive_seed(seed, 21 + k as u64))
                    .iter()
                    .map(|(img, _)| Field::from_amplitudes(n, n, img))
                    .collect()
            })
            .collect()
    });
    let models: Vec<DonnModel> = timed(&mut p.build, || {
        specs
            .iter()
            .enumerate()
            .map(|(k, &(n, ..))| setup::classifier(n, DEPTH, derive_seed(seed, 31 + k as u64)))
            .collect()
    });
    // Registration is the serving path's prewarm: it builds plans, kernels
    // and a warmed workspace for each model.
    let mut registry = ModelRegistry::new();
    let ids: Vec<ModelId> = timed(&mut p.prewarm, || {
        specs
            .iter()
            .zip(&models)
            .enumerate()
            .map(|(k, (&(_, readout, _), model))| {
                registry.register_emulated(&format!("digits-{k}"), 1, model.clone(), readout)
            })
            .collect()
    });
    let (server, net, clients) = timed(&mut p.server, || {
        let server = Server::start(
            registry,
            BatchPolicy {
                workers: WORKERS,
                ..BatchPolicy::default()
            },
        );
        let net = server
            .listen(
                NetBind::Tcp(([127, 0, 0, 1], 0).into()),
                NetConfig::default(),
            )
            .expect("bind a loopback listener");
        let addr = net.local_addr().expect("TCP listener has an address");
        let clients: Vec<NetClient> = ids
            .iter()
            .map(|_| NetClient::connect_tcp(addr).expect("connect to the loopback listener"))
            .collect();
        (server, net, clients)
    });
    let lanes = specs
        .iter()
        .zip(models)
        .zip(inputs)
        .zip(ids)
        .map(|(((&(.., mode), model), inputs), id)| Lane {
            id,
            mode,
            model,
            inputs,
            expected: Vec::new(),
        })
        .collect();
    Deployment {
        clients,
        net,
        server,
        lanes,
    }
}

/// Deploys untimed and computes the expected logits.
fn deploy_checked(seed: u64) -> Deployment {
    let mut dep = deploy(seed, &mut Phases::default());
    dep.lanes.iter_mut().for_each(Lane::expect_direct);
    dep
}

/// Client-side results of the closed loop, segment by segment.
struct Recorder {
    /// Each client's latencies (seconds) in the current segment.
    rings: Vec<Vec<f64>>,
    /// The rings' contents merged and sorted when a segment ends.
    merged: Vec<f64>,
    /// Each segment's replies per second and latency quantiles.
    segments: Vec<WindowStats>,
    replies: usize,
    /// Requests that failed or returned logits other than direct inference.
    wrong: usize,
}

impl Recorder {
    fn new(clients: usize) -> Recorder {
        let mut merged = vec![0.0; clients * RING];
        merged.clear();
        Recorder {
            rings: (0..clients)
                .map(|_| {
                    let mut ring = vec![0.0; RING];
                    ring.clear();
                    ring
                })
                .collect(),
            merged,
            segments: Vec::new(),
            replies: 0,
            wrong: 0,
        }
    }

    /// Runs one closed-loop segment of `length`, at most `requests` per
    /// client, and records its figures.
    fn segment(&mut self, dep: &mut Deployment, requests: usize, length: Duration) {
        place_workers(self.segments.len());
        let (replies, wrong, wall) = closed_loop(dep, &mut self.rings, requests, length);
        self.replies += replies;
        self.wrong += wrong;
        self.merged.clear();
        for ring in &mut self.rings {
            self.merged.extend_from_slice(ring);
            ring.clear();
        }
        self.merged.sort_unstable_by(f64::total_cmp);
        self.segments.push(WindowStats {
            throughput: replies as f64 / wall,
            p50: ranked(&self.merged, 0.5),
            p99: ranked(&self.merged, 0.99),
        });
    }

    /// Mean replies per second and p50 latency over the segments.
    fn means(&self) -> (f64, f64) {
        let each =
            |f: fn(&WindowStats) -> f64| mean(&self.segments.iter().map(f).collect::<Vec<_>>());
        (each(|s| s.throughput), each(|s| s.p50))
    }
}

/// Runs every client in its own thread, each sending its next request as
/// soon as the previous reply arrives, until `requests` per client are
/// done or `budget` has passed. Each latency goes into the client's ring.
/// Returns the replies, the wrong replies and the wall time in seconds.
fn closed_loop(
    dep: &mut Deployment,
    rings: &mut [Vec<f64>],
    requests: usize,
    budget: Duration,
) -> (usize, usize, f64) {
    let start = Instant::now();
    let deadline = start + budget;
    let per_client: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = dep
            .clients
            .iter_mut()
            .zip(&dep.lanes)
            .zip(rings.iter_mut())
            .map(|((client, lane), ring)| {
                s.spawn(move || {
                    let mut logits = Vec::new();
                    let mut wrong = 0;
                    let mut k = 0;
                    while k < requests && Instant::now() < deadline {
                        let i = k % lane.inputs.len();
                        k += 1;
                        let t = Instant::now();
                        let reply = client.infer(lane.id, &lane.inputs[i], &mut logits);
                        if ring.len() < RING {
                            ring.push(t.elapsed().as_secs_f64());
                        }
                        wrong +=
                            usize::from(reply.is_err() || !bitwise_eq(&logits, &lane.expected[i]));
                    }
                    (k, wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let replies = per_client.iter().map(|c| c.0).sum();
    let wrong = per_client.iter().map(|c| c.1).sum();
    (replies, wrong, wall)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask (`cpu_set_t`, 1024 CPUs).
const MASK_WORDS: usize = 16;

/// Moves the server's worker threads (`lr-serve-shard*`) to the `k`-th
/// CPU, cyclically, of those the process may run on, for segment `k`.
///
/// The one busy worker otherwise stays on the CPU it started on for the
/// whole run, while the speed of each vCPU of a shared host flips between
/// states about 1.5× apart for seconds to minutes, independently of the
/// other vCPUs. A run then measures one vCPU, picked by chance; rotating
/// the worker makes every run sample each CPU alike, as the two-thread
/// `train` and `emulate` pools do: over six seeds on a 2-vCPU VM, run with
/// and without it in turn, it lowered the run-to-run spread of the p50
/// latency from 0.17 to 0.07 of the median. Does nothing where the
/// affinity calls fail or the threads are not found.
fn place_workers(k: usize) {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = cpus.get(k % cpus.len().max(1)) else {
        return;
    };
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let is_worker = std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|comm| comm.starts_with("lr-serve-shard"));
        if let (true, Ok(tid)) = (is_worker, task.file_name().to_string_lossy().parse()) {
            // SAFETY: `mask` is a readable buffer of the size passed; a tid
            // that has exited makes the call fail, which is ignored.
            unsafe { sched_setaffinity(tid, size_of_val(&mask), mask.as_ptr()) };
        }
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Sends a few untimed (but checked) requests on every connection.
fn warm_up(dep: &mut Deployment, report: &mut Report) {
    let mut warm = Recorder::new(dep.clients.len());
    warm.segment(dep, WARMUP, Duration::from_secs(60));
    report.tally(
        warm.replies,
        warm.wrong,
        "warm-up reply is bitwise equal to direct infer_mode_into",
    );
}

/// Checks the measured replies.
fn tally(recorder: &Recorder, report: &mut Report) {
    report.tally(
        recorder.replies,
        recorder.wrong,
        "reply is bitwise equal to direct infer_mode_into",
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let mut dep = deploy_checked(args.seed);
    warm_up(&mut dep, report);
    let mut untraced = Recorder::new(dep.clients.len());
    let times = setup::measured_phase(
        args.untraced_budget(),
        |p| deploy(args.seed, p),
        |_| untraced.segment(&mut dep, usize::MAX, SEGMENT),
    );
    report.setup(&times);
    tally(&untraced, report);
    report.end_to_end(&untraced.segments, untraced.replies);
    if !args.trace {
        return;
    }
    let (throughput, _) = untraced.means();
    drop(dep);

    // The stage histograms are cumulative per server, so the traced phase
    // gets a fresh deployment of its own; its warm-up requests are few
    // enough not to move the histograms' quantiles.
    let mut dep = deploy_checked(args.seed);
    warm_up(&mut dep, report);
    let before = dep.server.stats();
    let mut traced = Recorder::new(dep.clients.len());
    let start = Instant::now();
    while start.elapsed() < args.traced_budget() {
        traced.segment(&mut dep, usize::MAX, SEGMENT);
    }
    let stats = dep.server.stats();
    let net = dep.net.stats();
    tally(&traced, report);
    let n = traced.replies;
    let (traced_throughput, client_p50) = traced.means();
    let us = |s: &LatencySummary, q: fn(&LatencySummary) -> u64| q(s) as f64 / 1e3;
    let p50 = |s: &LatencySummary| s.p50_ns;
    let p99 = |s: &LatencySummary| s.p99_ns;
    let stages = &stats.stage_latency;
    let layered = [
        ("net.recv_p50_us", us(&net.recv, p50)),
        ("net.decode_p50_us", us(&net.decode, p50)),
        ("serve.queue_wait_p50_us", us(&stages.queue_wait, p50)),
        ("serve.staging_p50_us", us(&stages.staging, p50)),
        ("serve.forward_p50_us", us(&stages.forward, p50)),
        ("serve.respond_p50_us", us(&stages.respond, p50)),
    ];
    let client_p50 = client_p50 * 1e6;
    report.metric(
        "unattributed_p50_us",
        client_p50 - layered.iter().map(|l| l.1).sum::<f64>(),
        n,
    );
    for (name, value) in layered {
        report.metric(name, value, n);
    }
    report.metric("serve.queue_wait_p99_us", us(&stages.queue_wait, p99), n);
    report.metric("serve.forward_p99_us", us(&stages.forward, p99), n);
    let executions = stats.batch_executions - before.batch_executions;
    let samples = stats.batched_samples - before.batched_samples;
    report.metric(
        "serve.mean_executed_batch",
        samples as f64 / executions.max(1) as f64,
        executions as usize,
    );
    report.metric("serve.batch_executions", executions as f64, 1);
    report.metric(
        "serve.errors",
        (errors(&stats) + net.request_errors + net.protocol_errors) as f64,
        1,
    );
    report.metric(
        "trace_overhead_frac",
        1.0 - traced_throughput / throughput,
        n,
    );
}

/// Server-side requests that did not complete normally.
fn errors(s: &ServerStats) -> u64 {
    s.rejected + s.shed + s.pool_timeouts + s.deadline_expired + s.worker_panics
}
