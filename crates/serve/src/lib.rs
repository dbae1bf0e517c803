//! # lr-serve
//!
//! **Sharded** batched inference serving runtime for trained DONNs: the
//! subsystem that turns the zero-copy propagation pipeline into sustained
//! request throughput. Where `lightridge::train`/`infer` run inference
//! inside experiment loops, `lr-serve` accepts a stream of *independent*
//! requests — as a production deployment front-end would — and coalesces
//! them into micro-batches executed across N serving shards, each with its
//! own dispatcher, bounded queue, and disjoint worker-pool partition.
//!
//! ## Architecture
//!
//! ```text
//!  clients (any thread)                  serving runtime (one process)
//!  ┌──────────────────┐ submit  ┌───────────────────────────────────────┐
//!  │ InProcessClient  │────────▶│ model-affinity router (id % shards)   │
//!  │  (Transport)     │ deadline└──────┬─────────────────────┬──────────┘
//!  │  reusable slot:  │                │  ⚡QueueFull         │
//!  │  input + logits  │    ┌───────────▼─────────┐ ┌─────────▼─────────┐
//!  └──────────────────┘    │ shard 0             │ │ shard N-1         │
//!        ▲                 │ · bounded queue     │ │ · bounded queue   │
//!        │ bit-identical   │ · admission control │◀┼─· work stealing   │
//!        │ to direct infer │ · EDF shed + expiry │ │   when a sibling  │
//!        │                 │ · dispatcher thread │ │   queue runs hot  │
//!        │                 │ · micro-batcher     │ │  ⚡KillDispatcher  │
//!        │                 │ · staged batch      │ │  ⚡SubmitTimeout   │
//!        │                 └───────────┬─────────┘ └─────────┬─────────┘
//!        │                             │ per-worker per-model│
//!        │      ┌────────────────┐     │ workspaces (0-alloc)│
//!        │      │ supervisor     │     │  ⚡SlowWorker        │
//!        │      │ · respawn dead │     │  ⚡PanicInForward    │
//!        │      │   dispatchers  │     │ (per-run contain +  │
//!        │      │   (staged ⇒    │     │  workspace rebuild) │
//!        │      │   ChannelClosed│     │                     │
//!        │      │ · quarantine   │     │                     │
//!        │      │   flips        │     │                     │
//!        │      │ · AutoAfter    │     │                     │
//!        │      │   reclaim tick │     │                     │
//!        │      └────────────────┘     │                     │
//!        │                 ┌───────────▼─────────┐ ┌─────────▼─────────┐
//!        │                 │ PoolPartition 0     │ │ PoolPartition N-1 │
//!        │                 │ (disjoint workers;  │ │ (or SharedGlobal  │
//!        │                 │  isolated from      │ │  with bounded-    │
//!        │                 │  training)          │ │  wait submission) │
//!        │                 └───────────┬─────────┘ └─────────┬─────────┘
//!        │                             └─────────┬───────────┘
//!        │                          ┌────────────▼──────────────────────┐
//!        └──────────────────────────│ epoch-versioned registry          │
//!                                   │ (ArcSwap snapshot chain):         │
//!                                   │ · live register / retire = one    │
//!                                   │   atomic pointer flip, no drain   │
//!                                   │ · in-flight requests pin their    │
//!                                   │   entry Arc → complete on their   │
//!                                   │   admitted version                │
//!                                   │ · plans + kernels + per-shard     │
//!                                   │   workspaces prewarmed before     │
//!                                   │   the flip publishes the model    │
//!                                   │ · retire → slim tombstone; entry  │
//!                                   │   Arc released with the last      │
//!                                   │   in-flight pinner               │
//!                                   └────────────┬──────────────────────┘
//!                                                │
//!                                   ┌────────────▼──────────────────────┐
//!                                   │ memory lifecycle (reclaim):       │
//!                                   │ · per-shard epoch drain fence +   │
//!                                   │   global in-flight counters →     │
//!                                   │   quiescence for the retired id   │
//!                                   │ · per-worker workspaces dropped   │
//!                                   │   in every shard (bytes audited)  │
//!                                   │ · orphaned FFT plans + transfer   │
//!                                   │   kernels swept; live-pinned      │
//!                                   │   entries never evicted           │
//!                                   └────────────┬──────────────────────┘
//!                                                │ latency / throughput /
//!                                                │ resident bytes
//!                                   ┌────────────▼──────────────────────┐
//!                                   │ MetricsCore → ServerStats         │
//!                                   │ global + per-shard p50/p95/p99,   │
//!                                   │ resident/reclaimed/cache gauges   │
//!                                   └───────────────────────────────────┘
//! ```
//!
//! ## The serving-path contract
//!
//! * **Zero steady-state allocations.** Every buffer on the request path is
//!   preallocated and reused: clients own one request slot (input field +
//!   logit buffer), workers own one per-model
//!   [`BatchWorkspace`](lightridge::BatchWorkspace) for every variant,
//!   emulated or physical (`max_batch` co-resident planes plus staged
//!   logits, and a physical variant's camera planes), each
//!   shard's queue is a bounded ring, registry/in-flight/metrics snapshot
//!   loads are `Arc` refcount bumps, and the latency histograms are fixed
//!   arrays of atomics. Enforced by the counting-allocator test
//!   `tests/zero_alloc_serve.rs` at the workspace root (≥2 shards, with a
//!   mid-run live version flip, and coalesced runs of a physical variant).
//! * **True batched execution.** A dispatcher executes each coalesced
//!   micro-batch as **single batched forwards**: the drained slots are
//!   split into maximal same-model runs, each staged into the per-worker
//!   `BatchWorkspace` and run through one fused `FieldBatch` pass
//!   (`DonnModel::infer_staged_batch`, or
//!   `PhysicalDonn::infer_staged_batch` for a physical variant). There is
//!   no per-sample execution path: mixed-model batches split per model —
//!   still batched — and a lone request is a B=1 run. Coalescing is
//!   observable via [`ServerStats::batched_samples`] (equal to
//!   `completed`) / [`ServerStats::batch_executions`].
//! * **Bit-identical results.** A request served through the registry and
//!   micro-batcher returns exactly the logits of a direct
//!   `DonnModel::infer` (or `PhysicalDonn::infer`) call — batching,
//!   arrival order, shard routing, work stealing, and worker assignment
//!   never change the numbers (per-sample requests are B=1 batched calls
//!   over the same plane kernels, so there is only one propagation code
//!   path to trust).
//! * **Flat first-request latency.** Registration — at startup *and* live
//!   ([`Server::register_emulated`]) — prewarms FFT plans, diffraction
//!   kernels ([`lr_optics::FreeSpace::prewarm`]) and every layer's
//!   transmission table (`DonnModel::prewarm`), and warms every
//!   per-worker workspace with a dummy pass before the model becomes
//!   visible.
//! * **Bounded memory and graceful overload.** Per-shard queue depth is
//!   capped; past the cap, admission either rejects the new request or
//!   sheds the oldest queued one ([`AdmissionPolicy`]), per-model
//!   in-flight caps stop one hot model from starving the rest, and under
//!   [`PoolMode::SharedGlobal`] a stuck shared pool sheds the batch after
//!   [`BatchPolicy::pool_wait`] instead of hanging.
//! * **Flat memory under registry churn.** [`Server::retire`] collapses a
//!   slot to a slim tombstone (the entry `Arc` — parameters, plans — is
//!   released with the last in-flight pinner), and [`Server::reclaim`]
//!   (or [`ReclaimPolicy::AutoOnRetire`]) frees the rest behind a
//!   **drain fence**: each dispatcher's epoch fence plus the global
//!   in-flight counters prove no request admitted before the retire flip
//!   is queued or executing anywhere, then every shard drops the model's
//!   per-worker workspaces and the registry-tied cache sweeps evict its
//!   orphaned FFT plans and transfer kernels. Cache entries pinned by
//!   live models are never evicted, so survivors keep flat first-request
//!   latency; resident workspace bytes, reclaim counters, and cache
//!   occupancy are observable in [`ServerStats`], and the churn
//!   scenario of `lr-bench serve` gates on the end-of-loop resident
//!   bytes in CI.
//!
//! ## The fault-tolerance contract
//!
//! What the happy-path guarantees above degrade to *under faults* —
//! exercised deterministically by a seeded [`FaultPlan`] behind
//! zero-cost-when-disabled seams (the ⚡ marks in the diagram), the chaos
//! suite (`crates/serve/tests/chaos.rs`), and the CI-gated `chaos`
//! scenario of `lr-bench serve`:
//!
//! * **Every request resolves.** A submitted request always returns — Ok,
//!   or a typed [`ServeError`] — within its deadline plus one batch
//!   execution; no fault leaves a client hanging. Survivors stay
//!   bit-identical to direct `DonnModel::infer`.
//! * **Deadlines.** Each request carries an absolute deadline (default
//!   [`BatchPolicy::default_deadline`]; per-request via
//!   [`InProcessClient::infer_with_deadline`]). Expired-at-admission →
//!   [`ServeError::Deadline`] immediately; expired-while-queued → failed
//!   by the dispatcher's pre-staging sweep, never executed. Under
//!   [`AdmissionPolicy::ShedOldest`] the shed victim is the queued
//!   request with the **least remaining lifetime**, not the oldest
//!   arrival.
//! * **Panic isolation.** A panic unwinding out of inference fails only
//!   its own same-model run ([`ServeError::WorkerPanic`]); the worker's
//!   workspace is discarded and rebuilt through the prewarm path, so the
//!   shard returns to its warmed, zero-alloc steady state (proven by the
//!   extended `tests/zero_alloc_serve.rs`). After
//!   [`BatchPolicy::quarantine_after`] consecutive panics the model is
//!   **quarantined**: admission fails fast with
//!   [`ServeError::Quarantined`], in-flight stragglers still complete,
//!   and the state is observable via [`Server::lifecycle`]. Retire and
//!   reclaim still apply to quarantined slots.
//! * **Dispatcher death.** A dispatcher thread that dies (a bug's panic
//!   escaping containment, or an injected kill) is detected by the
//!   supervisor thread: the staged batch's waiters resolve with
//!   [`ServeError::ChannelClosed`] (retry-safe) instead of hanging, fresh
//!   warmed contexts are rebuilt, resident-byte accounting stays exact,
//!   and a new dispatcher takes over the shard's queue.
//! * **Background reclaim.** Under [`ReclaimPolicy::AutoAfter`] the
//!   supervisor runs the same drain-fenced reclaim for any tombstone
//!   older than the configured age — no manual [`Server::reclaim`] call,
//!   same quiescence proof, no fence violations.
//!
//! ## The observability contract
//!
//! The runtime answers "where did the time go, and what went wrong?"
//! without giving up the zero-allocation serve path:
//!
//! * **Stage-latency breakdown, always on.** Every completed request's
//!   end-to-end latency is decomposed into four disjoint intervals that
//!   sum exactly to it — `queue_wait` (admit → drained out of the shard
//!   queue), `staging` (drained → batched forward started), `forward`
//!   (the batched forward itself), and `respond` (forward done → client
//!   woken) — recorded into global **and** per-shard HDR histograms and
//!   surfaced as [`ServerStats::stage_latency`] /
//!   [`ShardStats::stage_latency`]. The stage p50s sum to the end-to-end
//!   p50 within HDR quantization error.
//! * **Honest histograms.** A sample past the top HDR bucket clamps for
//!   quantile purposes but bumps [`LatencySummary::overflow`] — top-bucket
//!   saturation is never silent, and the serve suites assert it stays 0.
//! * **Request-path tracing, zero-alloc when on, one branch when off.**
//!   [`BatchPolicy::trace`] installs a seeded deterministic per-mille
//!   sampler ([`TraceConfig`], same splitmix64 mixer as [`FaultPlan`]):
//!   each sampled request's four stage spans are recorded into its
//!   shard's fixed-capacity drop-oldest [`lr_obs::TraceRing`] (a cursor
//!   `fetch_add` plus a seqlock slot write — no lock, no allocation,
//!   proven by `tests/zero_alloc_serve.rs` with tracing enabled at 100%
//!   sampling). Fault and lifecycle actions — worker panics, quarantine
//!   flips, dispatcher respawns, deadline expiries, sheds, steals — are
//!   recorded as **instant events** regardless of sampling (supervisor
//!   actions go to a separate ring so request storms cannot overwrite
//!   them).
//! * **Exact loss under overrun.** [`Server::drain_trace`] returns every
//!   event recorded since the last drain plus an exact `dropped` count;
//!   [`TraceSnapshot::to_chrome_json`] renders Chrome trace-event JSON
//!   (pid = shard, tid = request — load it in Perfetto) and
//!   [`TraceSnapshot::to_timeline`] a human-readable per-request
//!   timeline. `lr-bench serve --trace-out trace.json` wires this end to
//!   end under chaos faults.
//!
//! ## The network front end
//!
//! [`Server::listen`] puts the same serving core behind a real socket:
//! the **`lr-net`** length-prefixed binary protocol (normative spec:
//! `docs/PROTOCOL.md`) over TCP or Unix-domain sockets, served by one
//! event-driven connection thread per listener (an epoll-backed poll —
//! the vendored `mio`-subset shim — with non-blocking sockets; no async
//! runtime). Socket requests decode **straight off the wire into the
//! same reusable request slots** the in-process client uses and flow
//! through the identical admission → shard queue → micro-batch →
//! settle path, so every contract above — bit-identical results, typed
//! errors, deadlines, fault tolerance — holds verbatim over the wire;
//! the error-code registry maps [`ServeError`] 1:1. Backpressure is
//! structural: one request in flight per connection (reads pause while
//! it runs), frames over the negotiated cap are refused without
//! buffering, and queue pressure falls through to the existing
//! reject/shed admission control. Two wire-side stages (`recv`,
//! `decode`) extend the stage breakdown in [`NetStats`] and the trace
//! rings. [`NetClient`] is the blocking reference client. See
//! `docs/ARCHITECTURE.md` for the full request-path walkthrough.
//!
//! ## Shard routing contract
//!
//! Requests route to `model_id % shards` (affinity keeps one model's
//! traffic on one dispatcher's warm workspaces). When a shard's queue
//! depth reaches `min(max_batch, queue_cap)` it counts as **hot**: its
//! enqueues wake idle sibling dispatchers, and an idle dispatcher steals
//! the front half of the first hot queue it finds (oldest first). Every
//! shard holds workspaces for every model, so stolen requests execute
//! anywhere without reallocation; shed-oldest victims are always popped
//! from the *target* shard's own queue.
//!
//! ## Quickstart
//!
//! ```
//! use lightridge::{Detector, DonnBuilder};
//! use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
//! use lr_serve::{BatchPolicy, ModelRegistry, ReadoutMode, Server, Transport};
//! use lr_tensor::Field;
//!
//! let grid = Grid::square(16, PixelPitch::from_um(36.0));
//! let model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
//!     .distance(Distance::from_mm(20.0))
//!     .diffractive_layers(2)
//!     .detector(Detector::grid_layout(16, 16, 4, 3))
//!     .build();
//!
//! let mut registry = ModelRegistry::new();
//! registry.register_emulated("digits", 1, model.clone(), ReadoutMode::Emulation);
//!
//! let server = Server::start(
//!     registry,
//!     BatchPolicy {
//!         shards: 2,
//!         ..BatchPolicy::default()
//!     },
//! );
//! let id = server.resolve("digits", None).unwrap();
//! let mut client = server.client();
//! let mut logits = Vec::new();
//! client.infer(id, &Field::ones(16, 16), &mut logits).unwrap();
//! assert_eq!(logits, model.infer(&Field::ones(16, 16)));
//!
//! // Live registration: atomic flip, no queue drain.
//! let v2 = server.register_emulated("digits", 2, model.clone(), ReadoutMode::Deployed);
//! assert_eq!(server.resolve("digits", None), Some(v2));
//! assert_eq!(server.epoch(), 1);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod drain;
mod fault;
mod metrics;
mod net;
mod registry;
mod server;
mod sync;

pub use fault::{FaultKind, FaultPlan};
pub use metrics::{
    LatencyHistogram, LatencySummary, ModelStats, ServerStats, ShardStats, StageLatency,
};
pub use net::{
    NetBind, NetClient, NetConfig, NetError, NetServer, NetStats, DEFAULT_MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use registry::{
    ModelId, ModelLifecycle, ModelRegistry, ReadoutMode, RegisteredModel, ServableVariant,
};
pub use server::{
    AdmissionPolicy, BatchPolicy, InProcessClient, PoolMode, ReclaimPolicy, ServeError, Server,
    TraceSnapshot, Transport,
};

// Tracing building blocks, re-exported so serving users configure
// [`BatchPolicy::trace`] and consume [`TraceSnapshot::events`] without a
// direct `lr-obs` dependency.
pub use lr_obs::{EventKind, Outcome, TraceConfig, TraceEvent};
