//! The sharded serving runtime: per-shard bounded request queues with
//! admission control, N dynamic micro-batchers (one long-lived dispatcher
//! thread per shard, each driving its own disjoint pool partition), model-
//! affinity routing with work-stealing, and the in-process transport.
//!
//! ## Request lifecycle
//!
//! 1. A client loads the current registry snapshot, validates the target
//!    model, prepares its reusable [`RequestSlot`] (copies the input
//!    field, stamps the enqueue time, pins an `Arc` to the model entry),
//!    and offers the slot to the model's **affinity shard**
//!    (`id % shards` — every version of one geometry lands on the same
//!    dispatcher, keeping its workspaces hot).
//! 2. Admission control checks the per-model in-flight cap (global,
//!    atomic) and the shard's queue-depth cap. Past the cap,
//!    [`AdmissionPolicy::RejectNew`] errors the new request immediately;
//!    [`AdmissionPolicy::ShedOldest`] fails the oldest queued request and
//!    admits the new one.
//! 3. The shard's dispatcher drains up to `max_batch` requests, waiting at
//!    most `max_delay` after the first drain to let a batch coalesce. An
//!    **idle** dispatcher whose queue stays empty steals the front half of
//!    a hot sibling's queue instead of sleeping (requests are not pinned:
//!    every shard holds workspaces for every model).
//! 4. The batch executes across the shard's worker contexts on the
//!    shard's own [`PoolPartition`] (isolated from training on the global
//!    pool); a shard with one context serves the batch inline on its
//!    dispatcher thread.
//! 5. The worker writes logits into the slot, records latency (global +
//!    per-shard histograms), and wakes the waiting client.
//!
//! Lock order is registry-write → mailbox, and queue → slot; nothing holds
//! a slot lock while taking a queue lock, no two shard queue locks are
//! ever nested, and clients never touch mailboxes, so the graph is
//! cycle-free.

use crate::drain::DrainFence;
use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::{MetricsCore, ServerStats};
use crate::registry::{
    EntrySlot, ModelId, ModelRegistry, RegisteredModel, RegistrySnapshot, SharedRegistry,
    VariantWorkspace,
};
use arc_swap::ArcSwap;
use lightridge::deploy::HardwareEnvironment;
use lightridge::DonnModel;
use lr_obs::{DrainStats, EventKind, Outcome, TraceConfig, TraceEvent, TraceRing};
use lr_tensor::parallel::{self, PoolPartition};
use lr_tensor::Field;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What to do with an arriving request when the queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Refuse the new request ([`ServeError::QueueFull`]); queued work is
    /// never dropped. The right default when clients can retry.
    #[default]
    RejectNew,
    /// Drop the **oldest** queued request (it fails with
    /// [`ServeError::Shed`]) and admit the new one — freshest-first
    /// semantics for latency-sensitive front-ends.
    ShedOldest,
}

/// Micro-batching, sharding, and admission configuration.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Most requests coalesced into one executed batch.
    pub max_batch: usize,
    /// How long the dispatcher waits after draining the first request of a
    /// batch for more arrivals before executing a partial batch.
    pub max_delay: Duration,
    /// Per-shard queue-depth cap (requests waiting, not yet picked up).
    pub queue_cap: usize,
    /// Behavior at the queue cap.
    pub admission: AdmissionPolicy,
    /// Per-model cap on in-flight (queued + executing) requests; stops one
    /// hot model from starving the rest. Admission failures count as
    /// rejections regardless of [`BatchPolicy::admission`].
    pub per_model_inflight_cap: usize,
    /// Total worker contexts across all shards (each shard gets its share,
    /// at least one). Defaults to the persistent pool width
    /// ([`parallel::threads`]).
    pub workers: usize,
    /// Number of shards: dispatcher threads, each with its own queue,
    /// worker contexts and [`PoolPartition`].
    pub shards: usize,
    /// Default per-request deadline, measured from submission. A request
    /// still queued when its deadline passes is failed with
    /// [`ServeError::Deadline`] instead of burning a batched forward;
    /// under [`AdmissionPolicy::ShedOldest`] the shed victim is the
    /// queued request with the least remaining lifetime. Clients can
    /// override per request via
    /// [`InProcessClient::infer_with_deadline`].
    pub default_deadline: Duration,
    /// Quarantine a model after this many **consecutive** serving panics
    /// (the counter resets on any successful serve). A quarantined model
    /// fails fast at admission with [`ServeError::Quarantined`] — fault
    /// containment for a model version that is broken, not busy. `0`
    /// disables quarantining.
    pub quarantine_after: usize,
    /// How often the supervisor thread wakes when idle: the cadence of
    /// dead-dispatcher detection. Quarantine requests additionally wake it
    /// immediately.
    pub supervisor_tick: Duration,
    /// Deterministic fault injection plan ([`FaultPlan`]); `None` (the
    /// default) disables every fault seam at the cost of one branch.
    pub faults: Option<Arc<FaultPlan>>,
    /// Request-path tracing ([`TraceConfig`]): seeded deterministic
    /// per-mille sampling into per-shard drop-oldest trace rings, drained
    /// via [`Server::drain_trace`]. `None` (the default) disables every
    /// trace seam at the cost of one branch — the serve path stays
    /// allocation-free either way (recording is a ring-slot write).
    pub trace: Option<Arc<TraceConfig>>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_micros(200),
            queue_cap: 64,
            admission: AdmissionPolicy::RejectNew,
            per_model_inflight_cap: 64,
            workers: parallel::threads(),
            shards: 1,
            default_deadline: Duration::from_secs(5),
            quarantine_after: 3,
            supervisor_tick: Duration::from_millis(5),
            faults: None,
            trace: None,
        }
    }
}

/// Why a request was not served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission refused the request: the target shard's queue is at
    /// capacity under [`AdmissionPolicy::RejectNew`].
    QueueFull,
    /// Admission refused the request: the target model is at its
    /// in-flight cap.
    ModelBusy,
    /// The request was queued, then dropped to admit newer work
    /// ([`AdmissionPolicy::ShedOldest`]).
    Shed,
    /// The server is shutting (or has shut) down.
    ShuttingDown,
    /// The handle does not name a live registered model (never registered,
    /// or retired).
    UnknownModel,
    /// The request's deadline passed: it was already expired at
    /// submission, or it expired while queued and a dispatcher skipped it
    /// before staging a batch (dead work never burns a batched forward).
    Deadline,
    /// Inference panicked while serving this request's same-model run;
    /// the request was failed rather than silently dropped, the worker's
    /// workspace was discarded and rebuilt through the prewarm path, and
    /// the server keeps serving.
    WorkerPanic,
    /// The target model is quarantined: it panicked on
    /// [`BatchPolicy::quarantine_after`] consecutive serves, so admission
    /// fails fast instead of feeding it more traffic.
    Quarantined,
    /// The dispatcher that had staged this request died before completing
    /// it; the supervisor resolved the wait (instead of leaving the
    /// client hanging) and respawned the dispatcher. Retry-safe: the
    /// request never started executing, or its results were discarded
    /// with the dead dispatcher's contexts.
    ChannelClosed,
    /// The input plane does not match the model's grid.
    ShapeMismatch {
        /// Shape the registered model expects.
        expected: (usize, usize),
        /// Shape the request carried.
        got: (usize, usize),
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue at capacity"),
            ServeError::ModelBusy => write!(f, "model at its in-flight cap"),
            ServeError::Shed => write!(f, "request shed to admit newer work"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::UnknownModel => write!(f, "unknown or retired model handle"),
            ServeError::Deadline => write!(f, "request deadline expired before execution"),
            ServeError::WorkerPanic => {
                write!(f, "inference panicked while serving the request's run")
            }
            ServeError::Quarantined => {
                write!(f, "model quarantined after consecutive serving panics")
            }
            ServeError::ChannelClosed => {
                write!(f, "dispatcher died with the request staged; retry is safe")
            }
            ServeError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "input shape {got:?} does not match model plane {expected:?}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Where a request slot is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    Idle,
    Queued,
    Done,
    Failed(ServeError),
}

/// Completion notifier for socket-served slots: instead of blocking on the
/// slot condvar (the in-process client's protocol), the connection event
/// loop parks the request and asks to be poked — any terminal stage
/// transition pushes the connection's token onto the net layer's
/// completion queue and wakes its poll. `None` for in-process clients, so
/// every completion site stays one branch when no socket is involved
/// (mirroring the fault/trace seams); cloning is an `Arc` refcount bump
/// plus a `u64` copy — never an allocation.
#[derive(Clone, Debug)]
pub(crate) struct SlotWaker {
    pub(crate) signal: Arc<crate::net::CompletionSignal>,
    pub(crate) token: u64,
}

impl SlotWaker {
    #[inline]
    fn wake(&self) {
        self.signal.complete(self.token);
    }
}

/// Mutable half of a request slot, guarded by the slot mutex.
#[derive(Debug)]
pub(crate) struct SlotState {
    pub(crate) stage: Stage,
    model: ModelId,
    /// The registry entry this request was admitted against: an in-flight
    /// request completes on its own version even if the registry flips or
    /// the entry is retired while it is queued.
    pub(crate) entry: Option<Arc<RegisteredModel>>,
    /// Bumped on every submission staged into this reusable slot. Panic
    /// recovery captures the ticket of each drained request and only
    /// fails a slot whose ticket still matches — a client that already
    /// got its response and re-submitted into the same slot must not
    /// have its *new* request failed (or its in-flight count released
    /// twice) by the recovery of the old batch.
    ticket: u64,
    input: Field,
    pub(crate) logits: Vec<f64>,
    enqueued_at: Instant,
    /// Stamped by the dispatcher's pre-staging sweep when the request
    /// leaves the queues for good: the boundary between the `queue_wait`
    /// and `staging` stages of the latency breakdown.
    drained_at: Instant,
    /// Absolute deadline: submission time plus
    /// [`BatchPolicy::default_deadline`] unless the client overrode it.
    /// Mirrored into the queue entry so shed decisions read it without
    /// the slot lock.
    deadline: Instant,
    /// Server-wide request sequence number, assigned at admission when
    /// tracing is on (0 otherwise). Identifies the request in trace
    /// events and drives the deterministic sampling decision.
    request: u64,
    /// Whether this request's stage spans are recorded into the trace
    /// ring ([`TraceConfig::sampled`]; always false when tracing is off).
    sampled: bool,
    /// Set (per submission) for socket-served requests; `None` for the
    /// in-process client. See [`SlotWaker`].
    pub(crate) waker: Option<SlotWaker>,
}

/// One client's reusable request cell: the input/output buffers live here
/// across requests, which is what keeps the client side of the serve path
/// allocation-free in steady state.
#[derive(Debug)]
pub(crate) struct RequestSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl RequestSlot {
    pub(crate) fn new() -> Self {
        RequestSlot {
            state: Mutex::new(SlotState {
                stage: Stage::Idle,
                model: ModelId(0),
                entry: None,
                ticket: 0,
                input: Field::zeros(1, 1),
                logits: Vec::new(),
                enqueued_at: Instant::now(),
                drained_at: Instant::now(),
                deadline: Instant::now(),
                request: 0,
                sampled: false,
                waker: None,
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Finishes a terminal stage transition: releases the slot lock, wakes
    /// the in-process condvar waiter, and — socket-served slots — pokes
    /// the connection event loop. **Every** `Queued → Done/Failed` flip
    /// must go through here (or [`RequestSlot::fail`], which does); a site
    /// that only notifies the condvar would leave a socket request parked
    /// forever.
    fn settle(&self, st: MutexGuard<'_, SlotState>) {
        let waker = st.waker.clone();
        drop(st);
        self.notify(waker);
    }

    /// The notification half of [`RequestSlot::settle`], for sites that
    /// must retire in-flight accounting between the stage flip and the
    /// wake (so a woken client never sees its own completed request still
    /// counted): wakes the condvar waiter plus the optional net waker
    /// captured under the slot lock.
    fn notify(&self, waker: Option<SlotWaker>) {
        self.cv.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Fails a queued request and wakes its client.
    fn fail(&self, err: ServeError) {
        let mut st = self.lock();
        if st.stage == Stage::Queued {
            st.stage = Stage::Failed(err);
            self.settle(st);
        }
    }
}

/// One queued request: the slot plus the two values admission and shed
/// decisions need without taking the slot lock — the registry epoch it
/// was admitted against (the input to the shard's drain fence) and its
/// absolute deadline (the shed-ordering key).
#[derive(Debug)]
struct QueuedRequest {
    epoch: u64,
    deadline: Instant,
    slot: Arc<RequestSlot>,
}

/// One shard's queue state, guarded by the shard queue mutex.
#[derive(Debug)]
struct ShardQueue {
    queue: VecDeque<QueuedRequest>,
    shutdown: bool,
}

/// One lifecycle message mailed to a shard by the registrar thread.
enum Delivery {
    /// Warmed per-worker workspaces for a live-registered model (one per
    /// worker context, in registration order).
    Workspaces(ModelId, Vec<VariantWorkspace>),
    /// Directive to drop the per-worker workspaces of a retired model,
    /// leaving [`VariantWorkspace::Reclaimed`] placeholders. Mailed by
    /// [`Server::reclaim`] only after the shard passed the drain fence.
    Reclaim(ModelId),
}

/// One serving shard: its own queue, dispatcher wake-up, lifecycle-
/// delivery mailbox, drain fence, and (lock-free readable) queue depth for
/// steal decisions.
struct Shard {
    queue: Mutex<ShardQueue>,
    /// Signals this shard's dispatcher that work (or shutdown, a hot
    /// sibling worth stealing from, or a lifecycle delivery) arrived.
    work_cv: Condvar,
    /// Mirror of `queue.len()`, readable without the lock; siblings use it
    /// to decide whether this shard is hot enough to steal from.
    depth: AtomicUsize,
    /// Lifecycle deliveries ([`Delivery`]), pushed by the registering/
    /// reclaiming thread and processed by the dispatcher between batches
    /// and while idle. Workspace deliveries land **before** the snapshot
    /// that makes their model visible, so adoption always precedes the
    /// first execution against a new id.
    mailbox: Mutex<Vec<Delivery>>,
    /// The dispatcher's **staged batch**: `(ticket, slot)` pairs published
    /// right after a drain and cleared once the batch settles. This is
    /// the supervisor's window into work a dead dispatcher took out of
    /// the queues but never finished — those waiters are resolved with
    /// [`ServeError::ChannelClosed`] (ticket-guarded, like panic
    /// recovery) instead of hanging forever. Preallocated to `max_batch`;
    /// lock order is staged → slot, and nothing holds a queue lock and
    /// the staged lock together.
    staged: Mutex<Vec<(u64, Arc<RequestSlot>)>>,
}

impl Shard {
    fn new(queue_cap: usize, max_batch: usize) -> Shard {
        Shard {
            queue: Mutex::new(ShardQueue {
                // One extra slot so shed-oldest can momentarily hold both
                // the victim and its replacement without growing.
                queue: VecDeque::with_capacity(queue_cap + 1),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            depth: AtomicUsize::new(0),
            mailbox: Mutex::new(Vec::new()),
            staged: Mutex::new(Vec::with_capacity(max_batch)),
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, ShardQueue> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_staged(&self) -> MutexGuard<'_, Vec<(u64, Arc<RequestSlot>)>> {
        self.staged
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What the supervisor thread has been asked to do, guarded by
/// `ServerCore::supervisor`.
struct SupervisorInbox {
    /// Models whose consecutive-panic streak hit
    /// [`BatchPolicy::quarantine_after`]. Dispatchers push here (and wake
    /// the supervisor) instead of flipping the registry themselves: a
    /// dispatcher must never wait on the registry write lock, because a
    /// reclaim can hold that lock while waiting on this dispatcher's
    /// fence.
    quarantine: Vec<ModelId>,
    /// Set by shutdown; the supervisor exits on its next wake.
    stop: bool,
}

/// The server's tracing state: one drop-oldest ring per shard (written by
/// that shard's dispatcher and by admission-side instants), plus one
/// supervisor ring for lifecycle instants (quarantine flips, dispatcher
/// respawns). All timestamps are nanoseconds since `epoch`, so one trace's
/// events share a single monotonic timebase.
struct Tracer {
    config: Arc<TraceConfig>,
    /// Timebase zero for every event in this server's trace.
    epoch: Instant,
    shard_rings: Vec<TraceRing>,
    supervisor_ring: TraceRing,
    /// Server-wide request sequence; the sampling input.
    next_request: AtomicU64,
}

impl Tracer {
    /// Nanoseconds since the trace epoch, saturating at 0.
    #[inline]
    fn ns_of(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }
}

/// Everything [`Server::drain_trace`] pulled out of the trace rings: the
/// events (sorted by start time) plus how many were lost to ring overrun
/// since the previous drain.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Drained trace events, sorted by start timestamp.
    pub events: Vec<TraceEvent>,
    /// Events overwritten (ring overrun) or torn before they could be
    /// drained — exact: `events.len() + dropped` equals everything
    /// recorded since the last drain.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Renders the snapshot in Chrome trace-event JSON (load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>): pid = shard,
    /// tid = request, stage spans as complete events, faults as instants.
    pub fn to_chrome_json(&self) -> String {
        lr_obs::chrome_trace_json(&self.events)
    }

    /// Renders the snapshot as a human-readable per-request timeline.
    pub fn to_timeline(&self) -> String {
        lr_obs::timeline_text(&self.events)
    }
}

/// Shared core between the server handle, clients, and the dispatchers.
pub(crate) struct ServerCore {
    registry: SharedRegistry,
    pub(crate) policy: BatchPolicy,
    shards: Vec<Shard>,
    /// Worker-context count per shard (fixed at start; registration uses
    /// it to size workspace deliveries).
    ctxs_per_shard: Vec<usize>,
    /// The drain-fence layer of the reclaim protocol: per-shard epoch
    /// watermarks (advanced by dispatchers, under their queue lock, when
    /// the execution batch is empty — see [`advance_fence`] for the
    /// candidate rules and what a fence does *not* cover) plus the
    /// per-model in-flight counters. Counters are grown under the
    /// registry write lock; loaded per request (an `Arc` clone — no
    /// allocation). Mechanism and invariants live in [`crate::drain`].
    drain: DrainFence,
    /// Per-model resident per-worker-workspace bytes, summed across every
    /// shard's worker contexts. Credited by the thread that builds warmed
    /// workspaces (startup and live registration), debited by dispatchers
    /// when a [`Delivery::Reclaim`] drops them; [`Server::reclaim`] waits
    /// for a retired model's counter to hit zero before declaring its
    /// memory free. Grown under the registry write lock.
    resident: ArcSwap<Vec<Arc<AtomicUsize>>>,
    /// Per-model **consecutive serving-panic streak**: bumped by panic
    /// recovery, cleared by any successful serve of the model. Hitting
    /// [`BatchPolicy::quarantine_after`] requests a quarantine flip from
    /// the supervisor. Grown under the registry write lock.
    panic_streak: ArcSwap<Vec<Arc<AtomicUsize>>>,
    /// Paired with `lifecycle_cv`: a waiting [`Server::reclaim`] blocks
    /// here (instead of polling the shard queues) until a dispatcher
    /// signals that a fence rose or resident bytes were debited.
    lifecycle: Mutex<()>,
    lifecycle_cv: Condvar,
    /// Supervisor duty queue; paired with `supervisor_cv` so quarantine
    /// requests and shutdown wake the supervisor immediately instead of
    /// waiting out a tick.
    supervisor: Mutex<SupervisorInbox>,
    supervisor_cv: Condvar,
    /// The dispatcher join handles, owned by the core so the supervisor
    /// can detect dead dispatchers and install respawned ones. A slot is
    /// `None` only while the supervisor is mid-respawn on it.
    dispatcher_handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Set by shutdown before the dispatchers are joined, so a waiting
    /// reclaim aborts instead of waiting for acknowledgments that will
    /// never come.
    shutting_down: AtomicBool,
    metrics: MetricsCore,
    /// Request-path tracing state; `None` (the default) keeps every trace
    /// seam to a single branch, mirroring the fault seams.
    tracer: Option<Tracer>,
}

impl ServerCore {
    pub(crate) fn shard_of(&self, model: ModelId) -> usize {
        model.0 % self.shards.len()
    }

    /// Queue depth at which a shard counts as hot: idle siblings steal
    /// from it, and enqueues wake idle siblings.
    fn hot_threshold(&self) -> usize {
        self.policy.max_batch.min(self.policy.queue_cap).max(1)
    }

    /// Claims one in-flight slot for `model`; false when the cap is hit.
    fn inflight_try_acquire(&self, model: ModelId) -> bool {
        self.drain
            .try_acquire(model.0, self.policy.per_model_inflight_cap)
    }

    fn inflight_release(&self, model: ModelId) {
        self.drain.release(model.0);
    }

    /// Credits freshly built per-worker workspace bytes to `model`.
    fn resident_add(&self, model: ModelId, bytes: usize) {
        self.resident.load_full()[model.0].fetch_add(bytes, Ordering::Release);
    }

    /// Debits reclaimed per-worker workspace bytes from `model`.
    fn resident_sub(&self, model: ModelId, bytes: usize) {
        self.resident.load_full()[model.0].fetch_sub(bytes, Ordering::Release);
    }

    /// Signals a waiting reclaim that lifecycle state moved (a fence
    /// advanced or resident bytes were debited). Allocation-free; called
    /// off the per-request hot path (dispatcher loop transitions only).
    fn lifecycle_notify(&self) {
        let _g = self
            .lifecycle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.lifecycle_cv.notify_all();
    }

    /// Total resident per-worker workspace bytes across all models.
    fn resident_total(&self) -> u64 {
        self.resident
            .load_full()
            .iter()
            .map(|c| c.load(Ordering::Acquire) as u64)
            .sum()
    }

    /// Wakes sibling dispatchers when shard `s` just became hot.
    /// Wakes sibling dispatchers when shard `s` just became hot. The
    /// notify happens while holding each sibling's queue mutex: an idle
    /// dispatcher re-checks [`ServerCore::any_sibling_hot`] under that
    /// same mutex immediately before its untimed wait, so the wakeup
    /// cannot fall into the check-to-wait gap (no lost-wakeup, no
    /// polling). The caller holds no locks here, and no path ever holds
    /// two queue mutexes at once, so the acquisition is cycle-free.
    fn notify_siblings_if_hot(&self, s: usize) {
        if self.shards.len() > 1
            && self.shards[s].depth.load(Ordering::Relaxed) >= self.hot_threshold()
        {
            for (t, shard) in self.shards.iter().enumerate() {
                if t != s {
                    let _q = shard.lock_queue();
                    shard.work_cv.notify_all();
                }
            }
        }
    }

    /// True when any shard other than `s` is at or past the hot
    /// threshold (lock-free depth reads).
    fn any_sibling_hot(&self, s: usize) -> bool {
        let hot = self.hot_threshold();
        self.shards
            .iter()
            .enumerate()
            .any(|(t, shard)| t != s && shard.depth.load(Ordering::Relaxed) >= hot)
    }

    /// Fault seam: does `kind` fire here? One branch when no plan is
    /// installed — the zero-cost-when-disabled contract.
    #[inline]
    fn fault_fires(&self, kind: FaultKind) -> bool {
        match &self.policy.faults {
            Some(plan) => plan.fires(kind),
            None => false,
        }
    }

    /// Fault seam for [`FaultKind::SlowWorker`]: the stall to apply before
    /// a forward, when the plan says this call fires.
    #[inline]
    fn fault_stall(&self) -> Option<Duration> {
        match &self.policy.faults {
            Some(plan) if plan.fires(FaultKind::SlowWorker) => Some(plan.stall()),
            _ => None,
        }
    }

    /// Trace seam, admission side: assigns the next server-wide request id
    /// and decides (deterministically) whether its spans are sampled.
    /// `(0, false)` — one branch — when tracing is off.
    #[inline]
    fn trace_admit(&self) -> (u64, bool) {
        match &self.tracer {
            Some(t) => {
                let request = t.next_request.fetch_add(1, Ordering::Relaxed);
                (request, t.config.sampled(request))
            }
            None => (0, false),
        }
    }

    /// Trace seam for the network front end's wire-side stage spans
    /// ([`EventKind::Recv`] / [`EventKind::Decode`]): records one span
    /// into `shard`'s ring for a sampled request. Only called when the
    /// admission already reported `sampled == true`, so the tracing-off
    /// case never reaches here.
    #[inline]
    pub(crate) fn trace_net_span(
        &self,
        kind: EventKind,
        shard: usize,
        model: usize,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(t) = &self.tracer {
            t.shard_rings[shard].record(&TraceEvent::span(
                kind,
                Outcome::Ok,
                shard,
                model,
                request,
                t.ns_of(start),
                t.ns_of(end),
            ));
        }
    }

    /// Trace seam: records a fault/lifecycle instant into `shard`'s ring.
    /// One branch when tracing is off; a ring-slot write when on.
    #[inline]
    fn trace_instant(&self, kind: EventKind, shard: usize, model: usize, request: u64) {
        if let Some(t) = &self.tracer {
            t.shard_rings[shard].record(&TraceEvent::instant(
                kind,
                shard,
                model,
                request,
                t.now_ns(),
            ));
        }
    }

    /// Trace seam for supervisor-side lifecycle instants (quarantine
    /// flips, dispatcher respawns): they land in the supervisor ring so a
    /// storm of request events cannot overwrite them.
    #[inline]
    fn trace_supervisor_instant(&self, kind: EventKind, shard: usize, model: usize) {
        if let Some(t) = &self.tracer {
            t.supervisor_ring
                .record(&TraceEvent::instant(kind, shard, model, 0, t.now_ns()));
        }
    }

    /// Records one completed request's timing: always feeds the per-stage
    /// latency histograms, and — for sampled requests under tracing —
    /// the four stage spans into the shard's trace ring. The four
    /// intervals are adjacent by construction (each boundary instant is
    /// shared), so the spans tile the request and the stage durations sum
    /// exactly to `done - enqueued`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn record_request_timing(
        &self,
        shard: usize,
        model: usize,
        request: u64,
        sampled: bool,
        enqueued: Instant,
        drained: Instant,
        forward_start: Instant,
        forward_end: Instant,
        done: Instant,
    ) {
        let ns = |later: Instant, earlier: Instant| {
            u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
        };
        self.metrics.record_stages(
            shard,
            ns(drained, enqueued),
            ns(forward_start, drained),
            ns(forward_end, forward_start),
            ns(done, forward_end),
        );
        if sampled {
            if let Some(t) = &self.tracer {
                let ring = &t.shard_rings[shard];
                let (e, d, fs, fe, dn) = (
                    t.ns_of(enqueued),
                    t.ns_of(drained),
                    t.ns_of(forward_start),
                    t.ns_of(forward_end),
                    t.ns_of(done),
                );
                let ok = Outcome::Ok;
                ring.record(&TraceEvent::span(
                    EventKind::QueueWait,
                    ok,
                    shard,
                    model,
                    request,
                    e,
                    d,
                ));
                ring.record(&TraceEvent::span(
                    EventKind::Staging,
                    ok,
                    shard,
                    model,
                    request,
                    d,
                    fs,
                ));
                ring.record(&TraceEvent::span(
                    EventKind::Forward,
                    ok,
                    shard,
                    model,
                    request,
                    fs,
                    fe,
                ));
                ring.record(&TraceEvent::span(
                    EventKind::Respond,
                    ok,
                    shard,
                    model,
                    request,
                    fe,
                    dn,
                ));
            }
        }
    }

    /// Records one serving panic against `model` and, when the consecutive
    /// streak hits [`BatchPolicy::quarantine_after`], asks the supervisor
    /// to quarantine it. Exactly one request per crossing: the streak
    /// keeps counting past the threshold, and only the equality fires.
    fn note_panic(&self, model: ModelId) {
        self.metrics.record_worker_panic();
        let streak = self.panic_streak.load_full()[model.0].fetch_add(1, Ordering::Relaxed) + 1;
        let k = self.policy.quarantine_after;
        if k > 0 && streak == k {
            self.request_quarantine(model);
        }
    }

    /// Clears `model`'s consecutive-panic streak after a successful serve.
    #[inline]
    fn note_serve_ok(&self, model: ModelId) {
        // Relaxed store, skipped when already zero (the steady-state case
        // — one relaxed load per run).
        let counter = &self.panic_streak.load_full()[model.0];
        if counter.load(Ordering::Relaxed) != 0 {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Validates, stages, and enqueues one request into `slot` **without
    /// blocking** — the shared admission path under both front ends. The
    /// in-process client calls this and then waits on the slot condvar;
    /// the net layer's event loop calls it from connection handling (with
    /// a [`SlotWaker`]) and returns to its poll, so one slow request never
    /// stalls the other connections.
    ///
    /// The sequence (each step's locks released before the next): registry
    /// snapshot → liveness/shape/deadline checks → pin the entry, drop the
    /// snapshot → stage into `slot` (slot lock; `fill` writes the input
    /// plane directly into the slot's reusable buffer — the network path
    /// decodes straight off the wire here, no intermediate `Field`) →
    /// per-model in-flight cap → shard queue admission (reject/shed per
    /// policy) → dispatcher wakeup. On `Ok` the request is queued and will
    /// settle (Done or Failed) exactly once; the returned pair is the
    /// trace id and sampling decision from [`ServerCore::trace_admit`].
    /// On `Err` the slot is back to `Idle` and nothing is queued or
    /// counted.
    ///
    /// Allocation-free in steady state: staging reuses the slot's buffers
    /// (the input plane is reallocated only when the request shape
    /// changes), and every queue push lands in preallocated capacity.
    pub(crate) fn submit(
        &self,
        slot: &Arc<RequestSlot>,
        model: ModelId,
        shape: (usize, usize),
        deadline: Instant,
        waker: Option<SlotWaker>,
        fill: impl FnOnce(&mut Field),
    ) -> Result<(u64, bool), ServeError> {
        let snapshot = self.registry.load();
        let entry = match snapshot.slot(model) {
            Some(EntrySlot::Live(entry)) => entry,
            Some(EntrySlot::Quarantined { .. }) => {
                // Fail fast: the model panicked on consecutive serves and
                // the supervisor pulled it out of rotation.
                self.metrics.record_rejected();
                return Err(ServeError::Quarantined);
            }
            _ => return Err(ServeError::UnknownModel),
        };
        if entry.shape() != shape {
            return Err(ServeError::ShapeMismatch {
                expected: entry.shape(),
                got: shape,
            });
        }
        if Instant::now() >= deadline {
            self.metrics.record_deadline_expired();
            // No request id yet (assignment happens at slot staging);
            // attributable by shard/model and timestamp.
            self.trace_instant(EventKind::DeadlineExpired, self.shard_of(model), model.0, 0);
            return Err(ServeError::Deadline);
        }
        // Fault seam: refuse one admission as if the queue were full.
        // Placed before any slot/counter staging so nothing needs undoing.
        if self.fault_fires(FaultKind::QueueFull) {
            self.metrics.record_rejected();
            return Err(ServeError::QueueFull);
        }
        let entry = Arc::clone(entry);
        let admit_epoch = snapshot.epoch;
        // Drop the snapshot before doing anything that can block: a
        // waiting client must pin only its *own* entry, never every entry
        // of its admission epoch — a held snapshot would keep retired
        // siblings' parameters alive and stall their reclaim (an Arc
        // refcount drop, not an allocation).
        drop(snapshot);
        // Stage the request in the slot (slot lock only).
        let (request, sampled) = self.trace_admit();
        {
            let mut st = slot.lock();
            debug_assert_eq!(
                st.stage,
                Stage::Idle,
                "client reused while a request is in flight"
            );
            st.model = model;
            st.entry = Some(entry);
            st.ticket = st.ticket.wrapping_add(1);
            st.request = request;
            st.sampled = sampled;
            st.waker = waker;
            if st.input.shape() != shape {
                st.input = Field::zeros(shape.0, shape.1);
            }
            fill(&mut st.input);
            st.enqueued_at = Instant::now();
            st.deadline = deadline;
            st.stage = Stage::Queued;
        }
        // Per-model cap first (atomic, shard-independent) ...
        if !self.inflight_try_acquire(model) {
            let mut st = slot.lock();
            st.stage = Stage::Idle;
            st.entry = None;
            st.waker = None;
            drop(st);
            self.metrics.record_rejected();
            return Err(ServeError::ModelBusy);
        }
        // ... then shard admission (queue lock only — never while holding
        // the slot lock).
        let shard_idx = self.shard_of(model);
        let shard = &self.shards[shard_idx];
        let admitted = {
            let mut q = shard.lock_queue();
            if q.shutdown {
                Err(ServeError::ShuttingDown)
            } else if q.queue.len() >= self.policy.queue_cap {
                match self.policy.admission {
                    AdmissionPolicy::RejectNew => Err(ServeError::QueueFull),
                    AdmissionPolicy::ShedOldest => {
                        // Shed by least remaining lifetime, not arrival
                        // order: the victim is the queued request closest
                        // to (or past) its deadline — with uniform
                        // deadlines that is still the oldest request.
                        let victim_idx = q
                            .queue
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, r)| r.deadline)
                            .map(|(i, _)| i)
                            // UNWRAP: queue_cap > 0 (asserted at start)
                            // and this branch requires len >= cap, so the
                            // queue is non-empty here.
                            .expect("cap > 0 so queue non-empty");
                        let victim = q
                            .queue
                            .remove(victim_idx)
                            // UNWRAP: the index came from enumerate()
                            // over this queue under the same lock.
                            .expect("index from enumerate is in bounds");
                        q.queue.push_back(QueuedRequest {
                            epoch: admit_epoch,
                            deadline,
                            slot: Arc::clone(slot),
                        });
                        shard.depth.store(q.queue.len(), Ordering::Relaxed);
                        // Fail the victim outside the queue lock.
                        Ok(Some(victim.slot))
                    }
                }
            } else {
                q.queue.push_back(QueuedRequest {
                    epoch: admit_epoch,
                    deadline,
                    slot: Arc::clone(slot),
                });
                shard.depth.store(q.queue.len(), Ordering::Relaxed);
                Ok(None)
            }
        };
        match admitted {
            Err(e) => {
                let mut st = slot.lock();
                st.stage = Stage::Idle;
                st.entry = None;
                st.waker = None;
                drop(st);
                self.inflight_release(model);
                if e != ServeError::ShuttingDown {
                    self.metrics.record_rejected();
                }
                Err(e)
            }
            Ok(victim) => {
                shard.work_cv.notify_all();
                self.notify_siblings_if_hot(shard_idx);
                if let Some(victim) = victim {
                    let (victim_model, victim_request) = {
                        let st = victim.lock();
                        (st.model, st.request)
                    };
                    self.inflight_release(victim_model);
                    self.metrics.record_shed();
                    self.trace_instant(EventKind::Shed, shard_idx, victim_model.0, victim_request);
                    victim.fail(ServeError::Shed);
                }
                Ok((request, sampled))
            }
        }
    }

    /// Mails `model` to the supervisor for a quarantine flip and wakes it.
    /// Safe from dispatcher threads: no registry write lock taken here.
    fn request_quarantine(&self, model: ModelId) {
        let mut inbox = self
            .supervisor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inbox.quarantine.contains(&model) {
            inbox.quarantine.push(model);
        }
        drop(inbox);
        self.supervisor_cv.notify_all();
    }
}

/// One worker's execution context: a reusable workspace per registered
/// model (slot index = [`ModelId`]), sized and warmed at server start or,
/// for live registrations, by the registering thread before delivery.
struct WorkerCtx {
    workspaces: Vec<VariantWorkspace>,
}

/// Transport-agnostic request front-end. The in-process implementation is
/// [`InProcessClient`]; a network transport would implement the same trait
/// on top of a socket and deserialize into its own slot.
pub trait Transport {
    /// Submits one inference and blocks until the response is ready,
    /// writing class logits into `logits`. Allocation-free in steady state
    /// for the in-process transport.
    fn infer(
        &mut self,
        model: ModelId,
        input: &Field,
        logits: &mut Vec<f64>,
    ) -> Result<(), ServeError>;
}

/// The in-process client: one reusable request slot bound to a server.
/// Create one per client thread via [`Server::client`]; a client is `Send`
/// but deliberately not shareable (each concurrent caller needs its own
/// slot).
pub struct InProcessClient {
    core: Arc<ServerCore>,
    slot: Arc<RequestSlot>,
}

impl Transport for InProcessClient {
    fn infer(
        &mut self,
        model: ModelId,
        input: &Field,
        logits: &mut Vec<f64>,
    ) -> Result<(), ServeError> {
        let deadline = Instant::now() + self.core.policy.default_deadline;
        self.infer_with_deadline(model, input, deadline, logits)
    }
}

impl InProcessClient {
    /// [`Transport::infer`] with an explicit absolute deadline instead of
    /// the policy default. An already-expired deadline is rejected at
    /// admission with [`ServeError::Deadline`]; a request that expires
    /// while queued is failed (never executed) by the dispatcher's
    /// pre-staging sweep; under [`AdmissionPolicy::ShedOldest`] the shed
    /// victim is the queued request with the least remaining lifetime.
    pub fn infer_with_deadline(
        &mut self,
        model: ModelId,
        input: &Field,
        deadline: Instant,
        logits: &mut Vec<f64>,
    ) -> Result<(), ServeError> {
        self.core
            .submit(&self.slot, model, input.shape(), deadline, None, |staged| {
                staged.copy_from(input)
            })?;
        // Wait for a dispatcher to fill our slot.
        let mut st = self.slot.lock();
        while st.stage == Stage::Queued {
            st = self
                .slot
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let outcome = st.stage;
        st.stage = Stage::Idle;
        // Drop the pinned entry now that the request is settled: an idle
        // client must not keep a retired model's memory alive (an Arc
        // refcount drop — never an allocation).
        st.entry = None;
        match outcome {
            Stage::Done => {
                logits.clear();
                logits.extend_from_slice(&st.logits);
                Ok(())
            }
            Stage::Failed(e) => Err(e),
            Stage::Idle | Stage::Queued => unreachable!("wait loop exited in {outcome:?}"),
        }
    }
}

/// The serving runtime handle: owns the supervisor thread (which in turn
/// owns dispatcher liveness) and exposes clients, live registration,
/// statistics, and shutdown.
pub struct Server {
    pub(crate) core: Arc<ServerCore>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts serving `registry` under `policy`: spawns one dispatcher per
    /// shard, builds one workspace per `(shard, worker, model)` triple,
    /// and warms every workspace with a dummy pass so the first real
    /// request hits a fully warm path.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty or the policy has a zero
    /// `max_batch`, `queue_cap`, `per_model_inflight_cap`, `shards`, or
    /// `supervisor_tick` (a zero tick would spin the supervisor on a core).
    pub fn start(registry: ModelRegistry, policy: BatchPolicy) -> Server {
        assert!(
            !registry.is_empty(),
            "register at least one model before starting"
        );
        assert!(policy.max_batch > 0, "max_batch must be positive");
        assert!(policy.queue_cap > 0, "queue_cap must be positive");
        assert!(
            policy.per_model_inflight_cap > 0,
            "per_model_inflight_cap must be positive"
        );
        assert!(policy.shards > 0, "shards must be positive");
        assert!(
            !policy.supervisor_tick.is_zero(),
            "supervisor_tick must be positive"
        );
        let num_shards = policy.shards;
        let total_ctxs = policy.workers.max(1);
        // Spread worker contexts across shards, at least one each.
        let base = total_ctxs / num_shards;
        let extra = total_ctxs % num_shards;
        let ctxs_per_shard: Vec<usize> = (0..num_shards)
            .map(|i| (base + usize::from(i < extra)).max(1))
            .collect();

        let num_models = registry.len();
        let shared = SharedRegistry::new(registry);
        let snapshot = shared.load();
        let max_batch = policy.max_batch;
        let tracer = policy.trace.as_ref().map(|cfg| Tracer {
            config: Arc::clone(cfg),
            epoch: Instant::now(),
            shard_rings: (0..num_shards)
                .map(|_| TraceRing::new(cfg.ring_capacity))
                .collect(),
            supervisor_ring: TraceRing::new(cfg.ring_capacity),
            next_request: AtomicU64::new(0),
        });
        let core = Arc::new(ServerCore {
            lifecycle: Mutex::new(()),
            lifecycle_cv: Condvar::new(),
            supervisor: Mutex::new(SupervisorInbox {
                quarantine: Vec::new(),
                stop: false,
            }),
            supervisor_cv: Condvar::new(),
            dispatcher_handles: Mutex::new((0..num_shards).map(|_| None).collect()),
            shutting_down: AtomicBool::new(false),
            metrics: MetricsCore::new(num_models, num_shards),
            drain: DrainFence::new(num_shards, num_models),
            resident: ArcSwap::from_pointee(
                (0..num_models)
                    .map(|_| Arc::new(AtomicUsize::new(0)))
                    .collect(),
            ),
            panic_streak: ArcSwap::from_pointee(
                (0..num_models)
                    .map(|_| Arc::new(AtomicUsize::new(0)))
                    .collect(),
            ),
            shards: (0..num_shards)
                .map(|_| Shard::new(policy.queue_cap, max_batch))
                .collect(),
            ctxs_per_shard: ctxs_per_shard.clone(),
            tracer,
            policy,
            registry: shared,
        });

        // Build and warm per-shard worker contexts: every (worker, model)
        // workspace runs one dummy inference so the serve path starts
        // fully allocated, then spawn the dispatchers.
        {
            let mut handles = core
                .dispatcher_handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (s, &ctx_count) in ctxs_per_shard.iter().enumerate() {
                let ctxs = build_ctxs(&core, &snapshot, ctx_count);
                handles[s] = Some(spawn_dispatcher(&core, s, ctxs));
            }
        }
        let supervisor_core = Arc::clone(&core);
        let supervisor = std::thread::Builder::new()
            .name("lr-serve-supervisor".to_string())
            .spawn(move || supervisor_loop(supervisor_core))
            // UNWRAP: startup-path panic — if the OS refuses a thread
            // here the server cannot exist, so failing loudly is correct.
            .expect("failed to spawn the lr-serve supervisor");
        Server {
            core,
            supervisor: Some(supervisor),
        }
    }

    /// Resolves a live registered model by name (highest live version when
    /// `version` is `None`).
    pub fn resolve(&self, name: &str, version: Option<u32>) -> Option<ModelId> {
        self.core.registry.load().resolve(name, version)
    }

    /// Current registry epoch: 0 at start, bumped by every live
    /// registration or retirement.
    pub fn epoch(&self) -> u64 {
        self.core.registry.load().epoch
    }

    /// Number of live (non-retired) model variants.
    pub fn live_models(&self) -> usize {
        self.core.registry.load().iter_live().count()
    }

    /// Lifecycle state of a model slot (`None` for a never-registered
    /// handle).
    pub fn lifecycle(&self, id: ModelId) -> Option<crate::registry::ModelLifecycle> {
        self.core.registry.load().slot(id).map(EntrySlot::lifecycle)
    }

    /// Registers a digital-emulation variant on the **running** server —
    /// no queue drain, no pause; see the shared `register_entry` mechanics.
    ///
    /// # Panics
    ///
    /// Panics if `name@version` is already live.
    pub fn register_emulated(
        &self,
        name: &str,
        version: u32,
        model: DonnModel,
        readout: crate::registry::ReadoutMode,
    ) -> ModelId {
        self.register_entry(RegisteredModel::emulated(name, version, model, readout))
    }

    /// Deploys and registers a hardware-emulated bench variant on the
    /// **running** server.
    ///
    /// # Panics
    ///
    /// Panics if `name@version` is already live.
    pub fn register_physical(
        &self,
        name: &str,
        version: u32,
        model: &DonnModel,
        env: &HardwareEnvironment,
    ) -> ModelId {
        self.register_entry(RegisteredModel::physical(name, version, model, env))
    }

    /// Live registration: prewarms the entry (FFT plans, transfer
    /// kernels), builds and warms per-worker workspaces for every shard,
    /// delivers them via the shard mailboxes, grows the per-model
    /// accounting, and only then publishes the new snapshot with one
    /// atomic pointer flip. In-flight traffic is never paused; the first
    /// request against the new model hits a fully warm path.
    fn register_entry(&self, entry: RegisteredModel) -> ModelId {
        let core = &self.core;
        let _write = core.registry.begin_write();
        let snapshot = core.registry.load();
        assert!(
            snapshot
                .resolve(entry.name(), Some(entry.version()))
                .is_none(),
            "model {}@{} is already registered",
            entry.name(),
            entry.version()
        );
        entry.prewarm();
        let id = ModelId(snapshot.entries.len());
        let entry = Arc::new(entry);
        // Grow per-model accounting before anything references the id.
        core.drain.grow_models();
        for counters in [&core.resident, &core.panic_streak] {
            let current = counters.load_full();
            let mut next = Vec::with_capacity(current.len() + 1);
            next.extend(current.iter().cloned());
            next.push(Arc::new(AtomicUsize::new(0)));
            counters.store(Arc::new(next));
        }
        core.metrics.grow_models();
        // Deliver warmed workspaces to every shard *before* publishing:
        // a request for `id` can only be admitted after the flip, and
        // dispatchers adopt mailboxes after every drain, so adoption
        // always precedes the first execution against `id`.
        for (s, shard) in core.shards.iter().enumerate() {
            let workspaces: Vec<VariantWorkspace> = (0..core.ctxs_per_shard[s])
                .map(|_| {
                    let ws = entry.warmed_workspace(core.policy.max_batch);
                    core.resident_add(id, ws.resident_bytes());
                    ws
                })
                .collect();
            shard
                .mailbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Delivery::Workspaces(id, workspaces));
        }
        let mut entries = snapshot.entries.clone();
        entries.push(EntrySlot::Live(Arc::clone(&entry)));
        core.registry.publish(RegistrySnapshot {
            epoch: snapshot.epoch + 1,
            entries,
        });
        id
    }

    /// Retires a live model: one atomic snapshot flip. New submissions
    /// against `id` fail with [`ServeError::UnknownModel`]; requests
    /// already admitted complete normally on their pinned entry (no queue
    /// drain). The slot collapses to a **slim tombstone** — the entry
    /// `Arc` (the model's parameters and plans) is released as soon as the
    /// last in-flight request against it settles; only the per-worker
    /// workspaces stay resident until [`Server::reclaim`]. Returns false
    /// when `id` was not live.
    pub fn retire(&self, id: ModelId) -> bool {
        let core = &self.core;
        let _write = core.registry.begin_write();
        let snapshot = core.registry.load();
        // Quarantined slots retire the same way live ones do: quarantine
        // is a traffic decision, not a lifecycle terminal state.
        match snapshot.slot(id) {
            Some(EntrySlot::Live(_)) | Some(EntrySlot::Quarantined { .. }) => {}
            _ => return false,
        }
        let retired_at = snapshot.epoch + 1;
        let mut entries = snapshot.entries.clone();
        entries[id.0] = EntrySlot::Retired { retired_at };
        core.registry.publish(RegistrySnapshot {
            epoch: retired_at,
            entries,
        });
        true
    }

    /// Reclaims the memory of a **retired** model: its per-worker
    /// [workspaces](lightridge::BatchWorkspace) in every shard, its
    /// prewarmed FFT plans, and its diffraction transfer kernels.
    ///
    /// The reclaim is **drain-fenced**: it blocks until every shard's
    /// dispatcher acknowledges (via its epoch fence) that no work admitted
    /// before the retire flip is queued or executing *and* the model's
    /// global in-flight count (which also covers work stolen across
    /// shards) is zero; only then are the drop directives mailed, and the
    /// call returns once every shard has dropped its workspaces and the
    /// orphaned cache entries are swept. Requests against surviving models
    /// are never paused, never reallocated, and stay bit-identical
    /// throughout.
    ///
    /// A documented no-op returning `false` (no epoch bump, no wait) when
    /// `id` was never registered, is still live (retire first), or was
    /// already reclaimed — so lifecycle automation can call it
    /// idempotently. Also returns `false` if the server shuts down while
    /// the reclaim is waiting for quiescence.
    pub fn reclaim(&self, id: ModelId) -> bool {
        let core = &self.core;
        let _write = core.registry.begin_write();
        let snapshot = core.registry.load();
        match snapshot.slot(id) {
            Some(EntrySlot::Retired { retired_at }) => reclaim_locked(core, id, *retired_at),
            // Never registered, still live (or quarantined — retire
            // first), or already reclaimed.
            _ => false,
        }
    }

    /// Creates a new in-process client with its own reusable request slot.
    pub fn client(&self) -> InProcessClient {
        InProcessClient {
            core: Arc::clone(&self.core),
            slot: Arc::new(RequestSlot::new()),
        }
    }

    /// Snapshot of throughput, latency quantiles, admission counters, and
    /// per-shard/per-model breakdowns.
    pub fn stats(&self) -> ServerStats {
        let snapshot = self.core.registry.load();
        let live: Vec<(ModelId, String, u32)> = snapshot
            .iter_live()
            .map(|(id, e)| (id, e.name().to_string(), e.version()))
            .collect();
        self.core
            .metrics
            .snapshot(snapshot.epoch, &live, self.core.resident_total())
    }

    /// Drains every trace ring (per-shard + supervisor) into one
    /// [`TraceSnapshot`], sorted by start timestamp. `None` when the
    /// server was started without [`BatchPolicy::trace`]. Each call
    /// returns only events recorded since the previous drain; loss under
    /// ring overrun is exact (`dropped`), never silent.
    pub fn drain_trace(&self) -> Option<TraceSnapshot> {
        let t = self.core.tracer.as_ref()?;
        let mut events = Vec::new();
        let mut stats = DrainStats::default();
        for ring in &t.shard_rings {
            let s = ring.drain_into(&mut events);
            stats.drained += s.drained;
            stats.dropped += s.dropped;
        }
        let s = t.supervisor_ring.drain_into(&mut events);
        stats.drained += s.drained;
        stats.dropped += s.dropped;
        events.sort_by_key(|e| (e.t_start_ns, e.request, e.kind));
        Some(TraceSnapshot {
            events,
            dropped: stats.dropped,
        })
    }

    /// Stops accepting requests, fails everything still queued with
    /// [`ServeError::ShuttingDown`], and joins the dispatchers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.core.shutting_down.store(true, Ordering::Release);
        for shard in &self.core.shards {
            let mut q = shard.lock_queue();
            q.shutdown = true;
        }
        for shard in &self.core.shards {
            shard.work_cv.notify_all();
        }
        // Unblock any reclaim waiting on dispatcher acknowledgments.
        self.core.lifecycle_notify();
        // Stop the supervisor first so it does not race the joins below
        // by "respawning" dispatchers that are exiting on purpose.
        {
            let mut inbox = self
                .core
                .supervisor
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inbox.stop = true;
        }
        self.core.supervisor_cv.notify_all();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut slots = self
                .core
                .dispatcher_handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slots.iter_mut().filter_map(Option::take).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        // Normally each dispatcher drained its queue on the way out; if
        // one died some other way, make sure no client is left hanging —
        // first anything it had staged, then anything still queued.
        for shard in &self.core.shards {
            fail_staged(&self.core, shard, ServeError::ShuttingDown);
            drain_on_shutdown(&self.core, shard, shard.lock_queue());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Builds one warmed worker context set from `snapshot`: a warmed
/// workspace (credited to the resident account) for every slot that still
/// holds an entry — live *or* quarantined, since a quarantined model's
/// in-flight stragglers are still served — and a reclaimed placeholder
/// for tombstones. Used at startup (all slots live) and by the
/// supervisor's dispatcher respawn (any mix).
fn build_ctxs(core: &ServerCore, snapshot: &RegistrySnapshot, ctx_count: usize) -> Vec<WorkerCtx> {
    (0..ctx_count)
        .map(|_| WorkerCtx {
            workspaces: snapshot
                .entries
                .iter()
                .enumerate()
                .map(|(m, slot)| match slot.entry_arc() {
                    Some(entry) => {
                        let ws = entry.warmed_workspace(core.policy.max_batch);
                        core.resident_add(ModelId(m), ws.resident_bytes());
                        ws
                    }
                    None => VariantWorkspace::Reclaimed,
                })
                .collect(),
        })
        .collect()
}

/// Spawns shard `s`'s dispatcher thread over `ctxs`, with a pool
/// partition of one worker per context beyond the first (the dispatcher
/// drives that one). Shared by startup and respawn.
fn spawn_dispatcher(core: &Arc<ServerCore>, s: usize, ctxs: Vec<WorkerCtx>) -> JoinHandle<()> {
    let partition = PoolPartition::new(ctxs.len() - 1);
    let dispatcher_core = Arc::clone(core);
    std::thread::Builder::new()
        .name(format!("lr-serve-shard{s}"))
        .spawn(move || dispatcher_loop(dispatcher_core, s, ctxs, partition))
        // UNWRAP: thread creation fails only on OS resource exhaustion,
        // where neither starting nor healing the server is possible —
        // fail loudly rather than limp with a missing shard.
        .expect("failed to spawn an lr-serve shard dispatcher")
}

/// Wakes every dispatcher so fences advance and mailboxes drain at the
/// start of a reclaim phase. Returns true when the server is shutting
/// down (the dispatchers will never acknowledge again).
fn nudge_dispatchers(core: &ServerCore) -> bool {
    let mut shutting_down = false;
    for shard in &core.shards {
        let q = shard.lock_queue();
        shutting_down |= q.shutdown;
        shard.work_cv.notify_all();
    }
    shutting_down
}

/// True when some dispatcher thread has died and not yet been respawned
/// (a taken slot is a respawn in progress — dead for a waiter's
/// purposes). Reclaim waits abort on this instead of waiting on a fence
/// that cannot advance until the supervisor heals the shard.
fn any_dispatcher_dead(core: &ServerCore) -> bool {
    core.dispatcher_handles
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .any(|h| match h {
            None => true,
            Some(h) => h.is_finished(),
        })
}

/// The drain-fenced reclaim body behind [`Server::reclaim`]. Caller holds
/// the registry write lock and guarantees `id` is currently
/// `Retired { retired_at }`.
///
/// Both waits are event-driven: dispatchers signal `lifecycle_cv` when a
/// fence rises or resident bytes drop, so surviving traffic is not
/// perturbed by reclaim-side polling of the shard queues — the queues are
/// touched exactly once per phase (the initial nudge that wakes idle
/// dispatchers). The timeout on each wait only bounds staleness against
/// in-flight-count changes, which deliberately do not signal (they are on
/// the per-request hot path). Returns false without reclaiming when the
/// server is shutting down or a dispatcher has died mid-wait (the
/// supervisor must respawn it before its fence can advance — retry then).
fn reclaim_locked(core: &ServerCore, id: ModelId, retired_at: u64) -> bool {
    const STALENESS: Duration = Duration::from_millis(1);
    // Phase 1 — drain fence: every dispatcher must acknowledge an
    // epoch at or past the retire flip (its queue holds nothing older
    // and it is not mid-batch on older own-queue work), and the
    // model's global in-flight count must be zero (covers requests a
    // sibling stole). Wake idle dispatchers once: each advances its
    // fence on wake and signals the change.
    if nudge_dispatchers(core) {
        return false;
    }
    let mut wait = core
        .lifecycle
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        if core.drain.passed(id.0, retired_at) {
            break;
        }
        if core.shutting_down.load(Ordering::Acquire) || any_dispatcher_dead(core) {
            return false;
        }
        wait = core
            .lifecycle_cv
            .wait_timeout(wait, STALENESS)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
    drop(wait);
    // Phase 2 — mail the drop directives and wait for every shard to
    // zero out the model's resident-bytes account. A submission still
    // racing the retire flip (validated against a pre-retire snapshot
    // but not yet enqueued) may slip in after the fence; it fails
    // safely with `UnknownModel` against the reclaimed placeholder
    // instead of touching freed memory.
    for shard in &core.shards {
        shard
            .mailbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Delivery::Reclaim(id));
    }
    if nudge_dispatchers(core) {
        return false;
    }
    let counter = Arc::clone(&core.resident.load_full()[id.0]);
    let mut wait = core
        .lifecycle
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    while counter.load(Ordering::Acquire) != 0 {
        if core.shutting_down.load(Ordering::Acquire) || any_dispatcher_dead(core) {
            return false;
        }
        wait = core
            .lifecycle_cv
            .wait_timeout(wait, STALENESS)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
    drop(wait);
    // Phase 3 — registry-tied cache eviction. The tombstone released
    // the entry `Arc` at retire and the fence guarantees no in-flight
    // pinner is left, so the retired model's transfer kernels and FFT
    // plans are orphans now (entries shared with live models stay
    // pinned and survive — their first-request latency is unaffected).
    let swept = lr_optics::sweep_transfer_cache() + lr_tensor::sweep_orphaned_plans();
    core.metrics.record_swept(swept as u64);
    // Phase 4 — collapse the tombstone to its terminal marker.
    let snapshot = core.registry.load();
    let mut entries = snapshot.entries.clone();
    entries[id.0] = EntrySlot::Reclaimed { retired_at };
    core.registry.publish(RegistrySnapshot {
        epoch: snapshot.epoch + 1,
        entries,
    });
    core.metrics.record_reclaimed_model();
    true
}

/// The supervisor thread: wakes on its tick (or immediately for a
/// quarantine request or shutdown) and runs its two duties in severity
/// order — heal dead dispatchers first (a reclaim may be waiting on a
/// fence only a live dispatcher advances), then quarantine flips.
fn supervisor_loop(core: Arc<ServerCore>) {
    let tick = core.policy.supervisor_tick;
    loop {
        {
            let mut inbox = core
                .supervisor
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if inbox.stop {
                return;
            }
            if inbox.quarantine.is_empty() {
                inbox = core
                    .supervisor_cv
                    .wait_timeout(inbox, tick)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
            if inbox.stop {
                return;
            }
        }
        respawn_dead_dispatchers(&core);
        apply_quarantines(&core);
    }
}

/// Detects dispatcher threads that died (a panic that escaped the loop's
/// containment — in production a bug, in tests an injected
/// [`FaultKind::KillDispatcher`]) and heals them: the staged batch's
/// waiters resolve with [`ServeError::ChannelClosed`] instead of hanging,
/// fresh warmed contexts are rebuilt from the current registry snapshot,
/// and a new dispatcher thread takes over the shard's queue (which kept
/// accepting work the whole time).
fn respawn_dead_dispatchers(core: &Arc<ServerCore>) {
    if core.shutting_down.load(Ordering::Acquire) {
        return;
    }
    loop {
        // Claim one dead slot at a time (slot left `None` while healing).
        let (s, handle) = {
            let mut slots = core
                .dispatcher_handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match slots
                .iter()
                .position(|h| h.as_ref().is_some_and(JoinHandle::is_finished))
            {
                Some(s) => {
                    // UNWRAP: position() just found a Some in this slot,
                    // and the lock is still held.
                    let handle = slots[s].take().expect("position() found a Some slot");
                    (s, handle)
                }
                None => return,
            }
        };
        let _ = handle.join();
        let shard = &core.shards[s];
        // The dead dispatcher's staged batch died with its contexts:
        // resolve those waiters now (retry-safe — nothing was delivered).
        fail_staged(core, shard, ServeError::ChannelClosed);
        // Rebuild contexts under the shard's mailbox lock so a concurrent
        // registration cannot slip a delivery between the snapshot we
        // rebuild from and the reconciliation below.
        let ctxs = {
            let mut mail = shard
                .mailbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let snapshot = core.registry.load();
            let ctxs = build_ctxs(core, &snapshot, core.ctxs_per_shard[s]);
            // Reconcile the mailbox: workspace deliveries for ids the
            // snapshot already covers were rebuilt above — adopting them
            // too would double-install and double-count, so drop them and
            // debit the bytes they had credited. Deliveries for ids past
            // the snapshot (mailed, not yet published) and reclaim
            // directives stay.
            let mut debited = false;
            mail.retain(|delivery| match delivery {
                Delivery::Workspaces(id, workspaces) if id.0 < snapshot.entries.len() => {
                    let bytes: usize = workspaces
                        .iter()
                        .map(VariantWorkspace::resident_bytes)
                        .sum();
                    if bytes > 0 {
                        core.resident_sub(*id, bytes);
                        debited = true;
                    }
                    false
                }
                _ => true,
            });
            if debited {
                core.lifecycle_notify();
            }
            ctxs
        };
        let handle = spawn_dispatcher(core, s, ctxs);
        core.dispatcher_handles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[s] = Some(handle);
        core.metrics.record_dispatcher_respawn();
        core.trace_supervisor_instant(EventKind::Respawn, s, 0);
        // Wake the new dispatcher: work may have queued while the shard
        // was down, and a reclaim may be waiting on this shard's fence.
        {
            let _q = shard.lock_queue();
            shard.work_cv.notify_all();
        }
        core.lifecycle_notify();
    }
}

/// Applies pending quarantine requests: flips each still-live slot to
/// [`EntrySlot::Quarantined`] (keeping the entry `Arc` so in-flight
/// stragglers complete and workspace rebuilds stay possible) under a
/// **non-blocking** registry write attempt — the supervisor must never
/// block behind a reclaim that is itself waiting on supervisor duties.
fn apply_quarantines(core: &Arc<ServerCore>) {
    loop {
        let model = {
            let mut inbox = core
                .supervisor
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match inbox.quarantine.pop() {
                Some(m) => m,
                None => return,
            }
        };
        let Some(_write) = core.registry.try_begin_write() else {
            // Writer busy: put the request back and retry next tick.
            core.supervisor
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .quarantine
                .push(model);
            return;
        };
        let snapshot = core.registry.load();
        if let Some(EntrySlot::Live(entry)) = snapshot.slot(model) {
            let mut entries = snapshot.entries.clone();
            entries[model.0] = EntrySlot::Quarantined {
                entry: Arc::clone(entry),
                quarantined_at: snapshot.epoch + 1,
            };
            core.registry.publish(RegistrySnapshot {
                epoch: snapshot.epoch + 1,
                entries,
            });
            core.metrics.record_quarantined();
            core.trace_supervisor_instant(EventKind::Quarantine, core.shard_of(model), model.0);
        }
        // Already quarantined/retired/reclaimed: nothing to flip.
    }
}

/// What one `collect_batch` round produced.
enum Collected {
    /// `batch` holds work; `stolen` of it came from sibling queues.
    Work {
        stolen: usize,
    },
    Shutdown,
}

/// Owns a dispatcher's worker contexts for the lifetime of its thread.
/// On *any* exit — clean shutdown, an injected kill, or an unexpected
/// panic escaping the loop — the contexts (and their workspaces) are
/// dropped, so the resident-bytes accounting must be debited with them:
/// otherwise a reclaim would wait forever on bytes that no longer exist.
/// At clean shutdown the debit is harmless (stats are snapshotted before
/// the server drops).
struct CtxGuard {
    core: Arc<ServerCore>,
    ctxs: Vec<WorkerCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let mut any = false;
        for ctx in &self.ctxs {
            for (m, ws) in ctx.workspaces.iter().enumerate() {
                let bytes = ws.resident_bytes();
                if bytes > 0 {
                    self.core.resident_sub(ModelId(m), bytes);
                    any = true;
                }
            }
        }
        if any {
            self.core.lifecycle_notify();
        }
    }
}

/// The per-shard micro-batcher: drain (or steal) → skip expired → publish
/// the staged batch → adopt pending deliveries → execute, forever; the
/// drain fence advances on every pass through the empty-batch collection
/// point.
fn dispatcher_loop(
    core: Arc<ServerCore>,
    shard_idx: usize,
    ctxs: Vec<WorkerCtx>,
    partition: PoolPartition,
) {
    let mut guard = CtxGuard {
        core: Arc::clone(&core),
        ctxs,
    };
    let ctxs = &mut guard.ctxs;
    let mut batch: Vec<Arc<RequestSlot>> = Vec::with_capacity(core.policy.max_batch);
    let mut tickets: Vec<u64> = Vec::with_capacity(core.policy.max_batch);
    loop {
        match collect_batch(&core, shard_idx, &mut batch, ctxs) {
            Collected::Shutdown => return,
            Collected::Work { stolen } => {
                if stolen > 0 {
                    core.metrics.record_stolen(shard_idx, stolen as u64);
                    // A steal fills an empty batch, so every entry here
                    // was stolen; the slots are exclusively ours.
                    if core.tracer.is_some() {
                        for slot in &batch {
                            let (model, request) = {
                                let st = slot.lock();
                                (st.model, st.request)
                            };
                            core.trace_instant(EventKind::Steal, shard_idx, model.0, request);
                        }
                    }
                }
            }
        }
        // Skip requests whose deadline passed while they were queued —
        // dead work must never burn a slice of a batched forward — and
        // snapshot each survivor's ticket: between here and execution the
        // slots are exclusively ours (out of every queue, clients
        // blocked), so the tickets identify exactly this batch's requests
        // for panic recovery. Stable compaction keeps arrival order, so
        // same-model runs coalesce exactly as before.
        tickets.clear();
        let now = Instant::now();
        let mut kept = 0;
        for i in 0..batch.len() {
            let (expired, ticket, model, request) = {
                let mut st = batch[i].lock();
                let expired = st.deadline <= now;
                if !expired {
                    // The queue_wait/staging stage boundary: this request
                    // is out of every queue for good.
                    st.drained_at = now;
                }
                (expired, st.ticket, st.model, st.request)
            };
            if expired {
                core.inflight_release(model);
                core.metrics.record_deadline_expired();
                core.trace_instant(EventKind::DeadlineExpired, shard_idx, model.0, request);
                batch[i].fail(ServeError::Deadline);
            } else {
                tickets.push(ticket);
                batch.swap(kept, i);
                kept += 1;
            }
        }
        batch.truncate(kept);
        // Publish the staged batch so the supervisor can resolve these
        // waiters with `ChannelClosed` if this thread dies mid-batch
        // (`Arc` clones into a preallocated Vec — no allocation).
        let shard = &core.shards[shard_idx];
        {
            let mut staged = shard.lock_staged();
            staged.clear();
            staged.extend(
                batch
                    .iter()
                    .zip(&tickets)
                    .map(|(slot, &t)| (t, Arc::clone(slot))),
            );
        }
        // Fault seam: die with the batch staged — exactly the window the
        // supervisor's ChannelClosed recovery exists for.
        if core.fault_fires(FaultKind::KillDispatcher) {
            panic!("injected fault: dispatcher killed");
        }
        // Process deliveries after the drain: any request drained above
        // was admitted after its workspaces were mailed (see
        // `register_entry`), so the mailbox already holds anything the
        // batch needs.
        process_deliveries(&core, shard_idx, ctxs);
        // Panic containment is layered: `serve_range` contains panics per
        // same-model run (failing only that run's requests and rebuilding
        // the workspace), so this outer guard is the backstop for panics
        // in the submission machinery itself. Either way the dispatcher
        // must survive: blocked clients would otherwise hang forever.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(&core, shard_idx, ctxs, &partition, &batch);
        }));
        if outcome.is_err() {
            core.metrics.record_worker_panic();
            core.trace_instant(EventKind::WorkerPanic, shard_idx, 0, 0);
            recover_failed_batch(&core, &batch, &tickets);
        }
        shard.lock_staged().clear();
        batch.clear();
    }
}

/// Advances this shard's drain fence. Call with the shard's queue lock
/// held and the dispatcher's execution batch empty: the candidate value
/// is one past the current registry epoch when the queue is empty, else
/// the oldest queued admit-epoch — and the stored fence only ever
/// **rises** (`fetch_max`), so in steady state (no registry flips) this
/// is one uncontended atomic and no signal. A fence of `F` tells
/// [`Server::reclaim`] that every request this shard admitted-and-owned
/// before epoch `F` has drained; requests that *validated* before `F`
/// rose but enqueue later are exactly the flip-racing stragglers covered
/// by the global in-flight counters and, past those, by the
/// [`VariantWorkspace::Reclaimed`] placeholder. A *risen* fence signals
/// any waiting reclaim. The watermark itself lives in [`crate::drain`].
fn advance_fence(core: &ServerCore, shard_idx: usize, q: &ShardQueue) {
    let fence = match q.queue.iter().map(|r| r.epoch).min() {
        Some(oldest) => oldest,
        None => core.registry.load().epoch + 1,
    };
    if core.drain.advance(shard_idx, fence) {
        core.lifecycle_notify();
    }
}

/// Blocks until this shard has work (filling `batch`), stealing from a hot
/// sibling when the own queue stays empty, or until shutdown. Advances the
/// drain fence and processes lifecycle deliveries while idle, so retired
/// models are reclaimable from a shard that sees no traffic.
fn collect_batch(
    core: &ServerCore,
    shard_idx: usize,
    batch: &mut Vec<Arc<RequestSlot>>,
    ctxs: &mut [WorkerCtx],
) -> Collected {
    let shard = &core.shards[shard_idx];
    let max_batch = core.policy.max_batch;
    let max_delay = core.policy.max_delay;
    let mut q = shard.lock_queue();
    loop {
        // The batch is empty at every pass through this point, so the
        // fence may rise to whatever the queue (or, when empty, the
        // current epoch) supports.
        advance_fence(core, shard_idx, &q);
        if q.shutdown {
            drain_on_shutdown(core, shard, q);
            return Collected::Shutdown;
        }
        if !q.queue.is_empty() {
            break;
        }
        // Nothing local: process lifecycle deliveries and scan siblings
        // for a hot queue before sleeping.
        drop(q);
        process_deliveries(core, shard_idx, ctxs);
        let stolen = steal_from_hot_sibling(core, shard_idx, batch);
        if stolen > 0 {
            return Collected::Work { stolen };
        }
        q = shard.lock_queue();
        // Re-check sibling hotness *under our own queue mutex* before the
        // untimed wait: `notify_siblings_if_hot` notifies while holding
        // this same mutex, so a sibling going hot either happens before
        // this check (we loop and steal) or its notify blocks until we
        // are actually waiting (we are woken) — no lost wakeup, and no
        // idle polling.
        if q.queue.is_empty() && !q.shutdown && !core.any_sibling_hot(shard_idx) {
            q = shard
                .work_cv
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
    // Coalesce: drain what is there, then wait out the rest of the delay
    // window for stragglers, up to max_batch.
    let deadline = Instant::now() + max_delay;
    loop {
        while batch.len() < max_batch {
            match q.queue.pop_front() {
                Some(r) => batch.push(r.slot),
                None => break,
            }
        }
        shard.depth.store(q.queue.len(), Ordering::Relaxed);
        if batch.len() >= max_batch || q.shutdown {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, timeout) = shard
            .work_cv
            .wait_timeout(q, deadline - now)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q = guard;
        if timeout.timed_out() && q.queue.is_empty() {
            break;
        }
    }
    shard.depth.store(q.queue.len(), Ordering::Relaxed);
    Collected::Work { stolen: 0 }
}

/// Steals the front half of the first hot sibling queue (oldest requests
/// first — they are closest to their latency budget). Returns how many
/// requests landed in `batch`.
fn steal_from_hot_sibling(
    core: &ServerCore,
    shard_idx: usize,
    batch: &mut Vec<Arc<RequestSlot>>,
) -> usize {
    let num_shards = core.shards.len();
    if num_shards == 1 {
        return 0;
    }
    let hot = core.hot_threshold();
    for offset in 1..num_shards {
        let t = (shard_idx + offset) % num_shards;
        let sibling = &core.shards[t];
        if sibling.depth.load(Ordering::Relaxed) < hot {
            continue;
        }
        let mut q = sibling.lock_queue();
        if q.shutdown {
            continue;
        }
        let take = q.queue.len().div_ceil(2).min(core.policy.max_batch);
        for _ in 0..take {
            // UNWRAP: `take` was computed from `len` under this same
            // lock, so the pops cannot run dry.
            batch.push(q.queue.pop_front().expect("len checked above").slot);
        }
        sibling.depth.store(q.queue.len(), Ordering::Relaxed);
        if take > 0 {
            return take;
        }
    }
    0
}

/// Processes lifecycle deliveries into this shard's worker contexts:
/// adopts warmed workspaces for live-registered models (ids are
/// append-only and mailed in registration order, so adoption is a push
/// per worker) and drops reclaimed models' workspaces, debiting the
/// resident-bytes account the reclaimer is waiting on. Runs only on the
/// dispatcher thread, between batches or while idle — never while a
/// worker context is executing.
fn process_deliveries(core: &ServerCore, shard_idx: usize, ctxs: &mut [WorkerCtx]) {
    let shard = &core.shards[shard_idx];
    let mut mail = shard
        .mailbox
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if mail.is_empty() {
        return;
    }
    for delivery in mail.drain(..) {
        match delivery {
            Delivery::Workspaces(id, workspaces) => {
                debug_assert_eq!(workspaces.len(), ctxs.len());
                for (ctx, ws) in ctxs.iter_mut().zip(workspaces) {
                    debug_assert_eq!(ctx.workspaces.len(), id.0, "mailbox out of id order");
                    ctx.workspaces.push(ws);
                }
            }
            Delivery::Reclaim(id) => {
                let mut freed = 0usize;
                for ctx in ctxs.iter_mut() {
                    let ws =
                        std::mem::replace(&mut ctx.workspaces[id.0], VariantWorkspace::Reclaimed);
                    freed += ws.resident_bytes();
                }
                if freed > 0 {
                    core.resident_sub(id, freed);
                    core.metrics.record_reclaimed_bytes(freed as u64);
                }
                // The reclaimer blocks until every shard has debited.
                core.lifecycle_notify();
            }
        }
    }
}

/// Fails every slot of a batch whose execution panicked. Served slots are
/// already `Done` (and had their in-flight accounting retired inside
/// `serve_run` — nothing there can panic *between* the decrement and
/// `Done`), so only slots still `Queued` need failing and retiring.
/// The ticket check guards against a served client that already
/// re-submitted into the same reusable slot: its new request (`Queued`
/// again, but with a newer ticket) belongs to a different batch and must
/// not be failed or double-released here.
fn recover_failed_batch(core: &ServerCore, batch: &[Arc<RequestSlot>], tickets: &[u64]) {
    debug_assert_eq!(batch.len(), tickets.len());
    for (slot, &ticket) in batch.iter().zip(tickets) {
        let (model, waker) = {
            let mut st = slot.lock();
            if st.stage != Stage::Queued || st.ticket != ticket {
                continue;
            }
            st.stage = Stage::Failed(ServeError::WorkerPanic);
            (st.model, st.waker.clone())
        };
        core.inflight_release(model);
        slot.notify(waker);
    }
}

/// Resolves whatever a dead (or exiting) dispatcher left staged: any slot
/// still queued under its captured ticket is failed with `err` and its
/// in-flight accounting retired. Ticket-guarded like batch recovery —
/// slots whose client was already served (and possibly re-submitted) are
/// left alone. Called only when the dispatcher is provably not running
/// (joined by the supervisor, or after the shutdown joins).
fn fail_staged(core: &ServerCore, shard: &Shard, err: ServeError) {
    // Drain into a local list so no slot lock is taken under the staged
    // lock beyond what the dispatcher itself does (cold path; the
    // allocation is fine here).
    let staged: Vec<(u64, Arc<RequestSlot>)> = shard.lock_staged().drain(..).collect();
    for (ticket, slot) in staged {
        let (model, waker) = {
            let mut st = slot.lock();
            if st.stage != Stage::Queued || st.ticket != ticket {
                continue;
            }
            st.stage = Stage::Failed(err);
            (st.model, st.waker.clone())
        };
        core.inflight_release(model);
        slot.notify(waker);
    }
}

/// Fails every queued request on shutdown. Consumes the queue guard.
fn drain_on_shutdown(core: &ServerCore, shard: &Shard, mut q: MutexGuard<'_, ShardQueue>) {
    let mut leftovers: Vec<Arc<RequestSlot>> = Vec::with_capacity(q.queue.len());
    while let Some(r) = q.queue.pop_front() {
        leftovers.push(r.slot);
    }
    shard.depth.store(0, Ordering::Relaxed);
    drop(q);
    for slot in leftovers {
        let model = slot.lock().model;
        core.inflight_release(model);
        slot.fail(ServeError::ShuttingDown);
    }
}

/// Runs one batch: contiguous sub-ranges per worker context, each executed
/// as batched forwards over same-model runs ([`serve_range`]), on the
/// shard's own partition (this dispatcher is its only submitter, so the
/// job slot is always free). Zero allocations in steady state.
fn execute_batch(
    core: &ServerCore,
    shard_idx: usize,
    ctxs: &mut [WorkerCtx],
    partition: &PoolPartition,
    batch: &[Arc<RequestSlot>],
) {
    let n = batch.len();
    if n == 0 {
        return;
    }
    let workers = ctxs.len().min(n);
    let per_worker = n.div_ceil(workers);
    partition.par_chunks_mut(&mut ctxs[..workers], |w, ctx| {
        let start = (w * per_worker).min(n);
        let end = ((w + 1) * per_worker).min(n);
        serve_range(core, shard_idx, ctx, &batch[start..end]);
    });
    core.metrics.record_batch(shard_idx);
}

/// Serves one worker's contiguous sub-range of a drained micro-batch:
/// splits it into maximal **same-model runs** and executes each run as one
/// batched forward against the worker's per-model [`BatchWorkspace`],
/// emulated and physical (hardware-emulated) variants alike. A batch that
/// mixes models therefore falls back to per-model splitting — never to
/// per-sample dispatch. Zero allocations in steady state.
fn serve_range(
    core: &ServerCore,
    shard_idx: usize,
    ctx: &mut WorkerCtx,
    slots: &[Arc<RequestSlot>],
) {
    let mut i = 0;
    while i < slots.len() {
        let model = slots[i].lock().model;
        let mut j = i + 1;
        while j < slots.len() && slots[j].lock().model == model {
            j += 1;
        }
        let run = &slots[i..j];
        // Per-run panic containment: a panic unwinding out of inference
        // fails only *this run's* unserved requests ([`ServeError::
        // WorkerPanic`]), bumps the model's consecutive-panic streak, and
        // discards + rebuilds the possibly-torn workspace through the
        // prewarm path — the other runs of this range, and every other
        // worker, serve on untouched. `AssertUnwindSafe` is sound because
        // the only state crossing the boundary (the workspace and the
        // run's slots) is either rebuilt from scratch or explicitly
        // failed below.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_run(core, shard_idx, ctx, model, run);
        }));
        match outcome {
            Ok(()) => core.note_serve_ok(model),
            Err(_) => {
                core.trace_instant(EventKind::WorkerPanic, shard_idx, model.0, 0);
                recover_failed_run(core, ctx, model, run);
            }
        }
        i = j;
    }
}

/// Recovery for one same-model run whose execution panicked: fail the
/// run's still-unserved requests, retire their in-flight accounting,
/// account the panic toward quarantine, and rebuild the worker's
/// workspace for the model so the shard returns to its warmed, zero-alloc
/// steady state. Served slots of the run are already `Done` with their
/// accounting retired (nothing in the serve path can panic between the
/// in-flight decrement and `Done`), and drained slots are exclusively
/// ours until their clients wake — so no ticket check is needed here,
/// unlike whole-batch recovery.
fn recover_failed_run(
    core: &ServerCore,
    ctx: &mut WorkerCtx,
    model: ModelId,
    run: &[Arc<RequestSlot>],
) {
    core.note_panic(model);
    for slot in run {
        let failed = {
            let mut st = slot.lock();
            if st.stage == Stage::Queued {
                st.stage = Stage::Failed(ServeError::WorkerPanic);
                Some(st.waker.clone())
            } else {
                None
            }
        };
        if let Some(waker) = failed {
            core.inflight_release(model);
            slot.notify(waker);
        }
    }
    rebuild_workspace(core, ctx, model);
}

/// Discards a workspace a panic may have left mid-update and rebuilds it
/// through the same warmed-prewarm path registration uses, keeping the
/// resident-bytes account exact on both sides. If the model has been
/// retired (or reclaimed) in the meantime the slot stays a reclaimed
/// placeholder; if even the *rebuild* panics, the model is broken rather
/// than unlucky and is quarantined outright.
fn rebuild_workspace(core: &ServerCore, ctx: &mut WorkerCtx, model: ModelId) {
    let old = std::mem::replace(&mut ctx.workspaces[model.0], VariantWorkspace::Reclaimed);
    let bytes = old.resident_bytes();
    if bytes > 0 {
        core.resident_sub(model, bytes);
    }
    drop(old);
    let snapshot = core.registry.load();
    let entry = snapshot
        .slot(model)
        .and_then(EntrySlot::entry_arc)
        .map(Arc::clone);
    drop(snapshot);
    let Some(entry) = entry else {
        // Retired while we served its last stragglers: the placeholder is
        // the correct terminal state, and any reclaim waiting on the
        // resident account must hear about the debit above.
        core.lifecycle_notify();
        return;
    };
    let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        entry.warmed_workspace(core.policy.max_batch)
    }));
    match rebuilt {
        Ok(ws) => {
            core.resident_add(model, ws.resident_bytes());
            ctx.workspaces[model.0] = ws;
        }
        Err(_) => core.request_quarantine(model),
    }
    core.lifecycle_notify();
}

/// Executes one same-model run of drained request slots.
fn serve_run(
    core: &ServerCore,
    shard_idx: usize,
    ctx: &mut WorkerCtx,
    model: ModelId,
    run: &[Arc<RequestSlot>],
) {
    // Fault seams, in worker position: a stall here models a slow worker
    // (the deadline sweep sheds what queues up behind it), and a panic
    // here takes exactly the unwind path a model bug in `infer` would.
    if let Some(stall) = core.fault_stall() {
        std::thread::sleep(stall);
    }
    if core.fault_fires(FaultKind::PanicInForward) {
        panic!("injected fault: panic in forward");
    }
    let VariantWorkspace::Live(ws) = &mut ctx.workspaces[model.0] else {
        fail_reclaimed_run(core, model, run);
        return;
    };
    // Stage every input into the workspace's plane batch, one slot lock at
    // a time — drained slots are exclusively ours until their clients are
    // woken, so dropping the lock between staging and write-back is safe
    // and no two request locks are ever held together.
    let entry = {
        let st = run[0].lock();
        debug_assert_eq!(st.stage, Stage::Queued, "drained slot must be queued");
        Arc::clone(
            st.entry
                .as_ref()
                // UNWRAP: admission pins the entry before the slot ever
                // enters a queue, so a drained queued slot carries one; if
                // the invariant ever broke, this unwinds into the
                // run-level containment and surfaces to the client as a
                // typed `WorkerPanic`, never a hang.
                .expect("queued slot carries its pinned entry"),
        )
    };
    ws.begin_batch(run.len());
    for (b, slot) in run.iter().enumerate() {
        let st = slot.lock();
        debug_assert_eq!(st.stage, Stage::Queued, "drained slot must be queued");
        debug_assert_eq!(st.model, model, "run must be model-homogeneous");
        ws.load_input(b, &st.input);
    }
    // One batched forward for the whole coalesced run; its boundaries are
    // the staging/forward and forward/respond stage boundaries for every
    // request of the run.
    let forward_start = Instant::now();
    entry.infer_staged_batch(ws);
    let forward_end = Instant::now();
    core.metrics.record_batched_execution(run.len() as u64);
    // Distribute staged logits and wake the clients.
    for (b, slot) in run.iter().enumerate() {
        let (latency_ns, enqueued, drained, request, sampled) = {
            let mut st = slot.lock();
            st.logits.clear();
            st.logits.extend_from_slice(ws.staged_logits(b));
            (
                u64::try_from(st.enqueued_at.elapsed().as_nanos()).unwrap_or(u64::MAX),
                st.enqueued_at,
                st.drained_at,
                st.request,
                st.sampled,
            )
        };
        // Retire in-flight accounting *before* the client is woken — a
        // sequential caller must never see its own just-completed request
        // still counted against the per-model cap.
        core.inflight_release(model);
        let mut st = slot.lock();
        st.stage = Stage::Done;
        let waker = st.waker.clone();
        drop(st);
        core.metrics
            .record_completed(shard_idx, model.0, latency_ns);
        core.record_request_timing(
            shard_idx,
            model.0,
            request,
            sampled,
            enqueued,
            drained,
            forward_start,
            forward_end,
            Instant::now(),
        );
        slot.notify(waker);
    }
}

/// Fails a run that reached a reclaimed workspace placeholder. Only
/// submissions racing the retire flip (validated against a pre-retire
/// snapshot, enqueued after the drain fence passed) get here; their model
/// is retired, so each is refused with `UnknownModel` — never served from
/// freed memory — and released from in-flight exactly once.
fn fail_reclaimed_run(core: &ServerCore, model: ModelId, run: &[Arc<RequestSlot>]) {
    for slot in run {
        let waker = {
            let mut st = slot.lock();
            debug_assert_eq!(st.stage, Stage::Queued, "drained slot must be queued");
            st.stage = Stage::Failed(ServeError::UnknownModel);
            st.waker.clone()
        };
        core.inflight_release(model);
        core.metrics.record_rejected();
        slot.notify(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ReadoutMode;
    use lightridge::{Detector, DonnBuilder};
    use lr_optics::{Distance, Grid, PixelPitch, Wavelength};

    /// recover_failed_batch must fail every still-queued slot with
    /// WorkerPanic, retire its in-flight accounting, and leave served
    /// slots alone — the dispatcher's panic containment depends on
    /// exactly this.
    fn one_model_server() -> (Server, ModelId) {
        let grid = Grid::square(8, PixelPitch::from_um(36.0));
        let model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(10.0))
            .diffractive_layers(1)
            .detector(Detector::grid_layout(8, 8, 2, 2))
            .build();
        let mut registry = ModelRegistry::new();
        let id = registry.register_emulated("m", 1, model, ReadoutMode::Emulation);
        (Server::start(registry, BatchPolicy::default()), id)
    }

    #[test]
    fn recover_failed_batch_fails_queued_and_retires_inflight() {
        let (server, id) = one_model_server();

        // A batch of three drained slots mid-execution: one already
        // served, one still queued when the (simulated) panic hit, and
        // one whose client was served and already re-submitted into the
        // reused slot (stage Queued again, but a *newer* ticket).
        let served = Arc::new(RequestSlot::new());
        served.lock().stage = Stage::Done;
        let unserved = Arc::new(RequestSlot::new());
        {
            let mut st = unserved.lock();
            st.stage = Stage::Queued;
            st.model = id;
            st.ticket = 7;
        }
        let resubmitted = Arc::new(RequestSlot::new());
        {
            let mut st = resubmitted.lock();
            st.stage = Stage::Queued;
            st.model = id;
            st.ticket = 4; // batch captured ticket 3; the client re-submitted
        }
        // Two in-flight claims, as if both tickets were still queued.
        assert!(server.core.inflight_try_acquire(id));
        assert!(server.core.inflight_try_acquire(id));

        let batch = vec![
            Arc::clone(&served),
            Arc::clone(&unserved),
            Arc::clone(&resubmitted),
        ];
        recover_failed_batch(&server.core, &batch, &[1, 7, 3]);

        assert_eq!(
            served.lock().stage,
            Stage::Done,
            "served slot must be untouched"
        );
        assert_eq!(
            unserved.lock().stage,
            Stage::Failed(ServeError::WorkerPanic)
        );
        assert_eq!(
            resubmitted.lock().stage,
            Stage::Queued,
            "a re-submitted request (newer ticket) must not be failed by old-batch recovery"
        );
        assert_eq!(
            server.core.drain.inflight(id.0),
            1,
            "exactly one in-flight release: the ticket-matched unserved slot"
        );
        server.shutdown();
    }

    /// A run that reaches a reclaimed workspace placeholder — only possible
    /// for submissions racing the retire flip — must fail every slot with
    /// `UnknownModel`, release each in-flight claim exactly once and count
    /// each refusal under `rejected`, without touching the forward.
    #[test]
    fn serve_run_fails_a_reclaimed_run_as_a_whole() {
        let (server, id) = one_model_server();
        let run: Vec<Arc<RequestSlot>> = (0..3)
            .map(|ticket| {
                let slot = Arc::new(RequestSlot::new());
                {
                    let mut st = slot.lock();
                    st.stage = Stage::Queued;
                    st.model = id;
                    st.ticket = ticket;
                }
                assert!(server.core.inflight_try_acquire(id));
                slot
            })
            .collect();
        assert_eq!(server.core.drain.inflight(id.0), 3);
        let rejected = server.stats().rejected;
        let mut ctx = WorkerCtx {
            workspaces: vec![VariantWorkspace::Reclaimed],
        };

        serve_run(&server.core, 0, &mut ctx, id, &run);

        for slot in &run {
            assert_eq!(slot.lock().stage, Stage::Failed(ServeError::UnknownModel));
        }
        assert_eq!(
            server.core.drain.inflight(id.0),
            0,
            "each in-flight claim must be released exactly once"
        );
        assert_eq!(server.stats().rejected, rejected + 3);
        let stats = server.stats();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.batch_executions, 0, "no forward may run");
        server.shutdown();
    }
}
