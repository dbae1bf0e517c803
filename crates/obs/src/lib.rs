//! # lr-obs
//!
//! Observability primitives for the LightRidge-RS runtime: the layer that
//! turns "the p99 regressed" into "the p99 regressed because queue wait
//! doubled on shard 1 after its dispatcher respawned".
//!
//! Three pieces, all designed around the serving path's zero-allocation
//! contract:
//!
//! * **[`TraceRing`]** — a fixed-capacity, power-of-two, drop-oldest MPSC
//!   ring of compact [`TraceEvent`]s. Recording is one cursor `fetch_add`
//!   plus a seqlock-protected slot write: no locks, no heap, wait-free for
//!   writers. Overrun drops the *oldest* events and the loss is exactly
//!   accounted: at quiescence `drained + dropped == recorded`.
//! * **[`TraceConfig`]** — a seeded, deterministic per-mille sampling gate
//!   (the same splitmix64 finalizer the serving fault plan uses), so two
//!   runs with the same seed sample exactly the same request set.
//! * **Kernel profiling** — process-global scoped timers
//!   ([`KernelTimer`]) around the hot kernels (FFT row/column passes,
//!   Stockham vs Bluestein dispatch, transfer-function application,
//!   per-pixel layer modulation, detector readout), aggregated into a [`KernelProfile`] snapshot.
//!   Disabled (the default), a hook costs one relaxed atomic load — no
//!   clock read, no stores.
//!
//! The exporters ([`chrome_trace_json`], [`timeline_text`]) run off the
//! hot path and may allocate freely: [`chrome_trace_json`] emits Chrome
//! trace-event format loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev), [`timeline_text`] renders a
//! human-readable per-request timeline.

#![warn(missing_docs)]

mod sync;

use crate::sync::{fence, AtomicU64, Ordering};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64 as StdAtomicU64};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What a [`TraceEvent`] describes: one of the four request-path stages
/// (a **span** with a start and an end), or a fault/lifecycle **instant**.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Span: admit → drained out of the shard queue (queue wait).
    QueueWait = 0,
    /// Span: drained → staged into the batch workspace (includes delivery
    /// processing and same-model run splitting).
    Staging = 1,
    /// Span: the batched forward itself.
    Forward = 2,
    /// Span: forward done → logits written back and the client woken.
    Respond = 3,
    /// Instant: a serving panic was contained (the run failed with
    /// `WorkerPanic` and the workspace was rebuilt).
    WorkerPanic = 4,
    /// Instant: the supervisor flipped a model to quarantined.
    Quarantine = 5,
    /// Instant: the supervisor respawned a dead dispatcher (the `shard`
    /// field names which one).
    Respawn = 6,
    /// Instant: a request's deadline expired (at admission or while
    /// queued).
    DeadlineExpired = 7,
    /// Instant: a request (or a whole batch, on pool timeout) was shed.
    Shed = 8,
    /// Instant: an idle dispatcher stole work from a hot sibling
    /// (`request` carries the stolen count).
    Steal = 9,
    /// Span: first byte of a socket request frame on the wire → frame
    /// fully received (network transports only; see `lr-serve`'s net
    /// layer).
    Recv = 10,
    /// Span: frame fully received → request decoded and admitted into a
    /// shard queue (network transports only).
    Decode = 11,
}

impl EventKind {
    const ALL: [EventKind; 12] = [
        EventKind::QueueWait,
        EventKind::Staging,
        EventKind::Forward,
        EventKind::Respond,
        EventKind::WorkerPanic,
        EventKind::Quarantine,
        EventKind::Respawn,
        EventKind::DeadlineExpired,
        EventKind::Shed,
        EventKind::Steal,
        EventKind::Recv,
        EventKind::Decode,
    ];

    /// True for the request-path stages (events with a duration): the
    /// four in-process stages plus the network-side `recv`/`decode` pair.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::QueueWait
                | EventKind::Staging
                | EventKind::Forward
                | EventKind::Respond
                | EventKind::Recv
                | EventKind::Decode
        )
    }

    /// Stable lowercase name (the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::QueueWait => "queue_wait",
            EventKind::Staging => "staging",
            EventKind::Forward => "forward",
            EventKind::Respond => "respond",
            EventKind::WorkerPanic => "worker_panic",
            EventKind::Quarantine => "quarantine",
            EventKind::Respawn => "respawn",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::Shed => "shed",
            EventKind::Steal => "steal",
            EventKind::Recv => "recv",
            EventKind::Decode => "decode",
        }
    }

    fn from_u8(v: u8) -> EventKind {
        EventKind::ALL
            .get(v as usize)
            .copied()
            .unwrap_or(EventKind::QueueWait)
    }
}

/// How the traced request (or run) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Outcome {
    /// Served successfully.
    #[default]
    Ok = 0,
    /// Failed with a typed serve error.
    Failed = 1,
    /// Informational (lifecycle instants that are not a request outcome).
    Info = 2,
}

impl Outcome {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Failed => "failed",
            Outcome::Info => "info",
        }
    }

    fn from_u8(v: u8) -> Outcome {
        match v {
            1 => Outcome::Failed,
            2 => Outcome::Info,
            _ => Outcome::Ok,
        }
    }
}

/// One compact trace record: 32 bytes, `Copy`, no heap anywhere.
///
/// Spans carry `[t_start_ns, t_end_ns]`; instants carry
/// `t_start_ns == t_end_ns`. Timestamps are nanoseconds since the
/// trace epoch (server start).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// What happened ([`EventKind`]).
    pub kind: u8,
    /// How it ended ([`Outcome`]).
    pub outcome: u8,
    /// Shard the event happened on.
    pub shard: u16,
    /// Model id the event concerns.
    pub model: u32,
    /// Request id (0 when the event is not tied to one request).
    pub request: u64,
    /// Start, nanoseconds since the trace epoch.
    pub t_start_ns: u64,
    /// End, nanoseconds since the trace epoch (== start for instants).
    pub t_end_ns: u64,
}

impl TraceEvent {
    /// Builds a span event.
    pub fn span(
        kind: EventKind,
        outcome: Outcome,
        shard: usize,
        model: usize,
        request: u64,
        t_start_ns: u64,
        t_end_ns: u64,
    ) -> TraceEvent {
        TraceEvent {
            kind: kind as u8,
            outcome: outcome as u8,
            shard: shard as u16,
            model: model as u32,
            request,
            t_start_ns,
            t_end_ns,
        }
    }

    /// Builds an instant event (zero duration).
    pub fn instant(
        kind: EventKind,
        shard: usize,
        model: usize,
        request: u64,
        t_ns: u64,
    ) -> TraceEvent {
        TraceEvent::span(kind, Outcome::Info, shard, model, request, t_ns, t_ns)
    }

    /// The event kind, decoded.
    pub fn event_kind(&self) -> EventKind {
        EventKind::from_u8(self.kind)
    }

    /// The outcome, decoded.
    pub fn event_outcome(&self) -> Outcome {
        Outcome::from_u8(self.outcome)
    }

    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }

    fn encode(&self) -> [u64; 4] {
        [
            self.request,
            self.t_start_ns,
            self.t_end_ns,
            u64::from(self.kind)
                | u64::from(self.outcome) << 8
                | u64::from(self.shard) << 16
                | u64::from(self.model) << 32,
        ]
    }

    fn decode(w: [u64; 4]) -> TraceEvent {
        TraceEvent {
            request: w[0],
            t_start_ns: w[1],
            t_end_ns: w[2],
            kind: w[3] as u8,
            outcome: (w[3] >> 8) as u8,
            shard: (w[3] >> 16) as u16,
            model: (w[3] >> 32) as u32,
        }
    }
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

/// One ring slot: a seqlock sequence word plus the event payload as four
/// atomic words (so racing writers tear at word granularity at worst, and
/// the seq check rejects any torn read).
struct Slot {
    seq: AtomicU64,
    w: [AtomicU64; 4],
}

/// A fixed-capacity, power-of-two, drop-oldest MPSC trace-event ring.
///
/// **Writers** ([`TraceRing::record`]) are wait-free and allocation-free:
/// claim a ticket with one `fetch_add`, mark the slot's seqlock odd, store
/// the four payload words, mark it even. Any number of threads may record
/// concurrently.
///
/// **The reader** ([`TraceRing::drain_into`]) claims everything recorded
/// since the previous drain and validates each slot's seqlock before and
/// after copying the payload: a slot overwritten (ring overrun) or caught
/// mid-write counts as **dropped**, never as a torn event. The accounting
/// is exact at quiescence: `drained + dropped` over the ring's lifetime
/// equals [`TraceRing::recorded`].
#[derive(Debug)]
pub struct TraceRing {
    mask: u64,
    head: AtomicU64,
    tail: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// What one [`TraceRing::drain_into`] call observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DrainStats {
    /// Events copied out, in record order.
    pub drained: u64,
    /// Events lost to overrun (oldest-first) or caught mid-write.
    pub dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at least `capacity` events (rounded up to a
    /// power of two, minimum 8 — minimum 2 under the model checker, so
    /// wraparound is reachable within an explorable schedule count).
    pub fn new(capacity: usize) -> TraceRing {
        const MIN_CAP: usize = if cfg!(loom) { 2 } else { 8 };
        let cap = capacity.next_power_of_two().max(MIN_CAP);
        TraceRing {
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    w: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Slot capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Total events ever recorded (including any later dropped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records one event. Wait-free, allocation-free, callable from any
    /// thread. When the ring is full the oldest unread event is
    /// overwritten (drop-oldest) and accounted as dropped at the next
    /// drain.
    pub fn record(&self, ev: &TraceEvent) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i & self.mask) as usize];
        // Seqlock write protocol: odd = in progress, `2 i + 2` = ticket i
        // committed. Payload stores are individually atomic, so a racing
        // writer tears at word granularity at worst and the reader's
        // before/after seq check rejects the slot either way.
        slot.seq.store(2 * i + 1, Ordering::Release);
        let w = ev.encode();
        for (cell, word) in slot.w.iter().zip(w) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(2 * i + 2, Ordering::Release);
    }

    /// Drains every event recorded since the last drain into `out`
    /// (appended in record order), returning exact drained/dropped
    /// counts. Allocates only into `out`; intended for the snapshot path,
    /// not the hot path.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) -> DrainStats {
        let h = self.head.load(Ordering::Acquire);
        // Claim [t, h): concurrent drains never double-count a ticket.
        let mut t = self.tail.load(Ordering::Acquire);
        loop {
            match self
                .tail
                .compare_exchange(t, h, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => {
                    if now >= h {
                        return DrainStats::default();
                    }
                    t = now;
                }
            }
        }
        let cap = self.mask + 1;
        // Tickets below h - cap are definitionally overwritten.
        let lo = t.max(h.saturating_sub(cap));
        let mut stats = DrainStats {
            drained: 0,
            dropped: lo - t,
        };
        for i in lo..h {
            let slot = &self.slots[(i & self.mask) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            if before != 2 * i + 2 {
                // Mid-write, or already claimed by a newer ticket.
                stats.dropped += 1;
                continue;
            }
            let w = [
                slot.w[0].load(Ordering::Relaxed),
                slot.w[1].load(Ordering::Relaxed),
                slot.w[2].load(Ordering::Relaxed),
                slot.w[3].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != 2 * i + 2 {
                stats.dropped += 1;
                continue;
            }
            out.push(TraceEvent::decode(w));
            stats.drained += 1;
        }
        stats
    }
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

/// splitmix64 finalizer — the same mixer the serving fault plan uses for
/// its deterministic per-mille schedules.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Request-path tracing configuration: a seeded deterministic sampling
/// gate plus ring sizing. Installed as `Option<Arc<TraceConfig>>` on the
/// serving policy — `None` keeps every trace seam to a single branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sampling seed: the same seed samples the same request-id set.
    pub seed: u64,
    /// Per-mille of requests whose span timeline is recorded
    /// (`1000` = every request, `0` = spans off; instants still record).
    pub sample_per_mille: u16,
    /// Capacity of each per-shard ring (rounded up to a power of two).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 0x0b5e55ed,
            sample_per_mille: 125,
            ring_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// Deterministic sampling gate: whether `request`'s span timeline is
    /// recorded. Pure function of `(seed, request)` — same seed, same
    /// sampled set, across runs and machines.
    #[inline]
    pub fn sampled(&self, request: u64) -> bool {
        if self.sample_per_mille >= 1000 {
            return true;
        }
        if self.sample_per_mille == 0 {
            return false;
        }
        mix(self.seed ^ request) % 1000 < u64::from(self.sample_per_mille)
    }
}

// ---------------------------------------------------------------------------
// Kernel profiling
// ---------------------------------------------------------------------------

/// Which hot kernel a [`KernelTimer`] measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum KernelKind {
    /// FFT2 row-transform pass (sequential or pooled).
    FftRows = 0,
    /// FFT2 column-transform pass (cache-blocked strided kernel).
    FftCols = 1,
    /// Attribution: the pass ran the Stockham smooth-size plan.
    Stockham = 2,
    /// Attribution: the pass ran the Bluestein arbitrary-size plan.
    Bluestein = 3,
    /// Transfer-function (or post-phase) application to a spectrum.
    Transfer = 4,
    /// Detector region readout.
    Detector = 5,
    /// Attribution: the pass ran Rader's prime-length plan.
    Rader = 6,
    /// 2-D FFT plane work at scalar dispatch (1-lane kernels).
    SimdScalar = 7,
    /// 2-D FFT plane work executed at 2 lanes over SSE2.
    SimdSse2 = 8,
    /// 2-D FFT plane work executed at 4 lanes over AVX2.
    SimdAvx2 = 9,
    /// 2-D FFT plane work executed over NEON lanes.
    SimdNeon = 10,
    /// 2-D FFT plane work executed by the portable array backend.
    SimdPortable = 11,
    /// A layer's per-pixel modulation step: the multiply by a diffractive
    /// or codesign layer's cached transmission table (plus the table fill
    /// on the first pass after a parameter write), codesign `Train`-mode
    /// states computed per call, the adjoints on the backward paths, and
    /// the saturable-absorber transmission.
    Modulate = 12,
}

/// Number of [`KernelKind`] cells.
const KERNEL_KINDS: usize = 13;

const KERNEL_NAMES: [&str; KERNEL_KINDS] = [
    "fft_rows",
    "fft_cols",
    "stockham",
    "bluestein",
    "transfer",
    "detector",
    "rader",
    "simd_scalar",
    "simd_sse2",
    "simd_avx2",
    "simd_neon",
    "simd_portable",
    "modulate",
];

struct KernelCell {
    calls: StdAtomicU64,
    total_ns: StdAtomicU64,
}

static KERNEL_ENABLED: AtomicBool = AtomicBool::new(false);
static KERNEL_CELLS: [KernelCell; KERNEL_KINDS] = [const {
    KernelCell {
        calls: StdAtomicU64::new(0),
        total_ns: StdAtomicU64::new(0),
    }
}; KERNEL_KINDS];

/// Turns the process-global kernel profiler on or off. Off (the default),
/// every [`KernelTimer::start`] costs one relaxed atomic load.
pub fn set_kernel_profiling(on: bool) {
    KERNEL_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether kernel profiling is currently on.
#[inline]
pub fn kernel_profiling_enabled() -> bool {
    KERNEL_ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every kernel cell (profiling enablement is unchanged).
pub fn reset_kernel_profile() {
    for cell in &KERNEL_CELLS {
        cell.calls.store(0, Ordering::Relaxed);
        cell.total_ns.store(0, Ordering::Relaxed);
    }
}

#[inline]
fn kernel_record(kind: KernelKind, ns: u64) {
    let cell = &KERNEL_CELLS[kind as usize];
    cell.calls.fetch_add(1, Ordering::Relaxed);
    cell.total_ns.fetch_add(ns, Ordering::Relaxed);
}

/// A scoped kernel timer: measures from [`KernelTimer::start`] to drop
/// and adds the elapsed nanoseconds to its kind's cell (and, for
/// [`KernelTimer::start_attributed`], to an attribution cell from the
/// same single clock read). When profiling is off the constructor takes
/// one relaxed load and the drop is a no-op — no clock read, no stores,
/// no allocation either way.
#[must_use = "the timer measures until it is dropped"]
pub struct KernelTimer {
    start: Option<Instant>,
    kind: KernelKind,
    also: Option<KernelKind>,
}

impl KernelTimer {
    /// Starts a timer for `kind` (a clock read only when profiling is on).
    #[inline]
    pub fn start(kind: KernelKind) -> KernelTimer {
        KernelTimer {
            start: kernel_profiling_enabled().then(Instant::now),
            kind,
            also: None,
        }
    }

    /// Starts a timer recording the same measurement under `kind` and the
    /// attribution cell `also` (e.g. `FftRows` + `Stockham`).
    #[inline]
    pub fn start_attributed(kind: KernelKind, also: KernelKind) -> KernelTimer {
        KernelTimer {
            start: kernel_profiling_enabled().then(Instant::now),
            kind,
            also: Some(also),
        }
    }
}

impl Drop for KernelTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            kernel_record(self.kind, ns);
            if let Some(also) = self.also {
                kernel_record(also, ns);
            }
        }
    }
}

/// One kernel's aggregate in a [`KernelProfile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelStat {
    /// Which kernel.
    pub kind: KernelKind,
    /// Timed invocations.
    pub calls: u64,
    /// Total measured nanoseconds.
    pub total_ns: u64,
}

impl KernelStat {
    /// Stable lowercase kernel name.
    pub fn name(&self) -> &'static str {
        KERNEL_NAMES[self.kind as usize]
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Point-in-time snapshot of every kernel cell, in [`KernelKind`] order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelProfile {
    /// One entry per [`KernelKind`].
    pub kernels: Vec<KernelStat>,
}

impl KernelProfile {
    /// Looks up one kernel's aggregate.
    pub fn get(&self, kind: KernelKind) -> KernelStat {
        self.kernels[kind as usize]
    }
}

/// Snapshots the process-global kernel cells.
pub fn kernel_profile() -> KernelProfile {
    KernelProfile {
        kernels: [
            KernelKind::FftRows,
            KernelKind::FftCols,
            KernelKind::Stockham,
            KernelKind::Bluestein,
            KernelKind::Transfer,
            KernelKind::Detector,
            KernelKind::Rader,
            KernelKind::SimdScalar,
            KernelKind::SimdSse2,
            KernelKind::SimdAvx2,
            KernelKind::SimdNeon,
            KernelKind::SimdPortable,
            KernelKind::Modulate,
        ]
        .iter()
        .map(|&kind| KernelStat {
            kind,
            calls: KERNEL_CELLS[kind as usize].calls.load(Ordering::Relaxed),
            total_ns: KERNEL_CELLS[kind as usize].total_ns.load(Ordering::Relaxed),
        })
        .collect(),
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Renders events as Chrome trace-event-format JSON (an object with a
/// `traceEvents` array), loadable in `chrome://tracing` or Perfetto.
///
/// Mapping: `pid` = shard, `tid` = request id, `ts`/`dur` in microseconds
/// (fractional — Chrome's native unit) measured from the trace epoch.
/// Spans are `"ph": "X"` complete events; faults/lifecycle are
/// `"ph": "i"` instant events with global scope.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut json = String::with_capacity(events.len() * 160 + 64);
    json.push_str("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n");
    for (i, ev) in events.iter().enumerate() {
        let kind = ev.event_kind();
        let ts = ev.t_start_ns as f64 / 1000.0;
        if kind.is_span() {
            let dur = ev.duration_ns() as f64 / 1000.0;
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"request\":{},\"model\":{},\"outcome\":\"{}\"}}}}",
                kind.name(),
                ev.shard,
                ev.request,
                ev.request,
                ev.model,
                ev.event_outcome().name(),
            );
        } else {
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"request\":{},\"model\":{}}}}}",
                kind.name(),
                ev.shard,
                ev.request,
                ev.request,
                ev.model,
            );
        }
        json.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    json.push_str("]\n}\n");
    json
}

/// Renders a human-readable per-request timeline: one block per request
/// (stages in time order with durations), then the instant events.
pub fn timeline_text(events: &[TraceEvent]) -> String {
    let mut spans: Vec<&TraceEvent> = events.iter().filter(|e| e.event_kind().is_span()).collect();
    spans.sort_by_key(|e| (e.request, e.t_start_ns));
    let mut out = String::new();
    let mut current = None;
    for ev in &spans {
        if current != Some(ev.request) {
            current = Some(ev.request);
            let _ = writeln!(
                out,
                "request {} (model {}, shard {})",
                ev.request, ev.model, ev.shard
            );
        }
        let _ = writeln!(
            out,
            "  {:>16} [{:>12} ns .. {:>12} ns]  {:>10} ns  {}",
            ev.event_kind().name(),
            ev.t_start_ns,
            ev.t_end_ns,
            ev.duration_ns(),
            ev.event_outcome().name(),
        );
    }
    let mut instants: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| !e.event_kind().is_span())
        .collect();
    instants.sort_by_key(|e| e.t_start_ns);
    if !instants.is_empty() {
        let _ = writeln!(out, "instants:");
        for ev in instants {
            let _ = writeln!(
                out,
                "  {:>12} ns  {:<16} shard {} model {} request {}",
                ev.t_start_ns,
                ev.event_kind().name(),
                ev.shard,
                ev.model,
                ev.request,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrips_through_encoding() {
        let ev = TraceEvent::span(EventKind::Forward, Outcome::Failed, 3, 17, 42, 1_000, 2_500);
        assert_eq!(TraceEvent::decode(ev.encode()), ev);
        let inst = TraceEvent::instant(EventKind::Respawn, 1, 0, 0, 77);
        assert_eq!(TraceEvent::decode(inst.encode()), inst);
        assert_eq!(inst.duration_ns(), 0);
    }

    #[test]
    fn ring_basic_record_drain() {
        let ring = TraceRing::new(8);
        for i in 0..5u64 {
            ring.record(&TraceEvent::instant(EventKind::Shed, 0, 0, i, i * 10));
        }
        let mut out = Vec::new();
        let stats = ring.drain_into(&mut out);
        assert_eq!(
            stats,
            DrainStats {
                drained: 5,
                dropped: 0
            }
        );
        assert_eq!(out.len(), 5);
        assert_eq!(out[4].request, 4);
        // A second drain sees nothing new.
        let stats = ring.drain_into(&mut out);
        assert_eq!(stats, DrainStats::default());
    }

    #[test]
    fn ring_overrun_drops_oldest_exactly() {
        let ring = TraceRing::new(8); // rounds to 8
        for i in 0..20u64 {
            ring.record(&TraceEvent::instant(EventKind::Shed, 0, 0, i, i));
        }
        let mut out = Vec::new();
        let stats = ring.drain_into(&mut out);
        assert_eq!(stats.drained + stats.dropped, 20);
        assert_eq!(stats.drained, 8);
        assert_eq!(stats.dropped, 12);
        // The survivors are the newest 8, in order.
        let ids: Vec<u64> = out.iter().map(|e| e.request).collect();
        assert_eq!(ids, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let cfg = TraceConfig {
            seed: 42,
            sample_per_mille: 250,
            ring_capacity: 64,
        };
        let a: Vec<u64> = (0..4000).filter(|&r| cfg.sampled(r)).collect();
        let b: Vec<u64> = (0..4000).filter(|&r| cfg.sampled(r)).collect();
        assert_eq!(a, b, "same seed must sample the same set");
        assert!(
            (800..1200).contains(&a.len()),
            "250‰ of 4000 ≈ 1000, got {}",
            a.len()
        );
        let other = TraceConfig { seed: 43, ..cfg };
        let c: Vec<u64> = (0..4000).filter(|&r| other.sampled(r)).collect();
        assert_ne!(a, c, "different seeds must sample different sets");
        assert!(TraceConfig {
            sample_per_mille: 1000,
            ..cfg.clone()
        }
        .sampled(7));
        assert!(!TraceConfig {
            sample_per_mille: 0,
            ..cfg
        }
        .sampled(7));
    }

    #[test]
    fn kernel_profiler_records_only_when_enabled() {
        reset_kernel_profile();
        set_kernel_profiling(false);
        {
            let _t = KernelTimer::start(KernelKind::FftRows);
        }
        assert_eq!(kernel_profile().get(KernelKind::FftRows).calls, 0);
        set_kernel_profiling(true);
        {
            let _t = KernelTimer::start_attributed(KernelKind::FftRows, KernelKind::Stockham);
        }
        set_kernel_profiling(false);
        let p = kernel_profile();
        assert_eq!(p.get(KernelKind::FftRows).calls, 1);
        assert_eq!(p.get(KernelKind::Stockham).calls, 1);
        assert_eq!(
            p.get(KernelKind::FftRows).total_ns,
            p.get(KernelKind::Stockham).total_ns,
            "attribution shares the single measurement"
        );
        reset_kernel_profile();
    }
}
