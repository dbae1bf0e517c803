//! Serving metrics: allocation-free recording on the request path, with
//! quantile summaries computed only at snapshot time.
//!
//! The latency histogram is HDR-style: fixed log₂ octaves subdivided into
//! 8 linear sub-buckets, giving ≤ ~12% relative quantile error across the
//! full nanosecond-to-days range with a constant 384-slot array of
//! atomics — recording is two shifts, a mask, and one `fetch_add`, and
//! never allocates (part of the serve-path zero-allocation contract).
//! Values past the top bucket clamp into it but bump an overflow counter
//! surfaced in [`LatencySummary::overflow`], so saturation is never
//! silent.
//!
//! The sharded runtime keeps **per-shard** counters and histograms (fixed
//! at server start) next to the global ones, so imbalance, stealing, and
//! per-shard tail latency are observable. Per-model counters grow with
//! live registration: the counter vector sits behind an `ArcSwap`, so the
//! recording path is still a snapshot load plus one `fetch_add` and never
//! allocates.
//!
//! # Ordering audit (all 47 `Relaxed` sites)
//!
//! Every atomic access in this module is `Ordering::Relaxed`, and the
//! concurrency audit (`docs/CONCURRENCY.md`) confirmed that is correct
//! for all of them. They fall into exactly two classes:
//!
//! * **Monotone statistic bumps** (`fetch_add`/`fetch_max` on counters,
//!   histogram buckets, `sum_ns`, `max_ns`): each counter is an
//!   independent statistic. No reader infers the state of *other* memory
//!   from a counter value — counters gate nothing — so no
//!   acquire/release edge is needed, and RMW atomicity alone guarantees
//!   no lost updates.
//! * **Snapshot reads** (`load` in `snapshot`, `summary`,
//!   `quantile_ns`): a snapshot taken while recorders run is allowed to
//!   be skewed *across* counters (e.g. `completed` read before a racing
//!   bump, `batches` after). The one place where intra-structure
//!   consistency matters — the quantile scan — derives its rank target
//!   from one pass over the same bucket snapshot it scans, so the result
//!   is always a value that was actually recorded; the
//!   `histogram_quantile_consistent_under_concurrent_records` model test
//!   in `crates/check` pins that property under exhaustive interleaving.
//!
//! Nothing in this module publishes data that other threads then read
//! through a non-atomic path, which is the situation that would demand
//! `Release`/`Acquire` (contrast `crate::drain`, where the audit *did*
//! strengthen an ordering for exactly that reason).

use crate::registry::ModelId;
use crate::sync::{AtomicU64, Ordering};
use arc_swap::ArcSwap;
use std::sync::Arc;
use std::time::Instant;

/// Sub-buckets per octave (3 bits of mantissa below the leading bit).
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Values below `SUBS` get exact unit buckets. 384 buckets cover octaves
/// up through 49 — every value below 2⁵⁰ ns (≈ 13 days) lands in a real
/// bucket; anything past that clamps into the top bucket **and** bumps
/// the overflow counter, so top-bucket saturation is never silent.
#[cfg(not(loom))]
const BUCKETS: usize = 384;
/// Model-checker builds shrink the histogram to the unit buckets plus
/// one octave (values 0–15 ns stay exact) so a quantile scan is a
/// handful of scheduling points instead of 384; the record/quantile
/// protocol under test is unchanged.
#[cfg(loom)]
const BUCKETS: usize = 2 * SUBS;

/// A fixed-size log-linear latency histogram with atomic buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Samples whose value exceeded the top bucket's range (they clamp
    /// into the top bucket for quantile purposes, but the saturation is
    /// surfaced via [`LatencySummary::overflow`] instead of being silent).
    overflow: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Raw (unclamped) bucket index: `>= BUCKETS` means the value
    /// overflows the histogram's range.
    fn index_for(ns: u64) -> usize {
        if ns < SUBS as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let sub = ((ns >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        SUBS + (octave - SUB_BITS) as usize * SUBS + sub
    }

    /// Representative (midpoint) value of bucket `idx`.
    fn value_for(idx: usize) -> u64 {
        if idx < SUBS {
            return idx as u64;
        }
        let rel = idx - SUBS;
        let octave = (rel / SUBS) as u32 + SUB_BITS;
        let sub = (rel % SUBS) as u64;
        let base = 1u64 << octave;
        let step = base >> SUB_BITS;
        base + sub * step + step / 2
    }

    /// Records one latency sample, in nanoseconds. Never allocates.
    pub fn record(&self, ns: u64) {
        let idx = Self::index_for(ns);
        if idx >= BUCKETS {
            // Past the top bucket (≥ 2⁵⁰ ns): clamp for quantiles, but
            // never silently — the serve suites assert this stays 0.
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.buckets[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Samples that clamped into the top bucket (value ≥ 2⁵⁰ ns).
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Approximate latency at quantile `q ∈ [0, 1]`, in nanoseconds
    /// (0 when nothing has been recorded).
    ///
    /// Race-consistent under concurrent [`LatencyHistogram::record`]s: the
    /// total is derived from a single pass over the very bucket values the
    /// scan walks (one fixed-size stack copy — no allocation), so the
    /// target rank always lies inside the scanned mass. Loading `count`
    /// separately used to let a racing record leave `seen < target` at
    /// the end of the scan, spuriously reporting the max for mid
    /// quantiles.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut counts = [0u64; BUCKETS];
        let mut total = 0u64;
        for (snap, bucket) in counts.iter_mut().zip(self.buckets.iter()) {
            *snap = bucket.load(Ordering::Relaxed);
            total += *snap;
        }
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::value_for(idx).min(self.max_ns.load(Ordering::Relaxed));
            }
        }
        unreachable!("target ≤ total, so the scan must reach it")
    }

    /// Summarizes the distribution.
    pub fn summary(&self) -> LatencySummary {
        let count = self.count();
        LatencySummary {
            count,
            mean_ns: if count == 0 {
                0.0
            } else {
                self.sum_ns.load(Ordering::Relaxed) as f64 / count as f64
            },
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            overflow: self.overflow(),
        }
    }
}

/// Point-in-time latency distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// Median latency (ns, approximate).
    pub p50_ns: u64,
    /// 95th-percentile latency (ns, approximate).
    pub p95_ns: u64,
    /// 99th-percentile latency (ns, approximate).
    pub p99_ns: u64,
    /// Worst observed latency (ns, exact).
    pub max_ns: u64,
    /// Samples past the histogram's top bucket (≥ 2⁵⁰ ns). They clamp
    /// into the top bucket for quantile purposes; a nonzero value means
    /// the quantiles above p50 are untrustworthy. The serve suites
    /// assert this stays 0.
    pub overflow: u64,
}

/// Per-stage latency breakdown of completed requests: every request's
/// end-to-end latency is decomposed into four disjoint intervals that sum
/// exactly to it — admit → dequeue (`queue_wait`), dequeue → forward
/// start (`staging`, includes the deadline sweep, staged-batch publish,
/// delivery processing, and input staging), the batched `forward`
/// itself, and forward end → client woken (`respond`). Always on:
/// recording is four histogram updates per completed request,
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageLatency {
    /// Admit → drained out of the shard queue.
    pub queue_wait: LatencySummary,
    /// Drained → batched forward started.
    pub staging: LatencySummary,
    /// The batched forward execution.
    pub forward: LatencySummary,
    /// Forward done → logits written back and the client woken.
    pub respond: LatencySummary,
}

/// The recording half of [`StageLatency`]: four always-on histograms.
#[derive(Debug)]
struct StageHistograms {
    queue_wait: LatencyHistogram,
    staging: LatencyHistogram,
    forward: LatencyHistogram,
    respond: LatencyHistogram,
}

impl StageHistograms {
    fn new() -> Self {
        StageHistograms {
            queue_wait: LatencyHistogram::new(),
            staging: LatencyHistogram::new(),
            forward: LatencyHistogram::new(),
            respond: LatencyHistogram::new(),
        }
    }

    fn record(&self, queue_ns: u64, staging_ns: u64, forward_ns: u64, respond_ns: u64) {
        self.queue_wait.record(queue_ns);
        self.staging.record(staging_ns);
        self.forward.record(forward_ns);
        self.respond.record(respond_ns);
    }

    fn summary(&self) -> StageLatency {
        StageLatency {
            queue_wait: self.queue_wait.summary(),
            staging: self.staging.summary(),
            forward: self.forward.summary(),
            respond: self.respond.summary(),
        }
    }
}

/// Per-model served-request counters in a [`ServerStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// Registered model name.
    pub name: String,
    /// Registered model version.
    pub version: u32,
    /// Requests completed for this model.
    pub completed: u64,
}

/// Per-shard counters and latency distribution in a [`ServerStats`]
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index (dispatcher number).
    pub shard: usize,
    /// Requests this shard's dispatcher completed.
    pub completed: u64,
    /// Micro-batches this shard executed.
    pub batches: u64,
    /// Requests this shard stole from hot siblings' queues.
    pub stolen: u64,
    /// End-to-end latency distribution of requests completed by this shard.
    pub latency: LatencySummary,
    /// Per-stage decomposition of this shard's completed requests.
    pub stage_latency: StageLatency,
}

/// Point-in-time snapshot of the serving runtime's health.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Registry epoch at snapshot time (bumped by every live
    /// registration or retirement).
    pub epoch: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests refused at admission (queue full under
    /// [`crate::AdmissionPolicy::RejectNew`], or a per-model cap).
    pub rejected: u64,
    /// Queued requests dropped to make room
    /// ([`crate::AdmissionPolicy::ShedOldest`]).
    pub shed: u64,
    /// Always 0: no batch waits on a shared pool any more. Kept for
    /// perfbench until ROADMAP item 2.
    pub pool_timeouts: u64,
    /// Requests failed with [`crate::ServeError::Deadline`]: refused at
    /// admission already expired, or skipped by a dispatcher because
    /// their deadline passed while they were queued.
    pub deadline_expired: u64,
    /// Serving panics contained by the per-run isolation (each failed
    /// only its own same-model run with
    /// [`crate::ServeError::WorkerPanic`] and triggered a workspace
    /// rebuild).
    pub worker_panics: u64,
    /// Models quarantined after
    /// [`crate::BatchPolicy::quarantine_after`] consecutive panics.
    pub quarantined_models: u64,
    /// Dispatcher threads found dead and respawned by the supervisor
    /// (their staged requests were resolved with
    /// [`crate::ServeError::ChannelClosed`], never left hanging).
    pub dispatcher_respawns: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean requests per executed micro-batch.
    pub mean_batch_size: f64,
    /// Requests served through **batched forwards** (staged batch
    /// execution on a variant's `BatchWorkspace`). Every completed request
    /// runs this way, emulated or physical, so this equals `completed`.
    pub batched_samples: u64,
    /// Batched forward executions (one per same-model run of a drained
    /// micro-batch). `batched_samples / batch_executions` is the mean
    /// executed-batch size — the end-to-end observability hook for the
    /// micro-batcher's coalescing.
    pub batch_executions: u64,
    /// Mean samples per batched forward execution (0 when none ran).
    pub mean_executed_batch: f64,
    /// Completed requests per second of uptime.
    pub throughput_rps: f64,
    /// End-to-end (enqueue → response ready) latency distribution.
    pub latency: LatencySummary,
    /// Per-stage decomposition of the end-to-end latency: the four
    /// intervals sum exactly to `latency` per request, so the stage p50s
    /// sum to the end-to-end p50 within HDR quantization error.
    pub stage_latency: StageLatency,
    /// Heap bytes currently resident in per-worker model workspaces
    /// across every shard. Grows with (live) registration, shrinks when
    /// [`crate::Server::reclaim`] drops a retired model's workspaces —
    /// flat across a register→retire→reclaim churn loop.
    pub resident_workspace_bytes: u64,
    /// Models whose memory has been reclaimed since the server started.
    pub reclaimed_models: u64,
    /// Per-worker workspace bytes freed by reclaims since start.
    pub reclaimed_bytes: u64,
    /// Orphaned cache entries (transfer kernels + FFT plans) evicted by
    /// registry-tied sweeps since start.
    pub swept_cache_entries: u64,
    /// Diffraction transfer kernels currently in the process-global cache.
    pub transfer_cache_entries: usize,
    /// FFT plans currently in the process-global cache.
    pub fft_plan_cache_entries: usize,
    /// Per-model completion counters for **live** models, in id order.
    pub per_model: Vec<ModelStats>,
    /// Per-shard dispatcher counters, in shard order.
    pub per_shard: Vec<ShardStats>,
}

/// One shard's recording cells.
#[derive(Debug)]
struct ShardMetrics {
    completed: AtomicU64,
    batches: AtomicU64,
    stolen: AtomicU64,
    latency: LatencyHistogram,
    stage: StageHistograms,
}

impl ShardMetrics {
    fn new() -> Self {
        ShardMetrics {
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            stage: StageHistograms::new(),
        }
    }
}

/// Shared counters the serve path records into. All operations on the
/// request path are single atomic updates (plus one `ArcSwap` snapshot
/// load for the growable per-model vector).
#[derive(Debug)]
pub(crate) struct MetricsCore {
    started: Instant,
    pub(crate) latency: LatencyHistogram,
    stage: StageHistograms,
    completed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    worker_panics: AtomicU64,
    quarantined_models: AtomicU64,
    dispatcher_respawns: AtomicU64,
    batches: AtomicU64,
    batched_samples: AtomicU64,
    batch_executions: AtomicU64,
    reclaimed_models: AtomicU64,
    reclaimed_bytes: AtomicU64,
    swept_cache_entries: AtomicU64,
    /// Grown (snapshot-swapped) under the registry write lock; loaded
    /// per record on the request path (an `Arc` clone — no allocation).
    per_model_completed: ArcSwap<Vec<Arc<AtomicU64>>>,
    shards: Vec<ShardMetrics>,
}

impl MetricsCore {
    pub(crate) fn new(num_models: usize, num_shards: usize) -> Self {
        MetricsCore {
            started: Instant::now(),
            latency: LatencyHistogram::new(),
            stage: StageHistograms::new(),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            quarantined_models: AtomicU64::new(0),
            dispatcher_respawns: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_samples: AtomicU64::new(0),
            batch_executions: AtomicU64::new(0),
            reclaimed_models: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            swept_cache_entries: AtomicU64::new(0),
            per_model_completed: ArcSwap::from_pointee(
                (0..num_models)
                    .map(|_| Arc::new(AtomicU64::new(0)))
                    .collect(),
            ),
            shards: (0..num_shards).map(|_| ShardMetrics::new()).collect(),
        }
    }

    /// Appends one per-model counter slot. Call only under the registry
    /// write lock, before the new model's snapshot is published.
    pub(crate) fn grow_models(&self) {
        let current = self.per_model_completed.load_full();
        let mut next = Vec::with_capacity(current.len() + 1);
        next.extend(current.iter().cloned());
        next.push(Arc::new(AtomicU64::new(0)));
        self.per_model_completed.store(Arc::new(next));
    }

    pub(crate) fn record_completed(&self, shard: usize, model_idx: usize, latency_ns: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.per_model_completed.load_full()[model_idx].fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_ns);
        let sh = &self.shards[shard];
        sh.completed.fetch_add(1, Ordering::Relaxed);
        sh.latency.record(latency_ns);
    }

    /// Records one completed request's per-stage decomposition (global +
    /// per-shard). Always on; four histogram updates, allocation-free.
    pub(crate) fn record_stages(
        &self,
        shard: usize,
        queue_ns: u64,
        staging_ns: u64,
        forward_ns: u64,
        respond_ns: u64,
    ) {
        self.stage
            .record(queue_ns, staging_ns, forward_ns, respond_ns);
        self.shards[shard]
            .stage
            .record(queue_ns, staging_ns, forward_ns, respond_ns);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_quarantined(&self) {
        self.quarantined_models.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dispatcher_respawn(&self) {
        self.dispatcher_respawns.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reclaimed_model(&self) {
        self.reclaimed_models.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reclaimed_bytes(&self, bytes: u64) {
        self.reclaimed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_swept(&self, entries: u64) {
        self.swept_cache_entries
            .fetch_add(entries, Ordering::Relaxed);
    }

    /// Records one batched forward execution of `samples` requests.
    pub(crate) fn record_batched_execution(&self, samples: u64) {
        self.batched_samples.fetch_add(samples, Ordering::Relaxed);
        self.batch_executions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, shard: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.shards[shard].batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_stolen(&self, shard: usize, n: u64) {
        self.shards[shard].stolen.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshots the counters. `live` lists the live models as
    /// `(id, name, version)` in id order; `epoch` is the registry epoch;
    /// `resident_workspace_bytes` comes from the server's per-model
    /// accounting. Cache occupancy is read from the process-global caches
    /// at snapshot time.
    pub(crate) fn snapshot(
        &self,
        epoch: u64,
        live: &[(ModelId, String, u32)],
        resident_workspace_bytes: u64,
    ) -> ServerStats {
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_samples = self.batched_samples.load(Ordering::Relaxed);
        let batch_executions = self.batch_executions.load(Ordering::Relaxed);
        let uptime = self.started.elapsed().as_secs_f64().max(1e-12);
        let per_model_completed = self.per_model_completed.load_full();
        ServerStats {
            uptime_secs: uptime,
            epoch,
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            pool_timeouts: 0,
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            quarantined_models: self.quarantined_models.load(Ordering::Relaxed),
            dispatcher_respawns: self.dispatcher_respawns.load(Ordering::Relaxed),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            batched_samples,
            batch_executions,
            mean_executed_batch: if batch_executions == 0 {
                0.0
            } else {
                batched_samples as f64 / batch_executions as f64
            },
            throughput_rps: completed as f64 / uptime,
            latency: self.latency.summary(),
            stage_latency: self.stage.summary(),
            resident_workspace_bytes,
            reclaimed_models: self.reclaimed_models.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
            swept_cache_entries: self.swept_cache_entries.load(Ordering::Relaxed),
            transfer_cache_entries: lr_optics::transfer_cache_len(),
            fft_plan_cache_entries: lr_tensor::plan_cache_len(),
            per_model: live
                .iter()
                .map(|(id, name, version)| ModelStats {
                    name: name.clone(),
                    version: *version,
                    completed: per_model_completed[id.0].load(Ordering::Relaxed),
                })
                .collect(),
            per_shard: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, sh)| ShardStats {
                    shard: i,
                    completed: sh.completed.load(Ordering::Relaxed),
                    batches: sh.batches.load(Ordering::Relaxed),
                    stolen: sh.stolen.load(Ordering::Relaxed),
                    latency: sh.latency.summary(),
                    stage_latency: sh.stage.summary(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 10);
        let s = h.summary();
        // p50 near the middle of the uniform run, within HDR error.
        assert!(s.p50_ns >= 400 && s.p50_ns <= 700, "p50 = {}", s.p50_ns);
        // p99 lands in the outlier's bucket.
        assert!(s.p99_ns >= 90_000, "p99 = {}", s.p99_ns);
        assert_eq!(s.max_ns, 100_000);
        assert!(s.mean_ns > 0.0);
    }

    #[test]
    fn histogram_relative_error_bounded() {
        for exact in [37u64, 1_234, 55_555, 9_999_999, 123_456_789_012] {
            let idx = LatencyHistogram::index_for(exact);
            let rep = LatencyHistogram::value_for(idx);
            let err = (rep as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.13, "value {exact}: representative {rep}, err {err}");
        }
    }

    /// Regression test for the quantile/record race: `quantile_ns` used to
    /// compute its target rank from a `count` loaded *before* the bucket
    /// scan; a record landing between the two (or observed count-first
    /// under relaxed ordering) could leave `seen < target` at the end of
    /// the scan and spuriously report the max-bucket value. With one
    /// pre-recorded huge outlier and a storm of concurrent small records,
    /// p50 must stay in small-value territory on every read.
    #[test]
    fn quantile_is_race_consistent_under_concurrent_records() {
        let h = LatencyHistogram::new();
        h.record(1_000_000_000); // the outlier p50 must never report
        for _ in 0..64 {
            h.record(100);
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for _ in 0..200_000 {
                        h.record(100);
                    }
                });
            }
            let h = &h;
            scope.spawn(move || {
                for _ in 0..50_000 {
                    let p50 = h.quantile_ns(0.5);
                    assert!(
                        p50 < 1_000_000,
                        "p50 = {p50}: quantile scan fell off the end and reported the outlier"
                    );
                }
            });
        });
        // Sanity: the quantile still brackets the data afterwards (the
        // top quantile lands in the outlier's bucket, within HDR error).
        assert!(h.quantile_ns(0.5) <= 200);
        assert!(h.quantile_ns(1.0) >= 900_000_000);
    }

    /// Top-bucket saturation must never be silent: a value past the
    /// histogram's range clamps for quantile purposes but bumps the
    /// overflow counter surfaced in the summary.
    #[test]
    fn top_bucket_saturation_is_counted_not_silent() {
        let h = LatencyHistogram::new();
        h.record(100);
        assert_eq!(h.overflow(), 0);
        h.record(u64::MAX); // far past 2⁵⁰ ns
        h.record(1u64 << 60);
        let s = h.summary();
        assert_eq!(s.overflow, 2, "both out-of-range samples must be counted");
        assert_eq!(s.count, 3, "overflowed samples still count toward totals");
        assert_eq!(s.max_ns, u64::MAX, "max stays exact");
        // The largest in-range value still lands in a real bucket.
        let h2 = LatencyHistogram::new();
        h2.record((1u64 << 50) - 1);
        assert_eq!(h2.overflow(), 0);
    }

    #[test]
    fn stage_histograms_summarize_each_stage_independently() {
        let st = StageHistograms::new();
        for _ in 0..100 {
            st.record(1_000, 500, 10_000, 200);
        }
        let s = st.summary();
        assert_eq!(s.queue_wait.count, 100);
        assert_eq!(s.forward.count, 100);
        // Each stage's p50 sits on its own value, within HDR error.
        assert!(s.queue_wait.p50_ns >= 900 && s.queue_wait.p50_ns <= 1_100);
        assert!(s.staging.p50_ns >= 450 && s.staging.p50_ns <= 550);
        assert!(s.forward.p50_ns >= 9_000 && s.forward.p50_ns <= 11_000);
        assert!(s.respond.p50_ns >= 180 && s.respond.p50_ns <= 220);
        assert_eq!(
            s.queue_wait.overflow + s.staging.overflow + s.forward.overflow + s.respond.overflow,
            0
        );
    }

    #[test]
    fn record_stages_feeds_global_and_per_shard_breakdowns() {
        let m = MetricsCore::new(1, 2);
        m.record_stages(1, 1_000, 500, 10_000, 200);
        let s = m.snapshot(0, &[(ModelId(0), "a".to_string(), 1)], 0);
        assert_eq!(s.stage_latency.queue_wait.count, 1);
        assert_eq!(s.per_shard[0].stage_latency.queue_wait.count, 0);
        assert_eq!(s.per_shard[1].stage_latency.queue_wait.count, 1);
        assert_eq!(s.per_shard[1].stage_latency.forward.max_ns, 10_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!((s.count, s.p50_ns, s.p99_ns, s.max_ns), (0, 0, 0, 0));
        assert_eq!(s.mean_ns, 0.0);
    }

    #[test]
    fn per_shard_and_grown_model_counters_are_tracked() {
        let m = MetricsCore::new(1, 2);
        m.record_completed(0, 0, 1_000);
        m.grow_models();
        m.record_completed(1, 1, 2_000);
        m.record_batch(0);
        m.record_stolen(1, 3);
        let live = vec![
            (ModelId(0), "a".to_string(), 1),
            (ModelId(1), "a".to_string(), 2),
        ];
        let s = m.snapshot(7, &live, 12_345);
        assert_eq!(s.epoch, 7);
        assert_eq!(s.resident_workspace_bytes, 12_345);
        assert_eq!(s.reclaimed_models, 0);
        assert_eq!(s.completed, 2);
        assert_eq!(s.per_model.len(), 2);
        assert_eq!(s.per_model[0].completed, 1);
        assert_eq!(s.per_model[1].completed, 1);
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_shard[0].completed, 1);
        assert_eq!(s.per_shard[0].batches, 1);
        assert_eq!(s.per_shard[1].stolen, 3);
        assert_eq!(s.per_shard[1].latency.count, 1);
    }
}
