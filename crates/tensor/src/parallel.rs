//! Batch and kernel parallelism on persistent worker pools.
//!
//! DONN training parallelizes naturally over the *batch* dimension: each
//! sample's forward/backward pass is independent given shared read-only
//! parameters. Earlier revisions spawned a fresh set of scoped threads
//! (crossbeam) on every [`par_map`] call, which costs two syscalls plus a
//! stack allocation per worker per batch — measurable at emulation batch
//! rates. This module instead keeps **persistent worker pools**:
//!
//! * The lazily-initialized **process-global pool** serves [`par_for`]
//!   and [`par_map`] — training, FFT row/column loops, and anything else
//!   that does not ask for isolation.
//! * [`PoolPartition`] carves out a **dedicated, disjoint worker set** with
//!   its own job slot, driven through [`PoolPartition::par_chunks_mut`].
//!   Partitions never contend with the global pool or with each other,
//!   which is what lets latency-sensitive serving shards co-exist with
//!   long training jobs in one process (the head-of-line blocking the
//!   single shared job slot used to impose).
//!
//! Mechanics shared by the global pool and every partition:
//!
//! * Workers are spawned once and sleep on a condvar between jobs.
//! * A job is `(closure, atomic index, length)`; workers and the calling
//!   thread race on the atomic to claim indices (work stealing over an
//!   atomic counter), so imbalanced items self-balance.
//! * The caller always participates, clears the job, and blocks until every
//!   worker has retired before returning, which is what makes lending
//!   stack-borrowing closures to worker threads sound.
//! * Nested parallel calls (from inside a worker, or from inside an already
//!   parallel region on the caller) degrade to sequential execution instead
//!   of deadlocking; the FFT row/column loops rely on this when invoked
//!   under batch parallelism.
//! * Concurrent **top-level** callers serialize on the pool's single job
//!   slot: the loser blocks until the slot frees and then runs its own job
//!   on the pool. A caller that must not wait behind another top-level job
//!   (a serving dispatcher next to a training loop) owns a partition.
//!
//! ## Panic containment
//!
//! A panic raised by a job closure **never kills a pool worker and never
//! wedges the pool**. Each index runs under `catch_unwind` on whichever
//! thread claimed it; the first panic marks the job poisoned and drains
//! the remaining indices so the job still terminates, the completion
//! barrier still retires every worker (workers stay parked on their
//! condvar, not dead), and the panic is re-raised **exactly once, on the
//! submitting thread** after the barrier. Callers that must survive a
//! panicking job (the serving dispatcher) wrap the *submission* in their
//! own `catch_unwind` and treat the re-raise as that job's failure; the
//! pool itself is immediately reusable for the next job either way.
//! Covered by `worker_panic_propagates_to_caller` (global pool) and
//! `partition_survives_panicking_job` (partitions).
//!
//! Results are written by item index, so `par_map` output is **identical
//! for any thread count** — determinism is covered by the test suite.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of worker threads used by [`par_map`] and friends (callers plus
/// pool workers).
///
/// Defaults to the machine's available parallelism; override with
/// [`set_threads`] (the single-thread setting is the "CPU baseline"
/// configuration in the runtime benches).
pub fn threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count (`0` restores the default).
pub fn set_threads(n: usize) {
    CONFIGURED_THREADS.store(n, Ordering::Relaxed);
}

thread_local! {
    /// True while this thread is executing inside a parallel region (either
    /// as a pool worker or as a caller driving a job). Nested parallel calls
    /// check it and run sequentially.
    static IN_PARALLEL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True if the current thread is already inside a parallel region.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(|f| f.get())
}

/// Shared, lifetime-erased view of one job. The caller guarantees (by
/// blocking until `running == 0`) that these pointers outlive every use.
#[derive(Clone, Copy)]
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    next: *const AtomicUsize,
    panicked: *const AtomicBool,
    len: usize,
    /// Maximum number of pool workers that may join this job.
    worker_limit: usize,
}

// SAFETY: the pointers are dereferenced only between job publication and the
// caller's running==0 barrier, during which the referents are alive.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped on every published job so sleeping workers can tell old from new.
    generation: u64,
    job: Option<Job>,
    /// Pool workers currently holding a copy of `job`.
    running: usize,
    /// Set when the owning [`PoolPartition`] is dropped; workers exit.
    shutdown: bool,
}

/// One pool instance: the process-global pool and every [`PoolPartition`]
/// are each a `PoolCore` with their own workers and job slot.
struct PoolCore {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// True while a job owns this pool's single job slot: a second
    /// top-level caller must not publish (it would overwrite the live job
    /// and race the completion barrier). Contenders **block** on
    /// `submission_cv` until the slot frees up and then run on the pool
    /// themselves — a long-lived dispatcher thread submits jobs back to
    /// back and must not silently degrade to sequential execution
    /// whenever another top-level caller is mid-job. Blocking here is
    /// deadlock-free: the slot is only ever taken by top-level callers
    /// (nested calls short-circuit in [`must_run_sequential`] before
    /// reaching the pool), and the holder retires its job without needing
    /// any waiter to make progress.
    submission: Mutex<bool>,
    submission_cv: Condvar,
    /// Number of spawned worker threads (callers add one more).
    workers: usize,
}

impl PoolCore {
    fn new(workers: usize) -> Self {
        PoolCore {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                running: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submission: Mutex::new(false),
            submission_cv: Condvar::new(),
            workers,
        }
    }

    /// Claims the job slot, blocking until it is free.
    fn acquire_submission(&self) {
        let mut busy = self
            .submission
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *busy {
            busy = self
                .submission_cv
                .wait(busy)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *busy = true;
    }

    fn release_submission(&self) {
        let mut busy = self
            .submission
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *busy = false;
        drop(busy);
        self.submission_cv.notify_one();
    }
}

fn global_pool() -> &'static Arc<PoolCore> {
    static POOL: OnceLock<Arc<PoolCore>> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .saturating_sub(1);
        let core = Arc::new(PoolCore::new(workers));
        for i in 0..workers {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("lr-pool-{i}"))
                .spawn(move || worker_loop(core))
                .expect("failed to spawn pool worker");
        }
        core
    })
}

fn lock(core: &PoolCore) -> std::sync::MutexGuard<'_, PoolState> {
    core.state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(core: Arc<PoolCore>) {
    IN_PARALLEL_REGION.with(|f| f.set(true));
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = lock(&core);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    if let Some(job) = st.job {
                        if st.running < job.worker_limit {
                            st.running += 1;
                            break job;
                        }
                    }
                }
                st = core
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: `running` was incremented under the lock, so the caller's
        // completion barrier keeps these referents alive while we run.
        let func = unsafe { &*job.func };
        // SAFETY: same lifetime argument as `func` above.
        let next = unsafe { &*job.next };
        // SAFETY: same lifetime argument as `func` above.
        let panicked = unsafe { &*job.panicked };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= job.len {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| func(i))).is_err() {
                panicked.store(true, Ordering::Relaxed);
                // Drain the remaining indices so the job still terminates.
                next.store(job.len, Ordering::Relaxed);
                break;
            }
        }
        let mut st = lock(&core);
        st.running -= 1;
        if st.running == 0 {
            core.done_cv.notify_all();
        }
    }
}

/// Clears the published job and blocks until no worker still holds it.
/// Runs from `Drop` so the barrier also holds when the caller's own closure
/// panics mid-job (the borrowed stack frame must not unwind away first).
struct CompletionBarrier<'a> {
    core: &'a PoolCore,
}

impl Drop for CompletionBarrier<'_> {
    fn drop(&mut self) {
        let mut st = lock(self.core);
        st.job = None;
        while st.running > 0 {
            st = self
                .core
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Frees the job slot on scope exit (including unwind).
struct SubmissionGuard<'a> {
    core: &'a PoolCore,
}

impl Drop for SubmissionGuard<'_> {
    fn drop(&mut self) {
        self.core.release_submission();
    }
}

/// Runs `f(0..len)` on `core` with up to `extra_workers` pool threads
/// assisting the calling thread. Blocks until every index has been
/// executed, and returns whether any worker panicked.
fn run_job(core: &PoolCore, len: usize, extra_workers: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
    // One job at a time: a concurrent top-level caller would overwrite the
    // job slot and have its job cancelled by our completion barrier.
    // Contended callers wait for the slot instead of degrading to a
    // sequential loop (see the `submission` field docs for why blocking is
    // sound here).
    core.acquire_submission();
    let _submission = SubmissionGuard { core };
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    // SAFETY: lifetime erasure only; the completion barrier below (dropped
    // even on unwind) guarantees no worker touches the pointers afterwards.
    let func: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    {
        let mut st = lock(core);
        st.generation += 1;
        st.job = Some(Job {
            func,
            next: &next,
            panicked: &panicked,
            len,
            worker_limit: extra_workers.min(core.workers),
        });
        core.work_cv.notify_all();
    }
    let barrier = CompletionBarrier { core };
    IN_PARALLEL_REGION.with(|flag| flag.set(true));
    let caller_region = CallerRegionReset;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            break;
        }
        f(i);
    }
    drop(caller_region);
    drop(barrier);
    panicked.load(Ordering::Relaxed)
}

/// Resets the caller's parallel-region flag even on unwind.
struct CallerRegionReset;

impl Drop for CallerRegionReset {
    fn drop(&mut self) {
        IN_PARALLEL_REGION.with(|flag| flag.set(false));
    }
}

/// True when a parallel call should degrade to a sequential loop.
fn must_run_sequential(len: usize) -> bool {
    len <= 1 || threads() <= 1 || in_parallel_region()
}

/// Drives `f(0..len)` on `core` with `total_threads` participants (caller
/// included), propagating worker panics. The caller has already ruled out
/// the sequential path.
fn pooled_for(core: &PoolCore, total_threads: usize, len: usize, f: &(dyn Fn(usize) + Sync)) {
    let workers = total_threads.min(len);
    if run_job(core, len, workers - 1, f) {
        panic!("worker thread panicked");
    }
}

/// Runs `f` for every index in `0..len`, possibly in parallel on the
/// persistent global pool. This is the primitive behind [`par_map`] and the
/// FFT row/column loops; `f` observes each index exactly once, in no
/// particular order.
///
/// # Panics
///
/// Propagates (as a panic) any panic raised by `f` on a worker thread.
pub fn par_for<F>(len: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if must_run_sequential(len) {
        for i in 0..len {
            f(i);
        }
        return;
    }
    pooled_for(global_pool(), threads(), len, &f);
}

/// Applies `f` to every item index in `0..len`, in parallel, collecting
/// results in order.
///
/// `f` must be `Sync` because multiple worker threads call it concurrently.
/// Falls back to a sequential loop when one thread suffices. Results are
/// identical for any thread count (each index is computed exactly once and
/// written to its own slot).
pub fn par_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if must_run_sequential(len) {
        return (0..len).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let write = |i: usize| {
        let out_ptr = &out_ptr; // capture the Sync wrapper, not the raw field
        let value = f(i);
        // SAFETY: each index i is claimed by exactly one thread via the
        // atomic work counter, so no two threads write the same slot, and
        // the vector outlives the job's completion barrier.
        unsafe {
            *out_ptr.0.add(i) = Some(value);
        }
    };
    pooled_for(global_pool(), threads(), len, &write);
    out.into_iter()
        .map(|v| v.expect("all slots filled"))
        .collect()
}

/// A **dedicated, disjoint partition** of worker threads with its own job
/// slot, isolated from the global pool and from every other partition.
///
/// Jobs submitted to a partition never contend with — and are never blocked
/// by — jobs on the global pool or sibling partitions; the `lr-serve`
/// sharded runtime gives each serving shard one partition so a long
/// training batch on the global pool cannot head-of-line-block request
/// batches. Worker threads are spawned at construction and joined on
/// [`Drop`].
///
/// A partition of zero workers owns no threads: its
/// [`PoolPartition::par_chunks_mut`] runs inline on the caller (the right
/// configuration for single-core boxes and the zero-allocation contract
/// tests).
pub struct PoolPartition {
    core: Arc<PoolCore>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for PoolPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolPartition")
            .field("width", &self.core.workers)
            .finish()
    }
}

impl PoolPartition {
    /// Spawns a partition owning `workers` dedicated threads (callers add
    /// one more when driving a job).
    pub fn new(workers: usize) -> PoolPartition {
        let core = Arc::new(PoolCore::new(workers));
        let handles = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("lr-part-{i}"))
                    .spawn(move || worker_loop(core))
                    .expect("failed to spawn partition worker")
            })
            .collect();
        PoolPartition { core, handles }
    }

    /// Threads that participate in one of this partition's jobs: the
    /// dedicated workers plus the submitting caller.
    pub fn threads(&self) -> usize {
        self.core.workers + 1
    }

    /// Applies `f` to every item of `items` in place, in parallel on this
    /// partition's workers and the calling thread. Runs inline when the
    /// partition owns no threads, there is at most one item, or the caller
    /// is already inside a parallel region.
    ///
    /// # Panics
    ///
    /// Propagates (as a panic) any panic raised by `f` on a worker thread.
    pub fn par_chunks_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let len = items.len();
        if len <= 1 || self.core.workers == 0 || in_parallel_region() {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let base = SendPtr(items.as_mut_ptr());
        let apply = |i: usize| {
            let base = &base; // capture the Sync wrapper, not the raw field
                              // SAFETY: disjoint indices, claimed once each.
            let item = unsafe { &mut *base.0.add(i) };
            f(i, item);
        };
        pooled_for(&self.core, self.threads(), len, &apply);
    }
}

impl Drop for PoolPartition {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.core);
            st.shutdown = true;
        }
        self.core.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced at indices claimed through the
// atomic work counter, guaranteeing exclusive access per slot.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same per-slot exclusivity argument as `Send` above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Serializes tests that mutate the process-global thread count
/// ([`set_threads`]) so they cannot race each other when the test harness
/// runs them concurrently.
#[cfg(test)]
pub(crate) fn thread_count_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let result = par_map(100, |i| i * i);
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_chunks_mut_updates_all() {
        let part = PoolPartition::new(2);
        let mut v = vec![0usize; 64];
        part.par_chunks_mut(&mut v, |i, x| *x = i * 3);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    #[test]
    fn par_for_visits_every_index_once() {
        let counts: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        par_for(counts.len(), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn thread_override_roundtrip() {
        let _guard = thread_count_test_guard();
        let default = threads();
        assert!(default >= 1);
        set_threads(1);
        assert_eq!(threads(), 1);
        let r = par_map(16, |i| i + 1);
        assert_eq!(r[15], 16);
        set_threads(0);
        assert_eq!(threads(), default);
    }

    #[test]
    fn nested_parallel_calls_degrade_gracefully() {
        // par_map inside par_map must not deadlock: the inner call detects
        // the parallel region and runs sequentially.
        let outer = par_map(8, |i| par_map(8, move |j| i * 8 + j).iter().sum::<usize>());
        let expected: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(outer, expected);
    }

    #[test]
    fn pool_survives_many_jobs() {
        // Exercises job-generation handling: many small jobs back to back.
        for round in 0..200 {
            let v = par_map(17, move |i| i + round);
            assert_eq!(v[0], round);
            assert_eq!(v[16], 16 + round);
        }
    }

    #[test]
    fn long_lived_dispatcher_submits_repeatedly_under_contention() {
        // Regression test for the submission guard: a dedicated
        // dispatcher thread (like the lr-serve batcher) submits jobs back
        // to back while other top-level threads also submit. Contended
        // submissions must queue on the job slot — not deadlock, not lose
        // work — and every job must produce exact results.
        let _guard = thread_count_test_guard();
        set_threads(4); // force the pooled path even on single-core boxes
        let dispatcher = std::thread::spawn(|| {
            for round in 0..150usize {
                let v = par_map(33, move |i| i * 2 + round);
                assert_eq!(v[0], round);
                assert_eq!(v[32], 64 + round);
            }
        });
        let side = std::thread::spawn(|| {
            for round in 0..150usize {
                let buf: Vec<AtomicUsize> = (0..29).map(|_| AtomicUsize::new(0)).collect();
                par_for(buf.len(), |i| buf[i].store(i + round, Ordering::Relaxed));
                assert_eq!(buf[28].load(Ordering::Relaxed), 28 + round);
            }
        });
        for round in 0..150usize {
            let v = par_map(17, |i| i + 3 * round);
            assert_eq!(v[16], 16 + 3 * round);
        }
        dispatcher.join().expect("dispatcher thread must finish");
        side.join().expect("side thread must finish");
        set_threads(0);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            par_map(64, |i| {
                assert!(i != 13, "boom");
                i
            })
        });
        assert!(result.is_err(), "panic in a parallel item must propagate");
        // The pool must still be usable afterwards.
        assert_eq!(par_map(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn partition_runs_jobs_and_matches_sequential() {
        let part = PoolPartition::new(2);
        assert_eq!(part.threads(), 3);
        let mut v = vec![0usize; 37];
        part.par_chunks_mut(&mut v, |i, x| *x = i * 5);
        let expected: Vec<usize> = (0..37).map(|i| i * 5).collect();
        assert_eq!(v, expected);
        let mut visits = vec![0usize; 64];
        part.par_chunks_mut(&mut visits, |_, x| *x += 1);
        assert!(visits.iter().all(|&x| x == 1));
    }

    #[test]
    fn partition_survives_panicking_job() {
        // One panicking job must re-raise exactly once on the submitter
        // and leave the partition's workers alive and parked: the next
        // jobs run normally on the same partition.
        let part = PoolPartition::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            part.par_chunks_mut(&mut [0usize; 32], |i, _| {
                assert!(i != 17, "boom");
            });
        }));
        assert!(result.is_err(), "panic in a partition item must propagate");
        for _ in 0..3 {
            let mut v = vec![0usize; 16];
            part.par_chunks_mut(&mut v, |i, x| *x = i + 1);
            assert_eq!(v, (1..=16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_width_partition_runs_inline() {
        let part = PoolPartition::new(0);
        assert_eq!(part.threads(), 1);
        let caller = std::thread::current().id();
        let mut ran_on = vec![None; 9];
        part.par_chunks_mut(&mut ran_on, |_, t| *t = Some(std::thread::current().id()));
        assert!(ran_on.iter().all(|&t| t == Some(caller)));
    }

    #[test]
    fn partitions_are_isolated_from_each_other() {
        // A slow job on partition A must not delay a job on partition B:
        // B's jobs complete while A's job is still running.
        let a = PoolPartition::new(1);
        let b = PoolPartition::new(1);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| {
                a.par_chunks_mut(&mut [(); 2], |_, _| {
                    while !release.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                });
            });
            // While A is blocked, B must make progress.
            for round in 0..20usize {
                let mut v = vec![0usize; 8];
                b.par_chunks_mut(&mut v, |i, x| *x = i + round);
                assert_eq!(v[7], 7 + round);
            }
            release.store(true, Ordering::Relaxed);
            slow.join().expect("slow partition job must finish");
        });
    }

    #[test]
    fn partition_is_isolated_from_global_pool() {
        let _guard = thread_count_test_guard();
        set_threads(4); // force the global pooled path even on 1 core
        let part = PoolPartition::new(1);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let global_job = scope.spawn(|| {
                par_for(4, |_| {
                    while !release.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                });
            });
            // The global job slot is held indefinitely; partition jobs must
            // still complete immediately.
            for round in 0..20usize {
                let mut v = vec![0usize; 8];
                part.par_chunks_mut(&mut v, |i, x| *x = i * 2 + round);
                assert_eq!(v[7], 14 + round);
            }
            release.store(true, Ordering::Relaxed);
            global_job.join().expect("global job must finish");
        });
        set_threads(0);
    }

    #[test]
    fn dropping_partition_joins_workers() {
        let part = PoolPartition::new(3);
        let mut v = vec![0usize; 16];
        part.par_chunks_mut(&mut v, |i, x| *x = i);
        assert_eq!(v[15], 15);
        drop(part); // must not hang
    }
}
