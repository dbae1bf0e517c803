//! Deterministic fault injection for the serving runtime.
//!
//! A [`FaultPlan`] is a **seeded, schedule-driven** fault source threaded
//! behind the runtime's seams ([`crate::BatchPolicy::faults`]). Each seam
//! asks the plan whether its fault fires *on this call*; the answer is a
//! pure function of the plan's seed, the fault kind, and that kind's call
//! ordinal — so a given plan replays the same per-seam firing schedule on
//! every run, independent of wall-clock time. Tests additionally get
//! [`FaultPlan::trigger`], which arms exactly one deterministic firing of
//! a kind regardless of its rate (the workhorse for regression tests that
//! need "the very next forward panics" or "kill the dispatcher now").
//!
//! The hooks are **zero-cost when disabled**: a server started without a
//! plan pays one branch on a `None` per seam, and a plan with a zero rate
//! and no armed trigger costs two relaxed atomic operations — no
//! allocation, no locks — so the zero-allocation steady-state contract
//! holds with a (quiet) plan installed, which is exactly how
//! `tests/zero_alloc_serve.rs` proves the post-panic rebuild returns to a
//! zero-alloc steady state.
//!
//! ## Seams
//!
//! | Kind | Seam | What the runtime must prove |
//! |------|------|-----------------------------|
//! | [`FaultKind::QueueFull`] | admission (client → shard queue) | typed rejection, no slot leak |
//! | [`FaultKind::SlowWorker`] | worker, before a forward | deadlines shed the queue behind the stall |
//! | [`FaultKind::PanicInForward`] | worker, inside a forward | only the panicking run fails; workspace rebuilt |
//! | [`FaultKind::KillDispatcher`] | dispatcher loop, batch staged | staged waiters resolve `ChannelClosed`; supervisor respawns |

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One injectable fault class, tied to a specific runtime seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside a worker's forward pass (the seam sits in the
    /// dispatcher's same-model-run executor, so the panic unwinds through
    /// exactly the path a model bug would take).
    PanicInForward,
    /// Stall a worker for [`FaultPlan::with_stall`] before its forward —
    /// the trigger for deadline expiry of the work queued behind it.
    SlowWorker,
    /// Refuse one admission as if the shard queue were at capacity.
    QueueFull,
    /// Panic the dispatcher thread itself (outside its batch-level
    /// containment), with its drained batch staged — the supervisor must
    /// resolve the staged waiters with `ChannelClosed` and respawn.
    KillDispatcher,
}

/// One past the largest [`FaultKind`] index. Index 2 belonged to a retired
/// kind and stays unused: the index salts each kind's firing schedule, so
/// keeping the others fixed keeps every seeded plan's schedule unchanged.
const KINDS: usize = 5;

impl FaultKind {
    fn index(self) -> usize {
        match self {
            FaultKind::PanicInForward => 0,
            FaultKind::SlowWorker => 1,
            FaultKind::QueueFull => 3,
            FaultKind::KillDispatcher => 4,
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of the (seed, kind,
/// ordinal) triple that decides each firing.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A seeded, schedule-driven fault source (see the module docs). Wrap in
/// an `Arc`, hand one clone to [`crate::BatchPolicy::faults`], and keep
/// another to [`FaultPlan::trigger`] faults and read back
/// [`FaultPlan::fired`] counts.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [u16; KINDS],
    stall: Duration,
    calls: [AtomicU64; KINDS],
    fired: [AtomicU64; KINDS],
    armed: [AtomicU64; KINDS],
}

impl FaultPlan {
    /// A quiet plan (every rate 0, nothing armed) for `seed`. Faults only
    /// fire once rates are set ([`FaultPlan::with_rate`]) or triggers are
    /// armed ([`FaultPlan::trigger`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0; KINDS],
            stall: Duration::from_millis(1),
            calls: Default::default(),
            fired: Default::default(),
            armed: Default::default(),
        }
    }

    /// Sets `kind` to fire on `per_mille` out of every 1000 seam calls
    /// (schedule decided by the seed; 1000 fires on every call).
    pub fn with_rate(mut self, kind: FaultKind, per_mille: u16) -> FaultPlan {
        self.rates[kind.index()] = per_mille.min(1000);
        self
    }

    /// Sets how long a [`FaultKind::SlowWorker`] firing stalls the worker.
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        self.stall = stall;
        self
    }

    /// Arms exactly one firing of `kind` on its next seam call,
    /// independent of the kind's rate. Triggers stack: arming twice fires
    /// the next two calls.
    pub fn trigger(&self, kind: FaultKind) {
        self.armed[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// How many times `kind` has fired so far (tests assert injected
    /// faults actually exercised their seam).
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.fired[kind.index()].load(Ordering::Relaxed)
    }

    /// The stall duration for [`FaultKind::SlowWorker`] firings.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// Seam-side query: does `kind` fire on this call? Consumes one armed
    /// trigger if present, else consults the seeded schedule. Never
    /// allocates.
    pub(crate) fn fires(&self, kind: FaultKind) -> bool {
        let k = kind.index();
        let mut cur = self.armed[k].load(Ordering::Relaxed);
        while cur > 0 {
            match self.armed[k].compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.fired[k].fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
        let rate = self.rates[k];
        if rate == 0 {
            return false;
        }
        let ordinal = self.calls[k].fetch_add(1, Ordering::Relaxed);
        let h = mix(self.seed ^ mix(k as u64) ^ ordinal.wrapping_mul(0x2545f4914f6cdd1d));
        if h % 1000 < u64::from(rate) {
            self.fired[k].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let plan = FaultPlan::new(7);
        for _ in 0..1000 {
            assert!(!plan.fires(FaultKind::PanicInForward));
            assert!(!plan.fires(FaultKind::QueueFull));
        }
        assert_eq!(plan.fired(FaultKind::PanicInForward), 0);
    }

    #[test]
    fn rate_schedule_is_deterministic_and_roughly_calibrated() {
        let count = |seed| {
            let plan = FaultPlan::new(seed).with_rate(FaultKind::SlowWorker, 100);
            (0..10_000)
                .filter(|_| plan.fires(FaultKind::SlowWorker))
                .count()
        };
        let a = count(42);
        let b = count(42);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(
            (500..2000).contains(&a),
            "100\u{2030} over 10k calls should fire ~1000 times, got {a}"
        );
        assert_ne!(count(43), 0);
    }

    #[test]
    fn triggers_fire_once_each_regardless_of_rate() {
        let plan = FaultPlan::new(0);
        plan.trigger(FaultKind::KillDispatcher);
        plan.trigger(FaultKind::KillDispatcher);
        assert!(plan.fires(FaultKind::KillDispatcher));
        assert!(plan.fires(FaultKind::KillDispatcher));
        assert!(!plan.fires(FaultKind::KillDispatcher));
        assert_eq!(plan.fired(FaultKind::KillDispatcher), 2);
    }

    #[test]
    fn kind_indices_keep_seeded_schedules() {
        // The first firing ordinals of the chaos suite's seed, as every
        // kind's schedule produced them while index 2 was still in use.
        let schedule = |kind, rate| {
            let plan = FaultPlan::new(0xC4A05).with_rate(kind, rate);
            (0..400u64)
                .filter(|_| plan.fires(kind))
                .take(8)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            schedule(FaultKind::PanicInForward, 30),
            [53, 70, 159, 166, 187, 228, 247, 251]
        );
        assert_eq!(schedule(FaultKind::SlowWorker, 5), [305]);
        assert_eq!(
            schedule(FaultKind::QueueFull, 20),
            [83, 102, 122, 270, 291, 324, 329, 361]
        );
        assert_eq!(schedule(FaultKind::KillDispatcher, 5), [76, 155, 388]);
    }

    #[test]
    fn full_rate_fires_every_call() {
        let plan = FaultPlan::new(1).with_rate(FaultKind::QueueFull, 1000);
        assert!((0..100).all(|_| plan.fires(FaultKind::QueueFull)));
    }
}
