//! The flight recorder: bounded rings of recent structured events.
//!
//! The engine's metrics and traces answer "how did this run behave?";
//! the flight recorder answers "what were the last things that happened
//! before it failed?". Instrumented paths across the workspace — span
//! closes, dispatch retries and fallbacks, cache hits and misses,
//! governor trips, fault-site firings, backend statement boundaries —
//! call [`record_with`], which writes to the [`FlightRing`] entered on
//! the calling thread. With none entered (the default) that call is
//! **one thread-local read and nothing else**: the detail closure is
//! never invoked, so the hot path allocates nothing (pinned by the
//! `flight_overhead` test). An entered ring holds a fixed number of
//! events under a plain mutex; when it is full the oldest event is
//! evicted, so the ring holds the *tail* of the run at all times.
//!
//! Each engine with a crash-bundle directory (`exlc --bundle-dir`) owns
//! a ring, enters it for every run (workers see it through the governor
//! they re-enter, `exl_fault::govern`) and dumps its [`FlightRing::tail`]
//! into the bundle on failure. The event vocabulary is [`FlightKind`];
//! see docs/OBSERVABILITY.md for the documented schema.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Ring capacity an engine's ring is made with: large enough to span the
/// full dispatch tail of a many-subgraph run, small enough to stay cheap.
pub const DEFAULT_CAPACITY: usize = 1024;

/// The event vocabulary — every recorded event carries exactly one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A wall-time span closed (site = span name, detail = duration).
    SpanClose,
    /// The dispatch supervisor retried a subgraph attempt.
    Retry,
    /// The dispatcher fell back to the native engine at runtime.
    Fallback,
    /// A backend panic was contained by the supervisor.
    PanicCaught,
    /// A subgraph attempt exceeded its deadline.
    Timeout,
    /// A statement resolved from the run cache (exact content hit).
    CacheHit,
    /// A statement resolved by delta re-evaluation.
    CacheDelta,
    /// A statement missed the run cache and executed in full.
    CacheMiss,
    /// An on-disk cache entry was skipped as corrupt or stale.
    CacheCorrupt,
    /// A governance checkpoint tripped (cancellation or budget).
    GovernTrip,
    /// An injected fault fired at an instrumented site.
    FaultFired,
    /// A backend crossed a statement / flow boundary.
    Statement,
    /// A subgraph finished (site = target, detail = cubes + status).
    Subgraph,
    /// A run started or ended (site = `engine.run`).
    Run,
    /// The plan compiler fused statements into a streaming region
    /// (site = target, detail = region/fusion counts).
    PlanFuse,
    /// The plan compiler reused a structurally identical subexpression
    /// across statements (site = target, detail = reuse count).
    PlanCse,
    /// The dispatcher partitioned a native subgraph across shards
    /// (site = target, detail = shard dim + count).
    ShardDispatch,
    /// Per-shard outputs were concatenated at a subgraph boundary
    /// (site = target, detail = shard + row counts).
    ShardMerge,
}

impl FlightKind {
    /// Stable lowercase name, the `kind` field of the bundle schema.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::SpanClose => "span.close",
            FlightKind::Retry => "retry",
            FlightKind::Fallback => "fallback",
            FlightKind::PanicCaught => "panic.caught",
            FlightKind::Timeout => "timeout",
            FlightKind::CacheHit => "cache.hit",
            FlightKind::CacheDelta => "cache.delta",
            FlightKind::CacheMiss => "cache.miss",
            FlightKind::CacheCorrupt => "cache.corrupt",
            FlightKind::GovernTrip => "govern.trip",
            FlightKind::FaultFired => "fault.fired",
            FlightKind::Statement => "stmt",
            FlightKind::Subgraph => "subgraph",
            FlightKind::Run => "run",
            FlightKind::PlanFuse => "plan.fuse",
            FlightKind::PlanCse => "plan.cse",
            FlightKind::ShardDispatch => "shard.dispatch",
            FlightKind::ShardMerge => "shard.merge",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number within its ring (never reused; gaps in
    /// a [`FlightRing::tail`] mean older events were evicted).
    pub seq: u64,
    /// Nanoseconds since the ring was made.
    pub nanos: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Where it happened: a span name, fault site, or subsystem path.
    pub site: String,
    /// Free-form detail (duration, error text, cube list, …).
    pub detail: String,
}

#[derive(Debug)]
struct Ring {
    epoch: Instant,
    capacity: usize,
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

/// A bounded ring of the most recent [`FlightEvent`]s; clones share it.
/// Events reach a ring only while it is [entered](FlightRing::enter).
#[derive(Debug, Clone)]
pub struct FlightRing {
    inner: Arc<Mutex<Ring>>,
}

thread_local! {
    /// The ring entered on this thread, if any — the entire cost of
    /// [`record_with`] when it is `None`.
    static ENTERED: RefCell<Option<FlightRing>> = const { RefCell::new(None) };
}

/// Restores the previously entered ring (or none) on drop.
#[must_use = "the ring is left when the guard drops"]
pub struct EnteredRing {
    previous: Option<FlightRing>,
    // thread-bound: it restores this thread's slot
    _thread: PhantomData<*const ()>,
}

impl Drop for EnteredRing {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ENTERED.with(|e| *e.borrow_mut() = previous);
    }
}

impl FlightRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> FlightRing {
        FlightRing {
            inner: Arc::new(Mutex::new(Ring {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                next_seq: 0,
                events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            })),
        }
    }

    /// Make this the ring [`record_with`] writes to on the current thread
    /// until the guard drops.
    pub fn enter(&self) -> EnteredRing {
        let previous = ENTERED.with(|e| e.borrow_mut().replace(self.clone()));
        EnteredRing {
            previous,
            _thread: PhantomData,
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        // an injected panic can poison the lock mid-record; the ring data
        // is still structurally sound, so keep recording
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The ring's contents, oldest first.
    pub fn tail(&self) -> Vec<FlightEvent> {
        self.ring().events.iter().cloned().collect()
    }

    /// Total events recorded into this ring (recorded, not retained:
    /// events beyond the capacity were evicted from the front).
    pub fn total_recorded(&self) -> u64 {
        self.ring().next_seq
    }
}

/// The ring entered on the current thread, if any.
pub fn current() -> Option<FlightRing> {
    ENTERED.with(|e| e.borrow().clone())
}

/// Record one event into the ring entered on this thread, building the
/// detail lazily: with no ring entered this is one thread-local read and
/// the closure is **never invoked** — no allocation, no formatting, no
/// lock.
pub fn record_with(kind: FlightKind, site: &str, detail: impl FnOnce() -> String) {
    let Some(ring) = current() else {
        return;
    };
    let mut ring = ring.ring();
    let event = FlightEvent {
        seq: ring.next_seq,
        nanos: u64::try_from(ring.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        kind,
        site: site.to_string(),
        detail: detail(),
    };
    ring.next_seq += 1;
    if ring.events.len() >= ring.capacity {
        ring.events.pop_front();
    }
    ring.events.push_back(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_the_tail() {
        let ring = FlightRing::new(4);
        let _entered = ring.enter();
        for i in 0..10 {
            record_with(FlightKind::Statement, "s", || format!("event {i}"));
        }
        let tail = ring.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].seq, 6);
        assert_eq!(tail[3].seq, 9);
        assert_eq!(tail[3].detail, "event 9");
        assert!(tail.windows(2).all(|w| w[0].nanos <= w[1].nanos));
        assert_eq!(ring.total_recorded(), 10);
    }

    #[test]
    fn disarmed_recorder_never_invokes_the_closure() {
        let mut invoked = false;
        record_with(FlightKind::Retry, "s", || {
            invoked = true;
            String::new()
        });
        assert!(!invoked);
        assert!(current().is_none());
    }

    #[test]
    fn rearming_resets_epoch_and_sequence() {
        // re-arming an engine makes a new ring: it numbers and times its
        // events from scratch; entering it nests, and leaving it restores
        // the ring entered before
        let first_made = Instant::now();
        let first = FlightRing::new(8);
        let entered = first.enter();
        record_with(FlightKind::Run, "engine.run", || "first".into());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = FlightRing::new(8);
        assert!(second.tail().is_empty());
        {
            let _e = second.enter();
            record_with(FlightKind::Run, "engine.run", || "second".into());
        }
        record_with(FlightKind::Run, "engine.run", || "first again".into());
        drop(entered);
        record_with(FlightKind::Run, "engine.run", || "nowhere".into());
        let t = second.tail();
        assert_eq!((t.len(), t[0].seq), (1, 0));
        // the second ring was made at least 2 ms after the first
        let since_first = first_made.elapsed().as_nanos() as u64;
        assert!(t[0].nanos + 2_000_000 <= since_first, "epoch not reset");
        assert_eq!(first.total_recorded(), 2);
        assert!(current().is_none());
    }

    #[test]
    fn kind_names_are_distinct_and_stable() {
        let kinds = [
            FlightKind::SpanClose,
            FlightKind::Retry,
            FlightKind::Fallback,
            FlightKind::PanicCaught,
            FlightKind::Timeout,
            FlightKind::CacheHit,
            FlightKind::CacheDelta,
            FlightKind::CacheMiss,
            FlightKind::CacheCorrupt,
            FlightKind::GovernTrip,
            FlightKind::FaultFired,
            FlightKind::Statement,
            FlightKind::Subgraph,
            FlightKind::Run,
            FlightKind::PlanFuse,
            FlightKind::PlanCse,
            FlightKind::ShardDispatch,
            FlightKind::ShardMerge,
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), kinds.len());
        assert!(names.contains("fault.fired"));
        assert!(names.contains("govern.trip"));
        assert!(names.contains("plan.fuse"));
        assert!(names.contains("plan.cse"));
        assert!(names.contains("shard.dispatch"));
        assert!(names.contains("shard.merge"));
    }
}
