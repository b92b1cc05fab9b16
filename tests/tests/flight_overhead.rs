//! Overhead guard for the flight recorder: with no ring entered on the
//! thread, the hot-path [`exl_obs::flight::record_with`] must be one
//! thread-local read — no allocation, no lock, no closure invocation. This binary installs
//! a counting global allocator to pin that down; it holds exactly one
//! test so no concurrent test thread can pollute the counter.
//!
//! The armed-vs-disarmed wall-clock delta is guarded separately by the
//! `b1_translation_pipeline_recorder_armed` Criterion bench
//! (`scripts/bench.sh`), which must stay within noise of the plain B1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

use exl_obs::flight::{self, FlightKind, FlightRing};

#[test]
fn disarmed_hot_path_allocates_nothing_and_armed_ring_stays_bounded() {
    assert!(flight::current().is_none());

    // -- no ring entered: zero allocations over many recordings, and the
    //    detail closure is never even invoked
    let mut closure_calls = 0u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100_000 {
        flight::record_with(FlightKind::Statement, "overhead.test", || {
            closure_calls += 1;
            String::from("expensive detail that must never be built")
        });
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disarmed flight recording allocated on the hot path"
    );
    assert_eq!(closure_calls, 0, "disarmed recording invoked the closure");

    // -- an entered ring: events are recorded, the closure runs, and the
    //    ring stays bounded at its capacity under sustained load
    let ring = FlightRing::new(64);
    let entered = ring.enter();
    for i in 0..1_000u64 {
        flight::record_with(FlightKind::Statement, "overhead.test", || format!("ev {i}"));
    }
    let tail = ring.tail();
    assert_eq!(tail.len(), 64, "ring did not stay bounded");
    assert_eq!(ring.total_recorded(), 1_000);
    // the tail holds the *latest* events, oldest first
    assert_eq!(tail.last().unwrap().detail, "ev 999");
    assert_eq!(tail.first().unwrap().detail, "ev 936");
    assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));

    // -- leaving the ring restores the zero-cost path, and the left ring
    //    takes no more events
    drop(entered);
    assert!(flight::current().is_none());
    let mut closure_calls = 0u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        flight::record_with(FlightKind::CacheHit, "overhead.test", || {
            closure_calls += 1;
            String::new()
        });
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        0,
        "re-disarmed flight recording allocated on the hot path"
    );
    assert_eq!(
        closure_calls, 0,
        "re-disarmed recording invoked the closure"
    );
    assert_eq!(ring.total_recorded(), 1_000);
}
