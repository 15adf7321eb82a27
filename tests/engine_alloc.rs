//! A warmed engine runs a hold-model workload without touching the
//! allocator: event bodies that capture at most three words stay inline,
//! and the one slab that holds every pending event keeps the capacity the
//! first run grew. The same run bounds the radix queue's relinks per
//! event. One test in a binary of its own, so the process-wide counter
//! counts nothing else.

use std::sync::atomic::{AtomicU64, Ordering};

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_simnet::{Sim, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Holders pending at once: the queue holds at least 512 events.
const HOLDERS: u64 = 640;
/// Steps each holder takes per workload.
const STEPS: u64 = 40;

/// Steps that went through the same-instant queue.
static NOW_STEPS: AtomicU64 = AtomicU64::new(0);

/// One hold-model step: advance the holder's own LCG state and reschedule
/// it, a quarter of the time at the current instant and otherwise up to
/// 50 µs later. The body captures two words.
fn hold(sim: &mut Sim, left: u64, x: u64) {
    if left == 0 {
        return;
    }
    let x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    if x >> 62 == 0 {
        NOW_STEPS.fetch_add(1, Ordering::Relaxed);
        sim.schedule_now(move |sim| hold(sim, left - 1, x));
    } else {
        let delay = SimTime::from_ns(1 + (x >> 40) % 50_000);
        sim.schedule_in(delay, move |sim| hold(sim, left - 1, x));
    }
}

/// Start every holder, run to idle; returns (allocations, events run).
fn workload(sim: &mut Sim) -> (u64, u64) {
    let snap = AllocSnapshot::now();
    let before = sim.events_executed();
    for h in 0..HOLDERS {
        sim.schedule_in(SimTime::from_ns(h), move |sim| hold(sim, STEPS, h));
    }
    sim.run();
    (snap.since().allocs, sim.events_executed() - before)
}

#[test]
fn second_hold_workload_allocates_nothing() {
    let mut sim = Sim::new();
    let (first, events) = workload(&mut sim);
    assert!(first >= 1, "the counting allocator is not installed");
    assert_eq!(events, HOLDERS * (STEPS + 1));
    assert!(sim.events_peak_pending() >= 512);
    assert!(NOW_STEPS.load(Ordering::Relaxed) > 0);
    assert_eq!(workload(&mut sim), (0, events));
    // The queue's deterministic cost: each slot moves down a few lists
    // between its schedule and its pop.
    let relinks = sim.events_relinked() as f64 / sim.events_executed() as f64;
    assert!(relinks <= 5.0, "{relinks:.2} relinks per event");
}
