//! The event loop: a virtual clock plus a deterministic two-part queue of
//! events.
//!
//! ## Queue structure
//!
//! * **timed heap** — a `BinaryHeap` of events due after the instant they
//!   were scheduled in, each carrying its `(time, seq)` key; `seq` is a
//!   monotonic counter assigned at schedule time.
//! * **now queue** — events scheduled for the *current* instant
//!   (`schedule_now`, or `schedule_at(now)`). They bypass the heap: a
//!   plain FIFO push, popped in insertion order.
//!
//! Event bodies are [`EventFn`]s, stored inline when their captures fit
//! three words. Both structures keep their capacity, so in steady state
//! neither scheduling nor executing an event touches the allocator.
//!
//! ## Determinism
//!
//! Execution order is *exactly* the `(time, seq)` total order of the seed
//! engine ([`crate::reference::RefSim`]). Every now-queue event was
//! scheduled *while* `now` held its time, so its seq is greater than that
//! of any heap event due at `now` (those were scheduled before the clock
//! reached it). Hence the pop rule: the heap top if it is due at `now`,
//! else the now-queue front, else the heap top with the clock advanced to
//! its time — which is exactly ascending `(time, seq)`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::EventFn;
use crate::time::SimTime;

/// A heap node: the closure plus the `(time, seq)` pair that fixes its
/// place in the total order.
struct Timed {
    time: SimTime,
    seq: u64,
    f: EventFn,
}

// `BinaryHeap` is a max-heap: order by *reversed* `(time, seq)` so the
// earliest event sits on top. `(time, seq)` is unique, so the closure
// never participates.
impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The simulation engine.
///
/// `Sim` owns the virtual clock and the pending-event queue. All simulation
/// activity happens inside events: an event may inspect/mutate components it
/// has captured and schedule further events.
pub struct Sim {
    now: SimTime,
    seq: u64,
    /// Events due after the instant they were scheduled in.
    timed: BinaryHeap<Timed>,
    /// Events due at the current instant, in scheduling order.
    now_q: VecDeque<EventFn>,
    /// High-water mark of pending events, which sets the queues' retained
    /// capacity.
    peak_pending: usize,
    executed: u64,
    clamped: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            timed: BinaryHeap::new(),
            now_q: VecDeque::new(),
            peak_pending: 0,
            executed: 0,
            clamped: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (engine-throughput metric).
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.timed.len() + self.now_q.len()
    }

    /// High-water mark of [`events_pending`](Self::events_pending) — the
    /// peak simultaneously materialized event population, which bounds the
    /// engine's retained queue memory.
    #[inline]
    pub fn events_peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Times a release build clamped a past-time `schedule_at` to `now`.
    ///
    /// Past scheduling is a model bug: debug builds panic, release builds
    /// clamp to keep running deterministically — but count here so the slip
    /// is visible in `metrics_report` instead of silent.
    #[inline]
    pub fn schedule_past_clamped(&self) -> u64 {
        self.clamped
    }

    // ----- scheduling -----

    /// Schedule `body` to run at absolute virtual time `at`.
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// in release builds the event is clamped to `now` (runs "immediately",
    /// preserving determinism) and counted in
    /// [`schedule_past_clamped`](Self::schedule_past_clamped).
    #[inline]
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, body: F) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        if at <= self.now {
            if at < self.now {
                self.clamped += 1;
            }
            self.schedule_now_fn(EventFn::new(body));
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.timed.push(Timed {
            time: at,
            seq,
            f: EventFn::new(body),
        });
        self.note_pending();
    }

    /// Schedule `body` to run `delay` after the current virtual time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, body: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, body);
    }

    /// Schedule `body` to run at the current virtual instant, after all
    /// events already scheduled for this instant. Bypasses the heap.
    #[inline]
    pub fn schedule_now(&mut self, body: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_now_fn(EventFn::new(body));
    }

    /// Schedule an already-wrapped [`EventFn`] at the current instant.
    ///
    /// Lets components that queue event bodies (e.g. waiter lists) hand
    /// them back without re-wrapping.
    #[inline]
    pub fn schedule_now_fn(&mut self, f: EventFn) {
        self.now_q.push_back(f);
        self.note_pending();
    }

    #[inline]
    fn note_pending(&mut self) {
        self.peak_pending = self.peak_pending.max(self.events_pending());
    }

    /// Pop the next event in `(time, seq)` order, advancing `now`.
    fn pop_next(&mut self) -> Option<EventFn> {
        if self.timed.peek().is_some_and(|e| e.time == self.now) {
            return self.timed.pop().map(|e| e.f);
        }
        if let Some(f) = self.now_q.pop_front() {
            return Some(f);
        }
        let e = self.timed.pop()?;
        debug_assert!(e.time > self.now, "event queue went backwards");
        self.now = e.time;
        Some(e.f)
    }

    // ----- execution -----

    /// Execute a single event if one is pending. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        match self.pop_next() {
            Some(f) => {
                self.executed += 1;
                f.invoke(self);
                true
            }
            None => false,
        }
    }

    /// Run until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared;

    #[test]
    fn empty_sim_is_idle() {
        let mut sim = Sim::new();
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for &t in &[5u64, 1, 3, 2, 4] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_us(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::from_us(5));
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for i in 0..10 {
            let log = log.clone();
            sim.schedule_at(SimTime::from_us(7), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let l2 = log.clone();
        sim.schedule_in(SimTime::from_us(1), move |sim| {
            l2.borrow_mut().push(sim.now());
            sim.schedule_in(SimTime::from_us(2), move |sim| {
                l2.borrow_mut().push(sim.now());
            });
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![SimTime::from_us(1), SimTime::from_us(3)]
        );
    }

    #[test]
    fn schedule_now_runs_after_same_instant_events() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let (a, b) = (log.clone(), log.clone());
        sim.schedule_at(SimTime::ZERO, move |sim| {
            let b = b.clone();
            sim.schedule_now(move |_| b.borrow_mut().push("later"));
        });
        sim.schedule_at(SimTime::ZERO, move |_| a.borrow_mut().push("first"));
        sim.run();
        assert_eq!(*log.borrow(), vec!["first", "later"]);
    }

    /// Heap events due at the current instant were scheduled earlier than
    /// anything in the now queue, so they run first.
    #[test]
    fn timed_events_due_now_precede_the_now_queue() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let (a, b) = (log.clone(), log.clone());
        sim.schedule_at(SimTime::from_us(1), move |sim| {
            a.borrow_mut().push("timed 1");
            let a = a.clone();
            sim.schedule_now(move |_| a.borrow_mut().push("now"));
        });
        sim.schedule_at(SimTime::from_us(1), move |_| b.borrow_mut().push("timed 2"));
        sim.run();
        assert_eq!(*log.borrow(), vec!["timed 1", "timed 2", "now"]);
    }

    #[test]
    fn pending_counts_both_queues() {
        let mut sim = Sim::new();
        sim.schedule_in(SimTime::from_us(1), |sim| {
            sim.schedule_now(|_| {});
            sim.schedule_now(|_| {});
            assert_eq!(sim.events_pending(), 3);
        });
        sim.schedule_in(SimTime::from_us(2), |_| {});
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(sim.events_peak_pending(), 3);
        assert_eq!(sim.events_executed(), 4);
    }

    /// Events many milliseconds apart, scheduled out of order.
    #[test]
    fn far_horizon_events_run_in_order() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for &ms in &[40u64, 2, 25, 9, 16, 33, 1] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ms(ms), move |_| log.borrow_mut().push(ms));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 9, 16, 25, 33, 40]);
        assert_eq!(sim.now(), SimTime::from_ms(40));
    }

    /// Mixed near/far chains: each far event schedules a near follow-up
    /// that must run before the next far event.
    #[test]
    fn near_far_interleaving_is_ordered() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for ms in [10u64, 20, 30] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ms(ms), move |sim| {
                log.borrow_mut().push(sim.now());
                sim.schedule_in(SimTime::from_ns(100), move |sim| {
                    log.borrow_mut().push(sim.now());
                });
            });
        }
        sim.run();
        let want: Vec<SimTime> = [10u64, 20, 30]
            .iter()
            .flat_map(|&ms| {
                [
                    SimTime::from_ms(ms),
                    SimTime::from_ms(ms) + SimTime::from_ns(100),
                ]
            })
            .collect();
        assert_eq!(*log.borrow(), want);
    }

    /// Past scheduling panics in debug; in release it clamps and counts.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_scheduling_is_clamped_and_counted() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(5), move |sim| {
            let l2 = l.clone();
            // Into the past: runs "immediately" (at now), after events
            // already queued for this instant.
            sim.schedule_at(SimTime::from_us(1), move |sim| {
                l2.borrow_mut().push(sim.now());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![SimTime::from_us(5)]);
        assert_eq!(sim.schedule_past_clamped(), 1);
    }

    #[test]
    fn no_clamps_on_well_behaved_schedules() {
        let mut sim = Sim::new();
        sim.schedule_in(SimTime::from_us(1), |_| {});
        sim.run();
        assert_eq!(sim.schedule_past_clamped(), 0);
    }
}
