//! The event loop: a virtual clock plus a monotone radix queue of events.
//!
//! ## Queue structure
//!
//! Every pending event lives in one slab of slots (time, intrusive `next`
//! link, body). Freed slots form an intrusive free list, so the slab grows
//! only while every slot holds a pending event: its length is the peak
//! pending population, and a warmed engine never touches the allocator for
//! a queue node. The slots are threaded onto 65 FIFO lists (head/tail
//! pairs plus an occupancy bitmask):
//!
//! * **list 0** holds the events due at `now`;
//! * **list `b` ≥ 1** holds later events whose time first differs from
//!   `now` in bit `b − 1`: `b = 64 − (time ^ now).leading_zeros()`.
//!
//! Scheduling appends to the event's list, with no comparison. Popping
//! takes the front of list 0. When list 0 is empty, the lowest non-empty
//! list `b` is *redistributed*: `now` advances to its minimum time and its
//! slots are relinked, in order, into list 0 (those due at the new `now`)
//! or a list below `b`. Lists above `b` stay valid, because their times
//! and the new `now` agree in every bit from `b − 1` up. Virtual time never
//! decreases, so a slot only moves down, at most 64 times in its life: a
//! radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990).
//!
//! ## Determinism
//!
//! Execution order is *exactly* the `(time, seq)` total order of the seed
//! engine ([`crate::reference::RefSim`]), `seq` being scheduling order,
//! though no `seq` is stored:
//!
//! * Each list is in scheduling order. An insert appends the newest event.
//!   A list receives relinked slots only while it, list 0 and every list
//!   below the redistributed one are empty, and it receives them in the
//!   order they held; every later insert is newer than anything queued.
//! * List 0 holds every event due at `now`, so popping its front is the
//!   lowest `seq` at the lowest time.
//! * The lowest non-empty list holds the earliest times: list `b`'s times
//!   share bits `b..64` with `now` and set bit `b − 1`; a higher list `c`'s
//!   times set bit `c − 1`, where `now` and list `b`'s times hold 0.
//!
//! So the queue drains in ascending `(time, seq)`.

use crate::event::EventFn;
use crate::time::SimTime;

/// End of a list or of the free list.
const NIL: u32 = u32::MAX;
/// List 0 plus one list per bit of a `u64` time.
const LISTS: usize = 65;

/// A pending event, or a free slot (`f` is `None`).
struct Slot {
    time: SimTime,
    /// The next slot in the same list, or in the free list.
    next: u32,
    f: Option<EventFn>,
}

/// The simulation engine.
///
/// `Sim` owns the virtual clock and the pending-event queue. All simulation
/// activity happens inside events: an event may inspect/mutate components it
/// has captured and schedule further events.
pub struct Sim {
    now: SimTime,
    /// Every slot ever needed: the peak pending population.
    slots: Vec<Slot>,
    /// First free slot.
    free: u32,
    head: [u32; LISTS],
    tail: [u32; LISTS],
    /// Bit `b` is set while list `b` is non-empty.
    occupied: u128,
    pending: usize,
    executed: u64,
    relinked: u64,
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
            slots: Vec::new(),
            free: NIL,
            head: [NIL; LISTS],
            tail: [NIL; LISTS],
            occupied: 0,
            pending: 0,
            executed: 0,
            relinked: 0,
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

    /// Slots moved between lists as the clock advanced. Beyond one append
    /// and one pop per event, the queue's work is proportional to this
    /// count, which makes it a deterministic proxy for the queue's cost.
    pub fn events_relinked(&self) -> u64 {
        self.relinked
    }

    /// Number of events currently pending.
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.pending
    }

    /// High-water mark of [`events_pending`](Self::events_pending) — the
    /// peak simultaneously materialized event population, which is the
    /// length of the engine's slab.
    #[inline]
    pub fn events_peak_pending(&self) -> usize {
        self.slots.len()
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
        debug_assert!(at >= self.now, "scheduled at {at} < now {}", self.now);
        self.clamped += u64::from(at < self.now);
        self.push(at.max(self.now), EventFn::new(body));
    }

    /// Schedule `body` to run `delay` after the current virtual time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, body: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, body);
    }

    /// Schedule `body` to run at the current virtual instant, after all
    /// events already scheduled for this instant.
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
        self.push(self.now, f);
    }

    /// The list an event due at `time` (≥ `now`) belongs to.
    #[inline]
    fn list_of(&self, time: SimTime) -> usize {
        64 - (time.as_ns() ^ self.now.as_ns()).leading_zeros() as usize
    }

    /// Store `f` in a free slot (or a new one) and append it to its list.
    #[inline]
    fn push(&mut self, time: SimTime, f: EventFn) {
        let i = if self.free == NIL {
            self.slots.push(Slot {
                time,
                next: NIL,
                f: Some(f),
            });
            // Slot `NIL` would read as the end of a list.
            u32::try_from(self.slots.len()).expect("over u32::MAX - 1 pending events") - 1
        } else {
            let i = self.free;
            let slot = &mut self.slots[i as usize];
            self.free = slot.next;
            slot.time = time;
            slot.f = Some(f);
            i
        };
        self.pending += 1;
        self.append(self.list_of(time), i);
    }

    /// Link slot `i` at the tail of list `list`.
    #[inline]
    fn append(&mut self, list: usize, i: u32) {
        self.slots[i as usize].next = NIL;
        if self.head[list] == NIL {
            self.head[list] = i;
            self.occupied |= 1 << list;
        } else {
            self.slots[self.tail[list] as usize].next = i;
        }
        self.tail[list] = i;
    }

    /// Advance `now` to the minimum time in `list`, the lowest non-empty
    /// list, and relink its slots, in order, into list 0 and lower lists.
    fn redistribute(&mut self, list: usize) {
        let first = std::mem::replace(&mut self.head[list], NIL);
        self.occupied &= !(1 << list);
        let (mut min, mut i) = (SimTime::MAX, first);
        while i != NIL {
            let slot = &self.slots[i as usize];
            min = min.min(slot.time);
            i = slot.next;
        }
        debug_assert!(min > self.now, "event queue went backwards");
        self.now = min;
        let mut i = first;
        while i != NIL {
            let slot = &self.slots[i as usize];
            let next = slot.next;
            self.append(self.list_of(slot.time), i);
            self.relinked += 1;
            i = next;
        }
    }

    // ----- execution -----

    /// Execute the next event in `(time, seq)` order, advancing `now`.
    /// Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        if self.head[0] == NIL {
            if self.occupied == 0 {
                return false;
            }
            self.redistribute(self.occupied.trailing_zeros() as usize);
        }
        let i = self.head[0];
        let slot = &mut self.slots[i as usize];
        self.head[0] = slot.next;
        self.occupied &= !u128::from(slot.next == NIL);
        slot.next = self.free;
        self.free = i;
        let f = slot.f.take().expect("a listed slot holds an event");
        self.pending -= 1;
        self.executed += 1;
        f.invoke(self);
        true
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

    /// Same-instant events relinked into list 0 by a redistribution were
    /// scheduled before the clock reached their instant, so a
    /// `schedule_now` or `schedule_at(now)` made by the first of them runs
    /// after all of them.
    #[test]
    fn timed_events_due_now_precede_the_now_queue() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let at = SimTime::from_ns(6);
        for i in 0..3 {
            let log = log.clone();
            sim.schedule_at(at, move |sim| {
                log.borrow_mut().push(format!("timed {i}"));
                if i == 0 {
                    let a = log.clone();
                    sim.schedule_now(move |_| a.borrow_mut().push("now".into()));
                    let at = sim.now();
                    sim.schedule_at(at, move |_| log.borrow_mut().push("at now".into()));
                }
            });
        }
        // A later event in the same list stays behind them.
        let l = log.clone();
        sim.schedule_at(SimTime::from_ns(7), move |_| {
            l.borrow_mut().push("7".into())
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            ["timed 0", "timed 1", "timed 2", "now", "at now", "7"]
        );
        assert_eq!(sim.now(), SimTime::from_ns(7));
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
    /// The clamped event joins list 0 at its tail: it runs at `now`, after
    /// the same-instant events queued before it and before those queued
    /// after it.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_scheduling_is_clamped_and_counted() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let l = log.clone();
        sim.schedule_at(SimTime::from_ns(5), move |sim| {
            for (tag, past) in [("now 1", false), ("past", true), ("now 2", false)] {
                let l = l.clone();
                let body = move |sim: &mut Sim| l.borrow_mut().push((tag, sim.now()));
                if past {
                    sim.schedule_at(SimTime::from_ns(2), body);
                } else {
                    sim.schedule_now(body);
                }
            }
        });
        let l = log.clone();
        sim.schedule_at(SimTime::from_ns(5), move |sim| {
            l.borrow_mut().push(("timed", sim.now()))
        });
        sim.run();
        let at = SimTime::from_ns(5);
        assert_eq!(
            *log.borrow(),
            vec![("timed", at), ("now 1", at), ("past", at), ("now 2", at)]
        );
        assert_eq!(sim.schedule_past_clamped(), 1);
    }

    /// One redistribution splits list 4 (times 8..16 seen from `now` = 0)
    /// across list 0 (time 8), list 1 (time 9) and list 2 (times 10, 11),
    /// each in scheduling order.
    #[test]
    fn redistribution_splits_one_list_across_lower_lists() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for (i, t) in [11u64, 9, 8, 10, 8].into_iter().enumerate() {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ns(t), move |_| log.borrow_mut().push((t, i)));
        }
        assert_eq!(sim.occupied, 1 << 4);
        assert!(sim.step());
        assert_eq!(sim.now(), SimTime::from_ns(8));
        assert_eq!(sim.events_relinked(), 5);
        assert_eq!(sim.occupied, 0b111);
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![(8, 2), (8, 4), (9, 1), (10, 3), (11, 0)]
        );
        // Then 9 moves from list 1; 10 and 11 from list 2; 11 from list 1.
        assert_eq!(sim.events_relinked(), 5 + 1 + 2 + 1);
    }

    #[test]
    fn no_clamps_on_well_behaved_schedules() {
        let mut sim = Sim::new();
        sim.schedule_in(SimTime::from_us(1), |_| {});
        sim.run();
        assert_eq!(sim.schedule_past_clamped(), 0);
    }
}
