//! The seed `BinaryHeap` + `Box<dyn FnOnce>` engine, kept as a reference.
//!
//! [`RefSim`] is intentionally the seed implementation of the event loop:
//! every event, same-instant ones included, goes through one heap as a
//! boxed closure. It is the determinism oracle: property tests drive
//! [`crate::Sim`] and `RefSim` with identical
//! `schedule_at`/`schedule_in`/`schedule_now` sequences and assert the
//! execution orders match exactly.
//!
//! Keep this file dumb and stable; it must not adopt engine optimisations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct QueuedEvent {
    time: SimTime,
    seq: u64,
    body: Box<dyn FnOnce(&mut RefSim)>,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Reference discrete-event engine: one `BinaryHeap`, boxed event bodies.
pub struct RefSim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    executed: u64,
}

impl Default for RefSim {
    fn default() -> Self {
        Self::new()
    }
}

impl RefSim {
    pub fn new() -> Self {
        RefSim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            executed: 0,
        }
    }

    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    #[inline]
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    pub fn schedule_at(&mut self, at: SimTime, body: impl FnOnce(&mut RefSim) + 'static) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            time: at,
            seq,
            body: Box::new(body),
        }));
    }

    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, body: impl FnOnce(&mut RefSim) + 'static) {
        self.schedule_at(self.now + delay, body);
    }

    #[inline]
    pub fn schedule_now(&mut self, body: impl FnOnce(&mut RefSim) + 'static) {
        self.schedule_at(self.now, body);
    }

    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(ev)) => {
                debug_assert!(ev.time >= self.now, "event queue went backwards");
                self.now = ev.time;
                self.executed += 1;
                (ev.body)(self);
                true
            }
            None => false,
        }
    }

    pub fn run(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared;

    #[test]
    fn reference_engine_orders_and_ties() {
        let mut sim = RefSim::new();
        let log = shared(Vec::new());
        for &(t, tag) in &[(5u64, 'a'), (1, 'b'), (5, 'c'), (1, 'd')] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_us(t), move |_| log.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['b', 'd', 'a', 'c']);
        assert_eq!(sim.events_executed(), 4);
        assert_eq!(sim.events_pending(), 0);
    }
}
