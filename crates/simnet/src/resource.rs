//! Serially-occupied resources and bounded token pools.

use std::collections::VecDeque;

use crate::engine::Sim;
use crate::event::EventFn;
use crate::time::SimTime;
use crate::Shared;

/// A serially-occupied execution resource: a CPU core, a pinned thread, a
/// NIC DMA engine, a link direction.
///
/// Work items are served in FIFO order; each occupies the resource for a
/// caller-supplied virtual duration, after which its completion closure runs.
/// The model is non-preemptive, which matches the paper's pathology of
/// interest: a long active-message callback occupying the communication
/// thread delays every other completion behind it.
pub struct CoreResource {
    name: String,
    busy_until: SimTime,
    busy_time: SimTime,
    jobs: u64,
}

/// Shared handle to a [`CoreResource`].
pub type CoreHandle = Shared<CoreResource>;

impl CoreResource {
    pub fn new(name: impl Into<String>) -> Self {
        CoreResource {
            name: name.into(),
            busy_until: SimTime::ZERO,
            busy_time: SimTime::ZERO,
            jobs: 0,
        }
    }

    /// Shared-handle constructor.
    pub fn new_shared(name: impl Into<String>) -> CoreHandle {
        crate::shared(Self::new(name))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instant at which the resource next becomes free.
    #[inline]
    pub fn available_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total virtual time this resource has been (or is committed to be)
    /// occupied.
    #[inline]
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }

    /// Number of work items served.
    #[inline]
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization in `[0, 1]` over the interval `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.is_zero() {
            0.0
        } else {
            // Committed time may extend past `now`; clamp for reporting.
            self.busy_time.min(now).as_secs_f64() / now.as_secs_f64()
        }
    }

    /// Enqueue a work item of length `dur`; `then` runs when it completes.
    ///
    /// Returns the completion instant. The item starts when every previously
    /// charged item has finished (FIFO, non-preemptive).
    pub fn charge(
        &mut self,
        sim: &mut Sim,
        dur: SimTime,
        then: impl FnOnce(&mut Sim) + 'static,
    ) -> SimTime {
        let start = self.busy_until.max(sim.now());
        let end = start + dur;
        self.busy_until = end;
        self.busy_time += dur;
        self.jobs += 1;
        sim.schedule_at(end, then);
        end
    }

    /// Charge occupancy without a completion callback (pure accounting).
    pub fn occupy(&mut self, now: SimTime, dur: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        let end = start + dur;
        self.busy_until = end;
        self.busy_time += dur;
        self.jobs += 1;
        end
    }
}

/// A bounded pool of identical credits with a FIFO waiter queue.
///
/// Used to model the MPI backend's 30-entry concurrent-transfer cap and the
/// LCI packet pools whose exhaustion produces `Retry` back-pressure.
/// A queued waiter continuation (inline when its captures are small).
type Waiter = EventFn;

pub struct TokenPool {
    name: String,
    capacity: usize,
    available: usize,
    waiters: VecDeque<Waiter>,
    acquired_total: u64,
    wait_events: u64,
}

/// Shared handle to a [`TokenPool`].
pub type TokenPoolHandle = Shared<TokenPool>;

impl TokenPool {
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        TokenPool {
            name: name.into(),
            capacity,
            available: capacity,
            waiters: VecDeque::new(),
            acquired_total: 0,
            wait_events: 0,
        }
    }

    pub fn new_shared(name: impl Into<String>, capacity: usize) -> TokenPoolHandle {
        crate::shared(Self::new(name, capacity))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn available(&self) -> usize {
        self.available
    }

    pub fn in_use(&self) -> usize {
        self.capacity - self.available
    }

    pub fn waiters(&self) -> usize {
        self.waiters.len()
    }

    /// How many acquisitions had to wait (back-pressure metric).
    pub fn wait_events(&self) -> u64 {
        self.wait_events
    }

    pub fn acquired_total(&self) -> u64 {
        self.acquired_total
    }

    /// Take a token immediately if one is available.
    pub fn try_acquire(&mut self) -> bool {
        if self.available > 0 {
            self.available -= 1;
            self.acquired_total += 1;
            true
        } else {
            false
        }
    }

    /// Acquire a token, running `then` now (same instant) if available or
    /// when a token is released otherwise (FIFO among waiters).
    pub fn acquire(&mut self, sim: &mut Sim, then: impl FnOnce(&mut Sim) + 'static) {
        if self.try_acquire() {
            sim.schedule_now(then);
        } else {
            self.wait_events += 1;
            self.waiters.push_back(EventFn::new(then));
        }
    }

    /// Return a token; hands it to the oldest waiter if any.
    pub fn release(&mut self, sim: &mut Sim) {
        if let Some(waiter) = self.waiters.pop_front() {
            // Token passes directly to the waiter.
            self.acquired_total += 1;
            sim.schedule_now_fn(waiter);
        } else {
            assert!(
                self.available < self.capacity,
                "token pool {}: release without acquire",
                self.name
            );
            self.available += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cloned, shared};

    #[test]
    fn core_serializes_fifo() {
        let mut sim = Sim::new();
        let core = CoreResource::new_shared("c0");
        let log = shared(Vec::new());
        for i in 0..3u32 {
            core.borrow_mut().charge(
                &mut sim,
                SimTime::from_us(10),
                cloned!([log] move |sim| {
                    log.borrow_mut().push((i, sim.now()));
                }),
            );
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (0, SimTime::from_us(10)),
                (1, SimTime::from_us(20)),
                (2, SimTime::from_us(30)),
            ]
        );
        let core = core.borrow();
        assert_eq!(core.busy_time(), SimTime::from_us(30));
        assert_eq!(core.jobs(), 3);
    }

    #[test]
    fn core_idles_between_bursts() {
        let mut sim = Sim::new();
        let core = CoreResource::new_shared("c0");
        let done = shared(Vec::new());
        core.borrow_mut()
            .charge(&mut sim, SimTime::from_us(5), move |_| {});
        // Second burst arrives at t=100, after the core went idle at t=5.
        sim.schedule_at(
            SimTime::from_us(100),
            cloned!([core, done] move |sim| {
                core.borrow_mut().charge(
                    sim,
                    SimTime::from_us(5),
                    cloned!([done] move |sim| {
                        done.borrow_mut().push(sim.now());
                    }),
                );
            }),
        );
        sim.run();
        assert_eq!(*done.borrow(), vec![SimTime::from_us(105)]);
        // Utilization: 10us of work over 105us.
        assert!((core.borrow().utilization(SimTime::from_us(105)) - 10.0 / 105.0).abs() < 1e-12);
    }

    #[test]
    fn token_pool_grants_and_blocks() {
        let mut sim = Sim::new();
        let pool = TokenPool::new_shared("p", 2);
        let log = shared(Vec::new());
        for i in 0..4u32 {
            pool.borrow_mut().acquire(
                &mut sim,
                cloned!([log] move |sim| log.borrow_mut().push((i, sim.now()))),
            );
        }
        // Two grants immediately, two waiting.
        sim.run();
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(pool.borrow().waiters(), 2);
        assert_eq!(pool.borrow().wait_events(), 2);

        // Release at t=50: waiter 2 runs.
        sim.schedule_at(
            SimTime::from_us(50),
            cloned!([pool] move |sim| pool.borrow_mut().release(sim)),
        );
        sim.run();
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(log.borrow()[2], (2, SimTime::from_us(50)));

        sim.schedule_at(
            SimTime::from_us(60),
            cloned!([pool] move |sim| pool.borrow_mut().release(sim)),
        );
        sim.run();
        assert_eq!(log.borrow()[3], (3, SimTime::from_us(60)));
        assert_eq!(pool.borrow().in_use(), 2);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn token_pool_over_release_panics() {
        let mut sim = Sim::new();
        let mut pool = TokenPool::new("p", 1);
        pool.release(&mut sim);
    }

    #[test]
    fn occupy_accounts_without_callback() {
        let mut core = CoreResource::new("c");
        let end = core.occupy(SimTime::from_us(3), SimTime::from_us(7));
        assert_eq!(end, SimTime::from_us(10));
        let end2 = core.occupy(SimTime::from_us(3), SimTime::from_us(1));
        assert_eq!(end2, SimTime::from_us(11));
    }
}
