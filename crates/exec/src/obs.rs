//! Pool observability: per-worker lock-free trace buffers and scheduling
//! counters.
//!
//! ## Trace buffers
//!
//! Each worker owns one fixed-capacity buffer: a slot array published
//! slot by slot with a release store of the length. [`trace_buf`] makes a
//! buffer as two ends: the one [`TraceWriter`], which its worker thread
//! owns and pushes through `&mut`, and the [`TraceReader`] the pool keeps
//! to drain it. The writer is neither `Clone` nor made any other way, so
//! one writer per buffer is a property of the types, not of the pool's
//! habit of passing each worker its own index. Recording is wait-free and
//! allocation-free; when a buffer fills, further events increment a
//! dropped counter instead of blocking or reallocating, so tracing never
//! perturbs the run's memory behavior mid-flight. Buffers are only
//! allocated when the pool is constructed traced
//! ([`crate::Pool::new_traced`]) — an untraced pool carries `None` and
//! every record site is a single branch.
//!
//! The drain ([`crate::Pool::drain_trace`]) is a snapshot taken at
//! quiescence (after [`crate::Pool::run_until_idle`]): workers are parked,
//! so the acquire load of each length observes every published slot.
//!
//! ## Counters
//!
//! [`PoolStats`] counters are always on: per-worker relaxed atomics
//! bumped on the paths they describe. Only the owning worker writes its
//! counters, so a bump is a relaxed load and store ([`bump`]), not a
//! lock-prefixed `fetch_add`; other threads only read them. They feed the
//! conservation invariant *spawns = executions* checked by the unit
//! tests and surfaced through `RunReport`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{
    AtomicU64, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;

/// One recorded pool event. Timestamps are nanoseconds since pool start
/// (the real substrate's clock anchor), matching `WorkerCtx::now`.
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent {
    /// A completed task execution on this worker (recorded by the layer
    /// above through `WorkerCtx::trace_task`).
    Span {
        /// Task class name.
        name: &'static str,
        /// Simulated node the task belongs to.
        node: u32,
        /// Span start, ns since pool start.
        start_ns: u64,
        /// Span end, ns since pool start.
        end_ns: u64,
    },
    /// A successful steal: this worker took a job from `victim`'s queue.
    /// `id` is globally unique so the victim/thief endpoints of the flow
    /// arrow pair up at export time.
    Steal {
        /// Flow-arrow id, unique across the pool.
        id: u64,
        /// Worker index the job was stolen from.
        victim: u32,
        /// Steal instant, ns since pool start.
        at_ns: u64,
    },
    /// This worker committed to parking (found no work).
    Park {
        /// Park instant, ns since pool start.
        at_ns: u64,
    },
    /// This worker woke from a park.
    Unpark {
        /// Wake instant, ns since pool start.
        at_ns: u64,
    },
    /// Own-queue depth after a local push or pop.
    DequeDepth {
        /// Sample instant, ns since pool start.
        at_ns: u64,
        /// Queue length after the operation.
        depth: u32,
    },
    /// Shared-injector depth after this worker took a job from it.
    InjectorDepth {
        /// Sample instant, ns since pool start.
        at_ns: u64,
        /// Injector length after the take.
        depth: u32,
    },
}

/// Events each worker's trace buffer can hold before dropping.
pub(crate) const TRACE_CAP: usize = 1 << 16;

/// The slots and counts a [`TraceWriter`] and its [`TraceReader`] share.
struct TraceSlots {
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

// The one `TraceWriter` writes only the slot at the published length and
// then publishes it (release); a reader only touches slots below the
// length it loaded (acquire). No slot is ever read and written at once.
unsafe impl Sync for TraceSlots {}

/// The writing end of a trace buffer: one per buffer, owned by its worker
/// (module docs).
pub(crate) struct TraceWriter(Arc<TraceSlots>);

/// The reading end of a trace buffer, kept by the pool.
pub(crate) struct TraceReader(Arc<TraceSlots>);

/// A fixed-capacity event buffer of `cap` slots, as its only writer and
/// its reader.
pub(crate) fn trace_buf(cap: usize) -> (TraceWriter, TraceReader) {
    let slots = Arc::new(TraceSlots {
        slots: (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        len: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
    });
    (TraceWriter(slots.clone()), TraceReader(slots))
}

impl TraceWriter {
    /// Record `ev`; a full buffer counts it as dropped.
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        let b = &*self.0;
        let len = b.len.load(Relaxed);
        if len >= b.slots.len() {
            bump(&b.dropped);
            return;
        }
        // SAFETY: this writer is the buffer's only one and `&mut self`
        // excludes a concurrent push, so nothing else writes slot `len`;
        // readers read only below the published length, which is `len`
        // until the store below.
        unsafe { (*b.slots[len].get()).write(ev) };
        b.len.store(len + 1, Release);
    }
}

impl TraceReader {
    /// Snapshot of every published event (call at quiescence).
    pub(crate) fn drain(&self) -> Vec<TraceEvent> {
        let b = &*self.0;
        let len = b.len.load(Acquire);
        (0..len)
            // SAFETY: the writer initialized every slot below `len` before
            // its release store of `len`, which the acquire load above
            // read; it never writes those slots again.
            .map(|i| unsafe { (*b.slots[i].get()).assume_init() })
            .collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.0.dropped.load(Relaxed)
    }
}

/// Always-on per-worker scheduling counters (relaxed atomics inside the
/// pool; this is the snapshot form).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker ran to completion.
    pub executed: u64,
    /// Jobs this worker pushed onto its own queue (`WorkerCtx::defer`,
    /// `WorkerCtx::defer_task`).
    pub deque_pushes: u64,
    /// Successful steals by this worker (as the thief).
    pub steals: u64,
    /// Steal probes that found the victim empty or contended.
    pub failed_probes: u64,
    /// Times this worker parked after a fruitless scan.
    pub parks: u64,
}

/// Snapshot of pool scheduling internals ([`crate::Pool::stats`]).
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// One entry per worker, index = worker index.
    pub per_worker: Vec<WorkerStats>,
    /// Jobs spawned from outside the pool (injector pushes via
    /// `Pool::spawn` / `Pool::spawn_task`).
    pub injector_pushes: u64,
    /// Trace events lost to full buffers (0 when untraced).
    pub trace_dropped: u64,
}

impl PoolStats {
    /// Total jobs that entered the pool: external injector pushes plus
    /// every worker-side defer.
    pub fn spawns(&self) -> u64 {
        self.injector_pushes + self.per_worker.iter().map(|w| w.deque_pushes).sum::<u64>()
    }

    /// Total jobs run to completion.
    pub fn executions(&self) -> u64 {
        self.per_worker.iter().map(|w| w.executed).sum()
    }

    /// Total successful steals.
    pub fn steals(&self) -> u64 {
        self.per_worker.iter().map(|w| w.steals).sum()
    }

    /// Total failed steal probes.
    pub fn failed_probes(&self) -> u64 {
        self.per_worker.iter().map(|w| w.failed_probes).sum()
    }

    /// Total parks.
    pub fn parks(&self) -> u64 {
        self.per_worker.iter().map(|w| w.parks).sum()
    }
}

/// The atomic originals the snapshot above is read from, on cache lines
/// of their own: each worker bumps its counters on every job, and no
/// other thread writes them.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct WorkerCounters {
    pub(crate) executed: AtomicU64,
    pub(crate) deque_pushes: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) failed_probes: AtomicU64,
    pub(crate) parks: AtomicU64,
}

/// Add one to a counter that only the calling worker writes (module
/// docs): a relaxed load and store, with no read-modify-write to pay for.
#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Relaxed) + 1, Relaxed);
}

impl WorkerCounters {
    pub(crate) fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed.load(Relaxed),
            deque_pushes: self.deque_pushes.load(Relaxed),
            steals: self.steals.load(Relaxed),
            failed_probes: self.failed_probes.load(Relaxed),
            parks: self.parks.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_buf_drops_past_capacity_and_counts() {
        let (mut w, r) = trace_buf(4);
        for i in 0..6 {
            w.push(TraceEvent::Park { at_ns: i });
        }
        let evs = r.drain();
        assert_eq!(evs.len(), 4);
        assert!(matches!(evs[3], TraceEvent::Park { at_ns: 3 }));
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn pool_stats_totals_sum_workers() {
        let s = PoolStats {
            per_worker: vec![
                WorkerStats {
                    executed: 3,
                    deque_pushes: 3,
                    steals: 1,
                    failed_probes: 5,
                    parks: 2,
                },
                WorkerStats {
                    executed: 4,
                    deque_pushes: 0,
                    steals: 2,
                    failed_probes: 0,
                    parks: 1,
                },
            ],
            injector_pushes: 4,
            trace_dropped: 0,
        };
        assert_eq!(s.spawns(), 7);
        assert_eq!(s.executions(), 7);
        assert_eq!(s.steals(), 3);
        assert_eq!(s.failed_probes(), 5);
        assert_eq!(s.parks(), 3);
    }
}
