//! The work-stealing thread pool: the **real substrate**.
//!
//! `threads` OS workers each own one [`deque`](crate::deque) (LIFO local
//! push/pop); spawns from outside the pool land in a shared FIFO injector.
//! An idle worker tries, in order: its own deque, the injector, then
//! stealing from victims chosen by a [`DetRng`] seeded from
//! `seed ^ worker-index` — so the victim *sequence* each worker probes is
//! reproducible per run seed even though which probe wins depends on
//! wall-clock interleaving. With `threads == 1` there is no interleaving
//! at all and execution order is fully deterministic.
//!
//! ## Parker / wake protocol
//!
//! Workers that find nothing park on a condvar. Lost wakeups are prevented
//! with an epoch: a worker snapshots the epoch *before* scanning for work;
//! every spawn bumps the epoch (under the same mutex) and wakes a sleeper;
//! a worker only commits to sleeping if the epoch is still its snapshot —
//! otherwise work may have arrived mid-scan and it rescans.
//!
//! ## Quiescence
//!
//! A `pending` counter is incremented at spawn and decremented after a job
//! finishes, so `pending == 0` means "no job queued anywhere and none
//! running" — jobs only enter through spawns, and a job's own spawns are
//! counted before it decrements itself. [`Pool::run_until_idle`] blocks
//! until that holds *and every worker has parked*: the last worker to
//! park signals it. Parking takes the `sync` mutex, so everything a worker
//! wrote before — counters, trace events, whatever its jobs touched —
//! happens-before the caller's return, and nothing moves until the next
//! spawn.

use std::collections::VecDeque;
use std::sync::atomic::{
    AtomicU64, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use amt_simnet::{DetRng, SimTime, Substrate, SubstrateJob, SubstrateKind};

use crate::deque::{self, Steal, Stealer, Worker};
use crate::obs::{PoolStats, TraceBuf, TraceEvent, WorkerCounters, TRACE_CAP};

struct PoolSync {
    /// Bumped on every spawn; parking workers re-check it (see module
    /// docs).
    epoch: u64,
    /// Workers currently parked on `wake`.
    idle: usize,
    shutdown: bool,
}

/// What a deque slot points at: a job, or `None` once a worker has taken
/// it. The deque needs thin pointers and a job is a fat one, so each
/// queued job sits in a box of its own; emptied boxes go on the taking
/// worker's spare list and are refilled by its next [`Substrate::defer`]
/// instead of being freed and allocated again.
type Slot = Option<SubstrateJob>;

/// A worker's emptied slot boxes (it is their allocations that are kept,
/// so the boxes must stay boxes).
#[allow(clippy::vec_box)]
type Spare = Vec<Box<Slot>>;

/// Most boxes a worker keeps spare; a thief that never defers would
/// otherwise hoard one per steal.
const SPARE_SLOTS: usize = 256;

struct PoolShared {
    stealers: Vec<Stealer<Slot>>,
    injector: Mutex<VecDeque<SubstrateJob>>,
    sync: Mutex<PoolSync>,
    wake: Condvar,
    /// Signalled (under `sync`) by the last worker to park.
    quiet: Condvar,
    pending: AtomicUsize,
    start: Instant,
    seed: u64,
    /// Always-on per-worker scheduling counters (relaxed atomics).
    counters: Vec<WorkerCounters>,
    /// Jobs injected from outside the pool.
    injector_pushes: AtomicU64,
    /// Globally-unique steal flow-arrow ids.
    steal_seq: AtomicU64,
    /// Per-worker trace buffers; `None` on an untraced pool, making
    /// every record site a single branch (zero-cost when disabled).
    trace: Option<Vec<TraceBuf>>,
}

impl PoolShared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The trace buffer of worker `index`, if tracing is on.
    fn buf(&self, index: usize) -> Option<&TraceBuf> {
        self.trace.as_ref().map(|bufs| &bufs[index])
    }

    fn notify_spawn(&self) {
        let mut s = self.sync.lock().expect("pool sync");
        s.epoch += 1;
        if s.idle > 0 {
            self.wake.notify_one();
        }
    }

    fn spawn_injected(&self, job: SubstrateJob) {
        self.pending.fetch_add(1, SeqCst);
        self.injector_pushes.fetch_add(1, Relaxed);
        self.injector.lock().expect("pool injector").push_back(job);
        self.notify_spawn();
    }
}

/// Capacity of each worker's bounded deque; overflow spills to the
/// injector.
const DEQUE_CAP: usize = 8192;

/// A running work-stealing pool. Dropping it shuts the workers down
/// (outstanding jobs are still completed first if you call
/// [`Pool::run_until_idle`] before dropping).
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// A cloneable spawn handle usable from outside the pool.
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<PoolShared>,
}

impl PoolHandle {
    /// Enqueue `job` on the shared injector.
    pub fn spawn(&self, job: SubstrateJob) {
        self.shared.spawn_injected(job);
    }
}

/// The per-worker execution context jobs run against: the real
/// implementation of [`Substrate`].
pub struct WorkerCtx<'a> {
    shared: &'a Arc<PoolShared>,
    local: &'a Worker<Slot>,
    spare: &'a mut Spare,
    index: usize,
}

impl WorkerCtx<'_> {
    /// How many workers the pool runs.
    pub fn pool_threads(&self) -> usize {
        self.shared.stealers.len()
    }
}

impl Substrate for WorkerCtx<'_> {
    fn kind(&self) -> SubstrateKind {
        SubstrateKind::Real
    }

    fn now(&self) -> SimTime {
        SimTime::from_ns(self.shared.start.elapsed().as_nanos() as u64)
    }

    fn worker(&self) -> Option<usize> {
        Some(self.index)
    }

    fn defer(&mut self, job: SubstrateJob) {
        self.shared.pending.fetch_add(1, SeqCst);
        let c = &self.shared.counters[self.index];
        let mut slot = self.spare.pop().unwrap_or_default();
        *slot = Some(job);
        // LIFO local push; a full deque overflows to the injector.
        if let Err(slot) = self.local.push(slot) {
            c.overflow_pushes.fetch_add(1, Relaxed);
            let depth = {
                let mut inj = self.shared.injector.lock().expect("pool injector");
                inj.push_back(take_job(slot, self.spare));
                inj.len()
            };
            if let Some(buf) = self.shared.buf(self.index) {
                buf.push(TraceEvent::InjectorDepth {
                    at_ns: self.shared.now_ns(),
                    depth: depth as u32,
                });
            }
        } else {
            c.deque_pushes.fetch_add(1, Relaxed);
            if let Some(buf) = self.shared.buf(self.index) {
                buf.push(TraceEvent::DequeDepth {
                    at_ns: self.shared.now_ns(),
                    depth: self.local.len() as u32,
                });
            }
        }
        self.shared.notify_spawn();
    }

    fn trace_task(&mut self, name: &'static str, node: usize, start: SimTime, end: SimTime) {
        if let Some(buf) = self.shared.buf(self.index) {
            buf.push(TraceEvent::Span {
                name,
                node: node as u32,
                start_ns: start.as_ns(),
                end_ns: end.as_ns(),
            });
        }
    }
}

impl Pool {
    /// Start `threads` workers (`0` = one per available core). `seed`
    /// derives each worker's steal-victim sequence.
    pub fn new(threads: usize, seed: u64) -> Pool {
        Pool::with_trace(threads, seed, false)
    }

    /// [`Pool::new`] with per-worker trace buffers allocated, so the run
    /// records task spans, steal arrows, park instants, and queue-depth
    /// samples (drained with [`Pool::drain_trace`]).
    pub fn new_traced(threads: usize, seed: u64) -> Pool {
        Pool::with_trace(threads, seed, true)
    }

    fn with_trace(threads: usize, seed: u64, traced: bool) -> Pool {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let mut workers = Vec::with_capacity(threads);
        let mut stealers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = deque::deque::<Slot>(DEQUE_CAP);
            workers.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(PoolShared {
            stealers,
            injector: Mutex::new(VecDeque::new()),
            sync: Mutex::new(PoolSync {
                epoch: 0,
                idle: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            quiet: Condvar::new(),
            pending: AtomicUsize::new(0),
            start: Instant::now(),
            seed,
            counters: (0..threads).map(|_| WorkerCounters::default()).collect(),
            injector_pushes: AtomicU64::new(0),
            steal_seq: AtomicU64::new(0),
            trace: traced.then(|| (0..threads).map(|_| TraceBuf::new(TRACE_CAP)).collect()),
        });
        let threads = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("amt-exec-{index}"))
                    .spawn(move || worker_loop(index, local, shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.stealers.len()
    }

    /// A cloneable external spawn handle.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: self.shared.clone(),
        }
    }

    /// Enqueue `job` from outside the pool.
    pub fn spawn(&self, job: SubstrateJob) {
        self.shared.spawn_injected(job);
    }

    /// Wall-clock time since the pool started (the real substrate's
    /// [`Substrate::now`] anchor).
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.shared.start.elapsed().as_nanos() as u64)
    }

    /// Block until every spawned job (including jobs they spawned) has
    /// finished and every worker has parked (module docs).
    pub fn run_until_idle(&self) {
        let mut s = self.shared.sync.lock().expect("pool sync");
        while self.shared.pending.load(SeqCst) > 0 || s.idle < self.threads() {
            s = self.shared.quiet.wait(s).expect("pool quiet wait");
        }
    }

    /// Snapshot the pool's scheduling counters. Stable once the pool is
    /// quiescent ([`Pool::run_until_idle`]); advisory while jobs run.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            per_worker: self.shared.counters.iter().map(|c| c.snapshot()).collect(),
            injector_pushes: self.shared.injector_pushes.load(Relaxed),
            trace_dropped: self
                .shared
                .trace
                .as_ref()
                .map(|bufs| bufs.iter().map(|b| b.dropped()).sum())
                .unwrap_or(0),
        }
    }

    /// Drain the per-worker trace buffers: one event vector per worker,
    /// in worker-index order. `None` on an untraced pool. Call at
    /// quiescence — events recorded while the snapshot runs may be
    /// missed (never torn).
    pub fn drain_trace(&self) -> Option<Vec<Vec<TraceEvent>>> {
        self.shared
            .trace
            .as_ref()
            .map(|bufs| bufs.iter().map(|b| b.drain()).collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.sync.lock().expect("pool sync");
            s.shutdown = true;
            self.shared.wake.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Move the job out of a popped or stolen slot and keep the emptied box.
fn take_job(mut slot: Box<Slot>, spare: &mut Spare) -> SubstrateJob {
    let job = slot.take().expect("queued slots hold a job");
    if spare.len() < SPARE_SLOTS {
        spare.push(slot);
    }
    job
}

fn worker_loop(index: usize, local: Worker<Slot>, shared: Arc<PoolShared>) {
    let mut rng = DetRng::seed_from_u64(shared.seed ^ (index as u64).wrapping_mul(0x9e3779b9));
    let n = shared.stealers.len();
    let mut spare = Spare::new();
    loop {
        // Snapshot the epoch before scanning so a spawn racing the scan
        // forces a rescan instead of a lost wakeup.
        let epoch = shared.sync.lock().expect("pool sync").epoch;
        if let Some(job) = find_job(index, &local, &shared, &mut rng, n, &mut spare) {
            let mut ctx = WorkerCtx {
                shared: &shared,
                local: &local,
                spare: &mut spare,
                index,
            };
            job(&mut ctx);
            shared.counters[index].executed.fetch_add(1, Relaxed);
            shared.pending.fetch_sub(1, SeqCst);
            continue;
        }
        let mut s = shared.sync.lock().expect("pool sync");
        if s.shutdown {
            return;
        }
        if s.epoch != epoch {
            continue; // work arrived mid-scan; rescan
        }
        s.idle += 1;
        shared.counters[index].parks.fetch_add(1, Relaxed);
        if let Some(buf) = shared.buf(index) {
            buf.push(TraceEvent::Park {
                at_ns: shared.now_ns(),
            });
        }
        if s.idle == n {
            shared.quiet.notify_all();
        }
        // Park until any spawn bumps the epoch (or shutdown).
        while s.epoch == epoch && !s.shutdown {
            s = shared.wake.wait(s).expect("pool wake wait");
        }
        s.idle -= 1;
        if let Some(buf) = shared.buf(index) {
            buf.push(TraceEvent::Unpark {
                at_ns: shared.now_ns(),
            });
        }
    }
}

fn find_job(
    index: usize,
    local: &Worker<Slot>,
    shared: &PoolShared,
    rng: &mut DetRng,
    n: usize,
    spare: &mut Spare,
) -> Option<SubstrateJob> {
    if let Some(slot) = local.pop() {
        if let Some(buf) = shared.buf(index) {
            buf.push(TraceEvent::DequeDepth {
                at_ns: shared.now_ns(),
                depth: local.len() as u32,
            });
        }
        return Some(take_job(slot, spare));
    }
    {
        let mut inj = shared.injector.lock().expect("pool injector");
        if let Some(job) = inj.pop_front() {
            let depth = inj.len();
            drop(inj);
            if let Some(buf) = shared.buf(index) {
                buf.push(TraceEvent::InjectorDepth {
                    at_ns: shared.now_ns(),
                    depth: depth as u32,
                });
            }
            return Some(job);
        }
    }
    if n > 1 {
        // Randomized victim probing: up to 4 sweeps over the other
        // workers, DetRng-ordered; `Retry` results keep a sweep alive.
        for _ in 0..4 * (n - 1) {
            let victim = {
                let v = rng.gen_usize(0..n - 1);
                if v >= index {
                    v + 1
                } else {
                    v
                }
            };
            match shared.stealers[victim].steal() {
                Steal::Taken(slot) => {
                    shared.counters[index].steals.fetch_add(1, Relaxed);
                    if let Some(buf) = shared.buf(index) {
                        buf.push(TraceEvent::Steal {
                            id: shared.steal_seq.fetch_add(1, Relaxed),
                            victim: victim as u32,
                            at_ns: shared.now_ns(),
                        });
                    }
                    return Some(take_job(slot, spare));
                }
                Steal::Empty | Steal::Retry => {
                    shared.counters[index].failed_probes.fetch_add(1, Relaxed);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_spawned_jobs_to_quiescence() {
        let pool = Pool::new(2, 7);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = hits.clone();
            pool.spawn(Box::new(move |sub| {
                assert_eq!(sub.kind(), SubstrateKind::Real);
                assert!(sub.worker().is_some());
                // Fan out one nested job from inside the pool.
                let hits2 = hits.clone();
                sub.defer(Box::new(move |_| {
                    hits2.fetch_add(1, SeqCst);
                }));
                hits.fetch_add(1, SeqCst);
            }));
        }
        pool.run_until_idle();
        assert_eq!(hits.load(SeqCst), 200);
    }

    #[test]
    fn single_thread_pool_is_deterministic() {
        let order = |seed| {
            let pool = Pool::new(1, seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..50u64 {
                let log = log.clone();
                pool.spawn(Box::new(move |sub| {
                    log.lock().unwrap().push(i);
                    if i % 10 == 0 {
                        let log = log.clone();
                        sub.defer(Box::new(move |_| {
                            log.lock().unwrap().push(1000 + i);
                        }));
                    }
                }));
            }
            pool.run_until_idle();
            Arc::try_unwrap(log).unwrap().into_inner().unwrap()
        };
        let a = order(1);
        assert_eq!(a, order(2), "thread count 1 ignores the steal seed");
        assert_eq!(a.len(), 55);
    }

    #[test]
    fn run_until_idle_with_no_work_returns() {
        let pool = Pool::new(3, 0);
        pool.run_until_idle();
        assert_eq!(pool.threads(), 3);
        assert!(pool.now() >= SimTime::ZERO);
    }

    #[test]
    fn pool_stats_conserve_spawns_and_executions() {
        let pool = Pool::new(3, 11);
        for _ in 0..200 {
            pool.spawn(Box::new(move |sub| {
                // Two generations of nested defers exercise the local
                // deque path alongside the injector path.
                sub.defer(Box::new(move |sub| {
                    sub.defer(Box::new(|_| {}));
                }));
            }));
        }
        pool.run_until_idle();
        let s = pool.stats();
        assert_eq!(s.injector_pushes, 200);
        assert_eq!(s.spawns(), 600, "200 roots + 200 + 200 nested");
        assert_eq!(s.executions(), s.spawns(), "every spawned job ran");
        assert_eq!(s.trace_dropped, 0, "untraced pool drops nothing");
        assert_eq!(s.per_worker.len(), 3);
        // With 3 workers racing over one injector, the scan path runs;
        // parks are guaranteed at least at the end of the run for the
        // workers that finish early and find nothing.
        assert!(s.parks() > 0);
    }

    #[test]
    fn traced_pool_records_spans_and_drains_at_quiescence() {
        let pool = Pool::new_traced(2, 5);
        for i in 0..10u64 {
            pool.spawn(Box::new(move |sub| {
                let t0 = sub.now();
                sub.trace_task("unit", i as usize % 2, t0, sub.now());
            }));
        }
        pool.run_until_idle();
        let per_worker = pool.drain_trace().expect("traced pool");
        assert_eq!(per_worker.len(), 2);
        let spans: Vec<_> = per_worker
            .iter()
            .flatten()
            .filter(|e| matches!(e, TraceEvent::Span { .. }))
            .collect();
        assert_eq!(spans.len(), 10);
        for ev in per_worker.iter().flatten() {
            if let TraceEvent::Span {
                name,
                start_ns,
                end_ns,
                ..
            } = ev
            {
                assert_eq!(*name, "unit");
                assert!(end_ns >= start_ns);
            }
        }
        assert_eq!(pool.stats().trace_dropped, 0);
    }

    #[test]
    fn untraced_pool_has_no_trace() {
        let pool = Pool::new(2, 5);
        pool.spawn(Box::new(|sub| {
            let t = sub.now();
            sub.trace_task("x", 0, t, t); // must be a cheap no-op
        }));
        pool.run_until_idle();
        assert!(pool.drain_trace().is_none());
    }

    #[test]
    fn external_handle_spawns_after_idle_phase() {
        let pool = Pool::new(2, 3);
        let handle = pool.handle();
        pool.run_until_idle();
        // Workers are parked now; the handle must wake them.
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let hits = hits.clone();
            handle.spawn(Box::new(move |_| {
                hits.fetch_add(1, SeqCst);
            }));
        }
        pool.run_until_idle();
        assert_eq!(hits.load(SeqCst), 8);
    }
}
