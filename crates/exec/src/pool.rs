//! The work-stealing thread pool: the **real substrate**.
//!
//! `threads` OS workers each own one queue, a `VecDeque` behind a mutex:
//! the owner pushes and pops at the back (LIFO — freshly released work
//! runs while its data is hot), a thief pops the front (FIFO — it gets the
//! oldest, usually largest, work). Spawns from outside the pool land in a
//! shared FIFO injector. An idle worker tries, in order: its own queue,
//! the injector, then stealing from victims chosen by a [`DetRng`] seeded
//! from `seed ^ worker-index` — so the victim *sequence* each worker probes
//! is reproducible per run seed even though which probe wins depends on
//! wall-clock interleaving. A thief only `try_lock`s a victim's queue: a
//! held lock counts as a failed probe and the sweep moves on. With
//! `threads == 1` there is no interleaving at all and execution order is
//! fully deterministic.
//!
//! A queued job is a closure ([`WorkerCtx::defer`], [`Pool::spawn`]) or a
//! bare task id ([`WorkerCtx::defer_task`], [`Pool::spawn_task`]) that the
//! pool's one task runner, installed by [`Pool::with_runner`], executes:
//! an id costs no allocation and captures nothing the runner does not
//! already hold.
//!
//! ## Parker / wake protocol
//!
//! Workers that find nothing park on a condvar. A push writes nothing
//! shared unless a worker sleeps: the pusher queues its job, issues a
//! `SeqCst` fence and loads the atomic `sleepers` count. Only when that is
//! non-zero does it take the `sync` mutex and, if a sleeper is still
//! counted there, *claim* it: lower `sleepers`, add a wake token and
//! notify one waiter. A parker takes `sync`, raises `sleepers`, issues a
//! `SeqCst` fence and, still under `sync`, rescans every queue and the
//! injector. If it finds a job it lowers `sleepers` and scans again;
//! otherwise it waits on the condvar until a token is there, and takes it.
//!
//! The two fences pair as in Dekker's algorithm. Each side writes, fences,
//! then reads what the other wrote: the pusher its queue (under the
//! queue's mutex, unlocked before the fence) then `sleepers`, the parker
//! `sleepers` then each queue (locked after the fence). `SeqCst` fences
//! are totally ordered. If the pusher's comes first, the parker's lock of
//! that queue reads its unlock or a later one, so the rescan sees the job.
//! If the parker's comes first, the pusher's load reads the raise or a
//! later change: a claim by another pusher, which wakes a worker, or the
//! parker lowering its count after a rescan that found work, after which
//! it scans again. Either way some worker scans after the job was queued:
//! no wakeup is lost. The parker holds `sync` from its raise until its
//! wait releases it, so a claim cannot fall between rescan and wait.
//!
//! A push from a worker with nobody asleep thus writes nothing outside its
//! own queue and counters, and takes no lock but its queue's. The protocol is transcribed as step machines in
//! `park_check.rs`, which enumerates every interleaving of two workers
//! and an external spawner.
//!
//! ## Quiescence
//!
//! `pending` counts injector jobs only — external spawns — raised before
//! the push and lowered when a worker takes the job. Queued jobs need no
//! count: only a running job pushes to a worker queue, and a parker's
//! rescan found every queue empty after its raise. `sleepers` counts the
//! waiting workers nobody has claimed: a woken worker stops counting when
//! its waker claims it, before it runs again. So `sleepers == threads`
//! means every worker waits with no token outstanding — no queue holds a
//! job and no job runs — and with `pending == 0` the injector holds none
//! either. [`Pool::run_until_idle`] waits, under `sync`, for exactly that:
//! the last worker to park signals it. Parking takes the `sync` mutex, so
//! everything a worker wrote before — counters, trace events, whatever its
//! jobs touched — happens-before the caller's return, and no worker runs,
//! parks or records anything until the next spawn.
//!
//! A job that panics does not take its worker down, which would leave
//! `sleepers` short of `threads` for good: the worker keeps the first
//! panic's payload and carries on, and [`Pool::run_until_idle`] raises it
//! once the pool is quiet.
//!
//! ## Clock
//!
//! [`WorkerCtx::now`] and [`Pool::now`] read wall time since the pool
//! started from the CPU's time-stamp counter where it is invariant (x86-64
//! with CPUID `0x8000_0007` EDX bit 8: constant rate, never stopped, so
//! one scale holds for every core and every power state). The scale is
//! calibrated once per process, on the first pool, against [`Instant`]
//! over a spin of about 2 ms, as a Q32 ns-per-tick multiplier. Everywhere
//! else the clock is [`Instant::elapsed`]. The real substrate stamps every
//! message with it, so a read is on its hot path: ≈ 22 ns for the scaled
//! counter against ≈ 45 ns for `Instant::elapsed` on the 2-core x86-64
//! box of DESIGN.md §3.8.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{
    fence, AtomicU64, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use amt_simnet::{DetRng, SimTime};

use crate::obs::{
    bump, trace_buf, PoolStats, TraceEvent, TraceReader, TraceWriter, WorkerCounters, TRACE_CAP,
};

/// A closure job: runs on whichever worker takes it, and may defer
/// more. `Send` because a thief may run it on another thread.
pub type PoolJob = Box<dyn FnOnce(&mut WorkerCtx<'_>) + Send + 'static>;

/// A queued unit of work.
enum Job {
    /// A task id for the pool's runner.
    Task(usize),
    /// A closure.
    Closure(PoolJob),
}

/// The pool's task runner: runs a task id on the calling worker.
type Runner = dyn Fn(&mut WorkerCtx<'_>, usize) + Send + Sync;

/// The atomics of the park protocol (module docs), on a cache line of
/// their own: every push reads `sleepers`, and a park writes it.
#[repr(align(128))]
struct Parking {
    /// Waiting workers not yet claimed by a waker; changed only under
    /// `sync`.
    sleepers: AtomicUsize,
    /// Injector jobs not yet taken.
    pending: AtomicUsize,
}

/// What `sync` guards (module docs).
struct Sleep {
    /// Set when the pool drops: every worker returns.
    shutdown: bool,
    /// Claimed sleepers whose waiter has not yet woken and taken its
    /// token.
    wakes: usize,
}

/// A worker's queue (module docs), on a cache line of its own so that one
/// worker's pushes do not evict its neighbours' locks.
#[repr(align(128))]
struct Queue(Mutex<VecDeque<Job>>);

struct PoolShared {
    /// One queue per worker, index = worker index.
    queues: Vec<Queue>,
    injector: Mutex<VecDeque<Job>>,
    parking: Parking,
    /// Parkers, wakers and [`Pool::run_until_idle`] lock it (module docs).
    sync: Mutex<Sleep>,
    wake: Condvar,
    /// Signalled (under `sync`) by the last worker to park.
    quiet: Condvar,
    /// The payload of the first job that panicked, until
    /// [`Pool::run_until_idle`] raises it.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    runner: Box<Runner>,
    clock: Clock,
    seed: u64,
    /// Always-on per-worker scheduling counters (relaxed atomics).
    counters: Vec<WorkerCounters>,
    /// Jobs injected from outside the pool.
    injector_pushes: AtomicU64,
    /// Globally-unique steal flow-arrow ids.
    steal_seq: AtomicU64,
    /// The reading ends of the per-worker trace buffers; `None` on an
    /// untraced pool. Each worker owns its buffer's writer.
    trace: Option<Vec<TraceReader>>,
}

impl PoolShared {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Worker `index`'s queue, locked.
    fn queue(&self, index: usize) -> MutexGuard<'_, VecDeque<Job>> {
        self.queues[index].0.lock().expect("pool queue")
    }

    /// After a push: wake a sleeper if there is one (module docs). With
    /// nobody asleep this writes nothing shared.
    fn notify_push(&self) {
        let p = &self.parking;
        // Pairs with the parker's fence after its raise (module docs).
        fence(SeqCst);
        if p.sleepers.load(Relaxed) > 0 {
            let mut s = self.sync.lock().expect("pool sync");
            // Claim one sleeper, if another waker has not claimed the last.
            if p.sleepers.load(Relaxed) > 0 {
                p.sleepers.fetch_sub(1, SeqCst);
                s.wakes += 1;
                self.wake.notify_one();
            }
        }
    }

    /// Whether a queue or the injector holds a job: a parker's rescan.
    fn has_work(&self) -> bool {
        self.queues
            .iter()
            .any(|q| !q.0.lock().expect("pool queue").is_empty())
            || !self.injector.lock().expect("pool injector").is_empty()
    }

    /// Queue `job` on the injector (a spawn from outside the pool).
    fn spawn_injected(&self, job: Job) {
        self.injector_pushes.fetch_add(1, Relaxed);
        self.parking.pending.fetch_add(1, SeqCst);
        self.injector.lock().expect("pool injector").push_back(job);
        self.notify_push();
    }
}

/// Wall time since a pool started (module docs): time-stamp counter
/// ticks scaled by the process's calibration, or [`Instant`] where the
/// counter is not invariant.
struct Clock {
    start: Instant,
    /// The tick at `start` and the Q32 ns-per-tick scale; `None` reads
    /// `start.elapsed()`.
    tsc: Option<(u64, u64)>,
}

impl Clock {
    /// A clock from now; on the time-stamp counter if `tsc` asks for it
    /// and the CPU has an invariant one.
    fn new(tsc: bool) -> Clock {
        let q32 = tsc.then(ns_per_tick_q32).flatten();
        let (tick, start) = tick_pair();
        Clock {
            start,
            tsc: q32.map(|q32| (tick, q32)),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        match self.tsc {
            // Saturating: another core's counter may trail the starting
            // one by a few ticks.
            Some((start, q32)) => {
                ((ticks().saturating_sub(start) as u128 * q32 as u128) >> 32) as u64
            }
            None => self.start.elapsed().as_nanos() as u64,
        }
    }
}

/// How long the calibration spins.
const CALIBRATION: Duration = Duration::from_millis(2);

/// The process's ns per time-stamp-counter tick, in Q32 fixed point,
/// measured against [`Instant`] on first use; `None` without an invariant
/// counter.
fn ns_per_tick_q32() -> Option<u64> {
    static SCALE: OnceLock<Option<u64>> = OnceLock::new();
    *SCALE.get_or_init(|| {
        if !invariant_tsc() {
            return None;
        }
        let (t0, i0) = tick_pair();
        while i0.elapsed() < CALIBRATION {
            std::hint::spin_loop();
        }
        let (t1, i1) = tick_pair();
        let ticks = t1.checked_sub(t0).filter(|&t| t > 0)?;
        let q32 = ((i1 - i0).as_nanos() << 32) / ticks as u128;
        u64::try_from(q32).ok().filter(|&q| q > 0)
    })
}

/// A tick and an [`Instant`] read together: of three tries, the one whose
/// two tick reads around the `Instant` lie closest, at their midpoint (a
/// preemption between the reads would skew the calibration).
fn tick_pair() -> (u64, Instant) {
    (0..3)
        .map(|_| {
            let a = ticks();
            let at = Instant::now();
            let b = ticks().max(a);
            (b - a, a + (b - a) / 2, at)
        })
        .min_by_key(|&(width, ..)| width)
        .map(|(_, tick, at)| (tick, at))
        .expect("three tries")
}

#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use std::arch::x86_64::__cpuid;
    __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC exists on every x86-64 CPU; it reads the time-stamp
    // counter into registers and touches no memory.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn invariant_tsc() -> bool {
    false
}

/// Never scaled: without an invariant counter every clock reads `Instant`.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    0
}

/// A running work-stealing pool. Dropping it shuts the workers down
/// (outstanding jobs are still completed first if you call
/// [`Pool::run_until_idle`] before dropping).
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// The per-worker execution context jobs run against: the clock, this
/// worker's identity, its queue, and its trace buffer. Each worker thread
/// makes one and lends it to every job it runs.
pub struct WorkerCtx<'a> {
    shared: &'a PoolShared,
    index: usize,
    /// This worker's trace buffer; `None` on an untraced pool, making
    /// every record site a single branch (zero-cost when disabled).
    trace: Option<TraceWriter>,
}

impl WorkerCtx<'_> {
    /// Wall-clock time since the pool started ([`Pool::now`]).
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.shared.now_ns())
    }

    /// Index of the worker thread running this job.
    pub fn worker(&self) -> usize {
        self.index
    }

    /// Queue `job` on this worker's queue: LIFO, so freshly released work
    /// runs hot, and stealable by idle workers.
    pub fn defer(&mut self, job: PoolJob) {
        self.push(Job::Closure(job));
    }

    /// Queue task `id` for the pool's runner ([`Pool::with_runner`]) on
    /// this worker's queue, like [`WorkerCtx::defer`] but with nothing to
    /// allocate.
    pub fn defer_task(&mut self, id: usize) {
        self.push(Job::Task(id));
    }

    fn push(&mut self, job: Job) {
        let depth = {
            let mut q = self.shared.queue(self.index);
            q.push_back(job);
            q.len()
        };
        bump(&self.shared.counters[self.index].deque_pushes);
        self.record(|at_ns| TraceEvent::DequeDepth {
            at_ns,
            depth: depth as u32,
        });
        self.shared.notify_push();
    }

    /// On a traced pool, record the event `ev` makes of the current
    /// instant in this worker's buffer.
    fn record(&mut self, ev: impl FnOnce(u64) -> TraceEvent) {
        if let Some(w) = &mut self.trace {
            w.push(ev(self.shared.now_ns()));
        }
    }

    /// A task named `name`, of simulated node `node`, ran on this worker
    /// over `[start, end]`: on a traced pool, a span in this worker's
    /// trace buffer (the same Chrome-trace vocabulary as virtual runs).
    pub fn trace_task(&mut self, name: &'static str, node: usize, start: SimTime, end: SimTime) {
        if let Some(w) = &mut self.trace {
            w.push(TraceEvent::Span {
                name,
                node: node as u32,
                start_ns: start.as_ns(),
                end_ns: end.as_ns(),
            });
        }
    }
}

/// The runner of a pool built without one.
fn no_runner(_: &mut WorkerCtx<'_>, id: usize) {
    panic!("task {id} spawned on a pool built without a task runner");
}

impl Pool {
    /// Start `threads` workers (`0` = one per available core). `seed`
    /// derives each worker's steal-victim sequence.
    pub fn new(threads: usize, seed: u64) -> Pool {
        Pool::with_runner(threads, seed, false, no_runner)
    }

    /// [`Pool::new`] with per-worker trace buffers allocated, so the run
    /// records task spans, steal arrows, park instants, and queue-depth
    /// samples (drained with [`Pool::drain_trace`]).
    pub fn new_traced(threads: usize, seed: u64) -> Pool {
        Pool::with_runner(threads, seed, true, no_runner)
    }

    /// [`Pool::new`] (traced if `traced`) whose task ids
    /// ([`Pool::spawn_task`], [`WorkerCtx::defer_task`]) `runner` executes.
    pub fn with_runner(
        threads: usize,
        seed: u64,
        traced: bool,
        runner: impl Fn(&mut WorkerCtx<'_>, usize) + Send + Sync + 'static,
    ) -> Pool {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let (writers, readers): (Vec<_>, Vec<_>) = if traced {
            (0..threads).map(|_| trace_buf(TRACE_CAP)).unzip()
        } else {
            (Vec::new(), Vec::new())
        };
        let shared = Arc::new(PoolShared {
            queues: (0..threads)
                .map(|_| Queue(Mutex::new(VecDeque::new())))
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            parking: Parking {
                sleepers: AtomicUsize::new(0),
                pending: AtomicUsize::new(0),
            },
            sync: Mutex::new(Sleep {
                shutdown: false,
                wakes: 0,
            }),
            wake: Condvar::new(),
            quiet: Condvar::new(),
            panic: Mutex::new(None),
            runner: Box::new(runner),
            clock: Clock::new(true),
            seed,
            counters: (0..threads).map(|_| WorkerCounters::default()).collect(),
            injector_pushes: AtomicU64::new(0),
            steal_seq: AtomicU64::new(0),
            trace: traced.then_some(readers),
        });
        let mut writers = writers.into_iter();
        let threads = (0..threads)
            .map(|index| {
                let (shared, trace) = (shared.clone(), writers.next());
                std::thread::Builder::new()
                    .name(format!("amt-exec-{index}"))
                    .spawn(move || worker_loop(index, &shared, trace))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Enqueue `job` from outside the pool.
    pub fn spawn(&self, job: PoolJob) {
        self.shared.spawn_injected(Job::Closure(job));
    }

    /// Enqueue task `id` for the pool's runner from outside the pool.
    pub fn spawn_task(&self, id: usize) {
        self.shared.spawn_injected(Job::Task(id));
    }

    /// Wall-clock time since the pool started (the anchor of
    /// [`WorkerCtx::now`]).
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.shared.now_ns())
    }

    /// Block until every spawned job (including jobs they spawned) has
    /// finished and every worker has parked (module docs). Then, if a job
    /// panicked since the last call, panic with the first such payload.
    pub fn run_until_idle(&self) {
        let p = &self.shared.parking;
        let mut s = self.shared.sync.lock().expect("pool sync");
        while p.pending.load(SeqCst) > 0 || p.sleepers.load(SeqCst) < self.threads() {
            s = self.shared.quiet.wait(s).expect("pool quiet wait");
        }
        drop(s);
        // Taken before the unwind, which would poison a held lock.
        let panic = self.shared.panic.lock().expect("pool panic").take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Snapshot the pool's scheduling counters. Stable from the return of
    /// [`Pool::run_until_idle`] to the next spawn; advisory while jobs
    /// run.
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
        self.shared.sync.lock().expect("pool sync").shutdown = true;
        self.shared.wake.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(index: usize, shared: &PoolShared, trace: Option<TraceWriter>) {
    let mut rng = DetRng::seed_from_u64(shared.seed ^ (index as u64).wrapping_mul(0x9e3779b9));
    let mut ctx = WorkerCtx {
        shared,
        index,
        trace,
    };
    let p = &shared.parking;
    loop {
        if let Some(job) = find_job(&mut ctx, &mut rng) {
            let ran = catch_unwind(AssertUnwindSafe(|| match job {
                Job::Task(id) => (shared.runner)(&mut ctx, id),
                Job::Closure(f) => f(&mut ctx),
            }));
            if let Err(payload) = ran {
                // The first panic is the cause; later ones may follow from it.
                shared
                    .panic
                    .lock()
                    .expect("pool panic")
                    .get_or_insert(payload);
            }
            bump(&shared.counters[index].executed);
            continue;
        }
        let mut s = shared.sync.lock().expect("pool sync");
        if s.shutdown {
            return;
        }
        p.sleepers.fetch_add(1, SeqCst);
        // Pairs with a pusher's fence (module docs): a job queued after
        // the scan above is found here, or its pusher sees this sleeper.
        fence(SeqCst);
        if shared.has_work() {
            p.sleepers.fetch_sub(1, SeqCst);
            continue;
        }
        bump(&shared.counters[index].parks);
        ctx.record(|at_ns| TraceEvent::Park { at_ns });
        if p.sleepers.load(SeqCst) == shared.queues.len() {
            shared.quiet.notify_all();
        }
        while s.wakes == 0 && !s.shutdown {
            s = shared.wake.wait(s).expect("pool wake wait");
        }
        if s.shutdown {
            return;
        }
        // Its waker already lowered `sleepers` for it.
        s.wakes -= 1;
        drop(s);
        ctx.record(|at_ns| TraceEvent::Unpark { at_ns });
    }
}

fn find_job(ctx: &mut WorkerCtx<'_>, rng: &mut DetRng) -> Option<Job> {
    let (shared, index) = (ctx.shared, ctx.index);
    let n = shared.queues.len();
    let popped = {
        let mut q = shared.queue(index);
        q.pop_back().map(|job| (job, q.len()))
    };
    if let Some((job, depth)) = popped {
        ctx.record(|at_ns| TraceEvent::DequeDepth {
            at_ns,
            depth: depth as u32,
        });
        return Some(job);
    }
    {
        let mut inj = shared.injector.lock().expect("pool injector");
        if let Some(job) = inj.pop_front() {
            shared.parking.pending.fetch_sub(1, SeqCst);
            let depth = inj.len();
            drop(inj);
            ctx.record(|at_ns| TraceEvent::InjectorDepth {
                at_ns,
                depth: depth as u32,
            });
            return Some(job);
        }
    }
    if n > 1 {
        // Randomized victim probing: up to 4 sweeps over the other
        // workers, DetRng-ordered; a held lock is a failed probe, so a
        // thief never waits on a victim.
        for _ in 0..4 * (n - 1) {
            let victim = {
                let v = rng.gen_usize(0..n - 1);
                if v >= index {
                    v + 1
                } else {
                    v
                }
            };
            let stolen = shared.queues[victim]
                .0
                .try_lock()
                .ok()
                .and_then(|mut q| q.pop_front());
            let Some(job) = stolen else {
                bump(&shared.counters[index].failed_probes);
                continue;
            };
            bump(&shared.counters[index].steals);
            ctx.record(|at_ns| TraceEvent::Steal {
                id: shared.steal_seq.fetch_add(1, Relaxed),
                victim: victim as u32,
                at_ns,
            });
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn pool_runs_spawned_jobs_to_quiescence() {
        let pool = Pool::new(2, 7);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = hits.clone();
            pool.spawn(Box::new(move |sub| {
                assert!(sub.worker() < 2);
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
                // queue path alongside the injector path.
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
        pool.run_until_idle();
        // Workers are parked now; an external spawn must wake them.
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let hits = hits.clone();
            pool.spawn(Box::new(move |_| {
                hits.fetch_add(1, SeqCst);
            }));
        }
        pool.run_until_idle();
        assert_eq!(hits.load(SeqCst), 8);
    }

    #[test]
    fn task_ids_run_on_the_runner_and_count_as_jobs() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let pool = {
            let ran = ran.clone();
            Pool::with_runner(1, 0, false, move |ctx, id| {
                assert_eq!(ctx.worker(), 0);
                ran.lock().unwrap().push(id);
                if id > 0 {
                    ctx.defer_task(id - 1);
                }
            })
        };
        pool.spawn_task(3);
        pool.run_until_idle();
        assert_eq!(*ran.lock().unwrap(), [3, 2, 1, 0]);
        let s = pool.stats();
        assert_eq!((s.injector_pushes, s.spawns(), s.executions()), (1, 4, 4));
    }

    /// The owner's end of a queue is LIFO: at one thread, the ids a job
    /// defers run newest-first once it returns.
    #[test]
    fn deferred_task_ids_run_newest_first_on_their_worker() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let pool = {
            let ran = ran.clone();
            Pool::with_runner(1, 0, false, move |ctx, id| {
                ran.lock().unwrap().push(id);
                if id == 0 {
                    (1..=4).for_each(|child| ctx.defer_task(child));
                }
            })
        };
        pool.spawn_task(0);
        pool.run_until_idle();
        assert_eq!(*ran.lock().unwrap(), [0, 4, 3, 2, 1]);
    }

    /// The thief's end of a queue is FIFO: with two workers, a thief
    /// whose victim is held inside a job takes the victim's oldest queued
    /// id first. The victim's job waits until the thief has run one.
    #[test]
    fn a_thief_takes_its_victims_oldest_queued_id() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let pool = {
            let ran = ran.clone();
            Pool::with_runner(2, 9, false, move |ctx, id| {
                if id > 0 {
                    ran.lock().unwrap().push((ctx.worker(), id));
                    return;
                }
                (1..=3).for_each(|child| ctx.defer_task(child));
                let t0 = Instant::now();
                spin_until(|| {
                    !ran.lock().unwrap().is_empty() || t0.elapsed() > Duration::from_secs(10)
                });
                ran.lock().unwrap().push((ctx.worker(), 0));
            })
        };
        pool.spawn_task(0);
        pool.run_until_idle();
        let ran = ran.lock().unwrap();
        let victim = ran.iter().find(|&&(_, id)| id == 0).expect("root ran").0;
        assert_eq!(ran.len(), 4, "{ran:?}");
        assert_eq!(ran[0], (1 - victim, 1), "the thief's first job: {ran:?}");
    }

    /// `now` never runs backwards over many back-to-back reads, and over a
    /// 25 ms sleep it advances as far as [`Instant`] does, within 2 %. Each
    /// end is bracketed by two `Instant` reads, so a preemption between
    /// the reads widens the bracket instead of failing the check.
    fn check_clock(now: impl Fn() -> u64) {
        let mut last = now();
        for _ in 0..100_000 {
            let t = now();
            assert!(t >= last, "clock ran backwards: {last} -> {t}");
            last = t;
        }
        let (a0, t0, b0) = (Instant::now(), now(), Instant::now());
        std::thread::sleep(Duration::from_millis(25));
        let (a1, t1, b1) = (Instant::now(), now(), Instant::now());
        let (lo, hi) = ((a1 - b0).as_nanos() as f64, (b1 - a0).as_nanos() as f64);
        let d = (t1 - t0) as f64;
        assert!(
            d >= 0.98 * lo && d <= 1.02 * hi,
            "clock advanced {d} ns while Instant advanced {lo}..{hi} ns"
        );
    }

    #[test]
    fn worker_clock_is_monotone_and_keeps_wall_time() {
        let pool = Pool::new(1, 0);
        pool.spawn(Box::new(|ctx| check_clock(|| ctx.now().as_ns())));
        pool.run_until_idle();
        // The pool reads the time-stamp counter wherever it is invariant.
        assert_eq!(pool.shared.clock.tsc.is_some(), invariant_tsc());
    }

    #[test]
    fn instant_fallback_clock_is_monotone_and_keeps_wall_time() {
        let clock = Clock::new(false);
        assert!(clock.tsc.is_none());
        check_clock(|| clock.now_ns());
    }

    /// The tree below tree id `id`: `id / 8` levels deep, `id % 8`
    /// children per job.
    fn tree_jobs(id: usize) -> u64 {
        let (depth, fan) = ((id / 8) as u32, (id % 8) as u64);
        (0..=depth).map(|d| fan.pow(d)).sum()
    }

    /// The tree `id` as closures: each counts itself in `ran` and defers
    /// its children.
    fn closure_tree(id: usize, ran: Arc<AtomicU64>) -> PoolJob {
        Box::new(move |sub| {
            ran.fetch_add(1, SeqCst);
            for _ in 0..if id < 8 { 0 } else { id % 8 } {
                sub.defer(closure_tree(id - 8, ran.clone()));
            }
        })
    }

    /// Jobs the pool's workers have finished so far.
    fn executed(pool: &Pool) -> u64 {
        let c = &pool.shared.counters;
        c.iter().map(|c| c.executed.load(SeqCst)).sum()
    }

    /// Spin (then yield) until `until()` holds.
    fn spin_until(until: impl Fn() -> bool) {
        for spins in 0u64.. {
            if until() {
                return;
            }
            if spins < 2_000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Wake / quiescence hammer over a pool of `workers`, in
    /// barrier-started rounds; after every `run_until_idle` each spawned
    /// job has run exactly once.
    ///
    /// * Odd rounds: two external threads spawn DetRng-sized trees, of
    ///   task ids and of closures, each just as the pool runs dry (a worker
    ///   bumps its `executed` count right before it scans and parks), so
    ///   that pushes race workers going to sleep.
    /// * Even rounds start from an all-parked pool with a single external
    ///   spawn: a gated job that fans out one gated job per other worker,
    ///   each holding its worker until all have arrived, so every worker
    ///   is awake. The test then takes `sync` and opens the gate: no worker
    ///   can park now, and each that runs dry stops between its scan and
    ///   its park — the lost-wakeup window. A leaf pushed then sees no
    ///   sleeper and notifies nobody; only the parker's rescan of the
    ///   queues, after it raises `sleepers`, finds it.
    ///
    /// A lost wakeup strands a job and hangs `run_until_idle`; the
    /// watchdog turns the hang into a failure. Violations are noted and
    /// asserted after the join: a panic inside a round would leave the
    /// spawners waiting on the barrier.
    fn hammer(workers: usize) {
        const ROUNDS: u64 = 1_000;
        const SPAWNERS: usize = 2;
        let ran = Arc::new(AtomicU64::new(0));
        let pool = {
            let ran = ran.clone();
            // A task id's children alternate task ids and closures.
            Pool::with_runner(workers, 0x5eed, false, move |ctx, id| {
                ran.fetch_add(1, SeqCst);
                for c in 0..if id < 8 { 0 } else { id % 8 } {
                    if c % 2 == 0 {
                        ctx.defer_task(id - 8);
                    } else {
                        ctx.defer(closure_tree(id - 8, ran.clone()));
                    }
                }
            })
        };
        let spawned = AtomicU64::new(0);
        let rounds_done = AtomicU64::new(0);
        let finished = AtomicBool::new(false);
        let (start, stop) = (Barrier::new(SPAWNERS + 1), Barrier::new(SPAWNERS + 1));
        let (mut violations, mut windows) = (Vec::new(), 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (mut seen, mut since) = (0, Instant::now());
                while !finished.load(SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    let now = rounds_done.load(SeqCst);
                    if now != seen {
                        (seen, since) = (now, Instant::now());
                    } else if since.elapsed() > Duration::from_secs(10) {
                        eprintln!("hammer: {workers} workers, round {seen} ran over 10 s");
                        std::process::abort();
                    }
                }
            });
            for spawner in 0..SPAWNERS {
                let (pool, ran, spawned, start, stop) = (&pool, &ran, &spawned, &start, &stop);
                s.spawn(move || {
                    let mut rng = DetRng::seed_from_u64(spawner as u64);
                    for round in 0..ROUNDS {
                        start.wait();
                        let roots = if round % 2 == 1 {
                            1 + rng.gen_usize(0..4)
                        } else {
                            0
                        };
                        for r in 0..roots {
                            spin_until(|| executed(pool) >= spawned.load(SeqCst));
                            let id = 8 * rng.gen_usize(0..5) + rng.gen_usize(0..4);
                            spawned.fetch_add(tree_jobs(id), SeqCst);
                            if r % 2 == 0 {
                                pool.spawn_task(id);
                            } else {
                                pool.spawn(closure_tree(id, ran.clone()));
                            }
                        }
                        stop.wait();
                    }
                });
            }
            let mut rng = DetRng::seed_from_u64(0xa11);
            let p = &pool.shared.parking;
            for round in 0..ROUNDS {
                start.wait();
                if round % 2 == 0 {
                    let gate = Arc::new((AtomicUsize::new(0), AtomicBool::new(false)));
                    let gated = |gate: Arc<(AtomicUsize, AtomicBool)>, ran: Arc<AtomicU64>| {
                        move || {
                            ran.fetch_add(1, SeqCst);
                            gate.0.fetch_add(1, SeqCst);
                            spin_until(|| gate.1.load(SeqCst));
                        }
                    };
                    let root = gated(gate.clone(), ran.clone());
                    let (g, r) = (gate.clone(), ran.clone());
                    spawned.fetch_add(workers as u64, SeqCst);
                    pool.spawn(Box::new(move |sub| {
                        for _ in 1..workers {
                            let job = gated(g.clone(), r.clone());
                            sub.defer(Box::new(move |_| job()));
                        }
                        root();
                    }));
                    // A thief whose probes all miss parks again, and
                    // the job it missed waits for its owner: give up on
                    // this round's window rather than wait forever.
                    let t0 = Instant::now();
                    spin_until(|| {
                        gate.0.load(SeqCst) == workers || t0.elapsed() > Duration::from_millis(5)
                    });
                    let sync = pool.shared.sync.lock().unwrap();
                    gate.1.store(true, SeqCst);
                    if gate.0.load(SeqCst) == workers && p.sleepers.load(SeqCst) == 0 {
                        spin_until(|| executed(&pool) >= spawned.load(SeqCst));
                        std::thread::sleep(Duration::from_micros(50));
                        spawned.fetch_add(1, SeqCst);
                        pool.spawn_task(rng.gen_usize(0..8));
                        windows += 1;
                    }
                    drop(sync);
                }
                stop.wait();
                pool.run_until_idle();
                let (ran, spawned, st) = (ran.load(SeqCst), spawned.load(SeqCst), pool.stats());
                if ran != spawned || st.executions() != st.spawns() || st.spawns() != spawned {
                    violations.push(format!(
                        "round {round}: {ran} ran, {spawned} spawned, pool {} / {}",
                        st.executions(),
                        st.spawns()
                    ));
                }
                rounds_done.store(round + 1, SeqCst);
            }
            finished.store(true, SeqCst);
        });
        assert!(
            violations.is_empty(),
            "{workers} workers: {:?}",
            &violations[..violations.len().min(5)]
        );
        assert!(
            windows > ROUNDS / 10,
            "{workers} workers: the lost-wakeup window opened in only {windows} rounds"
        );
    }

    /// After [`Pool::run_until_idle`] returns, no worker runs, parks or
    /// counts anything until the next spawn: two `stats()` reads 5 ms
    /// apart agree. Each round's root defers children, and each push wakes
    /// a parked worker that the root's own worker may beat to the child.
    #[test]
    fn stats_hold_still_after_run_until_idle() {
        for workers in [2, 4] {
            let pool = Pool::new(workers, 21);
            for round in 0..200 {
                pool.spawn(Box::new(|sub| {
                    for _ in 0..3 {
                        sub.defer(Box::new(|_| {}));
                    }
                }));
                pool.run_until_idle();
                let before = pool.stats();
                std::thread::sleep(Duration::from_millis(5));
                let after = pool.stats();
                assert_eq!(
                    before.per_worker, after.per_worker,
                    "{workers} workers, round {round}: a worker moved after idle"
                );
            }
        }
    }

    /// A job that panics fails [`Pool::run_until_idle`] with its message
    /// instead of killing its worker, which would hang the call: every
    /// other job still runs, and the pool runs later jobs and drops
    /// cleanly. A hang trips the watchdog.
    #[test]
    fn a_panicking_job_fails_run_until_idle_and_the_pool_carries_on() {
        let worker = std::thread::spawn(|| {
            let ran = Arc::new(Mutex::new(Vec::new()));
            let pool = {
                let ran = ran.clone();
                Pool::with_runner(2, 3, false, move |_, id| {
                    assert_ne!(id, 3, "task {id} failed");
                    ran.lock().unwrap().push(id);
                })
            };
            for id in 0..8 {
                pool.spawn_task(id);
            }
            let err = catch_unwind(AssertUnwindSafe(|| pool.run_until_idle()))
                .expect_err("run_until_idle must raise the job's panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(msg.contains("task 3 failed"), "{msg}");
            let mut ids = std::mem::take(&mut *ran.lock().unwrap());
            ids.sort_unstable();
            assert_eq!(ids, [0, 1, 2, 4, 5, 6, 7]);
            pool.spawn_task(8);
            pool.run_until_idle();
            assert_eq!(*ran.lock().unwrap(), [8]);
            drop(pool);
        });
        let t0 = Instant::now();
        while !worker.is_finished() {
            if t0.elapsed() > Duration::from_secs(10) {
                eprintln!("a panicking job hung the pool for 10 s");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        worker.join().expect("the test body");
    }

    /// A parker that waits without rescanning the queues after raising
    /// `sleepers` hangs here in the first even round whose window opens.
    #[test]
    fn hammer_wakeups_and_quiescence_lose_no_job() {
        for workers in [4, 2, 1] {
            hammer(workers);
        }
    }
}
