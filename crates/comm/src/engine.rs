//! The communication engine: public API (paper Listing 1) and the
//! communication-thread micro-task actor shared by all backends.
//!
//! The engine is backend-agnostic: everything library-specific lives behind
//! the [`CommBackend`] trait (`backend.rs`), and the engine talks to it only
//! through its `Box<dyn CommBackend>` — there is no `match` on
//! [`crate::BackendKind`] anywhere in this file.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use amt_netmodel::{FabricHandle, NodeId};
use amt_simnet::{
    shared, CoreHandle, CoreResource, FastMap, MetricsRegistry, OverlapTracker, Shared, Sim,
    SimTime, Slab, Trace,
};
use bytes::{BufPool, Bytes, Frames};

use crate::backend::{make_backends, CommBackend};
use crate::config::{BackendKind, EngineConfig, CMD_OVERHEAD, WAKE_LATENCY};
use crate::stats::EngineStats;
use crate::wire::{frame_slot, slot_frame, PutHandshake};

/// Active-message tags ≥ this value are reserved for the engine's internal
/// protocol (put handshakes, data transfers).
pub const RESERVED_TAG_BASE: u64 = 1 << 60;

/// An active message delivered to a registered callback.
#[derive(Debug)]
pub struct AmEvent {
    pub src: NodeId,
    pub tag: u64,
    pub size: usize,
    /// Payload frames, zero-copy. With aggregation, each submission's
    /// payload arrives as its own frame, in submission order.
    pub data: Frames,
}

/// A completed put delivered to the target's registered one-sided callback.
#[derive(Debug)]
pub struct PutEvent {
    pub src: NodeId,
    pub size: usize,
    pub data: Option<Bytes>,
    /// The `r_cb_data` the origin attached to the put.
    pub cb_data: Bytes,
}

/// Registered AM callback: runs on the communication thread; returns the CPU
/// time it consumed (charged to the communication thread's core).
pub type AmCallback = Rc<dyn Fn(&mut Sim, &Rc<CommEngine>, AmEvent) -> SimTime>;

/// Registered one-sided (put remote completion) callback.
pub type OnesidedCallback = Rc<dyn Fn(&mut Sim, &Rc<CommEngine>, PutEvent) -> SimTime>;

/// Origin-side put completion callback.
pub type PutLocalCb = Box<dyn FnOnce(&mut Sim, &Rc<CommEngine>) -> SimTime>;

/// A one-sided put: move `size` bytes to `dst` and run the one-sided
/// callback registered under `r_tag` there, with `cb_data` attached.
pub struct PutRequest {
    pub dst: NodeId,
    pub size: usize,
    pub data: Option<Bytes>,
    pub r_tag: u64,
    pub cb_data: Bytes,
    pub on_local: PutLocalCb,
}

/// Commands submitted to the communication thread.
pub(crate) enum Command {
    SendAm {
        dst: NodeId,
        tag: u64,
        size: usize,
        frames: Frames,
        aggregate: bool,
        submissions: u64,
        /// When the first submission entered the queue (the `submit →
        /// aggregate` lifecycle stage is measured from here at pop time).
        submitted_at: SimTime,
    },
    Put {
        req: PutRequest,
        /// When the put was funneled; `None` for backend retries (the queue
        /// wait was already accounted on the first attempt).
        submitted_at: Option<SimTime>,
    },
    /// A send that hit back-pressure, queued at the front for retry.
    /// Executed via [`CommBackend::resend`].
    Resend {
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    },
}

/// Micro-tasks of the communication thread. Each executes as one charge on
/// the communication core.
pub(crate) enum Micro {
    /// Drain the submitted-command queue.
    Commands,
    /// A backend micro-task (a progress sweep, a completion callback, a
    /// FIFO round, ...) identified by a backend-private code. A micro-task
    /// that carries data keeps it in the backend's own FIFO, pushed in step
    /// with this code, so nothing here is boxed. Executed via
    /// [`CommBackend::exec_micro_unit`].
    BackendUnit(u32),
}

/// A per-`(destination, tag)` batching buffer: records held back from the
/// wire until the byte threshold fills or the virtual-time window expires.
pub(crate) struct AmBatch {
    frames: Frames,
    size: usize,
    submissions: u64,
    /// When the first record entered the buffer (queue-wait stage of the
    /// eventual wire message is measured from here).
    first_submitted: SimTime,
    /// Distinguishes this buffer from any later buffer for the same key, so
    /// a window-expiry event scheduled for a buffer that already flushed on
    /// its byte threshold is a no-op.
    gen: u64,
}

pub(crate) struct Inner {
    pub am_cbs: FastMap<u64, AmCallback>,
    pub onesided_cbs: FastMap<u64, OnesidedCallback>,
    pub pending: VecDeque<Command>,
    /// Only ever `push_back` / `pop_front`: backends pair each
    /// [`Micro::BackendUnit`] code with the front of their own FIFO.
    pub micro: VecDeque<Micro>,
    /// Open batching buffers (only when `cfg.batch_window_ns > 0`).
    pub(crate) batch: FastMap<(NodeId, u64), AmBatch>,
    pub(crate) batch_gen: u64,
    /// When the last batch to each `(destination, tag)` left for the wire.
    /// The window is a *rate limit* anchored here: a record to a link that
    /// has been quiet for a window flushes at the end of the current
    /// instant (zero added latency), a record to a hot link waits until a
    /// full window has passed since the previous flush.
    pub(crate) batch_last_flush: FastMap<(NodeId, u64), SimTime>,
    /// A charge is in flight on the communication core.
    pub busy: bool,
    /// The communication thread is parked, waiting for a waker.
    pub idle: bool,
    /// Executing a callback on the communication thread: nested engine
    /// calls issue immediately and accumulate cost here.
    pub in_ctx: bool,
    pub ctx_cost: SimTime,
    pub stats: EngineStats,
}

/// One node's communication engine. Create with [`CommWorld::create`].
pub struct CommEngine {
    pub(crate) node: NodeId,
    pub(crate) cfg: EngineConfig,
    /// The communication thread's dedicated core (§4.3).
    pub(crate) comm_core: CoreHandle,
    /// The progress threads' dedicated cores, as many as the backend asked
    /// for (§5.3.1; more than one is the §7 multi-progress-thread
    /// extension).
    pub(crate) progress_cores: Vec<CoreHandle>,
    /// The communication library under the engine. All backend-specific
    /// behaviour is dispatched through this object.
    pub(crate) backend: Box<dyn CommBackend>,
    pub(crate) inner: RefCell<Inner>,
    /// Communication/progress-thread timeline (enabled by `cfg.trace`).
    pub(crate) trace: Shared<Trace>,
    /// Per-stage lifecycle histograms (enabled by `cfg.metrics`).
    pub(crate) metrics: Shared<MetricsRegistry>,
    /// Cluster-wide wire/compute overlap integrator, installed by the
    /// runtime above (see [`CommEngine::set_overlap`]).
    pub(crate) overlap: RefCell<Option<Shared<OverlapTracker>>>,
    /// Trace track of the communication thread (`n{node}.comm`).
    pub(crate) comm_track: String,
    /// Trace track of the progress thread(s) (`n{node}.prog`).
    pub(crate) prog_track: String,
    /// Counter-track name for the submitted-command queue depth.
    cmdq_name: String,
    /// Counter-track name for origin-side in-flight puts.
    puts_name: String,
    /// A buffer pool for callers that recycle payload buffers; nothing in
    /// the engine draws from it.
    pool: BufPool,
    /// Per labeled AM tag, the names of its per-class wire metrics
    /// (`msg.<class>.msgs_on_wire`, `msg.<class>.records_per_msg`), built
    /// once by [`CommEngine::label_tag`] in metrics mode.
    tag_names: RefCell<FastMap<u64, [String; 2]>>,
    /// Put handshakes in flight, one slab for the whole world: a
    /// handshake is inserted at the origin and taken at the target.
    handshakes: Rc<RefCell<Slab<PutHandshake>>>,
}

/// Factory for per-node engines over a shared fabric.
pub struct CommWorld;

impl CommWorld {
    /// Build one engine per fabric node, with the chosen backend, and wire
    /// up wakers/handlers. Backend-side initialization may post receives
    /// (MPI's persistent handshake receives), which is why `sim` is needed.
    pub fn create(sim: &mut Sim, fabric: &FabricHandle, cfg: EngineConfig) -> Vec<Rc<CommEngine>> {
        let backends = make_backends(fabric, &cfg);
        let handshakes = Rc::new(RefCell::new(Slab::default()));
        let mut engines = Vec::with_capacity(backends.len());
        for (node, backend) in backends.into_iter().enumerate() {
            let progress_cores = (0..backend.progress_threads())
                .map(|i| CoreResource::new_shared(format!("n{node}.prog{i}")))
                .collect();
            let eng = Rc::new(CommEngine {
                node,
                cfg: cfg.clone(),
                comm_core: CoreResource::new_shared(format!("n{node}.comm")),
                progress_cores,
                backend,
                inner: RefCell::new(Inner::new()),
                trace: shared(Trace::new(cfg.trace)),
                metrics: shared(MetricsRegistry::new(cfg.metrics)),
                overlap: RefCell::new(None),
                comm_track: format!("n{node}.comm"),
                prog_track: format!("n{node}.prog"),
                cmdq_name: format!("n{node}.cmdq"),
                puts_name: format!("n{node}.puts"),
                pool: BufPool::new(64),
                tag_names: RefCell::new(FastMap::default()),
                handshakes: handshakes.clone(),
            });
            eng.backend.init(&eng, sim);
            engines.push(eng);
        }
        engines
    }
}

impl Inner {
    fn new() -> Self {
        Inner {
            am_cbs: FastMap::default(),
            onesided_cbs: FastMap::default(),
            pending: VecDeque::new(),
            micro: VecDeque::new(),
            batch: FastMap::default(),
            batch_gen: 0,
            batch_last_flush: FastMap::default(),
            busy: false,
            idle: true,
            in_ctx: false,
            ctx_cost: SimTime::ZERO,
            stats: EngineStats::default(),
        }
    }
}

impl CommEngine {
    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    pub fn backend(&self) -> BackendKind {
        self.cfg.backend
    }

    /// The communication thread's core (utilization diagnostics).
    pub fn comm_core(&self) -> CoreHandle {
        self.comm_core.clone()
    }

    /// The progress threads' cores, if this backend has any.
    pub fn progress_cores(&self) -> &[CoreHandle] {
        &self.progress_cores
    }

    /// The first progress thread's core, if this backend has one.
    pub fn progress_core(&self) -> Option<CoreHandle> {
        self.progress_cores.first().cloned()
    }

    pub fn stats(&self) -> EngineStats {
        let base = self.inner.borrow().stats.clone();
        self.backend.stats(base)
    }

    /// The engine's payload-buffer pool, for callers that recycle the
    /// buffers of delivered [`AmEvent`]s. Nothing in the engine draws
    /// from it: handshakes travel as slab ids.
    pub fn buf_pool(&self) -> &BufPool {
        &self.pool
    }

    /// Store a put handshake in the world's slab; returns the frame that
    /// carries its id.
    pub(crate) fn stash_handshake(&self, hs: PutHandshake) -> Bytes {
        slot_frame(self.handshakes.borrow_mut().insert(hs))
    }

    /// Take out the handshake a [`CommEngine::stash_handshake`] frame
    /// names.
    pub(crate) fn take_handshake(&self, frame: &[u8]) -> PutHandshake {
        self.handshakes.borrow_mut().take(frame_slot(frame))
    }

    /// Handshakes of the whole world in flight: zero once a run has
    /// drained.
    #[cfg(test)]
    pub(crate) fn handshakes_in_flight(&self) -> usize {
        self.handshakes.borrow().len()
    }

    /// The engine's trace collector (communication + progress tracks). Empty
    /// unless the configuration enabled tracing.
    pub fn trace_handle(&self) -> Shared<Trace> {
        self.trace.clone()
    }

    /// The engine's lifecycle-metrics registry. Empty unless the
    /// configuration enabled metrics.
    pub fn metrics_handle(&self) -> Shared<MetricsRegistry> {
        self.metrics.clone()
    }

    /// Install the cluster-wide overlap integrator; the backend reports wire
    /// transfers towards their target node into it.
    pub fn set_overlap(&self, tracker: Shared<OverlapTracker>) {
        *self.overlap.borrow_mut() = Some(tracker);
    }

    /// Report a wire transfer towards `node` starting (`+1`) or finishing
    /// (`-1`), feeding the Fig. 3 overlap metric. No-op without a tracker.
    pub(crate) fn wire_add(&self, node: NodeId, now: SimTime, delta: i32) {
        if let Some(t) = self.overlap.borrow().as_ref() {
            t.borrow_mut().wire_add(node, now, delta);
        }
    }

    /// Record a lifecycle-stage duration (no-op when metrics are disabled).
    pub(crate) fn record_stage(&self, name: &str, dt: SimTime) {
        if self.cfg.metrics {
            self.metrics.borrow_mut().record_time(name, dt);
        }
    }

    /// Mark a rare condition (retry, deferral) on the communication track.
    pub(crate) fn trace_instant(&self, name: &'static str, now: SimTime) {
        if self.cfg.trace {
            self.trace.borrow_mut().instant(&self.comm_track, name, now);
        }
    }

    /// Sample the submitted-command queue depth onto its counter track.
    fn sample_cmdq(&self, now: SimTime, depth: usize) {
        if self.cfg.trace {
            self.trace
                .borrow_mut()
                .counter(&self.cmdq_name, now, depth as f64);
        }
    }

    /// Sample origin-side in-flight puts (started, not yet locally done).
    pub(crate) fn sample_inflight_puts(&self, now: SimTime) {
        if self.cfg.trace {
            let v = {
                let s = &self.inner.borrow().stats;
                s.puts_started.get().saturating_sub(s.puts_local_done.get())
            };
            self.trace
                .borrow_mut()
                .counter(&self.puts_name, now, v as f64);
        }
    }

    /// Register an active-message callback under `tag` (Listing 1
    /// `tag_reg`). Backends may post receives for the tag, hence `sim`.
    pub fn register_am(self: &Rc<Self>, sim: &mut Sim, tag: u64, cb: AmCallback) {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved");
        let prev = self.inner.borrow_mut().am_cbs.insert(tag, cb);
        assert!(prev.is_none(), "tag {tag} registered twice");
        self.backend.register_am_tag(self, sim, tag);
    }

    /// Register a one-sided completion callback under `r_tag` (the callback
    /// a put names for its remote completion).
    pub fn register_onesided(&self, r_tag: u64, cb: OnesidedCallback) {
        let prev = self.inner.borrow_mut().onesided_cbs.insert(r_tag, cb);
        assert!(prev.is_none(), "one-sided tag {r_tag} registered twice");
    }

    /// Submit an active message (Listing 1 `send_am`).
    ///
    /// Outside a communication-thread callback this *funnels*: the command
    /// is queued for the communication thread, aggregating with a pending AM
    /// to the same `(dst, tag)` when allowed (§4.3 duty #1). Inside a
    /// callback it issues immediately, its cost accruing to the running
    /// callback.
    pub fn send_am(
        self: &Rc<Self>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Option<Bytes>,
    ) {
        self.send_am_opts(sim, dst, tag, size, data, true);
    }

    /// `send_am` with explicit control over aggregation eligibility.
    pub fn send_am_opts(
        self: &Rc<Self>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Option<Bytes>,
        aggregate: bool,
    ) {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved");
        self.inner.borrow_mut().stats.am_submitted.inc();
        // Engine-level batching: hold the record in a per-(dst, tag) buffer
        // until its window expires or its byte threshold fills. Checked
        // *before* the in-context fast path so sends issued from inside a
        // communication-thread callback (GET issuance, tree forwarding) —
        // which would otherwise go straight to the wire — coalesce too.
        if aggregate && self.cfg.batch_window_ns > 0 {
            self.batch_am(sim, dst, tag, size, data);
            return;
        }
        let depth;
        {
            let mut inner = self.inner.borrow_mut();
            if inner.in_ctx {
                drop(inner);
                // Issued immediately from communication-thread context: the
                // queue-wait stage of the lifecycle is zero.
                self.record_stage("am.queue_ns", SimTime::ZERO);
                let c = self.issue_am(sim, dst, tag, size, Frames::from(data), 1);
                self.inner.borrow_mut().ctx_cost += c;
                return;
            }
            // Try to aggregate with a queued AM to the same destination/tag.
            if aggregate && self.cfg.agg_max_bytes > 0 {
                for cmd in inner.pending.iter_mut() {
                    if let Command::SendAm {
                        dst: d,
                        tag: t,
                        size: s,
                        frames,
                        aggregate: true,
                        submissions,
                        ..
                    } = cmd
                    {
                        if *d == dst && *t == tag && *s + size <= self.cfg.agg_max_bytes {
                            *s += size;
                            *submissions += 1;
                            if let Some(b) = data {
                                frames.push(b);
                            }
                            return;
                        }
                    }
                }
            }
            inner.pending.push_back(Command::SendAm {
                dst,
                tag,
                size,
                frames: Frames::from(data),
                aggregate,
                submissions: 1,
                submitted_at: sim.now(),
            });
            depth = inner.pending.len();
        }
        self.sample_cmdq(sim.now(), depth);
        CommEngine::wake_comm(self, sim);
    }

    /// Add a record to its `(dst, tag)` batching buffer, opening the buffer
    /// (and scheduling its flush) if none is open.
    ///
    /// The flush time implements per-link rate limiting rather than a
    /// fixed hold-back delay: if the link has been quiet for at least one
    /// window the buffer flushes at the *current* instant — after the rest
    /// of this instant's submissions, so a burst issued in one callback
    /// still coalesces — and otherwise at `last_flush + window`, bounding
    /// each `(dst, tag)` pair to one wire message per window under
    /// sustained traffic while adding no latency to sporadic sends.
    fn batch_am(
        self: &Rc<Self>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Option<Bytes>,
    ) {
        let flush_at = self.cfg.agg_max_bytes;
        let flush_now;
        let mut schedule = None;
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            match inner.batch.get_mut(&(dst, tag)) {
                Some(b) => {
                    if let Some(d) = data {
                        b.frames.push(d);
                    }
                    b.size += size;
                    b.submissions += 1;
                    flush_now = b.size >= flush_at;
                }
                None => {
                    inner.batch_gen += 1;
                    let gen = inner.batch_gen;
                    inner.batch.insert(
                        (dst, tag),
                        AmBatch {
                            frames: Frames::from(data),
                            size,
                            submissions: 1,
                            first_submitted: sim.now(),
                            gen,
                        },
                    );
                    flush_now = size >= flush_at;
                    if !flush_now {
                        let window = SimTime::from_ns(self.cfg.batch_window_ns);
                        let earliest = inner
                            .batch_last_flush
                            .get(&(dst, tag))
                            .map_or(SimTime::ZERO, |t| *t + window);
                        schedule = Some((gen, earliest));
                    }
                }
            }
        }
        if flush_now {
            CommEngine::flush_batch(self, sim, dst, tag, None);
        } else if let Some((gen, earliest)) = schedule {
            let eng = self.clone();
            let flush =
                move |sim: &mut Sim| CommEngine::flush_batch(&eng, sim, dst, tag, Some(gen));
            if earliest <= sim.now() {
                sim.schedule_now(flush);
            } else {
                sim.schedule_at(earliest, flush);
            }
        }
    }

    /// Move a batching buffer onto the communication thread's command
    /// queue. `gen` (window-expiry flushes) makes the flush conditional on
    /// the buffer still being the one the event was scheduled for; `None`
    /// (threshold flushes) is unconditional.
    fn flush_batch(eng: &Rc<Self>, sim: &mut Sim, dst: NodeId, tag: u64, gen: Option<u64>) {
        let depth;
        {
            let mut inner = eng.inner.borrow_mut();
            match inner.batch.get(&(dst, tag)) {
                Some(b) if gen.is_none_or(|g| b.gen == g) => {}
                _ => return,
            }
            let b = inner
                .batch
                .remove(&(dst, tag))
                .expect("batch checked above");
            inner.batch_last_flush.insert((dst, tag), sim.now());
            inner.pending.push_back(Command::SendAm {
                dst,
                tag,
                size: b.size,
                frames: b.frames,
                aggregate: true,
                submissions: b.submissions,
                submitted_at: b.first_submitted,
            });
            depth = inner.pending.len();
        }
        eng.sample_cmdq(sim.now(), depth);
        CommEngine::wake_comm(eng, sim);
    }

    /// Multithreaded AM send (§6.4.3): the calling worker thread sends
    /// directly, bypassing the communication thread and aggregation.
    /// Returns the CPU cost the caller must charge to its own core — for
    /// backends with a serializing library lock this includes the wait.
    pub fn send_am_direct(
        self: &Rc<Self>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Option<Bytes>,
    ) -> SimTime {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved");
        self.backend
            .issue_am_direct(self, sim, dst, tag, size, data)
    }

    /// Start a one-sided put (Listing 1 `put`). Funnelled to the
    /// communication thread unless called from a communication-thread
    /// callback (the GET DATA pattern), in which case it issues immediately.
    pub fn put(self: &Rc<Self>, sim: &mut Sim, req: PutRequest) {
        let depth;
        {
            let mut inner = self.inner.borrow_mut();
            if inner.in_ctx {
                drop(inner);
                self.record_stage("put.queue_ns", SimTime::ZERO);
                let c = self.issue_put(sim, req);
                self.inner.borrow_mut().ctx_cost += c;
                return;
            }
            inner.pending.push_back(Command::Put {
                req,
                submitted_at: Some(sim.now()),
            });
            depth = inner.pending.len();
        }
        self.sample_cmdq(sim.now(), depth);
        CommEngine::wake_comm(self, sim);
    }

    // ------------------------------------------------------------------
    // Communication-thread actor
    // ------------------------------------------------------------------

    /// Wake the communication thread if it is parked.
    pub(crate) fn wake_comm(eng: &Rc<Self>, sim: &mut Sim) {
        {
            let mut inner = eng.inner.borrow_mut();
            if inner.busy || !inner.idle {
                return;
            }
            inner.idle = false;
            inner.busy = true;
        }
        let eng2 = eng.clone();
        eng.comm_core
            .borrow_mut()
            .charge(sim, WAKE_LATENCY, move |sim| {
                eng2.inner.borrow_mut().busy = false;
                CommEngine::pump(&eng2, sim);
            });
    }

    /// Pick the next micro-task, or park.
    fn next_micro(&self) -> Option<Micro> {
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(m) = inner.micro.pop_front() {
                return Some(m);
            }
            if !inner.pending.is_empty() {
                return Some(Micro::Commands);
            }
        }
        self.backend.next_micro(self).map(Micro::BackendUnit)
    }

    /// Run the communication thread until it has no work: each micro-task's
    /// logic executes now and its cost is charged to the communication core;
    /// the next micro-task starts when the charge completes.
    pub(crate) fn pump(eng: &Rc<Self>, sim: &mut Sim) {
        if eng.inner.borrow().busy {
            return;
        }
        let Some(task) = eng.next_micro() else {
            eng.inner.borrow_mut().idle = true;
            return;
        };
        {
            let mut inner = eng.inner.borrow_mut();
            inner.busy = true;
            inner.idle = false;
            inner.stats.comm_rounds.inc();
        }
        let label = match &task {
            Micro::Commands => "commands",
            Micro::BackendUnit(c) => eng.backend.micro_unit_label(*c),
        };
        let round_start = sim.now();
        let mut cost = eng.execute_micro(sim, task);
        if cost.is_zero() {
            cost = SimTime::from_ns(1);
        }
        // Library calls from the communication thread hold the backend's
        // serializing lock (if it has one); multithreaded senders add
        // waiting time here.
        let total = match eng.backend.serializing_lock() {
            Some(lock) => {
                let now = sim.now();
                let end = lock.borrow_mut().occupy(now, cost);
                end - now
            }
            None => cost,
        };
        eng.inner.borrow_mut().stats.comm_busy += total;
        if eng.cfg.trace {
            eng.trace
                .borrow_mut()
                .record(&eng.comm_track, label, round_start, round_start + total);
        }
        let eng2 = eng.clone();
        eng.comm_core.borrow_mut().charge(sim, total, move |sim| {
            eng2.inner.borrow_mut().busy = false;
            CommEngine::pump(&eng2, sim);
        });
    }

    fn execute_micro(self: &Rc<Self>, sim: &mut Sim, task: Micro) -> SimTime {
        match task {
            Micro::Commands => self.exec_commands(sim),
            Micro::BackendUnit(c) => self.backend.exec_micro_unit(self, sim, c),
        }
    }

    fn exec_commands(self: &Rc<Self>, sim: &mut Sim) -> SimTime {
        let mut cost = SimTime::ZERO;
        loop {
            let (cmd, len_after_pop) = {
                let mut inner = self.inner.borrow_mut();
                match inner.pending.pop_front() {
                    Some(c) => {
                        let len = inner.pending.len();
                        (c, len)
                    }
                    None => break,
                }
            };
            cost += CMD_OVERHEAD;
            match cmd {
                Command::SendAm {
                    dst,
                    tag,
                    size,
                    frames,
                    submissions,
                    submitted_at,
                    ..
                } => {
                    self.record_stage("am.queue_ns", sim.now().saturating_sub(submitted_at));
                    cost += self.issue_am(sim, dst, tag, size, frames, submissions);
                }
                Command::Put { req, submitted_at } => {
                    if let Some(t0) = submitted_at {
                        self.record_stage("put.queue_ns", sim.now().saturating_sub(t0));
                    }
                    cost += self.issue_put(sim, req);
                }
                Command::Resend {
                    dst,
                    tag,
                    size,
                    data,
                } => {
                    cost += self.backend.resend(self, sim, dst, tag, size, data);
                }
            }
            // A command that hit back-pressure re-queues itself at the
            // front; stop draining — it will be retried on the next wake,
            // once resources have freed.
            if self.inner.borrow().pending.len() > len_after_pop {
                break;
            }
        }
        let depth = self.inner.borrow().pending.len();
        self.sample_cmdq(sim.now(), depth);
        cost
    }

    /// Issue an AM on the wire (from the communication thread or a
    /// callback). When aggregation merged several submissions, `frames`
    /// carries one frame per submission, in order — delivered zero-copy,
    /// never concatenated.
    pub(crate) fn issue_am(
        self: &Rc<Self>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        frames: Frames,
        submissions: u64,
    ) -> SimTime {
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.am_sent.inc();
        }
        if self.cfg.metrics {
            let names = self.tag_names.borrow();
            let (wire, records) = names.get(&tag).map_or(
                ("msg.am.msgs_on_wire", "msg.am.records_per_msg"),
                |[w, r]| (w.as_str(), r.as_str()),
            );
            let mut m = self.metrics.borrow_mut();
            m.count(wire, 1);
            m.record(records, submissions);
        }
        let c = self.backend.issue_am(self, sim, dst, tag, size, frames);
        self.record_stage("am.inject_ns", c);
        c
    }

    /// Attach a human-readable class label to an AM tag, naming its
    /// per-class wire counters (`msg.<label>.msgs_on_wire`,
    /// `msg.<label>.records_per_msg`). Unlabeled tags count under `am`.
    pub fn label_tag(&self, tag: u64, label: &'static str) {
        // Only metrics mode reads the names: an unobserved run keeps none.
        if self.cfg.metrics {
            let names = [
                format!("msg.{label}.msgs_on_wire"),
                format!("msg.{label}.records_per_msg"),
            ];
            self.tag_names.borrow_mut().insert(tag, names);
        }
    }

    pub(crate) fn issue_put(self: &Rc<Self>, sim: &mut Sim, req: PutRequest) -> SimTime {
        if self.cfg.metrics {
            self.metrics.borrow_mut().count("msg.data.msgs_on_wire", 1);
        }
        let c = self.backend.issue_put(self, sim, req);
        self.record_stage("put.inject_ns", c);
        self.sample_inflight_puts(sim.now());
        c
    }

    /// Run a user callback in communication-thread context: nested engine
    /// calls issue immediately and bill the callback.
    pub(crate) fn run_in_ctx(
        self: &Rc<Self>,
        sim: &mut Sim,
        f: impl FnOnce(&mut Sim, &Rc<CommEngine>) -> SimTime,
    ) -> SimTime {
        {
            let mut inner = self.inner.borrow_mut();
            assert!(!inner.in_ctx, "nested communication-thread callback");
            inner.in_ctx = true;
            inner.ctx_cost = SimTime::ZERO;
        }
        let c = f(sim, self);
        let mut inner = self.inner.borrow_mut();
        inner.in_ctx = false;
        c + std::mem::take(&mut inner.ctx_cost)
    }
}

/// Helpers shared by the backends for dispatching user callbacks.
pub(crate) fn dispatch_am(eng: &Rc<CommEngine>, sim: &mut Sim, ev: AmEvent) -> SimTime {
    let cb = eng
        .inner
        .borrow()
        .am_cbs
        .get(&ev.tag)
        .unwrap_or_else(|| panic!("no AM callback registered for tag {}", ev.tag))
        .clone();
    eng.inner.borrow_mut().stats.am_received.inc();
    let c = eng.run_in_ctx(sim, move |sim, eng| cb(sim, eng, ev));
    eng.record_stage("am.callback_ns", c);
    c
}

pub(crate) fn dispatch_onesided(
    eng: &Rc<CommEngine>,
    sim: &mut Sim,
    r_tag: u64,
    ev: PutEvent,
) -> SimTime {
    let cb = eng
        .inner
        .borrow()
        .onesided_cbs
        .get(&r_tag)
        .unwrap_or_else(|| panic!("no one-sided callback registered for tag {r_tag}"))
        .clone();
    {
        let mut inner = eng.inner.borrow_mut();
        inner.stats.puts_remote_done.inc();
        inner.stats.put_bytes_in.add(ev.size as u64);
    }
    let c = eng.run_in_ctx(sim, move |sim, eng| cb(sim, eng, ev));
    eng.record_stage("put.callback_ns", c);
    c
}

pub(crate) fn dispatch_put_local(eng: &Rc<CommEngine>, sim: &mut Sim, cb: PutLocalCb) -> SimTime {
    eng.inner.borrow_mut().stats.puts_local_done.inc();
    let c = eng.run_in_ctx(sim, move |sim, eng| cb(sim, eng));
    eng.sample_inflight_puts(sim.now());
    c
}
