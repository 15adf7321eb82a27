//! Real execution of a task graph on the `amt-exec` work-stealing pool —
//! the **real substrate** behind [`crate::Cluster::execute_real`].
//!
//! The same graph, kernels, and ACTIVATE / GET DATA / put handlers
//! (`protocol.rs`) as the virtual path, but with wall-clock time and real
//! OS threads. What is real lives here:
//!
//! * every worker thread can execute any node's tasks (one shared pool —
//!   in a single shared-memory process, node affinity governs *data
//!   placement and protocol*, not thread placement);
//! * dependence tracking is a per-task atomic countdown over the graph's
//!   consumer lists — the release that takes a count to zero spawns the
//!   task as a pool task id (LIFO local, stealable);
//! * the protocol's [`Port`] is [`RealPort`]: one worker's view of one
//!   node. A message is the protocol record itself ([`Msg`]): the
//!   ACTIVATE, GET DATA or put the sender's port built moves into the
//!   message and on into its handler, forward list and payload included —
//!   nothing is serialized, copied or parsed on a path that never leaves
//!   the address space;
//! * the run starts like the simulator's: one startup job announces each
//!   node's initial versions and seeds its dependence-free tasks, node by
//!   node in ascending order, and the run is over when the pool is idle;
//!   the per-worker executed-task counts must then sum to the graph's
//!   task count, so a protocol stall fails the run.
//!
//! ## Progress: the sender handles its own messages, in line
//!
//! A message is never a pool job. Every send is a [`RealPort::post`]:
//! outside a handler the worker runs the destination's handler at once,
//! on this thread, then takes its outbox one message at a time; a handler
//! that sends only appends to the outbox, so drains never nest, and the
//! outbox is empty whenever a drain starts, so nothing overtakes a message
//! posted before it. A whole ACTIVATE → GET DATA → put flow completes on the
//! thread that announced it. Handlers for one node may run on several
//! threads at once: stores sit behind their node's mutex, countdowns are
//! atomics, statistics are per worker. Each flow is causal (the ACTIVATE
//! handler keeps its forward in the store before it posts the GET; the
//! put follows the GET) and a thread sends its outbox in order, so no
//! ordering is lost. Each job locks its worker's [`WorkerState`] once, at
//! entry, and lends it down to every handler it runs.
//!
//! The designs measured against this one and rejected (deferred progress
//! jobs, nested drains, node-affine progress, an owner per node, atomic
//! park epochs, serialized records over a shared-memory transport, ...) are
//! in DESIGN.md §3.8's tables.
//!
//! ## What is per node and what is per worker
//!
//! Per node is only what is protocol state: the version store. Everything
//! a thread merely accumulates — its report [`Tally`] (executed tasks,
//! busy time, task classes, latency moments), the engine counters of
//! every node it sent or handled a message for, metrics-mode stage
//! histograms and calibration samples, its outbox, its announce [`Fanout`]
//! scratch — is per *worker* ([`WorkerState`]), on cache lines of its own
//! and merged once at the end, so no message takes a lock or an atomic
//! read-modify-write for bookkeeping. The simulator keeps the same rule,
//! with one thread for every node (`node.rs`). In release builds a store keeps
//! only what a later lookup reads — payloads and forward lists — and its
//! mutex is taken only for one of them: a cost-only unicast flow takes no
//! lock beyond its job's one worker-state borrow, and a numeric one none
//! at its ACTIVATE (recording every request there read about 200 ns per
//! handler at 2 threads: a cache miss on a line other threads write).
//! Debug builds record every transition, so the store asserts the whole
//! protocol order there.
//!
//! ## Payload lifetime
//!
//! A payload lives only while some task still has to read it, as PaRSEC
//! frees a data copy once its last reader has consumed it. In a graph
//! that carries payloads ([`TaskGraph::carries_payloads`], recorded as it
//! is built) every payload-carrying version gets a reader countdown: its
//! consumer links, plus one hold when it is *final* — no later write of
//! its key supersedes it. A version without a payload counts 0. A task
//! counts itself off each of its inputs when it starts, after it has
//! cloned them from its node's store, kernel or not; the decrement that
//! reaches zero takes the payload out of every store that can hold it —
//! the version's home and its consumer nodes, among them every multicast
//! relay (`protocol::announce` builds the tree over the remote consumer
//! nodes), found in one more walk of the version's consumer list — and
//! drops it outside the store lock. A payload that nobody
//! reads and a later write supersedes is never stored, and an initial one
//! moves out of the graph into its home store, or is dropped there.
//!
//! Why this is safe: a reader starts only after its copy has arrived at
//! its node — produced there, or put there by the owner or a tree parent
//! answering a GET DATA. Each consumer node receives the version once, so
//! while one reader has not started, a copy that some GET, relay or local
//! read may still need is counted. Once the last reader has started,
//! every consumer node holds its copy and has relayed it: no GET, relay or
//! local read of the version is left. The final holds keep exactly the
//! versions [`crate::Cluster::data`] answers for. A cost-only graph has no
//! countdowns and pays nothing: no array, no pass over the versions, no
//! decrement.
//!
//! ## What the real port does differently
//!
//! * A request posts its GET DATA at once: no GET window and no
//!   engine-level AM aggregation — those are engine behaviors under
//!   *study* in the simulator; here every record travels as its own
//!   message.
//! * The clock is wall time since pool start, the pool's
//!   ([`WorkerCtx::now`]): the CPU's time-stamp counter where it is
//!   invariant, `Instant` elsewhere. A handler reads it once,
//!   at the message's arrival, and stamps every reply with that instant;
//!   an announce outside a handler reads it per destination, since each
//!   flow before it completes in line. A task reads it around its kernel
//!   only when there is one to time, or a trace span or a metrics sample
//!   wants the interval: an untraced, unobserved cost-only task counts no
//!   busy time and reads no clock.
//! * Latencies are measured through the same record timestamps as
//!   §6.1.3, so they read the same as the virtual ones, in wall time.
//!   A worker keeps each series as integer ns moments (count, sum, sum
//!   of squares, min, max), as the simulator does, and the report turns
//!   them into statistics once: a sample costs no float divide.
//!
//! ## Determinism
//!
//! With one worker thread, execution order is fully deterministic. At any
//! thread count the *payloads* are bitwise identical run to run (and to
//! the virtual modes and the sequential oracle): kernels are pure
//! functions of their input versions and the graph fixes every data
//! dependence, so no floating-point reduction order ever varies — only
//! scheduling order does.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering::{AcqRel, Relaxed, SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};

use amt_comm::EngineStats;
use amt_exec::{Pool, TraceEvent, WorkerCtx};
use amt_netmodel::NodeId;
use amt_simnet::{FastMap, MetricsRegistry, SimTime, Trace};
use bytes::Bytes;

use crate::calib::{
    CalibrationProfile, CostSummary, REC_ACTIVATE, REC_ARRIVAL, REC_GET_REQUEST, REC_TASK_OVERHEAD,
};
use crate::cluster::{RunReport, Tally};
use crate::config::ClusterConfig;
use crate::graph::{DataKey, TaskGraph, TaskId, VersionId};
use crate::protocol::{self, Fanout, Forward, Lat, Port, Tree};
use crate::records::{ActivateRec, GetRec, PutCb};
use crate::store::VersionStore;

/// Steal-victim seed for [`crate::Cluster::execute_real`] pools; fixed so
/// probe sequences are reproducible run to run.
const STEAL_SEED: u64 = 0x5eed_ca11_ab1e;

/// One message between nodes: the protocol record, moved from the
/// sender's port into its handler (module docs).
enum Msg {
    Activate(ActivateRec),
    Get(GetRec),
    /// `size` bytes of a version, with its payload when the graph carries
    /// one, completing at the target with `cb`.
    Put {
        cb: PutCb,
        size: usize,
        data: Option<Bytes>,
    },
}

/// A message in a worker's outbox: `msg` from node `src` to node `dst`,
/// sent at `sent_at_ns` (wall ns since pool start; the wire stage of the
/// metrics mode ends where its handler starts).
struct Post {
    dst: usize,
    src: usize,
    sent_at_ns: u64,
    msg: Msg,
}

/// Metrics-mode stage names of the simulated backends, in lifecycle order:
/// queue, inject, wire, deliver, callback.
const AM_STAGES: [&str; 5] = [
    "am.queue_ns",
    "am.inject_ns",
    "am.wire_ns",
    "am.deliver_ns",
    "am.callback_ns",
];
const PUT_STAGES: [&str; 5] = [
    "put.queue_ns",
    "put.inject_ns",
    "put.wire_ns",
    "put.deliver_ns",
    "put.callback_ns",
];

/// What one pool worker accumulates over the run (merged into the report
/// at the end) and keeps between the messages it handles. Only its own
/// worker ever locks it, once per job, and lends it to the [`RealPort`]s
/// of that job; the alignment gives every worker cache lines of its own.
#[repr(align(128))]
struct WorkerState {
    /// The tasks this worker ran and the flows it handled; the executed
    /// counts, summed over workers, are the stall check of [`run`].
    tally: Tally,
    /// Per node, the engine counters of the messages this worker sent
    /// from it and handled at it.
    stats: Vec<EngineStats>,
    /// Stage histograms and per-class message counts (metrics mode only;
    /// disabled and empty otherwise).
    metrics: MetricsRegistry,
    /// Calibration samples (metrics mode only): kernel wall times per
    /// task class ([`KERNEL`]), handler wall times per record kind
    /// ([`RECORD`]).
    calib: CalibSamples,
    /// Set while this worker handles a message it sent
    /// ([`RealPort::post`]): messages the handlers it runs post meanwhile
    /// only join the outbox.
    draining: bool,
    /// Messages handlers of this worker have posted and it has not yet
    /// handled, oldest first; empty whenever `draining` is clear.
    outbox: VecDeque<Post>,
    /// Announce grouping scratch.
    fan: Fanout,
    /// Wall time spent draining (metrics mode only): handler time that a
    /// task's dispatch-overhead sample must not be charged.
    drained_ns: u64,
}

impl WorkerState {
    fn new(nodes: usize, metrics: bool) -> WorkerState {
        WorkerState {
            tally: Tally::default(),
            stats: vec![EngineStats::default(); nodes],
            metrics: MetricsRegistry::new(metrics),
            calib: CalibSamples::default(),
            draining: false,
            outbox: VecDeque::new(),
            fan: Fanout::default(),
            drained_ns: 0,
        }
    }

    /// Append one calibration sample of `family` (metrics mode only).
    fn calib_sample(&mut self, family: usize, key: &'static str, ns: u64) {
        self.calib[family].entry(key).or_default().push(ns);
    }
}

/// Raw calibration samples, per family ([`KERNEL`], [`RECORD`]).
type CalibSamples = [BTreeMap<&'static str, Vec<u64>>; 2];
const KERNEL: usize = 0;
const RECORD: usize = 1;

/// Observability artifacts of one real execution, carried back to the
/// [`crate::Cluster`] so `trace_json` / `metrics_report` /
/// `calibration_profile` answer for real runs exactly like virtual ones.
pub(crate) struct RealObs {
    /// Merged wall-clock trace (the empty shell when tracing was off, so
    /// a disabled real run serializes the same `{"traceEvents":[]}` as a
    /// disabled virtual run).
    pub(crate) trace: Trace,
    /// Message-lifecycle stage histograms merged across workers (disabled
    /// and empty when metrics were off).
    pub(crate) metrics: MetricsRegistry,
    /// Measured cost profile (`Some` only when metrics were on).
    pub(crate) calib: Option<CalibrationProfile>,
}

/// Shared state of one real execution. `Sync`: the graph is read-only
/// during the run, stores are mutex-guarded, counts are atomics.
struct RealRun {
    graph: TaskGraph,
    remaining: Vec<AtomicU32>,
    /// Per version, the readers its payload still waits for (module docs,
    /// "Payload lifetime"); 0 for a version that carries none. Empty for a
    /// graph that carries no payloads.
    readers: Vec<AtomicU32>,
    stores: Vec<Mutex<VersionStore>>,
    /// Per node, ascending: the initial versions homed there and the tasks
    /// all of whose inputs are such versions — what [`node_startup`]
    /// announces and seeds.
    init_versions: Vec<Vec<usize>>,
    seed_tasks: Vec<Vec<TaskId>>,
    workers: Vec<Mutex<WorkerState>>,
    tree: Tree,
    /// Gate for handler timing, stage histograms and calibration
    /// sampling; `false` keeps the unobserved hot path free of them.
    metrics_on: bool,
    /// Whether the pool records task spans: a cost-only task reads the
    /// clock only for one (or for a metrics sample).
    trace_on: bool,
}

// Compile-time guarantee that the whole run state crosses threads.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<RealRun>();
};

impl RealRun {
    fn new(mut graph: TaskGraph, cfg: &ClusterConfig, pool_threads: usize) -> RealRun {
        let nodes = cfg.nodes;
        let metrics = cfg.engine.metrics;
        // Countdowns and startup buckets from the start state the
        // simulator's nodes start from too.
        let mut seed_tasks = vec![Vec::new(); nodes];
        let mut remaining = Vec::with_capacity(graph.task_count());
        let init_versions = graph.start_state(nodes, |t, task, missing| {
            if missing == 0 {
                seed_tasks[task.node()].push(t);
            }
            remaining.push(AtomicU32::new(missing));
        });
        let readers = if graph.carries_payloads() {
            reader_counts(&graph)
        } else {
            Vec::new()
        };
        // Initial payloads move into their home stores; one that nothing
        // reads and a later write supersedes is dropped here.
        let mut stores: Vec<VersionStore> = (0..nodes)
            .map(|n| VersionStore::new(n, cfg.flyweight))
            .collect();
        for (store, versions) in stores.iter_mut().zip(&init_versions) {
            for &v in versions {
                let payload = graph.take_initial(v).filter(|_| awaited(&readers, v));
                store.present(v, payload, false);
            }
        }
        RealRun {
            remaining,
            readers,
            stores: stores.into_iter().map(Mutex::new).collect(),
            init_versions,
            seed_tasks,
            workers: (0..pool_threads)
                .map(|_| Mutex::new(WorkerState::new(nodes, metrics)))
                .collect(),
            tree: Tree::of(cfg),
            metrics_on: metrics,
            trace_on: cfg.engine.trace,
            graph,
        }
    }

    /// One reader of `v` has taken its copy: the last one frees the
    /// payload everywhere (module docs, "Payload lifetime").
    fn read_done(&self, fan: &mut Fanout, v: usize) {
        let left = &self.readers[v];
        // A payload-less version counts 0 and stays there. A payload's
        // count is at least 1 until this reader's own decrement, so the
        // load cannot read 0 for it.
        if left.load(Relaxed) == 0 || left.fetch_sub(1, AcqRel) != 1 {
            return;
        }
        let home = self.graph.version(v).home();
        let nodes = fan.remote_nodes(&self.graph, v, home);
        for &node in std::iter::once(&home).chain(nodes) {
            // The guard goes at the end of the `let`, the bytes after it.
            let _freed = self.store(node).take_payload(v);
        }
    }

    /// The store of `node`, locked.
    fn store(&self, node: usize) -> MutexGuard<'_, VersionStore> {
        self.stores[node].lock().expect("node store")
    }

    /// Mark `v` present at `node` (payload optional; `requested` says
    /// whether `node` asked for it). Release builds only keep the payload
    /// (module docs).
    fn hold(&self, node: usize, v: usize, payload: Option<Bytes>, requested: bool) {
        if cfg!(debug_assertions) {
            self.store(node).present(v, payload, requested);
        } else if let Some(b) = payload {
            self.store(node).keep_payload(v, b);
        }
    }
}

/// Each version's starting reader count (module docs, "Payload
/// lifetime"): for a payload, its consumer links plus one hold when it is
/// final — no later write of its key supersedes it; 0 for a version that
/// carries none. Read before the initial payloads leave the graph.
fn reader_counts(g: &TaskGraph) -> Vec<AtomicU32> {
    // Sized once: growing it would allocate at every doubling.
    let mut last: FastMap<DataKey, usize> =
        FastMap::with_capacity_and_hasher(g.version_count(), Default::default());
    for (v, version) in g.versions().enumerate() {
        last.insert(version.key, v);
    }
    g.versions()
        .enumerate()
        .map(|(v, version)| {
            let carries = match version.producer() {
                Some(t) => g.kernel(t).is_some(),
                None => g.initial(v).is_some(),
            };
            let count = if carries {
                g.consumers(v).count() as u32 + u32::from(last[&version.key] == v)
            } else {
                0
            };
            AtomicU32::new(count)
        })
        .collect()
}

/// Whether some reader still waits for a payload of `v`: never in a graph
/// without payloads or for a version without one.
fn awaited(readers: &[AtomicU32], v: usize) -> bool {
    readers.get(v).is_some_and(|left| left.load(Relaxed) != 0)
}

/// One worker's view of `node`, the protocol's [`Port`] on this
/// substrate: the node's store and transport, the worker's outbox and
/// statistics.
struct RealPort<'a, 'c> {
    ctx: &'a mut WorkerCtx<'c>,
    run: &'a RealRun,
    ws: &'a mut WorkerState,
    node: usize,
    /// Arrival instant of the message being handled (the one clock read
    /// in [`handle`]); `None` outside a handler.
    at: Option<u64>,
}

impl<'a, 'c> RealPort<'a, 'c> {
    fn new(
        ctx: &'a mut WorkerCtx<'c>,
        run: &'a RealRun,
        ws: &'a mut WorkerState,
        node: usize,
    ) -> Self {
        RealPort {
            ctx,
            run,
            ws,
            node,
            at: None,
        }
    }

    /// Send `msg` from this node to `dst`, stamped `sent_at_ns` (module
    /// docs). Outside a drain this worker becomes the outermost sender: it
    /// handles the message at once, then its outbox one message at a time;
    /// from a handler it only appends, so no drain nests inside another.
    /// The outbox is empty when a drain starts, so messages are handled in
    /// the order they were posted.
    fn post(&mut self, dst: usize, sent_at_ns: u64, msg: Msg) {
        let (ctx, run, ws) = (&mut *self.ctx, self.run, &mut *self.ws);
        let post = Post {
            dst,
            src: self.node,
            sent_at_ns,
            msg,
        };
        if ws.draining {
            ws.outbox.push_back(post);
            return;
        }
        ws.draining = true;
        let t0 = run.metrics_on.then(|| ctx.now());
        handle(&mut RealPort::new(ctx, run, ws, dst), post);
        while let Some(post) = ws.outbox.pop_front() {
            handle(&mut RealPort::new(ctx, run, ws, post.dst), post);
        }
        ws.draining = false;
        ws.drained_ns += t0.map_or(0, |t0| (ctx.now() - t0).as_ns());
    }

    /// Run `f`; in metrics mode also sample its wall time under `key`.
    /// Returns the sampled nanoseconds (0 when unobserved).
    fn timed(&mut self, key: &'static str, f: impl FnOnce(&mut Self)) -> u64 {
        let t0 = self.run.metrics_on.then(|| self.ctx.now());
        f(self);
        t0.map_or(0, |t0| {
            let d = (self.ctx.now() - t0).as_ns();
            self.ws.calib_sample(RECORD, key, d);
            d
        })
    }

    /// Announce `versions` (with the sizes they are held with) to their
    /// remote consumers, releasing the local ones of those `produced` here.
    fn announce_versions(
        &mut self,
        produced: bool,
        versions: impl Iterator<Item = (usize, usize)>,
    ) {
        let mut fan = std::mem::take(&mut self.ws.fan);
        let run = self.run;
        protocol::announce(self, &run.graph, &mut fan, run.tree, produced, versions);
        self.ws.fan = fan;
    }
}

impl Port for RealPort<'_, '_> {
    /// Every GET DATA is posted at once (module docs).
    const ORDERS_GETS: bool = false;

    #[inline]
    fn now(&mut self) -> u64 {
        match self.at {
            Some(at) => at,
            None => self.ctx.now().as_ns(),
        }
    }

    #[inline]
    fn send_activate(&mut self, dst: NodeId, rec: ActivateRec) {
        let at = self.at.unwrap_or(rec.sent_at_ns);
        self.post(dst, at, Msg::Activate(rec));
    }

    /// Post the GET DATA at once (no window on this substrate).
    #[inline]
    fn request(&mut self, owner: NodeId, rec: &ActivateRec) {
        let get = GetRec {
            version: rec.version,
            activate_sent_at_ns: rec.sent_at_ns,
        };
        let at = self.now();
        self.post(owner, at, Msg::Get(get));
    }

    #[inline]
    fn put(&mut self, dst: NodeId, cb: PutCb, size: usize, data: Option<Bytes>) {
        let at = self.now();
        self.post(dst, at, Msg::Put { cb, size, data });
    }

    /// An arrival: hold `v`, then walk its consumers for this node's.
    #[inline]
    fn present(&mut self, v: usize, data: Option<Bytes>, requested: bool) {
        let g = &self.run.graph;
        self.run.hold(self.node, v, data, requested);
        for c in g.consumers(v) {
            if c.node == self.node {
                self.release(g, c.task);
            }
        }
    }

    /// The release that takes the countdown to zero spawns the task.
    #[inline]
    fn release(&mut self, _: &TaskGraph, task: TaskId) {
        if self.run.remaining[task].fetch_sub(1, SeqCst) == 1 {
            self.ctx.defer_task(task);
        }
    }

    /// Release builds only keep a forward list (module docs).
    #[inline]
    fn requested(&mut self, v: usize, forward: Option<Forward>) {
        if cfg!(debug_assertions) {
            self.run.store(self.node).requested(v, forward);
        } else if let Some(f) = forward {
            self.run.store(self.node).keep_forward(v, f);
        }
    }

    #[inline]
    fn take_forward(&mut self, v: usize) -> Option<Forward> {
        // Forward lists exist only under a multicast policy.
        self.run.tree.min?;
        self.run.store(self.node).take_forward(v)
    }

    #[inline]
    fn payload(&mut self, v: usize) -> Option<Bytes> {
        let tracked = cfg!(debug_assertions) || awaited(&self.run.readers, v);
        tracked.then(|| self.run.store(self.node).held(v)).flatten()
    }

    #[inline]
    fn sample(&mut self, lat: Lat, t: SimTime) {
        self.ws.tally.lats.record(lat, t);
    }
}

/// Pool runner id of the startup job; every other id is a task.
const STARTUP: usize = usize::MAX;

/// The pool's task runner: lock this worker's state once and run job
/// `id` — a task, or the startup, which starts every node in ascending
/// order, as `Cluster::init_nodes` starts the simulated ones.
fn run_job(ctx: &mut WorkerCtx<'_>, run: &RealRun, id: usize) {
    let mut ws = run.workers[ctx.worker()].lock().expect("worker state");
    let p = &mut RealPort::new(ctx, run, &mut ws, 0);
    if id == STARTUP {
        for node in 0..run.stores.len() {
            p.node = node;
            node_startup(p);
        }
    } else {
        exec_task(p, id);
    }
}

/// Execute task `t` on its home node's store, then run the completion
/// protocol: mark outputs present, release local consumers, announce to
/// remote ones.
fn exec_task(p: &mut RealPort<'_, '_>, t: TaskId) {
    let run = p.run;
    let task = run.graph.task(t);
    let kernel = run.graph.kernel(t);
    let node = task.node();
    p.node = node;
    // Dispatch-overhead measurement brackets the whole job (input gather,
    // kernel, completion protocol) less the messages this worker handles
    // in line on the way, which have samples of their own; metrics mode
    // only.
    let t_entry = run.metrics_on.then(|| (p.ctx.now(), p.ws.drained_ns));

    // Gather input payloads (only data-carrying versions feed kernels,
    // exactly like the sequential oracle).
    let inputs: Vec<Bytes> = if kernel.is_some() {
        let store = run.store(node);
        run.graph
            .inputs(t)
            .filter(|v| run.graph.version(v.0).size > 0)
            .map(|v| {
                store
                    .payload(v.0)
                    .unwrap_or_else(|| panic!("task {t}: input {} missing at node {node}", v.0))
                    .clone()
            })
            .collect()
    } else {
        Vec::new()
    };
    // This task has its copies: count it off every input it reads.
    if !run.readers.is_empty() {
        for v in run.graph.inputs(t) {
            run.read_done(&mut p.ws.fan, v.0);
        }
    }

    // The clock brackets the kernel only when someone reads the interval
    // (module docs).
    let timed = kernel.is_some() || run.trace_on || run.metrics_on;
    let started = timed.then(|| p.ctx.now());
    let outs: Vec<Bytes> = match kernel {
        Some(k) => k(&inputs),
        None => Vec::new(),
    };
    let busy_ns = started.map_or(0, |started| {
        let ended = p.ctx.now();
        // On a traced pool this lands in the worker's lock-free buffer; on
        // an untraced pool it is a no-op.
        p.ctx.trace_task(task.name, node, started, ended);
        (ended - started).as_ns()
    });
    if kernel.is_some() {
        assert_eq!(
            outs.len(),
            run.graph.outputs(t).len(),
            "kernel output arity"
        );
    }

    p.ws.tally.task(task.name, SimTime::from_ns(busy_ns));
    if run.metrics_on {
        p.ws.calib_sample(KERNEL, task.name, busy_ns);
    }

    // Completion: outputs become present locally, then the announce's one
    // walk over each output's consumers releases the local ones (spawned
    // before that output's flows run in line, so another worker can steal
    // them meanwhile) and groups the remote ones. A kernel's output
    // announces its own length, a cost-only one its declared size. A
    // payload that nobody reads and a later write supersedes is not kept.
    for (i, out) in run.graph.outputs(t).enumerate() {
        let payload = outs.get(i).filter(|_| awaited(&run.readers, out.0));
        run.hold(node, out.0, payload.cloned(), false);
    }
    p.announce_versions(
        true,
        run.graph.outputs(t).enumerate().map(|(i, out)| {
            let size = outs
                .get(i)
                .map_or(run.graph.version(out.0).size, Bytes::len);
            (out.0, size)
        }),
    );
    if let Some((t_entry, drained)) = t_entry {
        let drained = p.ws.drained_ns - drained;
        let total_ns = (p.ctx.now() - t_entry).as_ns();
        p.ws.calib_sample(
            RECORD,
            REC_TASK_OVERHEAD,
            total_ns.saturating_sub(busy_ns + drained),
        );
    }
}

/// Handle one message at `p.node`, on the thread that sent it (module
/// docs): count it at both ends in this worker's per-node counters, then
/// run its protocol handler on the record it carries. The one clock read
/// here is the message's arrival instant for the handlers and the send
/// stamp of their replies.
fn handle(p: &mut RealPort<'_, '_>, post: Post) {
    let (run, node, k) = (p.run, p.node, p.run.tree.k);
    let Post {
        src,
        sent_at_ns,
        msg,
        ..
    } = post;
    let now_ns = p.ctx.now().as_ns();
    p.at = Some(now_ns);
    let ws = &mut *p.ws;
    if let Msg::Put { size, .. } = msg {
        ws.stats[src].puts_started.inc();
        ws.stats[node].put_bytes_in.add(size as u64);
        ws.stats[node].puts_remote_done.inc();
    } else {
        ws.stats[src].am_sent.inc();
        ws.stats[src].am_submitted.inc();
        ws.stats[node].am_received.inc();
    }
    let callback_stage = run
        .metrics_on
        .then(|| record_stages(&mut ws.metrics, &msg, now_ns.saturating_sub(sent_at_ns)));
    let callback_ns = match msg {
        Msg::Activate(rec) => p.timed(REC_ACTIVATE, |p| protocol::on_activate(p, k, src, rec)),
        Msg::Get(rec) => p.timed(REC_GET_REQUEST, |p| {
            protocol::on_get(p, &run.graph, src, rec)
        }),
        Msg::Put { cb, size, data } => {
            p.timed(REC_ARRIVAL, |p| protocol::on_put(p, k, cb, size, data))
        }
    };
    if let Some(stage) = callback_stage {
        p.ws.metrics.record(stage, callback_ns);
    }
}

/// Record the metrics mode's per-message samples under the simulated
/// backends' names, and return the name of the message's callback stage,
/// which its handler's duration fills. A send is a
/// handler call here: the queue and inject stages are structurally zero,
/// the wait before the handler ran is the wire stage and hand-off is
/// delivery; recording the zeros keeps the stage *counts* comparable
/// across substrates.
fn record_stages(m: &mut MetricsRegistry, msg: &Msg, wire_ns: u64) -> &'static str {
    let stages = match msg {
        Msg::Activate(_) => {
            m.count("msg.activate.msgs_on_wire", 1);
            m.record("msg.activate.records_per_msg", 1);
            AM_STAGES
        }
        Msg::Get(_) => {
            m.count("msg.get.msgs_on_wire", 1);
            m.record("msg.get.records_per_msg", 1);
            AM_STAGES
        }
        Msg::Put { .. } => {
            m.count("msg.data.msgs_on_wire", 1);
            PUT_STAGES
        }
    };
    for (stage, ns) in stages.iter().zip([0, 0, wire_ns, 0]) {
        m.record(stage, ns);
    }
    stages[4]
}

/// Startup at `p.node`: announce the node's initial versions, then seed
/// its dependence-free tasks, in task order.
fn node_startup(p: &mut RealPort<'_, '_>) {
    let (run, node) = (p.run, p.node);
    p.announce_versions(
        false,
        // An initial payload's length is its declared size.
        run.init_versions[node]
            .iter()
            .map(|&v| (v, run.graph.version(v).size)),
    );
    // Seed only *statically* dependence-free tasks — every input a
    // pre-satisfied initial version homed here. Tasks whose counters hit
    // zero dynamically are spawned by the release that takes them there;
    // re-checking live counters here would double-spawn a task that an
    // earlier node's startup flow released.
    for &t in &run.seed_tasks[node] {
        p.ctx.defer_task(t);
    }
}

/// Rebuild a wall-clock [`Trace`] from the pool's drained per-worker
/// event buffers. Task spans land on `n{node}.w{worker}` tracks (the
/// same vocabulary as virtual traces); steal arrows, park/unpark
/// instants, and queue-depth counters on `pool.w{worker}` tracks.
fn build_trace(drained: Option<Vec<Vec<TraceEvent>>>) -> Trace {
    let mut trace = Trace::new(drained.is_some());
    let Some(per_worker) = drained else {
        return trace;
    };
    for (w, events) in per_worker.into_iter().enumerate() {
        let worker = format!("pool.w{w}");
        for ev in events {
            match ev {
                TraceEvent::Span {
                    name,
                    node,
                    start_ns,
                    end_ns,
                } => trace.record(
                    format!("n{node}.w{w}"),
                    name,
                    SimTime::from_ns(start_ns),
                    SimTime::from_ns(end_ns),
                ),
                TraceEvent::Steal { id, victim, at_ns } => {
                    let at = SimTime::from_ns(at_ns);
                    // Zero-width anchor slices on both tracks so viewers
                    // that bind flows to enclosing slices render the
                    // arrow; `id` pairs the endpoints.
                    trace.record(format!("pool.w{victim}"), "stolen", at, at);
                    trace.record(worker.clone(), "steal", at, at);
                    trace.flow_start(format!("pool.w{victim}"), "steal", id, at);
                    trace.flow_end(worker.clone(), "steal", id, at);
                }
                TraceEvent::Park { at_ns } => {
                    trace.instant(worker.clone(), "park", SimTime::from_ns(at_ns));
                }
                TraceEvent::Unpark { at_ns } => {
                    trace.instant(worker.clone(), "unpark", SimTime::from_ns(at_ns));
                }
                TraceEvent::DequeDepth { at_ns, depth } => {
                    trace.counter(
                        format!("{worker}.deque"),
                        SimTime::from_ns(at_ns),
                        depth as f64,
                    );
                }
                TraceEvent::InjectorDepth { at_ns, depth } => {
                    trace.counter(
                        format!("{worker}.injector"),
                        SimTime::from_ns(at_ns),
                        depth as f64,
                    );
                }
            }
        }
    }
    trace
}

/// Execute `graph` for real on `threads` pool workers (`0` = one per
/// core). Returns the run report, every payload held anywhere at the
/// end — the final versions' (module docs, "Payload lifetime"), for
/// [`crate::Cluster::data`] — and the run's observability artifacts.
pub(crate) fn run(
    graph: TaskGraph,
    cfg: &ClusterConfig,
    threads: usize,
) -> (RunReport, HashMap<VersionId, Bytes>, RealObs) {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let nodes = cfg.nodes;
    let tasks_total = graph.task_count() as u64;
    let run = Arc::new(RealRun::new(graph, cfg, threads));
    let pool = {
        let run = run.clone();
        Pool::with_runner(threads, STEAL_SEED, cfg.engine.trace, move |ctx, id| {
            run_job(ctx, &run, id)
        })
    };

    let t0 = pool.now();
    pool.spawn_task(STARTUP);
    pool.run_until_idle();
    let makespan = pool.now() - t0;
    // Every worker's counters and buffer publications happen-before the
    // parked state run_until_idle observed, and no worker moves again
    // until the next spawn, so the snapshots are complete and agree.
    let pool_stats = pool.stats();
    let trace = build_trace(pool.drain_trace());
    drop(pool);

    let run = Arc::try_unwrap(run).unwrap_or_else(|_| panic!("run state still shared after idle"));
    // Merge every worker's accumulators once: report tallies, per-node
    // engine counters, stage histograms and calibration samples.
    let mut tally = Tally::default();
    let mut engine_stats = vec![EngineStats::default(); nodes];
    let mut metrics = MetricsRegistry::new(cfg.engine.metrics);
    let mut samples = CalibSamples::default();
    for w in run.workers {
        let w = w.into_inner().expect("worker state");
        tally.merge(&w.tally);
        for (all, s) in engine_stats.iter_mut().zip(&w.stats) {
            all.merge(s);
        }
        metrics.merge(&w.metrics);
        for (all, family) in samples.iter_mut().zip(w.calib) {
            for (key, v) in family {
                all.entry(key).or_default().extend(v);
            }
        }
    }
    let executed = tally.executed();
    assert_eq!(
        executed, tasks_total,
        "real execution drained with unexecuted tasks (protocol stall)"
    );

    // Merge every node's payloads for post-run data access; producers win
    // over transferred copies (they are bitwise equal anyway).
    let mut data: HashMap<VersionId, Bytes> = HashMap::new();
    for store in run.stores {
        for (v, b) in store.into_inner().expect("node store").into_payloads() {
            data.entry(VersionId(v)).or_insert(b);
        }
    }

    // Calibration profile from the measured samples (metrics mode only):
    // lower medians, deterministic BTreeMap key order.
    let calib = cfg.engine.metrics.then(|| {
        let [classes, records] = samples.map(|family| {
            let summary = |(k, v): (&str, _)| (k.to_string(), CostSummary::from_samples(v));
            family.into_iter().map(summary).collect()
        });
        CalibrationProfile {
            threads,
            tasks: executed,
            classes,
            records,
        }
    });

    let report = RunReport {
        pool: Some(pool_stats),
        ..tally.into_report(makespan, tasks_total, threads, engine_stats)
    };
    (
        report,
        data,
        RealObs {
            trace,
            metrics,
            calib,
        },
    )
}

/// The `present` / `requested` protocol checks are debug-build state;
/// tier-1 runs debug builds, and this keeps them known to fire there.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::{GraphBuilder, TaskDesc};

    #[test]
    #[should_panic(expected = "version 0 delivered twice to node 0")]
    fn a_version_fulfilled_twice_at_one_node_is_caught() {
        let mut g = GraphBuilder::new(1);
        g.insert(TaskDesc::new("w").write(0, 0));
        let run = RealRun::new(g.build(), &ClusterConfig::default(), 1);
        run.hold(0, 0, None, false);
        run.hold(0, 0, None, false);
    }
}
