//! Real execution of a task graph on the `amt-exec` work-stealing pool —
//! the **real substrate** behind [`crate::Cluster::execute_real`].
//!
//! The same graph, kernels, and ACTIVATE / GET DATA / put protocol as the
//! virtual path, but with wall-clock time and real OS threads:
//!
//! * every worker thread can execute any node's tasks (one shared pool —
//!   in a single shared-memory process, node affinity governs *data
//!   placement and protocol*, not thread placement);
//! * dependence tracking is a per-task atomic countdown over the graph's
//!   consumer lists — the release that takes a count to zero spawns the
//!   task as a pool job (LIFO local, stealable);
//! * cross-node dataflows run the real protocol over the in-process
//!   shared-memory transport ([`ShmWorld`]): ACTIVATE records announce a
//!   produced version to remote consumer nodes, the consumer requests the
//!   payload with a GET DATA record, and the owner answers with a
//!   one-sided put carrying a callback descriptor — all encoded with the
//!   exact wire records of the simulated engines
//!   ([`crate::records`]). Records of at most 37 bytes (every one of a
//!   unicast flow) are *immediate*: they ride inside their `Bytes` handle
//!   and take no buffer. Multicast ACTIVATEs with a forward list are
//!   drawn from thread-safe buffer pools and returned, once decoded in
//!   place, to the pool they came from.
//!
//! ## Progress: the sender handles its own messages, in line
//!
//! A message is never a pool job. Every send is a [`post`] into the
//! worker's outbox; outside a handler the worker then sends the outbox
//! one message at a time through [`ShmWorld::send`], which runs the
//! destination's handler at once, on this thread; a handler that sends
//! only appends, so drains never nest. A whole ACTIVATE → GET DATA → put
//! flow completes on the thread that announced it. Handlers for one node
//! may run on several threads at once: stores sit behind their node's
//! mutex, countdowns and the quiescence reduce are atomics, buffer pools
//! are shared, statistics per worker. Each flow is causal (the ACTIVATE
//! handler records `pending_forwards` before it posts the GET; the put
//! follows the GET) and a thread sends its outbox in order, so no
//! ordering is lost. Each job locks its worker's [`WorkerState`] once, at
//! entry, and lends it down to every handler it runs.
//!
//! Measured on `real_stencil` at 2 threads and rejected (the parent, one
//! `defer`red job per message, ran 94–110 k tasks/s at 47–50 µs
//! end-to-end): one flagged progress job per node, still `defer`red —
//! +30 % tasks/s but 720 µs, the job sits under every newer LIFO task;
//! in-line drains that nest and hold several flags — 143 k tasks/s but
//! 310–380 µs, one thread turns into the communication thread of every
//! node it holds; an atomic park epoch so spawns skip the pool's `sync`
//! mutex — 96 k, no change. DESIGN.md §3.8 has the table.
//!
//! Measured again while sizing PR 18 (immediate records, per-worker
//! state; the prototype ran 283–316 k tasks/s where its parent ran
//! 170–175 k) and rejected: a 56-byte `Bytes` handle — same speed,
//! `peak_live_bytes` +4.6–5.9 %, over the bound; an atomic sleeper flag
//! in place of the pool's `sync` mutex and `pending` counter — 284–290 k
//! against 283–289 k, no change for the third time; node-affine progress
//! (a home worker drains each mailbox between jobs, senders hand over) —
//! +4 % tasks/s but 34 → 55 µs end-to-end, ten times the steals, and a
//! new parking protocol in the pool.
//!
//! Measured while sizing the direct hand-off (parent 413–451 k tasks/s,
//! the change 596–673 k) and rejected: the once-per-job worker borrow
//! alone, over the per-node mailbox mutex — 402–454 k, no change, it pays
//! only once the mailbox contention is gone; per-worker copies of the
//! transport's counters — 620–669 k against 661–677 k, noise; the owner
//! swapping into worker-owned storage instead of the node's owner-only
//! `batch` mutex (one lock pair per queued batch; 19–24 % of the
//! messages queue at 2 threads) — 528 k against 511 k tasks/s medians
//! over six 8 s pairs, 3 won, noise: the mutex stays, the API stays
//! narrow.
//!
//! Measured while sizing handling by the sender (2 threads; the parent —
//! one owner per node behind a two-bit state word, direct hand-off to a
//! free node, its inbox otherwise — ran 329–388 k tasks/s at 4.9–15 µs
//! end-to-end, the prototype 528–580 k at 1.7 µs) and rejected: the owner
//! protocol itself, 1.25× on top of the other parts (4/4 pairs): every
//! message paid a CAS pair on a line every sender writes, and one in five
//! waited in an inbox behind a busy owner. The atomic park epoch rejected
//! above pays at this rate: 1.04× on its own (4/4 pairs).
//!
//! ## What is per node and what is per worker
//!
//! Per node is only what is protocol state: the version store and the
//! transport's lifecycle counters. Everything a thread merely
//! accumulates — busy time, class counts, executed-task counts, latency
//! statistics, its outbox — is per *worker*
//! ([`WorkerState`]), on cache lines of its own and merged once at the
//! end, so no two threads write one line for bookkeeping. The store's
//! mutex is taken only when there is something to store or look up (a
//! payload, a forward list, a numeric GET): a cost-only unicast flow
//! takes no lock beyond its job's one worker-state borrow.
//!
//! ## Differences from the virtual path (by design)
//!
//! * No GET-window throttling and no engine-level AM aggregation: those
//!   are engine behaviors under *study* in the simulator; here every GET
//!   issues immediately and every record travels as its own wire message.
//! * Multicast *is* honored: with `bcast_tree_min` set, wide announces
//!   fan out over the same forward-list trees as the virtual engines
//!   (binomial halving, or k-ary under `multicast_k`). Control flows
//!   relay down the tree immediately; data flows relay only once the
//!   payload is locally present, so children always GET from a tree
//!   parent that holds the data.
//! * Startup and quiescence run on the collectives primitives
//!   ([`amt_comm::kary_children`] / [`amt_comm::TreeReduce`]): a
//!   go-token broadcast down a k-ary tree starts each node's announces
//!   and seed tasks, and per-node executed-task counts reduce back up
//!   the same tree to confirm completion at the root — no single root
//!   job touching every node's state.
//! * `e2e`/`msg`/`request` latencies are wall-clock (anchored at pool
//!   start), measured through the same record timestamps as §6.1.3.
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
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};

use amt_comm::{kary_children, EngineStats, ReduceStep, ShmMsg, ShmWorld, TreeReduce};
use amt_exec::{Pool, TraceEvent, WorkerCtx};
use amt_simnet::{MetricsRegistry, OnlineStats, SimTime, Substrate, Trace};
use bytes::{Buf, Bytes, Frames};

use crate::calib::{
    CalibrationProfile, CostSummary, REC_ACTIVATE, REC_ARRIVAL, REC_GET_REQUEST, REC_TASK_OVERHEAD,
};
use crate::cluster::RunReport;
use crate::config::ClusterConfig;
use crate::graph::{TaskGraph, TaskId, VersionId};
use crate::node::{AM_ACTIVATE, AM_GETDATA, RTAG_DATA};
use crate::records::{split_subtree, ActivateRec, GetRec, PutCb};

/// AM tag of the startup go-token broadcast down the collective tree.
const AM_COLL_GO: u64 = 3;
/// AM tag of quiescence-reduce partial sums up the collective tree.
const AM_COLL_SUM: u64 = 4;

/// Steal-victim seed for [`crate::Cluster::execute_real`] pools; fixed so
/// probe sequences are reproducible run to run.
const STEAL_SEED: u64 = 0x5eed_ca11_ab1e;

/// Receive-buffer pool depth per node endpoint.
const SHM_POOL_BUFS: usize = 64;

/// Per-node version store: payloads held here and multicast subtrees
/// waiting for one (module docs: locked only when one of them is in play).
struct NodeStore {
    payload: HashMap<usize, Bytes>,
    /// Multicast subtrees (`(forward list, priority)`) this node must
    /// relay once the version's data arrives.
    pending_forwards: HashMap<usize, (Vec<u32>, i64)>,
    /// Which versions have arrived here and which GETs are in flight.
    /// Nothing reads them but the protocol assertions, so they exist —
    /// and the store is locked on every flow for them — in debug builds
    /// only.
    #[cfg(debug_assertions)]
    present: Vec<bool>,
    #[cfg(debug_assertions)]
    requested: Vec<bool>,
}

/// What one pool worker accumulates over the run (merged into the report
/// at the end) and keeps between the messages it handles. Only its own
/// worker ever locks it, once per job, and passes it down as
/// `&mut WorkerState`; the alignment gives every worker cache lines of
/// its own.
#[derive(Default)]
#[repr(align(128))]
struct WorkerState {
    busy_ns: u64,
    /// `(class, tasks, busy ns)`: a graph has a handful of classes, so a
    /// scan that compares pointers before strings beats hashing the name.
    classes: Vec<(&'static str, u64, u64)>,
    /// Tasks executed per node — the contributions of the quiescence
    /// tree reduce, summed over workers ([`RealRun::executed_per_node`]).
    executed: Vec<u64>,
    /// Message-lifecycle latencies of the flows this worker handled.
    e2e: OnlineStats,
    msg: OnlineStats,
    req: OnlineStats,
    /// Set while this worker sends its outbox ([`post`]): messages the
    /// handlers it runs post meanwhile only join the queue.
    draining: bool,
    /// Messages this worker has posted and not yet sent, oldest first.
    outbox: VecDeque<(usize, ShmMsg)>,
    /// Scratch for a version's remote consumer nodes ([`announce`]).
    dests: Vec<u32>,
    /// Wall time spent draining (metrics mode only): handler time that a
    /// task's dispatch-overhead sample must not be charged.
    drained_ns: u64,
}

/// Raw calibration samples (only collected when metrics are on): kernel
/// wall times per task class, handler wall times per record kind.
#[derive(Default)]
struct CalibSamples {
    classes: BTreeMap<&'static str, Vec<u64>>,
    records: BTreeMap<&'static str, Vec<u64>>,
}

/// Observability artifacts of one real execution, carried back to the
/// [`crate::Cluster`] so `trace_json` / `metrics_report` /
/// `calibration_profile` answer for real runs exactly like virtual ones.
pub(crate) struct RealObs {
    /// Merged wall-clock trace (the empty shell when tracing was off, so
    /// a disabled real run serializes the same `{"traceEvents":[]}` as a
    /// disabled virtual run).
    pub(crate) trace: Trace,
    /// Message-lifecycle stage histograms merged across nodes (disabled
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
    stores: Vec<Mutex<NodeStore>>,
    /// Per node, ascending: the initial versions homed there and the tasks
    /// all of whose inputs are such versions — what [`node_startup`]
    /// announces and seeds.
    init_versions: Vec<Vec<usize>>,
    seed_tasks: Vec<Vec<TaskId>>,
    shm: ShmWorld,
    workers: Vec<Mutex<WorkerState>>,
    /// Quiescence reduce over the collective tree (root = node 0).
    reduce: TreeReduce,
    /// Announce over a multicast tree when a version has at least this
    /// many remote consumers (`None` = always unicast).
    bcast_tree_min: Option<usize>,
    /// Multicast tree arity (`None` = binomial halving).
    multicast_k: Option<usize>,
    /// Arity of the startup/quiescence collective trees.
    coll_k: usize,
    /// Gate for handler timing and calibration sampling; `false` keeps
    /// the unobserved hot path free of extra clock reads and locks.
    metrics_on: bool,
    calib: Mutex<CalibSamples>,
}

// Compile-time guarantee that the whole run state crosses threads.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<RealRun>();
};

impl RealRun {
    fn new(graph: TaskGraph, cfg: &ClusterConfig, pool_threads: usize) -> RealRun {
        let nodes = cfg.nodes;
        let metrics = cfg.metrics;
        let coll_k = cfg.multicast_k.unwrap_or(2);
        // One pass over the tasks and one over the versions, whatever the
        // node count: countdowns, startup buckets and seeded stores.
        let mut seed_tasks = vec![Vec::new(); nodes];
        let remaining = graph
            .tasks()
            .enumerate()
            .map(|(id, t)| {
                let missing = t
                    .inputs
                    .iter()
                    .filter(|v| {
                        let ver = graph.version(v.0);
                        !(ver.producer.is_none() && ver.home == t.node)
                    })
                    .count() as u32;
                if missing == 0 {
                    seed_tasks[t.node].push(id);
                }
                AtomicU32::new(missing)
            })
            .collect();
        let mut init_versions = vec![Vec::new(); nodes];
        let mut stores: Vec<NodeStore> = (0..nodes)
            .map(|_| NodeStore {
                payload: HashMap::new(),
                pending_forwards: HashMap::new(),
                #[cfg(debug_assertions)]
                present: vec![false; graph.version_count()],
                #[cfg(debug_assertions)]
                requested: vec![false; graph.version_count()],
            })
            .collect();
        for (i, v) in graph.versions().enumerate() {
            if v.producer.is_none() {
                init_versions[v.home].push(i);
                #[cfg(debug_assertions)]
                {
                    stores[v.home].present[i] = true;
                }
                if let Some(b) = &v.initial {
                    stores[v.home].payload.insert(i, b.clone());
                }
            }
        }
        let shm = ShmWorld::new_observed(nodes, SHM_POOL_BUFS, metrics);
        shm.label_tag(AM_ACTIVATE, "activate");
        shm.label_tag(AM_GETDATA, "get");
        shm.label_tag(AM_COLL_GO, "coll");
        shm.label_tag(AM_COLL_SUM, "coll");
        RealRun {
            remaining,
            stores: stores.into_iter().map(Mutex::new).collect(),
            init_versions,
            seed_tasks,
            shm,
            workers: (0..pool_threads)
                .map(|_| {
                    Mutex::new(WorkerState {
                        executed: vec![0; nodes],
                        ..WorkerState::default()
                    })
                })
                .collect(),
            reduce: TreeReduce::new(nodes, 0, coll_k),
            bcast_tree_min: cfg.bcast_tree_min,
            multicast_k: cfg.multicast_k,
            coll_k,
            metrics_on: metrics,
            calib: Mutex::new(CalibSamples::default()),
            graph,
        }
    }

    /// Append one record-handler duration sample (metrics mode only).
    fn record_sample(&self, key: &'static str, ns: u64) {
        self.calib
            .lock()
            .expect("calib samples")
            .records
            .entry(key)
            .or_default()
            .push(ns);
    }

    /// Append one kernel wall-time sample (metrics mode only).
    fn kernel_sample(&self, name: &'static str, ns: u64) {
        self.calib
            .lock()
            .expect("calib samples")
            .classes
            .entry(name)
            .or_default()
            .push(ns);
    }

    /// The state of the worker running `ctx`, locked once per job by
    /// [`run_job`] and lent down.
    fn worker(&self, ctx: &WorkerCtx<'_>) -> MutexGuard<'_, WorkerState> {
        let w = ctx.worker().expect("real runs execute on pool workers");
        self.workers[w].lock().expect("worker state")
    }

    /// Executed tasks per node, summed over the workers' counts. Locks
    /// each worker's state in turn: call it with none held, at
    /// quiescence.
    fn executed_per_node(&self) -> Vec<u64> {
        let mut counts = vec![0; self.shm.len()];
        for w in &self.workers {
            let w = w.lock().expect("worker state");
            for (c, n) in counts.iter_mut().zip(&w.executed) {
                *c += n;
            }
        }
        counts
    }

    /// Whether a payload of `v` exists anywhere: only kernels and initial
    /// data make one, so a cost-only version never enters a store.
    fn carries_payload(&self, v: usize) -> bool {
        let ver = self.graph.version(v);
        ver.initial.is_some()
            || ver
                .producer
                .is_some_and(|t| self.graph.task(t).kernel.is_some())
    }

    /// Remote consumer nodes of version `v` into `dests`, deduplicated,
    /// ascending.
    fn remote_consumer_nodes(&self, v: usize, dests: &mut Vec<u32>) {
        let ver = self.graph.version(v);
        dests.clear();
        dests.extend(
            ver.consumers
                .iter()
                .map(|&t| self.graph.task(t).node)
                .filter(|&n| n != ver.home)
                .map(|n| n as u32),
        );
        dests.sort_unstable();
        dests.dedup();
    }

    /// Mark `v` present at `node` (payload optional) and hand `ready` each
    /// local consumer task this release made ready, in task order.
    fn fulfill_local(
        &self,
        node: usize,
        v: usize,
        payload: Option<Bytes>,
        mut ready: impl FnMut(TaskId),
    ) {
        if cfg!(debug_assertions) || payload.is_some() {
            let mut store = self.stores[node].lock().expect("node store");
            #[cfg(debug_assertions)]
            assert!(
                !std::mem::replace(&mut store.present[v], true),
                "version {v} delivered twice to node {node}"
            );
            if let Some(b) = payload {
                store.payload.insert(v, b);
            }
        }
        for &t in &self.graph.version(v).consumers {
            if self.graph.task(t).node == node && self.remaining[t].fetch_sub(1, SeqCst) == 1 {
                ready(t);
            }
        }
    }
}

/// Pool runner ids of the startup and quiescence jobs; every other id
/// is a task.
const STARTUP: usize = usize::MAX;
const QUIESCE: usize = usize::MAX - 1;

/// The pool's task runner: lock this worker's state once and run job
/// `id` — a task, the startup at the collective root, or the quiescence
/// reduce, in which every node contributes its executed-task count and
/// partial sums climb to the root, which must see exactly the graph's
/// task count.
fn run_job(ctx: &mut WorkerCtx<'_>, run: &RealRun, id: usize) {
    // Summed before this worker's own state is locked.
    let counts = (id == QUIESCE).then(|| run.executed_per_node());
    let mut ws = run.worker(ctx);
    match (id, counts) {
        (STARTUP, _) => node_startup(ctx, run, &mut ws, 0),
        (QUIESCE, Some(counts)) => {
            for (node, count) in counts.into_iter().enumerate() {
                let step = run.reduce.contribute(node, count);
                coll_step(ctx, run, &mut ws, node, step);
            }
        }
        (t, _) => exec_task(ctx, run, &mut ws, t),
    }
}

/// Announce `v` to every remote consumer node and see to their progress;
/// called once, by the producer's node (or that node's startup for
/// initial versions). Wide announces go down a multicast tree when
/// `bcast_tree_min` allows; each destination still receives exactly one
/// ACTIVATE.
fn announce(ctx: &mut WorkerCtx<'_>, run: &RealRun, ws: &mut WorkerState, v: usize) {
    let ver = run.graph.version(v);
    let home = ver.home;
    let priority = ver
        .producer
        .map(|t| run.graph.task(t).priority)
        .unwrap_or(0);
    // The scratch is taken out, not borrowed: every `post` below needs
    // the whole worker state for its outbox.
    let mut dests = std::mem::take(&mut ws.dests);
    run.remote_consumer_nodes(v, &mut dests);
    if run.bcast_tree_min.is_some_and(|m| dests.len() >= m) {
        let now_ns = ctx.now().as_ns();
        relay_subtree(ctx, run, ws, home, v, &dests, priority, now_ns);
    } else {
        for &dst in &dests {
            let now_ns = ctx.now().as_ns();
            let rec = ActivateRec::direct(v as u64, ver.size as u64, priority, now_ns);
            let frame = rec.encode_one(|n| run.shm.node(home).pool().take(n));
            let msg = am(home, AM_ACTIVATE, Frames::One(frame), now_ns);
            post(ctx, run, ws, dst as usize, msg);
        }
    }
    ws.dests = dests;
}

/// Send ACTIVATEs for `v` to the tree children of `subtree`, each
/// carrying its forward list; `sent_at_ns` is the *original* announce
/// instant so downstream latencies span the whole multicast path, exactly
/// like the virtual engines' relays.
#[allow(clippy::too_many_arguments)]
fn relay_subtree(
    ctx: &mut WorkerCtx<'_>,
    run: &RealRun,
    ws: &mut WorkerState,
    node: usize,
    v: usize,
    subtree: &[u32],
    priority: i64,
    sent_at_ns: u64,
) {
    let size = run.graph.version(v).size as u64;
    for (child, forward) in split_subtree(subtree, run.multicast_k) {
        let rec = ActivateRec {
            version: v as u64,
            size,
            priority,
            sent_at_ns,
            forward,
        };
        let frame = rec.encode_one(|n| run.shm.node(node).pool().take(n));
        let msg = am(node, AM_ACTIVATE, Frames::One(frame), ctx.now().as_ns());
        post(ctx, run, ws, child as usize, msg);
    }
}

/// An active message from `src` stamped `sent_at_ns`.
fn am(src: usize, tag: u64, frames: Frames, sent_at_ns: u64) -> ShmMsg {
    ShmMsg::Am {
        src,
        tag,
        frames,
        sent_at_ns,
    }
}

/// Send `msg` to `dst` (module docs). Outside a drain this worker becomes
/// the outermost sender and sends its outbox one message at a time, each
/// handled at once by [`ShmWorld::send`]; from a handler it only appends,
/// so no drain nests inside another.
fn post(ctx: &mut WorkerCtx<'_>, run: &RealRun, ws: &mut WorkerState, dst: usize, msg: ShmMsg) {
    ws.outbox.push_back((dst, msg));
    if std::mem::replace(&mut ws.draining, true) {
        return;
    }
    let t0 = run.metrics_on.then(|| ctx.now());
    while let Some((dst, msg)) = ws.outbox.pop_front() {
        run.shm
            .send(dst, msg, |dst, msg| handle(ctx, run, ws, dst, msg));
    }
    ws.draining = false;
    ws.drained_ns += t0.map_or(0, |t0| (ctx.now() - t0).as_ns());
}

/// Run `f`; in metrics mode also sample its wall time under `key`.
/// Returns the sampled nanoseconds (0 when unobserved).
fn timed(
    ctx: &mut WorkerCtx<'_>,
    run: &RealRun,
    key: &'static str,
    f: impl FnOnce(&mut WorkerCtx<'_>),
) -> u64 {
    let t0 = run.metrics_on.then(|| ctx.now());
    f(ctx);
    t0.map_or(0, |t0| {
        let d = (ctx.now() - t0).as_ns();
        run.record_sample(key, d);
        d
    })
}

/// Execute task `t` on its home node's store, then run the completion
/// protocol: mark outputs present, release local consumers, announce to
/// remote ones.
fn exec_task(ctx: &mut WorkerCtx<'_>, run: &RealRun, ws: &mut WorkerState, t: TaskId) {
    let task = run.graph.task(t);
    let node = task.node;
    // Dispatch-overhead measurement brackets the whole job (input gather,
    // kernel, completion protocol) less the messages this worker handles
    // in line on the way, which have samples of their own; metrics mode
    // only.
    let t_entry = run.metrics_on.then(|| (ctx.now(), ws.drained_ns));

    // Gather input payloads (only data-carrying versions feed kernels,
    // exactly like the sequential oracle).
    let inputs: Vec<Bytes> = if task.kernel.is_some() {
        let store = run.stores[node].lock().expect("node store");
        task.inputs
            .iter()
            .filter(|v| run.graph.version(v.0).size > 0)
            .map(|v| {
                store
                    .payload
                    .get(&v.0)
                    .unwrap_or_else(|| panic!("task {t}: input {} missing at node {node}", v.0))
                    .clone()
            })
            .collect()
    } else {
        Vec::new()
    };

    let started = ctx.now();
    let outs: Vec<Bytes> = match &task.kernel {
        Some(k) => k(&inputs),
        None => Vec::new(),
    };
    let ended = ctx.now();
    let busy_ns = (ended - started).as_ns();
    // On a traced pool this lands in the worker's lock-free buffer; on an
    // untraced pool (and the virtual substrate) it is a no-op.
    ctx.trace_task(task.name, node, started, ended);
    if task.kernel.is_some() {
        assert_eq!(outs.len(), task.outputs.len(), "kernel output arity");
    }

    // Worker accounting.
    ws.busy_ns += busy_ns;
    ws.executed[node] += 1;
    let name = task.name;
    match ws
        .classes
        .iter_mut()
        .find(|c| std::ptr::eq(c.0, name) || c.0 == name)
    {
        Some(c) => (c.1, c.2) = (c.1 + 1, c.2 + busy_ns),
        None => ws.classes.push((name, 1, busy_ns)),
    }
    if run.metrics_on {
        run.kernel_sample(task.name, busy_ns);
    }

    // Completion: outputs become present locally and release local
    // consumers (spawned first, so another worker can steal them while
    // this one runs the announces' protocol in line).
    let mut payloads = outs.into_iter();
    for &out in &task.outputs {
        let payload = task.kernel.is_some().then(|| {
            payloads
                .next()
                .expect("one kernel payload per declared write")
        });
        run.fulfill_local(node, out.0, payload, |t| ctx.defer_task(t));
    }
    for &out in &task.outputs {
        announce(ctx, run, ws, out.0);
    }
    if let Some((t_entry, drained)) = t_entry {
        let drained = ws.drained_ns - drained;
        let total_ns = (ctx.now() - t_entry).as_ns();
        run.record_sample(
            REC_TASK_OVERHEAD,
            total_ns.saturating_sub(busy_ns + drained),
        );
    }
}

/// Handle one message at `node`, on the thread that sent it (module
/// docs). Decoding reads the frames in place; every buffer
/// then returns to the pool of the node that encoded it, so each pool
/// gets back exactly what it hands out whatever the traffic's shape
/// (immediate records have none: their `recycle` is a no-op). The one
/// clock read here is the message's arrival instant for the handlers and
/// the send stamp of their replies.
fn handle(ctx: &mut WorkerCtx<'_>, run: &RealRun, ws: &mut WorkerState, node: usize, msg: ShmMsg) {
    let now_ns = ctx.now().as_ns();
    match msg {
        ShmMsg::Am {
            src,
            tag,
            frames,
            sent_at_ns,
        } => {
            run.shm.delivered(node, false, 0, now_ns, sent_at_ns);
            match tag {
                AM_ACTIVATE => {
                    let mut callback_ns = 0u64;
                    for rec in ActivateRec::iter_frames(&frames) {
                        callback_ns += timed(ctx, run, REC_ACTIVATE, |ctx| {
                            on_activate(ctx, run, ws, node, src, rec, now_ns)
                        });
                    }
                    run.shm.record_stage(node, "am.callback_ns", callback_ns);
                }
                AM_GETDATA => {
                    let mut callback_ns = 0u64;
                    for rec in GetRec::iter_frames(&frames) {
                        callback_ns += timed(ctx, run, REC_GET_REQUEST, |ctx| {
                            on_getdata(ctx, run, ws, node, src, rec, now_ns)
                        });
                    }
                    run.shm.record_stage(node, "am.callback_ns", callback_ns);
                }
                AM_COLL_GO => node_startup(ctx, run, ws, node),
                AM_COLL_SUM => {
                    for mut partial in frames.iter().map(|b| &b[..]) {
                        let step = run.reduce.arrive(node, partial.get_u64_le());
                        coll_step(ctx, run, ws, node, step);
                    }
                }
                _ => panic!("unregistered AM tag {tag}"),
            }
            run.shm.node(src).pool().recycle_frames(frames);
        }
        ShmMsg::Put {
            src,
            r_tag,
            data,
            size,
            cb,
            sent_at_ns,
        } => {
            debug_assert_eq!(r_tag, RTAG_DATA, "unexpected one-sided tag");
            run.shm.delivered(node, true, size, now_ns, sent_at_ns);
            let d = timed(ctx, run, REC_ARRIVAL, |ctx| {
                on_data(ctx, run, ws, node, data, PutCb::decode(&cb), now_ns)
            });
            run.shm.record_stage(node, "put.callback_ns", d);
            run.shm.node(src).pool().recycle(cb);
        }
    }
}

/// Startup at `node`, triggered by the go-token reaching it: relay the
/// token to the node's collective-tree children first (subtree startups
/// overlap with this node's own work), then announce this node's initial
/// versions and seed its dependence-free tasks, in task order.
fn node_startup(ctx: &mut WorkerCtx<'_>, run: &RealRun, ws: &mut WorkerState, node: usize) {
    for child in kary_children(node, 0, run.shm.len(), run.coll_k) {
        let msg = am(node, AM_COLL_GO, Frames::new(), ctx.now().as_ns());
        post(ctx, run, ws, child, msg);
    }
    for &v in &run.init_versions[node] {
        announce(ctx, run, ws, v);
    }
    // Seed only *statically* dependence-free tasks — every input a
    // pre-satisfied initial version homed here. Tasks whose counters hit
    // zero dynamically are spawned by `fulfill_local` at the releasing
    // delivery; re-checking live counters here would double-spawn any
    // task released by a remote flow that outran this node's go token.
    for &t in &run.seed_tasks[node] {
        ctx.defer_task(t);
    }
}

/// Act on one quiescence-reduce transition: forward a completed partial
/// sum to the tree parent (the root's completion is read off
/// [`TreeReduce::result`] after the pool drains).
fn coll_step(
    ctx: &mut WorkerCtx<'_>,
    run: &RealRun,
    ws: &mut WorkerState,
    node: usize,
    step: ReduceStep,
) {
    match step {
        ReduceStep::Send { parent, partial } => {
            let frame = Bytes::inline(&partial.to_le_bytes()).expect("8 bytes fit the handle");
            let msg = am(node, AM_COLL_SUM, Frames::One(frame), ctx.now().as_ns());
            post(ctx, run, ws, parent, msg);
        }
        ReduceStep::Done(_) | ReduceStep::Wait => {}
    }
}

/// ACTIVATE at a consumer node (arrived at `now_ns`): control flows
/// complete immediately; data flows request the payload from the
/// producing node.
fn on_activate(
    ctx: &mut WorkerCtx<'_>,
    run: &RealRun,
    ws: &mut WorkerState,
    node: usize,
    src: usize,
    rec: ActivateRec,
    now_ns: u64,
) {
    let lat = SimTime::from_ns(now_ns.saturating_sub(rec.sent_at_ns));
    let v = rec.version as usize;
    if rec.size == 0 {
        // Pure control dependence: no payload will follow; relay the
        // multicast subtree (if any) immediately — there is no data to
        // wait for.
        ws.msg.record_time_us(lat);
        ws.e2e.record_time_us(lat);
        run.fulfill_local(node, v, None, |t| ctx.defer_task(t));
        if !rec.forward.is_empty() {
            relay_subtree(
                ctx,
                run,
                ws,
                node,
                v,
                &rec.forward,
                rec.priority,
                rec.sent_at_ns,
            );
        }
        return;
    }
    ws.msg.record_time_us(lat);
    if cfg!(debug_assertions) || !rec.forward.is_empty() {
        let mut store = run.stores[node].lock().expect("node store");
        #[cfg(debug_assertions)]
        assert!(
            !std::mem::replace(&mut store.requested[v], true),
            "version {v} requested twice by node {node}"
        );
        if !rec.forward.is_empty() {
            // Data flow: relay only once the payload lands here (on_data),
            // so children GET from a parent that holds it.
            store
                .pending_forwards
                .insert(v, (rec.forward, rec.priority));
        }
    }
    let get = GetRec {
        version: rec.version,
        activate_sent_at_ns: rec.sent_at_ns,
    };
    let msg = am(node, AM_GETDATA, Frames::One(get.encode()), now_ns);
    post(ctx, run, ws, src, msg);
}

/// GET DATA at the owner (arrived at `now_ns`): answer with a one-sided
/// put of the payload.
fn on_getdata(
    ctx: &mut WorkerCtx<'_>,
    run: &RealRun,
    ws: &mut WorkerState,
    node: usize,
    src: usize,
    rec: GetRec,
    now_ns: u64,
) {
    ws.req.record_time_us(SimTime::from_ns(
        now_ns.saturating_sub(rec.activate_sent_at_ns),
    ));
    let v = rec.version as usize;
    let size = run.graph.version(v).size;
    let data = if cfg!(debug_assertions) || run.carries_payload(v) {
        let store = run.stores[node].lock().expect("node store");
        #[cfg(debug_assertions)]
        assert!(
            store.present[v],
            "GET for version {v} the owner does not hold"
        );
        store.payload.get(&v).cloned()
    } else {
        None
    };
    let cb = PutCb {
        version: rec.version,
        activate_sent_at_ns: rec.activate_sent_at_ns,
    };
    let msg = ShmMsg::Put {
        src: node,
        r_tag: RTAG_DATA,
        data,
        size,
        cb: cb.encode(),
        sent_at_ns: now_ns,
    };
    post(ctx, run, ws, src, msg);
}

/// Put arrival at the consumer (at `now_ns`): the flow is complete;
/// fulfill and release.
fn on_data(
    ctx: &mut WorkerCtx<'_>,
    run: &RealRun,
    ws: &mut WorkerState,
    node: usize,
    data: Option<Bytes>,
    cb: PutCb,
    now_ns: u64,
) {
    ws.e2e.record_time_us(SimTime::from_ns(
        now_ns.saturating_sub(cb.activate_sent_at_ns),
    ));
    let v = cb.version as usize;
    run.fulfill_local(node, v, data, |t| ctx.defer_task(t));
    // Multicast relay: the data is local now; announce it down the
    // subtree so children GET it from this node. Forward lists exist only
    // under `bcast_tree_min`.
    let fwd = run.bcast_tree_min.and_then(|_| {
        let mut store = run.stores[node].lock().expect("node store");
        store.pending_forwards.remove(&v)
    });
    if let Some((subtree, priority)) = fwd {
        relay_subtree(
            ctx,
            run,
            ws,
            node,
            v,
            &subtree,
            priority,
            cb.activate_sent_at_ns,
        );
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
/// end (for [`crate::Cluster::data`]), and the run's observability
/// artifacts.
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
        Pool::with_runner(threads, STEAL_SEED, cfg.trace, move |ctx, id| {
            run_job(ctx, &run, id)
        })
    };

    let t0 = pool.now();
    // Startup collective: the root's startup job relays a go-token down
    // the k-ary tree; every node announces its own initial versions and
    // seeds its own dependence-free tasks when the token reaches it.
    pool.spawn_task(STARTUP);
    pool.run_until_idle();
    let makespan = pool.now() - t0;
    // Quiescence collective (after the makespan clock stops — it is a
    // completion check, not part of the workload).
    pool.spawn_task(QUIESCE);
    pool.run_until_idle();
    // Quiescence first, then the observability drains: every worker's
    // buffer publications happen-before the parked state run_until_idle
    // observed, so the snapshots are complete.
    let pool_stats = pool.stats();
    let trace = build_trace(pool.drain_trace());
    drop(pool);

    let run = Arc::try_unwrap(run).unwrap_or_else(|_| panic!("run state still shared after idle"));
    let executed: u64 = run.executed_per_node().iter().sum();
    assert_eq!(
        executed, tasks_total,
        "real execution drained with unexecuted tasks (protocol stall)"
    );
    let reduced = run
        .reduce
        .result()
        .expect("quiescence reduce did not complete at the root");
    assert_eq!(
        reduced, tasks_total,
        "quiescence reduce disagrees with the task count"
    );

    let mut e2e = OnlineStats::new();
    let mut msg = OnlineStats::new();
    let mut req = OnlineStats::new();
    let mut worker_busy_ns = 0u64;
    let mut classes: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for w in &run.workers {
        let w = w.lock().expect("worker state");
        e2e.merge(&w.e2e);
        msg.merge(&w.msg);
        req.merge(&w.req);
        worker_busy_ns += w.busy_ns;
        for &(name, n, busy) in &w.classes {
            let e = classes.entry(name).or_insert((0, 0));
            e.0 += n;
            e.1 += busy;
        }
    }
    let mut class_stats: Vec<(String, u64, SimTime)> = classes
        .into_iter()
        .map(|(k, (n, b))| (k.to_string(), n, SimTime::from_ns(b)))
        .collect();
    class_stats.sort_by_key(|c| std::cmp::Reverse(c.2));
    let worker_busy = SimTime::from_ns(worker_busy_ns);
    let span = makespan.as_secs_f64().max(1e-12);

    let engine_stats: Vec<EngineStats> =
        (0..nodes).map(|n| run.shm.node(n).engine_stats()).collect();

    // Merge every node's payloads for post-run data access; producers win
    // over transferred copies (they are bitwise equal anyway).
    let mut data: HashMap<VersionId, Bytes> = HashMap::new();
    for n in 0..nodes {
        let store = run.stores[n].lock().expect("node store");
        for (&v, b) in &store.payload {
            data.entry(VersionId(v)).or_insert_with(|| b.clone());
        }
    }

    // Calibration profile from the measured samples (metrics mode only):
    // lower medians, deterministic BTreeMap key order.
    let calib = cfg.metrics.then(|| {
        let samples = run.calib.lock().expect("calib samples");
        let mut profile = CalibrationProfile {
            threads,
            tasks: executed,
            ..Default::default()
        };
        for (name, v) in &samples.classes {
            profile
                .classes
                .insert((*name).to_string(), CostSummary::from_samples(v.clone()));
        }
        for (key, v) in &samples.records {
            profile
                .records
                .insert((*key).to_string(), CostSummary::from_samples(v.clone()));
        }
        profile
    });
    let metrics = run.shm.merged_metrics();

    let report = RunReport {
        makespan,
        tasks_executed: executed,
        tasks_total,
        e2e_latency_us: e2e,
        msg_latency_us: msg,
        request_latency_us: req,
        worker_busy,
        worker_util: worker_busy.as_secs_f64() / (span * threads as f64),
        comm_util: 0.0,
        progress_util: 0.0,
        engine_stats,
        class_stats,
        sim_events: 0,
        schedule_past_clamped: 0,
        pool: Some(pool_stats),
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
        run.fulfill_local(0, 0, None, |_| {});
        run.fulfill_local(0, 0, None, |_| {});
    }
}
