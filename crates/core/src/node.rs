//! Per-node runtime: ready queue, worker cores, data store, and the
//! ACTIVATE / GET DATA / put protocol handlers (paper Figure 1).
//!
//! The scheduler hot path is built on dense, allocation-lean structures
//! (PaRSEC keeps its task/dependence bookkeeping dense for exactly this
//! reason — §4 of the paper attributes small-granularity scaling to
//! per-task runtime overhead):
//!
//! * the data store is a per-version **byte table** (`VersionStore::Dense`)
//!   indexed by the contiguous `VersionId`, with real payloads held in a
//!   side map only for versions that carry bytes;
//! * the ready and pending-GET queues are bucketed per-priority FIFO rings
//!   ([`crate::queue::BucketQueue`]) reproducing the seed heap's exact
//!   `(priority, Reverse(seq))` pop order;
//! * per-completion allocations are swept: trace track names are interned
//!   at construction, ACTIVATE destination grouping reuses a scratch vector
//!   driven by an epoch-stamped per-node best-priority table (O(consumers)
//!   instead of the seed's O(consumers²) scan), and kernel input marshaling
//!   reuses one scratch buffer.
//!
//! This is the only scheduler datapath. The seed's `BinaryHeap` queue
//! survives as the oracle of `queue.rs`'s lockstep tests; the goldens in
//! `results/` pin virtual time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use amt_comm::{AmEvent, CommEngine, PutEvent, PutRequest};
use amt_netmodel::NodeId;
use amt_simnet::{CoreHandle, FastMap, OnlineStats, OverlapTracker, Shared, Sim, SimTime, Trace};
use bytes::Bytes;

use crate::config::{ClusterConfig, ExecMode};
use crate::graph::{GraphHandle, TaskId, VersionId};
use crate::queue::BucketQueue;
use crate::records::{
    split_subtree, ActivateRec, GetRec, PutCb, ACTIVATE_WIRE_BYTES, GET_WIRE_BYTES,
};
use crate::window::WindowCtl;

/// AM tag for task-activation messages.
pub(crate) const AM_ACTIVATE: u64 = 1;
/// AM tag for data requests.
pub(crate) const AM_GETDATA: u64 = 2;
/// One-sided callback tag for data arrival.
pub(crate) const RTAG_DATA: u64 = 1;

/// Flow-arrow kind: ACTIVATE announcement (producer → consumer).
const FLOW_ACTIVATE: u64 = 0;
/// Flow-arrow kind: bulk data put (owner → consumer).
const FLOW_DATA: u64 = 1;

/// Deterministic Chrome-trace flow id, unique per (kind, version, src,
/// dst) — 12 bits per node id, 38 for the version.
fn flow_id(kind: u64, version: u64, src: NodeId, dst: NodeId) -> u64 {
    (kind << 62) | (version << 24) | ((src as u64) << 12) | dst as u64
}

const V_VACANT: u8 = 0;
const V_REQUESTED: u8 = 1;
const V_PRESENT: u8 = 2;
const V_PRESENT_DATA: u8 = 3;

/// Per-version state bytes: a byte per version (VersionIds are contiguous
/// indices), or — [`crate::ClusterConfig::flyweight`] — a hash map over
/// only the versions this node has actually touched, so per-node memory is
/// O(versions-seen-here) instead of O(all versions) × nodes. Both implement
/// the same state machine — scheduling is byte-identical.
enum VersionStates {
    Dense(Vec<u8>),
    Sparse(FastMap<usize, u8>),
}

/// Per-version data-presence table: state bytes plus payload bytes in a
/// side map for the versions that carry them.
struct VersionStore {
    state: VersionStates,
    payloads: FastMap<usize, Bytes>,
}

impl VersionStore {
    fn new(flyweight: bool) -> VersionStore {
        VersionStore {
            state: if flyweight {
                VersionStates::Sparse(FastMap::default())
            } else {
                VersionStates::Dense(Vec::new())
            },
            payloads: FastMap::default(),
        }
    }

    fn get(&self, v: usize) -> u8 {
        match &self.state {
            VersionStates::Dense(state) => state.get(v).copied().unwrap_or(V_VACANT),
            VersionStates::Sparse(state) => state.get(&v).copied().unwrap_or(V_VACANT),
        }
    }

    /// Any entry at all (Present *or* Requested)?
    fn exists(&self, v: usize) -> bool {
        self.get(v) != V_VACANT
    }

    fn is_present(&self, v: usize) -> bool {
        self.get(v) >= V_PRESENT
    }

    /// Write state byte `to` for `v`, returning the previous byte. The
    /// dense table grows on write (`get` reads past its end as vacant), so
    /// a node's table covers the versions it touched, not all that exist.
    fn set(&mut self, v: usize, to: u8) -> u8 {
        match &mut self.state {
            VersionStates::Dense(state) => {
                if state.len() <= v {
                    state.resize(v + 1, V_VACANT);
                }
                std::mem::replace(&mut state[v], to)
            }
            VersionStates::Sparse(state) => state.insert(v, to).unwrap_or(V_VACANT),
        }
    }

    /// Mark `v` present (with its payload, if any); returns the previous
    /// state byte.
    fn set_present(&mut self, v: usize, bytes: Option<Bytes>) -> u8 {
        match bytes {
            Some(b) => {
                self.payloads.insert(v, b);
                self.set(v, V_PRESENT_DATA)
            }
            None => self.set(v, V_PRESENT),
        }
    }

    /// Mark `v` present; returns whether the slot was previously vacant.
    fn insert_present(&mut self, v: usize, bytes: Option<Bytes>) -> bool {
        self.set_present(v, bytes) == V_VACANT
    }

    /// Mark `v` requested; returns whether the slot was previously vacant.
    fn insert_requested(&mut self, v: usize) -> bool {
        self.set(v, V_REQUESTED) == V_VACANT
    }

    /// Requested → Present transition on data arrival; returns whether the
    /// previous state was Requested.
    fn fulfill(&mut self, v: usize, bytes: Option<Bytes>) -> bool {
        self.set_present(v, bytes) == V_REQUESTED
    }

    /// Payload bytes of a present version (None for cost-only entries).
    fn payload(&self, v: usize) -> Option<&Bytes> {
        if self.get(v) == V_PRESENT_DATA {
            self.payloads.get(&v)
        } else {
            None
        }
    }

    /// Release a retired version's payload bytes, keeping it Present
    /// (windowed-mode memory reclamation).
    fn drop_payload(&mut self, v: usize) {
        if self.get(v) == V_PRESENT_DATA {
            self.payloads.remove(&v);
            self.set(v, V_PRESENT);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Store lookups issued by windowed retirement plus graph entries
    /// visited by init; tests compare the count across cluster sizes.
    pub(crate) static SWEEP_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
pub(crate) fn sweep_probe() {
    #[cfg(test)]
    SWEEP_PROBES.with(|c| c.set(c.get() + 1));
}

/// GET DATA fetches that proceed regardless of
/// [`ClusterConfig::get_window_bytes`]: the byte budget only defers flows
/// beyond this many in flight.
const GET_WINDOW_MIN_FLOWS: usize = 4;

/// A pending GET DATA request (queued behind the in-flight window).
struct GetInfo {
    version: usize,
    src: NodeId,
    size: usize,
    activate_sent_at_ns: u64,
}

/// Mutable scheduler state, behind one `RefCell` (the immutable identity —
/// node id, graph handle, engine, config, interned trace names — lives
/// directly on [`NodeRt`], so hot paths borrow only what mutates).
struct NodeState {
    idle_workers: Vec<usize>,
    ready: BucketQueue<TaskId>,
    /// Unsatisfied input count per *local* task, indexed by
    /// [`crate::graph::Task::local_ix`] — O(tasks-on-this-node), not
    /// O(total tasks).
    remaining: Vec<u32>,
    store: VersionStore,
    pending_gets: BucketQueue<GetInfo>,
    inflight_gets: usize,
    inflight_get_bytes: usize,
    /// Multicast subtrees to forward once the version's data arrives.
    pending_forwards: FastMap<usize, (Vec<u32>, i64, u64)>,
    /// Entry count of `pending_forwards`; gates the per-arrival map lookup
    /// (zero for every workload that doesn't use multicast trees).
    forwards_pending: usize,
    seq: u64,
    executed: u64,
    worker_busy: SimTime,
    /// Per task-class execution counts and busy time.
    class_stats: FastMap<&'static str, (u64, SimTime)>,
    /// End-to-end latency per flow: ACTIVATE send → data arrival (§6.4.2).
    e2e: OnlineStats,
    /// Individual ACTIVATE message latency (§6.4.3).
    msg_lat: OnlineStats,
    /// Control-path latency: ACTIVATE send → GET DATA arrival at the data
    /// owner (the software component of the end-to-end path, excluding the
    /// bulk transfer itself).
    req_lat: OnlineStats,
    /// Optional execution timeline (Chrome-trace export).
    trace: Trace,
    /// Cluster-wide compute/wire concurrency integrator (metrics mode).
    overlap: Option<Shared<OverlapTracker>>,
    /// Kernel-input marshaling scratch (reused across completions).
    inputs_scratch: Vec<Bytes>,
    /// ACTIVATE destination-grouping scratch.
    dests_scratch: Vec<(NodeId, i64)>,
    /// Control-flow ACTIVATEs an arriving message satisfied, released once
    /// the message is decoded.
    ctl_scratch: Vec<ActivateRec>,
    /// Epoch-stamped best-priority-per-node table for `announce` grouping.
    node_best: Vec<(u64, i64)>,
    node_epoch: u64,
}

impl NodeState {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

pub(crate) struct NodeRt {
    pub node: NodeId,
    pub graph: GraphHandle,
    pub engine: Rc<CommEngine>,
    /// Shared cluster config — one allocation for the whole cluster
    /// (the cost-model map alone would otherwise be cloned per node).
    pub cfg: Rc<ClusterConfig>,
    pub workers: Vec<CoreHandle>,
    trace_on: bool,
    /// Interned `n{i}.comm` trace track name (no `format!` per send);
    /// empty when tracing is off.
    comm_track: String,
    /// Interned `n{i}.w{j}` trace track names (no `format!` per task);
    /// empty when tracing is off.
    worker_tracks: Vec<String>,
    state: RefCell<NodeState>,
    /// Windowed-discovery driver, when executing via
    /// [`crate::Cluster::execute_windowed`].
    window: RefCell<Option<Rc<WindowCtl>>>,
}

pub(crate) type RtHandle = Rc<NodeRt>;

impl NodeRt {
    pub fn new(
        node: NodeId,
        graph: GraphHandle,
        engine: Rc<CommEngine>,
        cfg: Rc<ClusterConfig>,
        workers: Vec<CoreHandle>,
        overlap: Option<Shared<OverlapTracker>>,
    ) -> NodeRt {
        let nworkers = workers.len();
        // Task/worker indices are packed into one closure word in
        // `dispatch`.
        assert!(nworkers <= 1 << 16, "worker index must fit 16 bits");
        let trace = Trace::new(cfg.trace);
        // Track-name strings are only read under `trace_on`; skip the
        // per-node allocations on untraced runs (1024 nodes × 128 workers
        // of them otherwise).
        let (comm_track, worker_tracks) = if cfg.trace {
            (
                format!("n{node}.comm"),
                (0..nworkers).map(|w| format!("n{node}.w{w}")).collect(),
            )
        } else {
            (String::new(), Vec::new())
        };
        NodeRt {
            node,
            graph,
            engine,
            trace_on: cfg.trace,
            comm_track,
            worker_tracks,
            state: RefCell::new(NodeState {
                idle_workers: (0..nworkers).rev().collect(),
                ready: BucketQueue::new(),
                remaining: Vec::new(),
                store: VersionStore::new(cfg.flyweight),
                pending_gets: BucketQueue::new(),
                inflight_gets: 0,
                inflight_get_bytes: 0,
                pending_forwards: FastMap::default(),
                forwards_pending: 0,
                seq: 0,
                executed: 0,
                worker_busy: SimTime::ZERO,
                class_stats: FastMap::default(),
                e2e: OnlineStats::new(),
                msg_lat: OnlineStats::new(),
                req_lat: OnlineStats::new(),
                trace,
                overlap,
                inputs_scratch: Vec::new(),
                dests_scratch: Vec::new(),
                ctl_scratch: Vec::new(),
                // Grown on demand in `announce` — nodes that never send a
                // wide announce (most of a 1024-node cluster) keep it empty
                // instead of O(nodes) each.
                node_best: Vec::new(),
                node_epoch: 0,
            }),
            window: RefCell::new(None),
            cfg,
            workers,
        }
    }

    pub(crate) fn set_window(&self, w: Option<Rc<WindowCtl>>) {
        *self.window.borrow_mut() = w;
    }

    /// Initialize local state: resident initial data, dependence counters,
    /// initially-ready tasks, and ACTIVATEs for initial data needed
    /// remotely. `tasks` are this node's tasks and `sources` the
    /// producer-less versions homed here, both ascending — bucketed by one
    /// cluster-level graph pass, so init costs O(local) per node.
    pub fn init(rt: &RtHandle, sim: &mut Sim, tasks: &[TaskId], sources: &[usize]) {
        {
            let g = rt.graph.get();
            let mut s = rt.state.borrow_mut();
            s.remaining = vec![0; g.local_task_count(rt.node)];
            for &i in sources {
                sweep_probe();
                s.store.insert_present(i, g.version(i).initial.clone());
            }
            for &i in tasks {
                sweep_probe();
                let t = g.task(i);
                let missing = t.inputs.iter().filter(|v| !s.store.is_present(v.0)).count();
                s.remaining[t.local_ix as usize] = missing as u32;
                if missing == 0 {
                    let seq = s.next_seq();
                    s.ready.push(t.priority, seq, i);
                }
            }
        }
        // Announce initial data to remote consumers (pseudo-completion of a
        // "source" task at t=0).
        for &i in sources {
            NodeRt::announce(rt, sim, VersionId(i), None);
        }
        NodeRt::dispatch(rt, sim);
    }

    /// Send ACTIVATE records for `version` to every remote node that
    /// consumes it. In multithreaded mode the worker sends directly and the
    /// costs are returned for charging to the worker (`None` ⇒ funneled).
    fn announce(rt: &RtHandle, sim: &mut Sim, version: VersionId, mt_cost: Option<&mut SimTime>) {
        let node = rt.node;
        // Group remote consumers by node in first-appearance order,
        // tracking the best priority per node through an epoch-stamped
        // table — one pass, no quadratic rescans.
        let (mut dests, size) = {
            let g = rt.graph.get();
            let v = g.version(version.0);
            let mut s = rt.state.borrow_mut();
            let size = s.store.payload(version.0).map_or(v.size, Bytes::len);
            s.node_epoch += 1;
            let epoch = s.node_epoch;
            let mut dests = std::mem::take(&mut s.dests_scratch);
            dests.clear();
            for &t in &v.consumers {
                let task = g.task(t);
                if task.node == node {
                    continue;
                }
                if s.node_best.len() <= task.node {
                    s.node_best.resize(task.node + 1, (0, 0));
                }
                let e = &mut s.node_best[task.node];
                if e.0 != epoch {
                    *e = (epoch, task.priority);
                    dests.push((task.node, task.priority));
                } else if task.priority > e.1 {
                    e.1 = task.priority;
                }
            }
            for d in dests.iter_mut() {
                d.1 = s.node_best[d.0].1;
            }
            (dests, size)
        };
        if dests.is_empty() {
            rt.state.borrow_mut().dests_scratch = dests;
            return;
        }
        let mt = mt_cost.is_some() && rt.cfg.multithread_am;
        let sent_at = sim.now().as_ns();
        let mut extra = SimTime::ZERO;

        // Wide broadcasts go through a multicast tree (Figure 1): binomial
        // recursive halving by default, k-way when `multicast_k` is set.
        if rt.cfg.bcast_tree_min.is_some_and(|m| dests.len() >= m) {
            let best_priority = dests.iter().map(|(_, p)| *p).max().expect("non-empty");
            let mut ids: Vec<u32> = dests.iter().map(|(n, _)| *n as u32).collect();
            ids.sort_unstable();
            for (child, subtree) in split_subtree(&ids, rt.cfg.multicast_k) {
                let rec = ActivateRec {
                    version: version.0 as u64,
                    size: size as u64,
                    priority: best_priority,
                    sent_at_ns: sent_at,
                    forward: subtree,
                };
                extra += NodeRt::send_activate(rt, sim, child as NodeId, &rec, mt);
            }
        } else {
            // Direct records are immediate (no buffer to share), so each
            // destination gets its own encode.
            for &(dst, priority) in &dests {
                let rec = ActivateRec::direct(version.0 as u64, size as u64, priority, sent_at);
                extra += NodeRt::send_activate(rt, sim, dst, &rec, mt);
            }
        }
        dests.clear();
        rt.state.borrow_mut().dests_scratch = dests;
        if let Some(c) = mt_cost {
            *c += extra;
        }
    }

    /// Emit one ACTIVATE record; returns the cost to charge the sending
    /// worker (multithreaded mode only — funneled submits are free to the
    /// caller, the communication thread pays).
    fn send_activate(
        rt: &RtHandle,
        sim: &mut Sim,
        dst: NodeId,
        rec: &ActivateRec,
        mt: bool,
    ) -> SimTime {
        let wire = ACTIVATE_WIRE_BYTES + 4 * rec.forward.len();
        let engine = &rt.engine;
        let payload = rec.encode_one(|n| engine.buf_pool().take(n));
        if rt.trace_on {
            let id = flow_id(FLOW_ACTIVATE, rec.version, rt.node, dst);
            rt.state.borrow_mut().trace.flow_start(
                rt.comm_track.clone(),
                "activate",
                id,
                sim.now(),
            );
        }
        if mt {
            engine.send_am_direct(sim, dst, AM_ACTIVATE, wire, Some(payload))
        } else {
            engine.send_am(sim, dst, AM_ACTIVATE, wire, Some(payload));
            rt.cfg.cost.submit_cost
        }
    }

    /// Forward a multicast announcement down the subtree once the data is
    /// locally present (called from the communication-thread context).
    fn forward_subtree(
        rt: &RtHandle,
        sim: &mut Sim,
        version: VersionId,
        subtree: &[u32],
        priority: i64,
        sent_at_ns: u64,
        size: usize,
    ) {
        for (child, sub) in split_subtree(subtree, rt.cfg.multicast_k) {
            let rec = ActivateRec {
                version: version.0 as u64,
                size: size as u64,
                priority,
                sent_at_ns,
                forward: sub,
            };
            // Funneled, like the init announce: no worker to charge.
            NodeRt::send_activate(rt, sim, child as NodeId, &rec, false);
        }
    }

    /// Assign ready tasks to idle workers.
    pub fn dispatch(rt: &RtHandle, sim: &mut Sim) {
        loop {
            let (task, widx, dur) = {
                let mut s = rt.state.borrow_mut();
                if s.ready.is_empty() || s.idle_workers.is_empty() {
                    return;
                }
                let task = s.ready.pop().expect("checked non-empty").item;
                let widx = s.idle_workers.pop().expect("checked non-empty");
                let g = rt.graph.get();
                let t = g.task(task);
                let dur = rt.cfg.cost.task_charge(t.name, t.flops, t.efficiency);
                s.worker_busy += dur;
                let entry = s.class_stats.entry(t.name).or_insert((0, SimTime::ZERO));
                entry.0 += 1;
                entry.1 += dur;
                if let Some(o) = &s.overlap {
                    o.borrow_mut().busy_add(rt.node, sim.now(), 1);
                }
                (task, widx, dur)
            };
            // Two captured words (handle + packed indices) keep the
            // completion closure on the simulator's inline small-closure
            // path — no per-task event box.
            let rt2 = rt.clone();
            let packed = ((task as u64) << 16) | widx as u64;
            let core = rt.workers[widx].clone();
            core.borrow_mut().charge(sim, dur, move |sim| {
                NodeRt::task_done(
                    &rt2,
                    sim,
                    (packed >> 16) as TaskId,
                    (packed & 0xffff) as usize,
                );
            });
        }
    }

    /// A task finished on a worker: run its kernel (Numeric mode), store
    /// outputs, release local consumers, announce to remote ones, then
    /// return the worker to the idle pool.
    fn task_done(rt: &RtHandle, sim: &mut Sim, task: TaskId, widx: usize) {
        let noutputs;
        {
            let g = rt.graph.get();
            let t = g.task(task);
            noutputs = t.outputs.len();
            if rt.trace_on {
                // The duration is a pure function of the task, so the
                // execution span is reconstructed here instead of carrying
                // it through the completion closure.
                let dur = rt.cfg.cost.task_charge(t.name, t.flops, t.efficiency);
                let end = sim.now();
                rt.state.borrow_mut().trace.record(
                    rt.worker_tracks[widx].clone(),
                    t.name,
                    end - dur,
                    end,
                );
            }

            // Execute the kernel on real payloads.
            let kernel = (rt.cfg.mode == ExecMode::Numeric)
                .then_some(t.kernel.as_ref())
                .flatten();
            let outs: Option<Vec<Bytes>> = if let Some(kernel) = kernel {
                let mut inputs = std::mem::take(&mut rt.state.borrow_mut().inputs_scratch);
                inputs.clear();
                {
                    let s = rt.state.borrow();
                    for v in &t.inputs {
                        // Control (size-0) inputs carry no payload and
                        // are not handed to kernels.
                        if g.version(v.0).size > 0 {
                            inputs.push(s.store.payload(v.0).cloned().unwrap_or_else(|| {
                                panic!("task {} ran without input version {:?} present", t.name, v)
                            }));
                        }
                    }
                }
                let outs = kernel(&inputs);
                assert_eq!(outs.len(), t.outputs.len(), "kernel output arity");
                inputs.clear();
                rt.state.borrow_mut().inputs_scratch = inputs;
                Some(outs)
            } else {
                None
            };

            let mut s = rt.state.borrow_mut();
            s.executed += 1;
            match outs {
                Some(outs) => {
                    for (vid, b) in t.outputs.iter().zip(outs) {
                        let fresh = s.store.insert_present(vid.0, Some(b));
                        assert!(fresh, "output version produced twice");
                    }
                }
                None => {
                    for vid in &t.outputs {
                        let fresh = s.store.insert_present(vid.0, None);
                        assert!(fresh, "output version produced twice");
                    }
                }
            }
        }

        // Release local consumers of each output.
        for oi in 0..noutputs {
            let vid = rt.graph.get().task(task).outputs[oi];
            NodeRt::release_local(rt, vid);
        }

        // Announce to remote consumers; in multithreaded mode the send cost
        // extends the worker's occupancy.
        let mut extra = SimTime::ZERO;
        for oi in 0..noutputs {
            let vid = rt.graph.get().task(task).outputs[oi];
            NodeRt::announce(rt, sim, vid, Some(&mut extra));
        }

        // Windowed discovery: retire this task and pull the next window of
        // tasks from the graph source.
        let wctl = rt.window.borrow().clone();
        if let Some(w) = wctl {
            WindowCtl::on_complete(&w, sim, task);
        }

        let rt2 = rt.clone();
        let core = rt.workers[widx].clone();
        if extra.is_zero() {
            extra = SimTime::from_ns(1);
        }
        rt.state.borrow_mut().worker_busy += extra;
        core.borrow_mut().charge(sim, extra, move |sim| {
            {
                let mut s = rt2.state.borrow_mut();
                s.idle_workers.push(widx);
                if let Some(o) = &s.overlap {
                    o.borrow_mut().busy_add(rt2.node, sim.now(), -1);
                }
            }
            NodeRt::dispatch(&rt2, sim);
        });
        NodeRt::dispatch(rt, sim);
    }

    fn release_local(rt: &RtHandle, version: VersionId) {
        let g = rt.graph.get();
        let mut s = rt.state.borrow_mut();
        for &c in &g.version(version.0).consumers {
            // Data can arrive here while consumers on *other* nodes — long
            // since satisfied from their own copies — have completed and had
            // their graph chunk freed by windowed retirement. A freed
            // consumer finished already, so there is nothing to release.
            let Some(t) = g.task_if_live(c) else {
                continue;
            };
            if t.node != rt.node {
                continue;
            }
            let rem = &mut s.remaining[t.local_ix as usize];
            debug_assert!(*rem > 0, "double release of task {c}");
            *rem -= 1;
            if *rem == 0 {
                let seq = s.next_seq();
                s.ready.push(t.priority, seq, c);
            }
        }
    }

    /// ACTIVATE callback (communication-thread context): prioritize each
    /// announced flow and request it now or defer it behind the in-flight
    /// window (§4.1).
    pub fn on_activate(rt: &RtHandle, sim: &mut Sim, ev: AmEvent) -> SimTime {
        let mut cost = SimTime::ZERO;
        {
            let mut s = rt.state.borrow_mut();
            let now_ns = sim.now().as_ns();
            let mut ctl_released = std::mem::take(&mut s.ctl_scratch);
            for rec in ActivateRec::iter_frames(&ev.data) {
                cost += rt.cfg.cost.activate_record_cost;
                s.msg_lat.record(
                    (SimTime::from_ns(now_ns) - SimTime::from_ns(rec.sent_at_ns)).as_us_f64(),
                );
                if rt.trace_on {
                    let id = flow_id(FLOW_ACTIVATE, rec.version, ev.src, rt.node);
                    s.trace
                        .flow_end(rt.comm_track.clone(), "activate", id, sim.now());
                }
                let vid = rec.version as usize;
                if rec.size == 0 {
                    // Control dependency (PaRSEC CTL flow): the ACTIVATE
                    // itself satisfies it — no GET DATA / put round trip.
                    let fresh = s.store.insert_present(vid, None);
                    assert!(fresh, "version announced twice to one node");
                    ctl_released.push(rec);
                    continue;
                }
                let fresh = s.store.insert_requested(vid);
                assert!(fresh, "version announced twice to one node");
                if !rec.forward.is_empty() {
                    s.pending_forwards
                        .insert(vid, (rec.forward, rec.priority, rec.sent_at_ns));
                    s.forwards_pending += 1;
                }
                let seq = s.next_seq();
                s.pending_gets.push(
                    rec.priority,
                    seq,
                    GetInfo {
                        version: vid,
                        src: ev.src,
                        size: rec.size as usize,
                        activate_sent_at_ns: rec.sent_at_ns,
                    },
                );
            }
            drop(s);
            // The arrival buffers are dead after decoding: feed them back
            // to the engine's pool so outgoing encodes reuse them instead
            // of allocating.
            rt.engine.buf_pool().recycle_frames(ev.data);
            if !ctl_released.is_empty() {
                for rec in ctl_released.drain(..) {
                    let vid = VersionId(rec.version as usize);
                    NodeRt::release_local(rt, vid);
                    if !rec.forward.is_empty() {
                        NodeRt::forward_subtree(
                            rt,
                            sim,
                            vid,
                            &rec.forward,
                            rec.priority,
                            rec.sent_at_ns,
                            0,
                        );
                    }
                }
                let rt2 = rt.clone();
                sim.schedule_now(move |sim| NodeRt::dispatch(&rt2, sim));
            }
            rt.state.borrow_mut().ctl_scratch = ctl_released;
        }
        cost + NodeRt::pump_gets(rt, sim)
    }

    /// Send GET DATA for the highest-priority pending flows while the
    /// in-flight window has room. Communication-thread context.
    fn pump_gets(rt: &RtHandle, sim: &mut Sim) -> SimTime {
        let mut cost = SimTime::ZERO;
        loop {
            let get = {
                let mut s = rt.state.borrow_mut();
                if s.inflight_gets >= rt.cfg.get_window {
                    return cost;
                }
                let next_size = match s.pending_gets.peek() {
                    Some(g) => g.size,
                    None => return cost,
                };
                // Byte budget (priority-relative deferral): beyond the
                // minimum concurrency, defer fetches that would exceed it.
                if rt.cfg.get_window_bytes > 0
                    && s.inflight_gets >= GET_WINDOW_MIN_FLOWS
                    && s.inflight_get_bytes + next_size > rt.cfg.get_window_bytes
                {
                    return cost;
                }
                let g = s.pending_gets.pop().expect("peeked non-empty").item;
                s.inflight_gets += 1;
                s.inflight_get_bytes += g.size;
                g
            };
            let rec = GetRec {
                version: get.version as u64,
                activate_sent_at_ns: get.activate_sent_at_ns,
            };
            let engine = &rt.engine;
            // GETs issue from communication-thread context and historically
            // never aggregate; with a batching window configured they are
            // batch-eligible like any other record.
            let batch = engine.config().batch_window_ns > 0;
            engine.send_am_opts(
                sim,
                get.src,
                AM_GETDATA,
                GET_WIRE_BYTES,
                Some(rec.encode()),
                batch,
            );
            cost += rt.cfg.cost.get_send_cost;
        }
    }

    /// GET DATA callback at the data owner: start the put (Figure 1).
    pub fn on_getdata(rt: &RtHandle, sim: &mut Sim, ev: AmEvent) -> SimTime {
        let mut cost = SimTime::ZERO;
        for rec in GetRec::iter_frames(&ev.data) {
            {
                let mut s = rt.state.borrow_mut();
                let lat = sim.now() - SimTime::from_ns(rec.activate_sent_at_ns);
                s.req_lat.record(lat.as_us_f64());
                if rt.trace_on {
                    let id = flow_id(FLOW_DATA, rec.version, rt.node, ev.src);
                    s.trace
                        .flow_start(rt.comm_track.clone(), "data", id, sim.now());
                }
            }
            let (size, data) = {
                let s = rt.state.borrow();
                let vid = rec.version as usize;
                assert!(
                    s.store.is_present(vid),
                    "GET DATA for version not present at owner"
                );
                match s.store.payload(vid) {
                    Some(b) => (b.len(), Some(b.clone())),
                    None => (rt.graph.get().version(vid).size, None),
                }
            };
            cost += rt.cfg.cost.get_request_cost;
            let cb = PutCb {
                version: rec.version,
                activate_sent_at_ns: rec.activate_sent_at_ns,
            };
            let engine = &rt.engine;
            engine.put(
                sim,
                PutRequest {
                    dst: ev.src,
                    size,
                    data,
                    r_tag: RTAG_DATA,
                    cb_data: cb.encode(),
                    on_local: Box::new(|_sim, _eng| SimTime::ZERO),
                },
            );
        }
        rt.engine.buf_pool().recycle_frames(ev.data);
        cost
    }

    /// Data-arrival callback (one-sided completion at the consumer node):
    /// store the payload, record end-to-end latency, release consumers.
    pub fn on_data(rt: &RtHandle, sim: &mut Sim, ev: PutEvent) -> SimTime {
        let cb = PutCb::decode(&ev.cb_data);
        let vid = VersionId(cb.version as usize);
        {
            let mut s = rt.state.borrow_mut();
            let e2e_us = (sim.now() - SimTime::from_ns(cb.activate_sent_at_ns)).as_us_f64();
            s.e2e.record(e2e_us);
            if rt.trace_on {
                let id = flow_id(FLOW_DATA, cb.version, ev.src, rt.node);
                s.trace
                    .flow_end(rt.comm_track.clone(), "data", id, sim.now());
            }
            let was_requested = s.store.fulfill(vid.0, ev.data);
            assert!(was_requested, "data arrived for un-requested version");
            debug_assert!(s.inflight_gets > 0);
            s.inflight_gets -= 1;
            s.inflight_get_bytes = s.inflight_get_bytes.saturating_sub(ev.size);
        }
        let cost = rt.cfg.cost.arrival_cost;
        NodeRt::release_local(rt, vid);
        // Multicast relay: now that the data is local, announce it down the
        // subtree; children will GET it from this node.
        let fwd = {
            let mut s = rt.state.borrow_mut();
            if s.forwards_pending > 0 {
                let f = s.pending_forwards.remove(&vid.0);
                if f.is_some() {
                    s.forwards_pending -= 1;
                }
                f
            } else {
                None
            }
        };
        if let Some((subtree, priority, sent_at_ns)) = fwd {
            NodeRt::forward_subtree(rt, sim, vid, &subtree, priority, sent_at_ns, ev.size);
        }
        let cost = cost + NodeRt::pump_gets(rt, sim);
        // Worker dispatch happens outside the communication thread.
        let rt2 = rt.clone();
        sim.schedule_now(move |sim| NodeRt::dispatch(&rt2, sim));
        cost
    }

    /// Payload of the current state of `version`, if locally present.
    pub fn data(&self, version: VersionId) -> Option<Bytes> {
        self.state.borrow().store.payload(version.0).cloned()
    }

    // ---- report accessors (cluster.rs) ------------------------------

    pub(crate) fn executed(&self) -> u64 {
        self.state.borrow().executed
    }

    pub(crate) fn worker_busy(&self) -> SimTime {
        self.state.borrow().worker_busy
    }

    pub(crate) fn merge_stats(
        &self,
        e2e: &mut OnlineStats,
        msg: &mut OnlineStats,
        req: &mut OnlineStats,
        classes: &mut HashMap<&'static str, (u64, SimTime)>,
    ) {
        let s = self.state.borrow();
        e2e.merge(&s.e2e);
        msg.merge(&s.msg_lat);
        req.merge(&s.req_lat);
        for (name, (n, busy)) in &s.class_stats {
            let e = classes.entry(name).or_insert((0, SimTime::ZERO));
            e.0 += n;
            e.1 += *busy;
        }
    }

    pub(crate) fn merge_trace_into(&self, t: &mut Trace) {
        t.merge_from(&self.state.borrow().trace);
    }

    // ---- windowed-discovery hooks (window.rs) -----------------------

    /// Seed a newly declared producer-less version at its home node.
    pub(crate) fn window_seed_initial(&self, version: usize, bytes: Option<Bytes>) {
        let fresh = self.state.borrow_mut().store.insert_present(version, bytes);
        assert!(fresh, "initial version seeded twice");
    }

    /// Does this node's store have any entry (Present or Requested) for
    /// `version`?
    pub(crate) fn store_has(&self, version: usize) -> bool {
        self.state.borrow().store.exists(version)
    }

    pub(crate) fn store_is_present(&self, version: usize) -> bool {
        self.state.borrow().store.is_present(version)
    }

    /// Size an in-store version announces with (actual payload length when
    /// bytes are held, declared size otherwise).
    pub(crate) fn announce_size(&self, version: usize, declared: usize) -> usize {
        self.state
            .borrow()
            .store
            .payload(version)
            .map_or(declared, Bytes::len)
    }

    /// Release a retired version's payload bytes (windowed reclamation).
    pub(crate) fn window_drop_payload(&self, version: usize) {
        sweep_probe();
        self.state.borrow_mut().store.drop_payload(version);
    }

    /// Record the dependence count of a newly admitted local task; queues
    /// it when already satisfied. Returns whether it became ready.
    pub(crate) fn window_admit_local(
        &self,
        task: TaskId,
        local_ix: u32,
        priority: i64,
        missing: u32,
    ) -> bool {
        let mut s = self.state.borrow_mut();
        let ix = local_ix as usize;
        if s.remaining.len() <= ix {
            s.remaining.resize(ix + 1, 0);
        }
        s.remaining[ix] = missing;
        if missing == 0 {
            let seq = s.next_seq();
            s.ready.push(priority, seq, task);
            true
        } else {
            false
        }
    }

    /// Late ACTIVATE for a version whose remote consumer was discovered
    /// after the producer-side announce already happened (windowed mode).
    /// Mirrors the funneled init-announce path: `send_am`, no worker
    /// charge.
    pub(crate) fn send_late_activate(
        rt: &RtHandle,
        sim: &mut Sim,
        dst: NodeId,
        version: usize,
        size: usize,
        priority: i64,
    ) {
        let rec = ActivateRec::direct(version as u64, size as u64, priority, sim.now().as_ns());
        NodeRt::send_activate(rt, sim, dst, &rec, false);
    }
}
