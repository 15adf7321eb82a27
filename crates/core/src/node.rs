//! Per-node virtual runtime: ready queue, worker cores, data store, the
//! GET window, and the virtual [`Port`] the shared ACTIVATE / GET DATA /
//! put handlers run against (`protocol.rs`, paper Figure 1).
//!
//! What is virtual stays here: dispatch onto simulated cores and the cost
//! charged for each task and each record handler, the GET DATA window
//! (`GET_WINDOW` / `get_window_bytes`: a request queues by priority and
//! is pumped once the whole message is handled), funneled versus
//! multithreaded ACTIVATE sends, trace flow arrows, and the windowed
//! discovery hooks.
//!
//! ## What is per node and what is per thread
//!
//! The rule of the real substrate (`real.rs`) holds here too: per node is
//! only protocol state — the ready and pending-GET queues, the dependence
//! counters, the version store ([`crate::store`], shared with the real
//! path), the GET window's occupancy and the node's trace. What a thread
//! merely accumulates or reuses is per *thread*, and the simulator runs
//! every node on one: one [`ThreadState`] per run, made in
//! `Cluster::execute_handle` and shared by every [`NodeRt`], holds the
//! report [`Tally`] (executed tasks, worker busy time, task classes,
//! latency moments), the announce [`Fanout`] scratch and the kernel-input
//! scratch. A `Fanout` per node would grow to the highest node id that
//! node announces to: O(nodes²) bytes when many nodes feed one far
//! consumer.
//!
//! The ready and pending-GET queues are `BinaryHeap`s of [`Entry`],
//! ordered by `(priority, Reverse(seq))`: highest priority first, and
//! within a priority the earliest push, since `seq` is the node's monotone
//! push counter. Their traffic is not a few clustered priorities: on many
//! nodes the TLR graphs give most of a node's tasks a priority of their
//! own, so a FIFO ring per priority would cost an allocation per task.
//! The goldens in `results/` pin virtual time.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::rc::Rc;

use amt_comm::{AmEvent, CommEngine, PutEvent, PutRequest};
use amt_netmodel::NodeId;
use amt_simnet::{CoreHandle, OverlapTracker, Shared, Sim, SimTime, Trace};
use bytes::Bytes;

use crate::cluster::Tally;
use crate::config::{ClusterConfig, ExecMode};
use crate::graph::{GraphHandle, Task, TaskGraph, TaskId, VersionId};
use crate::protocol::{self, Fanout, Forward, Lat, Port, Tree, AM_ACTIVATE, AM_GETDATA, RTAG_DATA};
use crate::records::{
    ActivateRec, GetRec, InFlight, PutCb, Record, ACTIVATE_WIRE_BYTES, GET_WIRE_BYTES,
};
use crate::store::VersionStore;
use crate::window::WindowCtl;

/// Flow-arrow kind: ACTIVATE announcement (producer → consumer).
const FLOW_ACTIVATE: u64 = 0;
/// Flow-arrow kind: bulk data put (owner → consumer).
const FLOW_DATA: u64 = 1;

/// Deterministic Chrome-trace flow id, unique per (kind, version, src,
/// dst) — 12 bits per node id, 38 for the version.
fn flow_id(kind: u64, version: u64, src: NodeId, dst: NodeId) -> u64 {
    (kind << 62) | (version << 24) | ((src as u64) << 12) | dst as u64
}

#[inline]
pub(crate) fn sweep_probe() {
    #[cfg(test)]
    SWEEP_PROBES.with(|c| c.set(c.get() + 1));
}

/// Most GET DATA requests in flight per node: lower-priority flows beyond
/// it wait in the pending queue (§4.1 prioritization).
const GET_WINDOW: usize = 512;

/// GET DATA fetches that proceed regardless of
/// [`ClusterConfig::get_window_bytes`]: the byte budget only defers flows
/// beyond this many in flight.
const GET_WINDOW_MIN_FLOWS: usize = 4;

/// A pending GET DATA request (queued behind the in-flight window): the
/// record, its owner, and the size it will fetch.
struct GetInfo {
    rec: GetRec,
    src: NodeId,
    size: usize,
}

/// A queued item with its ordering key: a `BinaryHeap` of entries pops
/// the highest `priority` first and, within a priority, the lowest `seq`
/// (module docs).
struct Entry<T> {
    priority: i64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.priority, Reverse(self.seq)).cmp(&(other.priority, Reverse(other.seq)))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// What the simulator's one thread accumulates and reuses for every node
/// of a run (module docs): made once per run and shared by its
/// [`NodeRt`]s, as a real worker keeps its own `WorkerState`.
pub(crate) struct ThreadState {
    /// The run's report tally: every node's tasks and flows.
    pub(crate) tally: Tally,
    /// Cluster-wide compute/wire concurrency integrator (metrics mode).
    overlap: Option<Shared<OverlapTracker>>,
    /// ACTIVATE destination-grouping scratch.
    fan: Fanout,
    /// Kernel-input marshaling scratch.
    inputs: Vec<Bytes>,
    /// ACTIVATE and GET DATA records between send and handling; their
    /// messages carry slot ids.
    pub(crate) records: InFlight,
}

impl ThreadState {
    pub(crate) fn new(overlap: Option<Shared<OverlapTracker>>) -> ThreadState {
        ThreadState {
            tally: Tally::default(),
            overlap,
            fan: Fanout::default(),
            inputs: Vec::new(),
            records: InFlight::default(),
        }
    }
}

/// Mutable scheduler state, behind one `RefCell` (the immutable identity —
/// node id, graph handle, engine, config, interned trace names — lives
/// directly on [`NodeRt`], so hot paths borrow only what mutates). Only
/// protocol state: nothing a thread merely accumulates (module docs).
struct NodeState {
    idle_workers: Vec<usize>,
    ready: BinaryHeap<Entry<TaskId>>,
    /// Unsatisfied input count per *local* task, indexed by
    /// [`crate::graph::Task::local_ix`] — O(tasks-on-this-node), not
    /// O(total tasks).
    remaining: Vec<u32>,
    store: VersionStore,
    pending_gets: BinaryHeap<Entry<GetInfo>>,
    inflight_gets: usize,
    inflight_get_bytes: usize,
    /// Pushes onto either queue so far: the next entry's `seq`.
    seq: u64,
    /// Optional execution timeline (Chrome-trace export).
    trace: Trace,
}

impl NodeState {
    /// An entry for one of this node's queues, ordered after every entry
    /// of its priority made before it.
    fn entry<T>(&mut self, priority: i64, item: T) -> Entry<T> {
        let seq = self.seq;
        self.seq += 1;
        Entry {
            priority,
            seq,
            item,
        }
    }
}

pub(crate) struct NodeRt {
    pub node: NodeId,
    pub graph: GraphHandle,
    pub engine: Rc<CommEngine>,
    /// Shared cluster config — one allocation for the whole cluster.
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
    /// The run's per-thread tally and scratch, shared by every node.
    thread: Shared<ThreadState>,
    /// Windowed-discovery driver, when executing via
    /// [`crate::Cluster::execute_windowed`].
    window: RefCell<Option<Rc<WindowCtl>>>,
}

pub(crate) type RtHandle = Rc<NodeRt>;

/// The virtual node as the protocol sees it. `worker` is `Some` while a
/// worker announces its task's outputs: the send cost accumulates there
/// (to extend the worker's occupancy). Every other send is funneled
/// through the communication thread, free to its caller.
struct Vport<'a> {
    rt: &'a RtHandle,
    sim: &'a mut Sim,
    worker: Option<SimTime>,
}

impl<'a> Vport<'a> {
    fn funneled(rt: &'a RtHandle, sim: &'a mut Sim) -> Vport<'a> {
        let worker = None;
        Vport { rt, sim, worker }
    }
}

impl Port for Vport<'_> {
    /// The GET window queues requests by priority (§4.1).
    const ORDERS_GETS: bool = true;

    fn now(&mut self) -> u64 {
        self.sim.now().as_ns()
    }

    fn send_activate(&mut self, dst: NodeId, rec: ActivateRec) {
        let (rt, engine) = (self.rt, &self.rt.engine);
        let (wire, version) = (ACTIVATE_WIRE_BYTES + 4 * rec.forward.len(), rec.version);
        let payload = Some(rt.thread.borrow_mut().records.send(Record::Activate(rec)));
        let now = self.sim.now();
        rt.flow(true, FLOW_ACTIVATE, version, rt.node, dst, now);
        match &mut self.worker {
            Some(c) if rt.cfg.engine.multithread_am => {
                *c += engine.send_am_direct(self.sim, dst, AM_ACTIVATE, wire, payload);
            }
            worker => {
                engine.send_am(self.sim, dst, AM_ACTIVATE, wire, payload);
                if let Some(c) = worker {
                    *c += rt.cfg.cost.submit_cost;
                }
            }
        }
    }

    /// Queue behind the GET window; the message's dispatch pumps it.
    fn request(&mut self, owner: NodeId, rec: &ActivateRec) {
        let mut s = self.rt.state.borrow_mut();
        let get = GetInfo {
            rec: GetRec {
                version: rec.version,
                activate_sent_at_ns: rec.sent_at_ns,
            },
            src: owner,
            size: rec.size as usize,
        };
        let entry = s.entry(rec.priority, get);
        s.pending_gets.push(entry);
    }

    fn put(&mut self, dst: NodeId, cb: PutCb, size: usize, data: Option<Bytes>) {
        let req = PutRequest {
            dst,
            size,
            data,
            r_tag: RTAG_DATA,
            cb_data: cb.encode(),
            on_local: Box::new(|_sim, _eng| SimTime::ZERO),
        };
        self.rt.engine.put(self.sim, req);
    }

    fn present(&mut self, v: usize, data: Option<Bytes>, requested: bool) {
        self.rt.state.borrow_mut().store.present(v, data, requested);
        NodeRt::release_local(self.rt, VersionId(v));
    }

    fn release(&mut self, g: &TaskGraph, task: TaskId) {
        if let Some(t) = g.task_if_live(task) {
            self.rt.release_one(task, t);
        }
    }

    fn requested(&mut self, v: usize, forward: Option<Forward>) {
        self.rt.state.borrow_mut().store.requested(v, forward);
    }

    fn take_forward(&mut self, v: usize) -> Option<Forward> {
        self.rt.state.borrow_mut().store.take_forward(v)
    }

    fn payload(&mut self, v: usize) -> Option<Bytes> {
        self.rt.state.borrow().store.held(v)
    }

    fn sample(&mut self, lat: Lat, t: SimTime) {
        self.rt.thread.borrow_mut().tally.lats.record(lat, t);
    }
}

impl NodeRt {
    pub fn new(
        node: NodeId,
        graph: GraphHandle,
        engine: Rc<CommEngine>,
        cfg: Rc<ClusterConfig>,
        workers: Vec<CoreHandle>,
        thread: Shared<ThreadState>,
    ) -> NodeRt {
        let nworkers = workers.len();
        // Task/worker indices are packed into one closure word in
        // `dispatch`.
        assert!(nworkers <= 1 << 16, "worker index must fit 16 bits");
        let trace = Trace::new(cfg.engine.trace);
        // Track-name strings are only read under `trace_on`; skip the
        // per-node allocations on untraced runs (1024 nodes × 128 workers
        // of them otherwise).
        let (comm_track, worker_tracks) = if cfg.engine.trace {
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
            trace_on: cfg.engine.trace,
            comm_track,
            worker_tracks,
            state: RefCell::new(NodeState {
                idle_workers: (0..nworkers).rev().collect(),
                ready: BinaryHeap::new(),
                remaining: Vec::new(),
                store: VersionStore::new(node, cfg.flyweight),
                pending_gets: BinaryHeap::new(),
                inflight_gets: 0,
                inflight_get_bytes: 0,
                seq: 0,
                trace,
            }),
            thread,
            window: RefCell::new(None),
            cfg,
            workers,
        }
    }

    pub(crate) fn set_window(&self, w: Option<Rc<WindowCtl>>) {
        *self.window.borrow_mut() = w;
    }

    /// Size the dependence counters for `local` tasks, before
    /// [`crate::graph::TaskGraph::start_state`] admits them
    /// ([`NodeRt::admit_local`]).
    pub(crate) fn reserve_tasks(&self, local: usize) {
        self.state.borrow_mut().remaining = vec![0; local];
    }

    /// Start the node once its tasks are admitted: resident initial data
    /// (`sources`, the producer-less versions homed here, ascending), then
    /// ACTIVATEs for the ones needed remotely, then dispatch.
    pub fn init(rt: &RtHandle, sim: &mut Sim, sources: &[usize]) {
        {
            let g = rt.graph.get();
            let mut s = rt.state.borrow_mut();
            for &i in sources {
                sweep_probe();
                s.store.present(i, g.initial(i).cloned(), false);
            }
        }
        // Announce initial data to remote consumers (pseudo-completion of a
        // "source" task at t=0), funneled.
        NodeRt::announce_versions(rt, sim, false, sources.iter().copied(), None);
        NodeRt::dispatch(rt, sim);
    }

    /// Announce `versions` to their remote consumers, releasing the local
    /// ones of those `produced` here; returns the send cost `worker`
    /// accumulated (see [`Vport`]).
    fn announce_versions(
        rt: &RtHandle,
        sim: &mut Sim,
        produced: bool,
        versions: impl Iterator<Item = usize>,
        worker: Option<SimTime>,
    ) -> Option<SimTime> {
        let mut fan = std::mem::take(&mut rt.thread.borrow_mut().fan);
        let mut port = Vport { rt, sim, worker };
        let g = rt.graph.get();
        let sized = versions.map(|v| (v, rt.announce_size(v, g.version(v).size)));
        let tree = Tree::of(&rt.cfg);
        protocol::announce(&mut port, &g, &mut fan, tree, produced, sized);
        rt.thread.borrow_mut().fan = fan;
        port.worker
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
                let dur = rt.cfg.cost.task_duration(t.flops, t.efficiency);
                let mut th = rt.thread.borrow_mut();
                th.tally.task(t.name, dur);
                if let Some(o) = &th.overlap {
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
    /// outputs, announce them (one walk per output releases the local
    /// consumers and groups the remote ones), then return the worker to
    /// the idle pool.
    fn task_done(rt: &RtHandle, sim: &mut Sim, task: TaskId, widx: usize) {
        {
            let g = rt.graph.get();
            let t = g.task(task);
            if rt.trace_on {
                // The duration is a pure function of the task, so the
                // execution span is reconstructed here instead of carrying
                // it through the completion closure.
                let dur = rt.cfg.cost.task_duration(t.flops, t.efficiency);
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
                .then(|| g.kernel(task))
                .flatten();
            let outs: Option<Vec<Bytes>> = if let Some(kernel) = kernel {
                let mut inputs = std::mem::take(&mut rt.thread.borrow_mut().inputs);
                {
                    let s = rt.state.borrow();
                    for v in g.inputs(task) {
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
                assert_eq!(outs.len(), g.outputs(task).len(), "kernel output arity");
                inputs.clear();
                rt.thread.borrow_mut().inputs = inputs;
                Some(outs)
            } else {
                None
            };

            let mut s = rt.state.borrow_mut();
            let mut outs = outs.into_iter().flatten();
            for vid in g.outputs(task) {
                s.store.present(vid.0, outs.next(), false);
            }
        }

        // Release local consumers of each output and announce to remote
        // ones; the send cost extends the worker's occupancy.
        let extra = {
            let g = rt.graph.get();
            let outputs = g.outputs(task).map(|v| v.0);
            NodeRt::announce_versions(rt, sim, true, outputs, Some(SimTime::ZERO))
        };
        let extra = extra
            .filter(|e| !e.is_zero())
            .unwrap_or(SimTime::from_ns(1));

        // Windowed discovery: retire this task and pull the next window of
        // tasks from the graph source.
        let wctl = rt.window.borrow().clone();
        if let Some(w) = wctl {
            WindowCtl::on_complete(&w, sim, task);
        }

        let rt2 = rt.clone();
        let core = rt.workers[widx].clone();
        rt.thread.borrow_mut().tally.busy(extra);
        core.borrow_mut().charge(sim, extra, move |sim| {
            rt2.state.borrow_mut().idle_workers.push(widx);
            if let Some(o) = &rt2.thread.borrow().overlap {
                o.borrow_mut().busy_add(rt2.node, sim.now(), -1);
            }
            NodeRt::dispatch(&rt2, sim);
        });
        NodeRt::dispatch(rt, sim);
    }

    /// An arrival: walk `version`'s consumers for this node's.
    fn release_local(rt: &RtHandle, version: VersionId) {
        let g = rt.graph.get();
        for (c, t) in g.live_local_consumers(version.0, rt.node) {
            rt.release_one(c, t);
        }
    }

    /// Count down local task `c`'s inputs; queue it once none is missing.
    fn release_one(&self, c: TaskId, t: &Task) {
        let mut s = self.state.borrow_mut();
        let rem = &mut s.remaining[t.local_ix as usize];
        debug_assert!(*rem > 0, "double release of task {c}");
        *rem -= 1;
        if *rem == 0 {
            let entry = s.entry(t.priority, c);
            s.ready.push(entry);
        }
    }

    /// ACTIVATE message (communication-thread context): each record runs
    /// the protocol's handler, charged `activate_record_cost`; the data
    /// flows it announced then fetch as the GET window allows (§4.1).
    pub fn on_activate(rt: &RtHandle, sim: &mut Sim, ev: AmEvent) -> SimTime {
        let (mut cost, mut control) = (SimTime::ZERO, false);
        for frame in &ev.data {
            let rec = rt.thread.borrow_mut().records.take_activate(frame);
            cost += rt.cfg.cost.activate_record_cost;
            let now = sim.now();
            rt.flow(false, FLOW_ACTIVATE, rec.version, ev.src, rt.node, now);
            control |= rec.size == 0;
            let mut port = Vport::funneled(rt, sim);
            protocol::on_activate(&mut port, rt.cfg.multicast_k, ev.src, rec);
        }
        if control {
            // Control flows released consumers; workers dispatch outside
            // the communication thread.
            let rt2 = rt.clone();
            sim.schedule_now(move |sim| NodeRt::dispatch(&rt2, sim));
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
                if s.inflight_gets >= GET_WINDOW {
                    return cost;
                }
                let next_size = match s.pending_gets.peek() {
                    Some(g) => g.item.size,
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
            let engine = &rt.engine;
            // GETs issue from communication-thread context and historically
            // never aggregate; with a batching window configured they are
            // batch-eligible like any other record.
            let batch = engine.config().batch_window_ns > 0;
            let frame = rt.thread.borrow_mut().records.send(Record::Get(get.rec));
            engine.send_am_opts(sim, get.src, AM_GETDATA, GET_WIRE_BYTES, Some(frame), batch);
            cost += rt.cfg.cost.get_send_cost;
        }
    }

    /// GET DATA message at the data owner: each record starts a put
    /// (Figure 1), charged `get_request_cost`.
    pub fn on_getdata(rt: &RtHandle, sim: &mut Sim, ev: AmEvent) -> SimTime {
        let mut cost = SimTime::ZERO;
        for frame in &ev.data {
            let rec = rt.thread.borrow_mut().records.take_get(frame);
            cost += rt.cfg.cost.get_request_cost;
            rt.flow(true, FLOW_DATA, rec.version, rt.node, ev.src, sim.now());
            let g = rt.graph.get();
            protocol::on_get(&mut Vport::funneled(rt, sim), &g, ev.src, rec);
        }
        cost
    }

    /// Data arrival (one-sided completion at the consumer node), charged
    /// `arrival_cost`: the flow leaves the GET window, the protocol
    /// stores and releases, and the window pumps again.
    pub fn on_data(rt: &RtHandle, sim: &mut Sim, ev: PutEvent) -> SimTime {
        let cb = PutCb::decode(&ev.cb_data);
        rt.flow(false, FLOW_DATA, cb.version, ev.src, rt.node, sim.now());
        {
            let mut s = rt.state.borrow_mut();
            debug_assert!(s.inflight_gets > 0);
            s.inflight_gets -= 1;
            s.inflight_get_bytes = s.inflight_get_bytes.saturating_sub(ev.size);
        }
        let mut port = Vport::funneled(rt, sim);
        protocol::on_put(&mut port, rt.cfg.multicast_k, cb, ev.size, ev.data);
        let cost = rt.cfg.cost.arrival_cost + NodeRt::pump_gets(rt, sim);
        // Worker dispatch happens outside the communication thread.
        let rt2 = rt.clone();
        sim.schedule_now(move |sim| NodeRt::dispatch(&rt2, sim));
        cost
    }

    /// Record one end of a flow arrow on this node's comm track (tracing
    /// only): an ACTIVATE or a data put, from `src` to `dst`.
    fn flow(&self, start: bool, kind: u64, version: u64, src: NodeId, dst: NodeId, at: SimTime) {
        if !self.trace_on {
            return;
        }
        let name = if kind == FLOW_ACTIVATE {
            "activate"
        } else {
            "data"
        };
        let (id, track) = (flow_id(kind, version, src, dst), self.comm_track.clone());
        let trace = &mut self.state.borrow_mut().trace;
        if start {
            trace.flow_start(track, name, id, at);
        } else {
            trace.flow_end(track, name, id, at);
        }
    }

    /// Payload of the current state of `version`, if locally present.
    pub fn data(&self, version: VersionId) -> Option<Bytes> {
        self.state.borrow().store.payload(version.0).cloned()
    }

    // ---- report accessors (cluster.rs) ------------------------------

    pub(crate) fn merge_trace_into(&self, t: &mut Trace) {
        t.merge_from(&self.state.borrow().trace);
    }

    // ---- windowed-discovery hooks (window.rs) -----------------------

    /// Seed a newly declared producer-less version at its home node.
    pub(crate) fn window_seed_initial(&self, version: usize, bytes: Option<Bytes>) {
        self.state.borrow_mut().store.present(version, bytes, false);
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
        self.state.borrow_mut().store.take_payload(version);
    }

    /// Record the dependence count of a newly admitted local task (at
    /// start or, windowed, on discovery); queues it when already
    /// satisfied. Returns whether it became ready.
    pub(crate) fn admit_local(
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
            let entry = s.entry(priority, task);
            s.ready.push(entry);
            true
        } else {
            false
        }
    }

    /// Late ACTIVATE for a version whose remote consumer was discovered
    /// after the producer-side announce already happened (windowed mode).
    /// Funneled, like the init announce.
    pub(crate) fn send_late_activate(
        rt: &RtHandle,
        sim: &mut Sim,
        dst: NodeId,
        version: usize,
        size: usize,
        priority: i64,
    ) {
        let rec = ActivateRec::direct(version as u64, size as u64, priority, sim.now().as_ns());
        Vport::funneled(rt, sim).send_activate(dst, rec);
    }
}

#[cfg(test)]
thread_local! {
    /// Store lookups issued by windowed retirement plus graph entries
    /// visited by init; tests compare the count across cluster sizes.
    pub(crate) static SWEEP_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `(priority, item)` pairs and pops, in `ops` order (`None` is a
    /// pop), through a heap of entries numbered as a node numbers them;
    /// returns the popped items.
    fn run(ops: &[Option<(i64, u32)>]) -> Vec<u32> {
        let (mut heap, mut seq, mut popped) = (BinaryHeap::new(), 0, Vec::new());
        for op in ops {
            match *op {
                Some((priority, item)) => {
                    heap.push(Entry {
                        priority,
                        seq,
                        item,
                    });
                    seq += 1;
                }
                None => popped.push(heap.pop().expect("a pop of an empty queue").item),
            }
        }
        popped.extend(std::iter::from_fn(|| heap.pop().map(|e| e.item)));
        popped
    }

    #[test]
    fn entries_pop_by_priority_then_in_push_order() {
        // Highest priority first.
        assert_eq!(run(&[Some((1, 0)), Some((3, 1)), Some((2, 2))]), [1, 2, 0]);
        // FIFO within one priority.
        let same: Vec<_> = (0..100).map(|i| Some((7, i))).collect();
        assert_eq!(run(&same), (0..100).collect::<Vec<_>>());
        // Negative priorities order below zero, ties still FIFO.
        let neg = [Some((-5, 0)), Some((0, 1)), Some((-1, 2)), Some((-5, 3))];
        assert_eq!(run(&neg), [1, 2, 0, 3]);
        // Interleaved pushes and pops: a later push of a higher priority
        // overtakes what is queued, one of an equal priority does not.
        let mixed = [
            Some((2, 0)),
            Some((2, 1)),
            None,
            Some((5, 2)),
            Some((2, 3)),
            None,
            None,
            Some((-1, 4)),
            Some((2, 5)),
            None,
        ];
        assert_eq!(run(&mixed), [0, 2, 1, 3, 5, 4]);
    }
}
