//! The fabric proper: per-node NIC transmit/receive engines, chunked
//! round-robin serialization, wire latency, and delivery to node handlers.
//!
//! ## What a message costs the simulator
//!
//! A message of `k` chunks on the flat topology costs `2k + 2` events: one
//! transmit completion and one receive-calendar drain per chunk, one
//! receive completion for the final chunk and one delivery event. A chunk
//! that delivers nothing gets no event of its own: its receive-engine
//! occupancy is charged with [`CoreResource::occupy`], which does the same
//! accounting (`busy_until`, busy time, jobs) as a `charge` without
//! scheduling a completion. Such a completion would read nothing, write
//! nothing and schedule nothing, so dropping it leaves the relative
//! `(time, seq)` order of every remaining event unchanged — only the event
//! count falls. Cross-pod chunks add one pod up-link and one down-link
//! drain and completion each.
//!
//! Chunk records live in a fabric-owned [`Slab`]; every per-chunk event
//! captures only the fabric handle and a slab id, so it stays inline in
//! its [`EventFn`] slot, and a record is taken once its message is
//! delivered (or, for a non-final chunk, once it is charged). Steady-state
//! traffic allocates nothing here; the slab's size is the peak number of
//! chunks in flight.
//!
//! ## Arrival calendars and deterministic drain order
//!
//! Every path into a shared resource (a destination NIC's receive engine, a
//! fat-tree pod link) goes through an *arrival calendar*: chunks destined
//! for resource `R` at instant `T` are charged by a single drain event in
//! ascending `(src, per-src chunk seq)` order. That key is a pure function
//! of the traffic (not of simulator event sequence numbers): it *is* the
//! model's same-instant order, pinned by the golden reports (DESIGN.md
//! §3.10).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use amt_simnet::{CoreResource, Counter, EventFn, Shared, Sim, SimTime, Slab, Trace};
use bytes::Bytes;

use crate::config::{FabricConfig, Topology};

/// Index of a node in the simulated cluster.
pub type NodeId = usize;

/// Unique id of a message on the fabric (tracing / debugging). Encodes the
/// source: `(src << 40) | per-src counter`.
pub type MsgId = u64;

/// What a message carries. The fabric is payload-agnostic; communication
/// libraries layered on top keep their protocol records in their own slabs
/// and send the id.
pub enum Payload {
    /// No payload (pure control signal; the wire size is still accounted).
    Empty,
    /// Real data bytes (zero-copy shared).
    Bytes(Bytes),
    /// The id of a wire record in the sending library's slab; the library
    /// takes the record back out when the receiver processes it.
    Wire(u32),
}

impl Payload {
    /// Byte length of a `Bytes` payload, 0 otherwise.
    pub fn data_len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            _ => 0,
        }
    }

    /// Extract the bytes, panicking if this is not a `Bytes` payload.
    pub fn expect_bytes(self) -> Bytes {
        match self {
            Payload::Bytes(b) => b,
            _ => panic!("payload is not Bytes"),
        }
    }

    /// The wire-record id, panicking if this is not a `Wire` payload.
    pub fn expect_wire(self) -> u32 {
        match self {
            Payload::Wire(id) => id,
            _ => panic!("payload is not a wire record"),
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Empty => write!(f, "Empty"),
            Payload::Bytes(b) => write!(f, "Bytes({})", b.len()),
            Payload::Wire(id) => write!(f, "Wire({id})"),
        }
    }
}

/// A message delivered to a node's receive handler.
#[derive(Debug)]
pub struct Delivery {
    pub src: NodeId,
    pub dst: NodeId,
    /// Wire size in bytes (headers included, as declared by the sender).
    pub size: usize,
    pub msg_id: MsgId,
    pub payload: Payload,
    /// Virtual time at which the sender injected the message.
    pub sent_at: SimTime,
}

/// Per-node receive handler. Invoked once per delivered message, in its own
/// event (never re-entrantly).
pub type RxHandler = Rc<RefCell<dyn FnMut(&mut Sim, Delivery)>>;

/// Local-completion callback for a transfer. An [`EventFn`], so callbacks
/// capturing at most three machine words (the common "one `Rc` plus two
/// indices" shape) cost no allocation.
pub type TxDone = EventFn;

struct Transfer {
    msg_id: MsgId,
    src: NodeId,
    dst: NodeId,
    size: usize,
    sent_at: SimTime,
    remaining: usize,
    first_chunk: bool,
    payload: Option<Payload>,
    on_tx_done: Option<TxDone>,
}

/// Total order on same-instant arrivals at a shared resource:
/// `(src, per-src chunk sequence)`.
type ChunkKey = (NodeId, u64);

/// Slab id of a [`ChunkRec`]. Per-chunk events capture the fabric
/// handle plus this id — two words, inline in the `EventFn` slot.
type RecId = u32;

/// One chunk in flight past its source NIC, in the fabric's record slab.
struct ChunkRec {
    key: ChunkKey,
    msg_id: MsgId,
    src: NodeId,
    dst: NodeId,
    size: usize,
    sent_at: SimTime,
    chunk_bytes: usize,
    first_chunk: bool,
    /// Fires when this (final) chunk leaves the sender's NIC.
    on_tx_done: Option<TxDone>,
    /// Present only on the final chunk; its receive completion delivers.
    finale: Option<Payload>,
}

/// An arrival calendar: one FIFO of `(instant, record)` per resource,
/// drained by one event per occupied instant in ascending [`ChunkKey`]
/// order.
///
/// A FIFO suffices because every push into a resource is at `now` plus a
/// constant of that resource kind — `wire_latency` into a NIC, zero into a
/// pod up-link, `spine_latency` into a down-link — and `now` never
/// decreases, so a resource's arrival instants never decrease in push
/// order. The chunks of one instant are therefore contiguous at the back
/// while they are being buffered and at the front when their drain runs.
struct Calendar {
    fifos: Vec<VecDeque<(SimTime, RecId)>>,
}

impl Calendar {
    fn new(resources: usize) -> Self {
        Calendar {
            fifos: (0..resources).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Buffer a chunk; returns true when it opens the slot for instant `t`
    /// and the caller must schedule the slot's drain.
    fn push(&mut self, r: usize, t: SimTime, rec: RecId) -> bool {
        let q = &mut self.fifos[r];
        let opens = match q.back() {
            Some(&(last, _)) => {
                debug_assert!(last <= t, "arrival instants decreased: {t} < {last}");
                last != t
            }
            None => true,
        };
        q.push_back((t, rec));
        opens
    }

    /// Move the slot for instant `t` into `out`, key-sorted.
    fn drain(&mut self, r: usize, t: SimTime, recs: &Slab<ChunkRec>, out: &mut Vec<RecId>) {
        let q = &mut self.fifos[r];
        debug_assert!(
            q.front().is_some_and(|&(at, _)| at == t),
            "drain of an empty slot"
        );
        while let Some(&(at, rec)) = q.front() {
            if at != t {
                break;
            }
            q.pop_front();
            out.push(rec);
        }
        if out.len() > 1 {
            out.sort_by_key(|&i| recs.get(i).key);
        }
    }
}

struct NodeNic {
    tx_busy: bool,
    /// Single-chunk (control) transfers: their own virtual lane.
    tx_ctl: VecDeque<Transfer>,
    /// Multi-chunk (bulk) transfers, FIFO.
    tx_bulk: VecDeque<Transfer>,
    rx: CoreResource,
    tx_bytes: Counter,
    rx_bytes: Counter,
    tx_msgs: Counter,
    rx_msgs: Counter,
    tx_busy_time: SimTime,
    /// Per-source message counter (deterministic [`MsgId`] low bits).
    next_msg: u64,
    /// Per-source chunk counter (the [`ChunkKey`] tiebreak).
    next_chunk: u64,
}

impl NodeNic {
    fn new(node: NodeId) -> Self {
        NodeNic {
            tx_busy: false,
            tx_ctl: VecDeque::new(),
            tx_bulk: VecDeque::new(),
            rx: CoreResource::new(format!("nic{node}.rx")),
            tx_bytes: Counter::default(),
            rx_bytes: Counter::default(),
            tx_msgs: Counter::default(),
            rx_msgs: Counter::default(),
            tx_busy_time: SimTime::ZERO,
            next_msg: 0,
            next_chunk: 0,
        }
    }
}

/// Shared up/down links of one fat-tree pod.
struct PodLinks {
    up: CoreResource,
    down: CoreResource,
}

/// The simulated cluster fabric. See the crate docs for the model.
pub struct Fabric {
    cfg: FabricConfig,
    nics: Vec<NodeNic>,
    handlers: Vec<Option<RxHandler>>,
    /// Optional trace sink for per-node NIC injection-occupancy counters.
    trace: Option<Shared<Trace>>,
    /// Fat-tree pod links (empty under `Topology::Flat`).
    pods: Vec<PodLinks>,
    /// Destination-NIC receive calendar, one FIFO per node.
    rx_cal: Calendar,
    /// Pod up-link calendars (same-instant tx-done ties).
    up_cal: Calendar,
    /// Pod down-link ingress calendars (post-spine arrivals).
    down_cal: Calendar,
    /// Chunk records in flight.
    recs: Slab<ChunkRec>,
    /// Drain scratch: the key-sorted slot being charged.
    batch: Vec<RecId>,
}

/// Shared handle to a [`Fabric`]; all operations are associated functions
/// over the handle so user handlers can re-enter the fabric.
pub type FabricHandle = Rc<RefCell<Fabric>>;

impl Fabric {
    /// Build a fabric simulating the whole cluster.
    pub fn new(cfg: FabricConfig) -> FabricHandle {
        let nics = (0..cfg.nodes).map(NodeNic::new).collect();
        let handlers = (0..cfg.nodes).map(|_| None).collect();
        let pods: Vec<PodLinks> = match &cfg.topology {
            Topology::Flat => Vec::new(),
            Topology::FatTree(ft) => {
                assert!(ft.pods >= 1, "fat tree needs at least one pod");
                assert!(
                    !ft.spine_latency.is_zero(),
                    "fat-tree spine latency must be nonzero"
                );
                (0..ft.pods)
                    .map(|p| PodLinks {
                        up: CoreResource::new(format!("pod{p}.up")),
                        down: CoreResource::new(format!("pod{p}.down")),
                    })
                    .collect()
            }
        };
        Rc::new(RefCell::new(Fabric {
            rx_cal: Calendar::new(cfg.nodes),
            up_cal: Calendar::new(pods.len()),
            down_cal: Calendar::new(pods.len()),
            cfg,
            nics,
            handlers,
            trace: None,
            pods,
            recs: Slab::default(),
            batch: Vec::new(),
        }))
    }

    /// Attach a trace sink; the fabric then samples an `n{ix}.nic` counter
    /// track (queued + in-flight transmit transfers) on every change.
    pub fn set_trace(&mut self, trace: Shared<Trace>) {
        self.trace = Some(trace);
    }

    /// Sample the transmit-occupancy counter of `node` at `now`.
    fn sample_nic(&self, node: NodeId, now: SimTime) {
        if let Some(tr) = &self.trace {
            let nic = &self.nics[node];
            let v = nic.tx_ctl.len() + nic.tx_bulk.len() + usize::from(nic.tx_busy);
            tr.borrow_mut()
                .counter(format!("n{node}.nic"), now, v as f64);
        }
    }

    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Register the receive handler for `node` (replaces any previous one).
    pub fn set_handler(&mut self, node: NodeId, handler: RxHandler) {
        self.handlers[node] = Some(handler);
    }

    pub fn tx_bytes(&self, node: NodeId) -> u64 {
        self.nics[node].tx_bytes.get()
    }

    pub fn rx_bytes(&self, node: NodeId) -> u64 {
        self.nics[node].rx_bytes.get()
    }

    pub fn tx_msgs(&self, node: NodeId) -> u64 {
        self.nics[node].tx_msgs.get()
    }

    pub fn rx_msgs(&self, node: NodeId) -> u64 {
        self.nics[node].rx_msgs.get()
    }

    /// Total time node `node`'s transmit engine has been occupied.
    pub fn tx_busy_time(&self, node: NodeId) -> SimTime {
        self.nics[node].tx_busy_time
    }

    /// Node `node`'s receive engine (accounting checks in tests).
    #[cfg(test)]
    pub(crate) fn rx_engine(&self, node: NodeId) -> &CoreResource {
        &self.nics[node].rx
    }

    /// Inject a message. `size` is the wire size in bytes (the caller
    /// accounts for headers); `payload` rides along and is handed to the
    /// destination handler; `on_tx_done` fires when the last chunk leaves
    /// the sender's NIC (local completion).
    ///
    /// Self-sends (`src == dst`) bypass the NIC entirely and deliver after
    /// a small fixed loopback delay.
    pub fn send(
        fab: &FabricHandle,
        sim: &mut Sim,
        src: NodeId,
        dst: NodeId,
        size: usize,
        payload: Payload,
        on_tx_done: Option<TxDone>,
    ) -> MsgId {
        let msg_id;
        {
            let mut f = fab.borrow_mut();
            assert!(src < f.cfg.nodes && dst < f.cfg.nodes, "bad node id");
            msg_id = ((src as u64) << 40) | f.nics[src].next_msg;
            f.nics[src].next_msg += 1;

            if src == dst {
                let rec = f.recs.insert(ChunkRec {
                    key: (src, 0),
                    msg_id,
                    src,
                    dst,
                    size,
                    sent_at: sim.now(),
                    chunk_bytes: 0,
                    first_chunk: true,
                    on_tx_done,
                    finale: Some(payload),
                });
                drop(f);
                let fab2 = fab.clone();
                sim.schedule_in(SimTime::from_ns(100), move |sim| {
                    let cb = fab2.borrow_mut().recs.get_mut(rec).on_tx_done.take();
                    if let Some(cb) = cb {
                        cb.invoke(sim);
                    }
                    sim.schedule_now(move |sim| Fabric::deliver(&fab2, sim, rec));
                });
                return msg_id;
            }

            f.nics[src].tx_msgs.inc();
            f.nics[src].tx_bytes.add(size as u64);
            let t = Transfer {
                msg_id,
                src,
                dst,
                size,
                sent_at: sim.now(),
                remaining: size,
                first_chunk: true,
                payload: Some(payload),
                on_tx_done,
            };
            if size <= f.cfg.chunk_bytes {
                f.nics[src].tx_ctl.push_back(t);
            } else {
                f.nics[src].tx_bulk.push_back(t);
            }
            f.sample_nic(src, sim.now());
        }
        Fabric::tx_pump(fab, sim, src);
        msg_id
    }

    /// If the transmit engine of `node` is idle and has queued transfers,
    /// serve the next chunk.
    ///
    /// Scheduling policy: bulk (multi-chunk) transfers are served FIFO —
    /// message by message, as an RDMA NIC drains a queue pair — while
    /// single-chunk messages (control traffic) jump ahead between chunks,
    /// modelling a separate virtual lane. This keeps control latency
    /// bounded without splitting bandwidth across every outstanding bulk
    /// transfer (completion times matter: a fair round-robin would make
    /// every transfer of a burst complete at the very end).
    ///
    /// The two lanes are separate queues, so picking the next chunk is
    /// O(1): control front if any, else bulk front — exactly the transfer
    /// the seed's linear `position(size <= chunk)` scan selected, since
    /// relative order within each class is preserved by both schemes.
    fn tx_pump(fab: &FabricHandle, sim: &mut Sim, node: NodeId) {
        let (dur, rec);
        {
            let mut f = fab.borrow_mut();
            if f.nics[node].tx_busy {
                return;
            }
            let mut t = match f.nics[node].tx_ctl.pop_front() {
                Some(t) => t,
                None => match f.nics[node].tx_bulk.pop_front() {
                    Some(t) => t,
                    None => return,
                },
            };
            let chunk = t.remaining.min(f.cfg.chunk_bytes);
            let first = t.first_chunk;
            t.first_chunk = false;
            t.remaining -= chunk;
            let finished = t.remaining == 0;

            dur = f.cfg.serialization_time(chunk)
                + f.cfg.per_chunk_overhead
                + if first {
                    f.cfg.per_message_overhead
                } else {
                    SimTime::ZERO
                };

            let key = (t.src, f.nics[node].next_chunk);
            f.nics[node].next_chunk += 1;
            rec = f.recs.insert(ChunkRec {
                key,
                msg_id: t.msg_id,
                src: t.src,
                dst: t.dst,
                size: t.size,
                sent_at: t.sent_at,
                chunk_bytes: chunk,
                first_chunk: first,
                on_tx_done: if finished { t.on_tx_done.take() } else { None },
                finale: if finished {
                    Some(t.payload.take().expect("payload consumed twice"))
                } else {
                    None
                },
            });

            if !finished {
                // Unfinished bulk transfer stays at the head (FIFO).
                f.nics[node].tx_bulk.push_front(t);
            }
            f.nics[node].tx_busy = true;
            f.nics[node].tx_busy_time += dur;
        }

        let fab2 = fab.clone();
        sim.schedule_in(dur, move |sim| Fabric::tx_done(&fab2, sim, rec));
    }

    /// A chunk left the sender NIC (transfers queue at their source, so
    /// the transmitting node is the chunk's src): fire the local
    /// completion, route the chunk, serve the next one.
    fn tx_done(fab: &FabricHandle, sim: &mut Sim, rec: RecId) {
        let (node, cb) = {
            let mut f = fab.borrow_mut();
            let r = f.recs.get_mut(rec);
            let (node, cb) = (r.src, r.on_tx_done.take());
            f.nics[node].tx_busy = false;
            f.sample_nic(node, sim.now());
            (node, cb)
        };
        if let Some(cb) = cb {
            cb.invoke(sim);
        }
        Fabric::route_chunk(fab, sim, rec);
        Fabric::tx_pump(fab, sim, node);
    }

    /// A chunk has left its source NIC: route it to the next hop.
    fn route_chunk(fab: &FabricHandle, sim: &mut Sim, rec: RecId) {
        let (wire_latency, src_pod, dst_pod) = {
            let f = fab.borrow();
            let r = f.recs.get(rec);
            (f.cfg.wire_latency, f.cfg.pod_of(r.src), f.cfg.pod_of(r.dst))
        };
        if src_pod == dst_pod {
            let t = sim.now() + wire_latency;
            Fabric::rx_push(fab, sim, t, rec);
        } else {
            // Cross-pod: same-instant tx-done ties from different NICs
            // contend for the shared up-link; the calendar orders them.
            Fabric::up_push(fab, sim, src_pod, sim.now(), rec);
        }
    }

    /// Buffer a chunk in the destination NIC's receive calendar, scheduling
    /// the drain when it opens the `(dst, t)` slot.
    fn rx_push(fab: &FabricHandle, sim: &mut Sim, t: SimTime, rec: RecId) {
        let opens = {
            let mut f = fab.borrow_mut();
            let dst = f.recs.get(rec).dst;
            f.rx_cal.push(dst, t, rec).then_some(dst)
        };
        if let Some(dst) = opens {
            let fab2 = fab.clone();
            let drain = move |sim: &mut Sim| Fabric::drain_rx(&fab2, sim, dst, t);
            if t <= sim.now() {
                sim.schedule_now(drain);
            } else {
                sim.schedule_at(t, drain);
            }
        }
    }

    /// Charge the key-sorted slot for `(dst, t)` through the receive
    /// engine. Only a final chunk's completion is an event (it delivers the
    /// message); a non-final chunk is pure occupancy and its record is
    /// freed here.
    fn drain_rx(fab: &FabricHandle, sim: &mut Sim, dst: NodeId, t: SimTime) {
        let mut guard = fab.borrow_mut();
        let f = &mut *guard;
        let mut batch = std::mem::take(&mut f.batch);
        f.rx_cal.drain(dst, t, &f.recs, &mut batch);
        for &rec in &batch {
            let r = f.recs.get(rec);
            let dur = f.cfg.serialization_time(r.chunk_bytes)
                + f.cfg.per_chunk_overhead
                + if r.first_chunk {
                    f.cfg.per_message_overhead
                } else {
                    SimTime::ZERO
                };
            if r.finale.is_some() {
                let fab2 = fab.clone();
                f.nics[dst]
                    .rx
                    .charge(sim, dur, move |sim| Fabric::rx_done(&fab2, sim, rec));
            } else {
                f.nics[dst].rx.occupy(sim.now(), dur);
                f.recs.take(rec);
            }
        }
        batch.clear();
        f.batch = batch;
    }

    /// The final chunk cleared the receive engine: count the message and
    /// schedule its delivery.
    fn rx_done(fab: &FabricHandle, sim: &mut Sim, rec: RecId) {
        {
            let mut f = fab.borrow_mut();
            let r = f.recs.get(rec);
            let (dst, size) = (r.dst, r.size);
            f.nics[dst].rx_msgs.inc();
            f.nics[dst].rx_bytes.add(size as u64);
        }
        let fab2 = fab.clone();
        sim.schedule_now(move |sim| Fabric::deliver(&fab2, sim, rec));
    }

    /// Buffer a chunk in its source pod's up-link calendar (same-instant
    /// slot: tx-done ties from different NICs of one pod).
    fn up_push(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime, rec: RecId) {
        let opens = fab.borrow_mut().up_cal.push(pod, t, rec);
        if opens {
            let fab2 = fab.clone();
            sim.schedule_now(move |sim| Fabric::drain_up(&fab2, sim, pod, t));
        }
    }

    /// Serialize the key-sorted slot through the pod up-link; each chunk's
    /// completion launches it across the spine toward the destination
    /// pod's down-link.
    fn drain_up(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime) {
        let mut guard = fab.borrow_mut();
        let f = &mut *guard;
        let Topology::FatTree(ft) = &f.cfg.topology else {
            unreachable!("up-link on flat topology")
        };
        let mut batch = std::mem::take(&mut f.batch);
        f.up_cal.drain(pod, t, &f.recs, &mut batch);
        for &rec in &batch {
            let dur = f
                .cfg
                .link_time(f.recs.get(rec).chunk_bytes, ft.link_bandwidth_gbps);
            let fab2 = fab.clone();
            f.pods[pod]
                .up
                .charge(sim, dur, move |sim| Fabric::up_done(&fab2, sim, rec));
        }
        batch.clear();
        f.batch = batch;
    }

    /// A chunk cleared its source pod's up-link: cross the spine.
    fn up_done(fab: &FabricHandle, sim: &mut Sim, rec: RecId) {
        let (spine, dst_pod) = {
            let f = fab.borrow();
            let Topology::FatTree(ft) = &f.cfg.topology else {
                unreachable!("up-link on flat topology")
            };
            (ft.spine_latency, f.cfg.pod_of(f.recs.get(rec).dst))
        };
        let ingress = sim.now() + spine;
        Fabric::down_push(fab, sim, dst_pod, ingress, rec);
    }

    /// Buffer a post-spine chunk in the destination pod's down-link
    /// calendar (a strictly-future slot: the spine latency is nonzero).
    fn down_push(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime, rec: RecId) {
        let opens = fab.borrow_mut().down_cal.push(pod, t, rec);
        if opens {
            let fab2 = fab.clone();
            let drain = move |sim: &mut Sim| Fabric::drain_down(&fab2, sim, pod, t);
            if t <= sim.now() {
                sim.schedule_now(drain);
            } else {
                sim.schedule_at(t, drain);
            }
        }
    }

    /// Serialize the key-sorted slot through the pod down-link; each
    /// chunk's completion takes the last intra-pod wire hop into the
    /// destination NIC's receive calendar.
    fn drain_down(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime) {
        let mut guard = fab.borrow_mut();
        let f = &mut *guard;
        let Topology::FatTree(ft) = &f.cfg.topology else {
            unreachable!("down-link on flat topology")
        };
        let mut batch = std::mem::take(&mut f.batch);
        f.down_cal.drain(pod, t, &f.recs, &mut batch);
        for &rec in &batch {
            let dur = f
                .cfg
                .link_time(f.recs.get(rec).chunk_bytes, ft.link_bandwidth_gbps);
            let fab2 = fab.clone();
            f.pods[pod].down.charge(sim, dur, move |sim| {
                let t = sim.now() + fab2.borrow().cfg.wire_latency;
                Fabric::rx_push(&fab2, sim, t, rec);
            });
        }
        batch.clear();
        f.batch = batch;
    }

    /// Hand a delivered message to its node's handler and free its record.
    /// The handler is looked up here, when the delivery event runs.
    fn deliver(fab: &FabricHandle, sim: &mut Sim, rec: RecId) {
        let (handler, delivery) = {
            let mut f = fab.borrow_mut();
            let r = f.recs.take(rec);
            let delivery = Delivery {
                src: r.src,
                dst: r.dst,
                size: r.size,
                msg_id: r.msg_id,
                payload: r.finale.expect("message delivered twice"),
                sent_at: r.sent_at,
            };
            let handler = f.handlers[delivery.dst]
                .clone()
                .unwrap_or_else(|| panic!("node {} has no rx handler", delivery.dst));
            (handler, delivery)
        };
        (handler.borrow_mut())(sim, delivery);
    }
}

/// Convenience: wrap a closure as an [`RxHandler`].
pub fn rx_handler(f: impl FnMut(&mut Sim, Delivery) + 'static) -> RxHandler {
    Rc::new(RefCell::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: NodeId, seq: u64) -> ChunkRec {
        ChunkRec {
            key: (src, seq),
            msg_id: 0,
            src,
            dst: 0,
            size: 0,
            sent_at: SimTime::ZERO,
            chunk_bytes: 0,
            first_chunk: false,
            on_tx_done: None,
            finale: None,
        }
    }

    #[test]
    fn calendar_slots_are_fifo_per_resource_and_drain_key_sorted() {
        // Records 0..=3 arrive at resource 1 at t=5 out of key order, then
        // record 4 at t=9; resource 0 holds record 5 in its own t=5 slot.
        let mut recs = Slab::default();
        for (src, seq) in [(3, 0), (1, 7), (2, 0), (1, 2), (0, 0), (9, 9)] {
            recs.insert(rec(src, seq));
        }
        let (t5, t9) = (SimTime::from_ns(5), SimTime::from_ns(9));
        let mut cal = Calendar::new(2);
        let opens: Vec<bool> = [0u32, 1, 2, 3]
            .iter()
            .map(|&i| cal.push(1, t5, i))
            .collect();
        assert_eq!(opens, [true, false, false, false], "one drain per instant");
        assert!(cal.push(1, t9, 4), "a later instant opens its own slot");
        assert!(cal.push(0, t5, 5), "resources are independent");

        let mut out = Vec::new();
        cal.drain(1, t5, &recs, &mut out);
        assert_eq!(out, [3, 1, 2, 0], "(src, chunk-seq) order");
        out.clear();
        cal.drain(1, t9, &recs, &mut out);
        assert_eq!(out, [4]);
        out.clear();
        cal.drain(0, t5, &recs, &mut out);
        assert_eq!(out, [5]);
        assert!(cal.fifos.iter().all(VecDeque::is_empty));
    }
}
