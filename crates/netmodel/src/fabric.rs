//! The fabric proper: per-node NIC transmit/receive engines, chunked
//! round-robin serialization, wire latency, and delivery to node handlers.
//!
//! ## Arrival calendars and deterministic drain order
//!
//! Every path into a shared resource (a destination NIC's receive engine, a
//! fat-tree pod link) goes through an *arrival calendar*: chunks destined
//! for resource `R` at instant `T` are buffered under `(R, T)` and charged
//! by a single drain event in ascending `(src, per-src chunk seq)` order.
//! That key is a pure function of the traffic (not of simulator event
//! sequence numbers): it *is* the model's same-instant order, pinned by the
//! golden reports (DESIGN.md §3.10).

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::rc::Rc;

use amt_simnet::{CoreResource, Counter, EventFn, Shared, Sim, SimTime, Trace};
use bytes::Bytes;

use crate::config::{FabricConfig, Topology};

/// Index of a node in the simulated cluster.
pub type NodeId = usize;

/// Unique id of a message on the fabric (tracing / debugging). Encodes the
/// source: `(src << 40) | per-src counter`.
pub type MsgId = u64;

/// What a message carries. The fabric is payload-agnostic; communication
/// libraries layered on top define their own protocol structures.
pub enum Payload {
    /// No payload (pure control signal; the wire size is still accounted).
    Empty,
    /// Real data bytes (zero-copy shared).
    Bytes(Bytes),
    /// An arbitrary protocol structure.
    Any(Box<dyn Any>),
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

    /// Downcast an `Any` payload to a concrete protocol type.
    pub fn downcast<T: 'static>(self) -> Box<T> {
        match self {
            Payload::Any(a) => a.downcast::<T>().expect("payload downcast failed"),
            _ => panic!("payload is not Any"),
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Empty => write!(f, "Empty"),
            Payload::Bytes(b) => write!(f, "Bytes({})", b.len()),
            Payload::Any(_) => write!(f, "Any"),
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

/// One chunk in flight past its source NIC. Boxed when created (one
/// allocation per chunk). The calendar key and tx-done callback ride
/// inside the box so every per-chunk event captures only the fabric handle
/// plus the box and stays inline in its `EventFn` slot.
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

/// An arrival calendar: chunks buffered per `(resource, instant)`, drained
/// by one event per occupied instant in ascending [`ChunkKey`] order.
///
/// Lookups are only ever by exact key (never iterated), so a `HashMap` —
/// which retains its capacity across remove/insert cycles — keeps
/// steady-state traffic allocation-free; drained slot vectors are recycled
/// through a free list for the same reason. (A `BTreeMap` here cost one
/// root-node allocation per occupied instant: the map oscillates between
/// empty and one entry on the common NIC receive path.)
// A chunk stays in its box from source NIC to delivery (the per-chunk
// events hold the box); the calendar only parks boxes between arrival and
// drain, so unboxing into the vectors would force a re-box per hop.
#[allow(clippy::vec_box)]
struct Calendar<K: Eq + Hash + Copy> {
    map: HashMap<(K, SimTime), Vec<Box<ChunkRec>>>,
    free: Vec<Vec<Box<ChunkRec>>>,
}

#[allow(clippy::vec_box)]
impl<K: Eq + Hash + Copy> Calendar<K> {
    fn new() -> Self {
        Calendar {
            map: HashMap::new(),
            free: Vec::new(),
        }
    }

    /// Buffer a chunk; returns true when this `(resource, instant)` slot
    /// was vacant and the caller must schedule its drain.
    fn push(&mut self, k: K, t: SimTime, rec: Box<ChunkRec>) -> bool {
        let slot = self
            .map
            .entry((k, t))
            .or_insert_with(|| self.free.pop().unwrap_or_default());
        slot.push(rec);
        slot.len() == 1
    }

    /// Remove and key-sort the batch for `(resource, instant)`. Return the
    /// emptied vector via [`Calendar::recycle`].
    fn drain(&mut self, k: K, t: SimTime) -> Vec<Box<ChunkRec>> {
        let mut batch = self.map.remove(&(k, t)).unwrap_or_default();
        batch.sort_by_key(|rec| rec.key);
        batch
    }

    /// Hand a drained batch's storage back for reuse.
    fn recycle(&mut self, mut batch: Vec<Box<ChunkRec>>) {
        batch.clear();
        self.free.push(batch);
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
    /// Destination-NIC receive calendar.
    rx_cal: Calendar<NodeId>,
    /// Pod up-link calendars (same-instant tx-done ties).
    up_cal: Calendar<usize>,
    /// Pod down-link ingress calendars (post-spine arrivals).
    down_cal: Calendar<usize>,
}

/// Shared handle to a [`Fabric`]; all operations are associated functions
/// over the handle so user handlers can re-enter the fabric.
pub type FabricHandle = Rc<RefCell<Fabric>>;

impl Fabric {
    /// Build a fabric simulating the whole cluster.
    pub fn new(cfg: FabricConfig) -> FabricHandle {
        let nics = (0..cfg.nodes).map(NodeNic::new).collect();
        let handlers = (0..cfg.nodes).map(|_| None).collect();
        let pods = match &cfg.topology {
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
            cfg,
            nics,
            handlers,
            trace: None,
            pods,
            rx_cal: Calendar::new(),
            up_cal: Calendar::new(),
            down_cal: Calendar::new(),
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

    /// Total occupancy of pod `p`'s up-link (fat tree only).
    pub fn pod_up_busy(&self, p: usize) -> SimTime {
        self.pods[p].up.busy_time()
    }

    /// Total occupancy of pod `p`'s down-link (fat tree only).
    pub fn pod_down_busy(&self, p: usize) -> SimTime {
        self.pods[p].down.busy_time()
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
                drop(f);
                let fab2 = fab.clone();
                let sent_at = sim.now();
                sim.schedule_in(SimTime::from_ns(100), move |sim| {
                    if let Some(cb) = on_tx_done {
                        cb.invoke(sim);
                    }
                    Fabric::deliver(
                        &fab2,
                        sim,
                        Delivery {
                            src,
                            dst,
                            size,
                            msg_id,
                            payload,
                            sent_at,
                        },
                    );
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
        let (dur, mut rec);
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
            rec = Box::new(ChunkRec {
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

        // Captures: one Rc + one Box — inline in the `EventFn` slot.
        let fab2 = fab.clone();
        sim.schedule_in(dur, move |sim| {
            // Chunk left the sender NIC (transfers queue at their source,
            // so the transmitting node is the chunk's src).
            let node = rec.src;
            {
                let mut f = fab2.borrow_mut();
                f.nics[node].tx_busy = false;
                f.sample_nic(node, sim.now());
            }
            if let Some(cb) = rec.on_tx_done.take() {
                cb.invoke(sim);
            }
            Fabric::route_chunk(&fab2, sim, rec);
            Fabric::tx_pump(&fab2, sim, node);
        });
    }

    /// A chunk has left its source NIC: route it to the next hop.
    fn route_chunk(fab: &FabricHandle, sim: &mut Sim, rec: Box<ChunkRec>) {
        let (wire_latency, src_pod, dst_pod) = {
            let f = fab.borrow();
            (
                f.cfg.wire_latency,
                f.cfg.pod_of(rec.src),
                f.cfg.pod_of(rec.dst),
            )
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
    /// the drain on first occupancy of the `(dst, t)` slot.
    fn rx_push(fab: &FabricHandle, sim: &mut Sim, t: SimTime, rec: Box<ChunkRec>) {
        let dst = rec.dst;
        let vacant = fab.borrow_mut().rx_cal.push(dst, t, rec);
        if vacant {
            let fab2 = fab.clone();
            let drain = move |sim: &mut Sim| Fabric::drain_rx(&fab2, sim, dst, t);
            if t <= sim.now() {
                sim.schedule_now(drain);
            } else {
                sim.schedule_at(t, drain);
            }
        }
    }

    /// Charge the key-sorted batch for `(dst, t)` through the receive
    /// engine; each final chunk's completion delivers its message.
    fn drain_rx(fab: &FabricHandle, sim: &mut Sim, dst: NodeId, t: SimTime) {
        let mut batch = fab.borrow_mut().rx_cal.drain(dst, t);
        for mut rec in batch.drain(..) {
            let fab2 = fab.clone();
            let mut f = fab.borrow_mut();
            let dur = f.cfg.serialization_time(rec.chunk_bytes)
                + f.cfg.per_chunk_overhead
                + if rec.first_chunk {
                    f.cfg.per_message_overhead
                } else {
                    SimTime::ZERO
                };
            f.nics[dst].rx.charge(sim, dur, move |sim| {
                let dst = rec.dst;
                if let Some(payload) = rec.finale.take() {
                    {
                        let mut f = fab2.borrow_mut();
                        f.nics[dst].rx_msgs.inc();
                        f.nics[dst].rx_bytes.add(rec.size as u64);
                    }
                    Fabric::deliver(
                        &fab2,
                        sim,
                        Delivery {
                            src: rec.src,
                            dst,
                            size: rec.size,
                            msg_id: rec.msg_id,
                            payload,
                            sent_at: rec.sent_at,
                        },
                    );
                }
            });
        }
        fab.borrow_mut().rx_cal.recycle(batch);
    }

    /// Buffer a chunk in its source pod's up-link calendar (same-instant
    /// slot: tx-done ties from different NICs of one pod).
    fn up_push(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime, rec: Box<ChunkRec>) {
        let vacant = fab.borrow_mut().up_cal.push(pod, t, rec);
        if vacant {
            let fab2 = fab.clone();
            sim.schedule_now(move |sim| Fabric::drain_up(&fab2, sim, pod, t));
        }
    }

    /// Serialize the key-sorted batch through the pod up-link; each chunk's
    /// completion launches it across the spine toward the destination
    /// pod's down-link.
    fn drain_up(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime) {
        let mut batch = fab.borrow_mut().up_cal.drain(pod, t);
        for rec in batch.drain(..) {
            let fab2 = fab.clone();
            let mut f = fab.borrow_mut();
            let ft = match &f.cfg.topology {
                Topology::FatTree(ft) => ft,
                Topology::Flat => unreachable!("up-link on flat topology"),
            };
            let dur = f.cfg.link_time(rec.chunk_bytes, ft.link_bandwidth_gbps);
            f.pods[pod].up.charge(sim, dur, move |sim| {
                let (spine, dst_pod) = {
                    let f = fab2.borrow();
                    let ft = match &f.cfg.topology {
                        Topology::FatTree(ft) => ft,
                        Topology::Flat => unreachable!("up-link on flat topology"),
                    };
                    (ft.spine_latency, f.cfg.pod_of(rec.dst))
                };
                let ingress = sim.now() + spine;
                Fabric::down_push(&fab2, sim, dst_pod, ingress, rec);
            });
        }
        fab.borrow_mut().up_cal.recycle(batch);
    }

    /// Buffer a post-spine chunk in the destination pod's down-link
    /// calendar (a strictly-future slot: the spine latency is nonzero).
    fn down_push(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime, rec: Box<ChunkRec>) {
        let vacant = fab.borrow_mut().down_cal.push(pod, t, rec);
        if vacant {
            let fab2 = fab.clone();
            let drain = move |sim: &mut Sim| Fabric::drain_down(&fab2, sim, pod, t);
            if t <= sim.now() {
                sim.schedule_now(drain);
            } else {
                sim.schedule_at(t, drain);
            }
        }
    }

    /// Serialize the key-sorted batch through the pod down-link; each
    /// chunk's completion takes the last intra-pod wire hop into the
    /// destination NIC's receive calendar.
    fn drain_down(fab: &FabricHandle, sim: &mut Sim, pod: usize, t: SimTime) {
        let mut batch = fab.borrow_mut().down_cal.drain(pod, t);
        for rec in batch.drain(..) {
            let fab2 = fab.clone();
            let mut f = fab.borrow_mut();
            let ft = match &f.cfg.topology {
                Topology::FatTree(ft) => ft,
                Topology::Flat => unreachable!("down-link on flat topology"),
            };
            let dur = f.cfg.link_time(rec.chunk_bytes, ft.link_bandwidth_gbps);
            f.pods[pod].down.charge(sim, dur, move |sim| {
                let t = sim.now() + fab2.borrow().cfg.wire_latency;
                Fabric::rx_push(&fab2, sim, t, rec);
            });
        }
        fab.borrow_mut().down_cal.recycle(batch);
    }

    fn deliver(fab: &FabricHandle, sim: &mut Sim, delivery: Delivery) {
        let handler = fab.borrow().handlers[delivery.dst]
            .as_ref()
            .unwrap_or_else(|| panic!("node {} has no rx handler", delivery.dst))
            .clone();
        sim.schedule_now(move |sim| {
            (handler.borrow_mut())(sim, delivery);
        });
    }
}

/// Convenience: wrap a closure as an [`RxHandler`].
pub fn rx_handler(f: impl FnMut(&mut Sim, Delivery) + 'static) -> RxHandler {
    Rc::new(RefCell::new(f))
}
