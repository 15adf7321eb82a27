//! LCI state machines: the three protocols, completion machinery,
//! packet-pool back-pressure and explicit progress.
//!
//! Every message on the fabric is an [`LWire`] record in the world's
//! [`Slab`], sent as its id. The receiving node's handler queues the id;
//! `progress` takes the record out by value. Direct sends and receives
//! live in per-endpoint slabs, and
//! completions name a registered handler by id — nothing on the message
//! path is boxed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use amt_netmodel::{rx_handler, Fabric, FabricHandle, NodeId, Payload};
use amt_simnet::{EventFn, FastMap, Sim, SimTime, Slab};
use bytes::{Bytes, Frames};

use crate::costs::LciCosts;

/// LCI error codes. The only recoverable one: resources exhausted, progress
/// and resubmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LciError {
    Retry,
}

/// An arriving immediate/buffered message, handed to the endpoint's active
/// message handler inside `progress`. The receive buffer was dynamically
/// allocated from the endpoint packet pool; the consumer must return it with
/// [`Lci::buffer_free`] once done (immediate messages carry no pool buffer).
#[derive(Debug)]
pub struct AmMsg {
    pub src: NodeId,
    pub tag: u64,
    pub size: usize,
    /// Payload frames, delivered zero-copy in submission order (an
    /// aggregated send arrives as one frame per aggregated record batch).
    pub data: Frames,
    /// True if this message consumed a receive packet that must be freed.
    pub owns_packet: bool,
    /// Virtual time at which the sender injected the message (wire-latency
    /// accounting).
    pub sent_at: SimTime,
}

/// A one-sided put delivered to the endpoint's put handler (the §7
/// future-work extension: RDMA write with immediate data, no rendezvous).
#[derive(Debug)]
pub struct PutMsg {
    pub src: NodeId,
    pub rtag: u64,
    pub size: usize,
    pub data: Option<Bytes>,
    /// Immediate data carried with the write (callback descriptor).
    pub cb_data: Bytes,
    /// Virtual time at which the writer injected the data.
    pub sent_at: SimTime,
}

/// A completion record delivered to a handler.
#[derive(Debug, Clone)]
pub struct CompEntry {
    /// Peer rank (destination for send completions, source for receives).
    pub peer: NodeId,
    /// Rendezvous tag of the operation.
    pub rtag: u64,
    pub size: usize,
    /// User context value threaded through the operation.
    pub ctx: u64,
    /// Received payload, for direct-receive completions carrying real data.
    pub data: Option<Bytes>,
    /// For receive completions: when the peer injected the data
    /// ([`SimTime::ZERO`] for local send completions).
    pub sent_at: SimTime,
}

/// Completion-handler handle (`LCI_handler_create`): the handler is
/// registered once with [`Lci::handler_new`] and named by every operation
/// that completes through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerId {
    rank: NodeId,
    idx: usize,
}

/// Where to deliver a completion. The [`CompEntry`]'s `ctx` identifies the
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnComplete {
    /// Run the handler inside `progress` on the progressing thread; the
    /// returned cost is charged to that thread.
    Handler(HandlerId),
    /// Drop the completion.
    None,
}

struct SendD {
    dst: NodeId,
    rtag: u64,
    size: usize,
    data: Option<Bytes>,
    ctx: u64,
    on_local: OnComplete,
}

struct RecvD {
    src: NodeId,
    rtag: u64,
    ctx: u64,
    on_complete: OnComplete,
}

/// A message on the fabric, held in [`LciWorld::wires`] while in flight.
enum LWire {
    Imm {
        src: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    },
    Buf {
        src: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    },
    Rts {
        src: NodeId,
        rtag: u64,
        sendd_idx: u32,
    },
    Rtr {
        sendd_idx: u32,
        recvd_idx: u32,
        recver: NodeId,
    },
    Data {
        recvd_idx: u32,
        src: NodeId,
        rtag: u64,
        size: usize,
        data: Option<Bytes>,
    },
    /// One-sided put: RDMA write with immediate data into a pre-registered
    /// segment (§7 future work). No matching at the target.
    PutD {
        src: NodeId,
        rtag: u64,
        size: usize,
        data: Option<Bytes>,
        cb_data: Bytes,
    },
}

type AmHandler = Rc<dyn Fn(&mut Sim, AmMsg) -> SimTime>;
type PutHandler = Rc<dyn Fn(&mut Sim, PutMsg) -> SimTime>;
type HandlerFn = Rc<dyn Fn(&mut Sim, CompEntry) -> SimTime>;
type Waker = Rc<dyn Fn(&mut Sim)>;

struct EpState {
    am_handler: Option<AmHandler>,
    put_handler: Option<PutHandler>,
    /// Delivered messages awaiting `progress`: [`LciWorld::wires`] ids and
    /// injection times.
    incoming: VecDeque<(u32, SimTime)>,
    /// Hardware send completions awaiting surfacing by `progress`.
    local_done: VecDeque<u32>,
    tx_packets_avail: usize,
    rx_packets_avail: usize,
    sendd: Slab<SendD>,
    recvd: Slab<RecvD>,
    posted_count: usize,
    /// Posted receives per `(src, rtag)`: `recvd` ids, oldest first.
    posted: FastMap<(NodeId, u64), Fifo>,
    /// RTSes waiting for a receive per `(src, rtag)`: `sendd` ids of the
    /// sender `src`, oldest first.
    pending_rts: FastMap<(NodeId, u64), Fifo>,
    /// The links of every `posted` and `pending_rts` FIFO.
    fifo_links: Slab<FifoLink>,
    handlers: Vec<HandlerFn>,
    waker: Option<Waker>,
    retries: u64,
}

impl EpState {
    fn new(costs: &LciCosts) -> Self {
        EpState {
            am_handler: None,
            put_handler: None,
            incoming: VecDeque::new(),
            local_done: VecDeque::new(),
            tx_packets_avail: costs.tx_packets,
            rx_packets_avail: costs.rx_packets,
            sendd: Slab::default(),
            recvd: Slab::default(),
            posted_count: 0,
            posted: FastMap::default(),
            pending_rts: FastMap::default(),
            fifo_links: Slab::default(),
            handlers: Vec::new(),
            waker: None,
            retries: 0,
        }
    }
}

/// One matching-FIFO entry in [`EpState::fifo_links`].
struct FifoLink {
    id: u32,
    next: u32,
}

/// First and last link of one non-empty matching FIFO.
struct Fifo {
    head: u32,
    tail: u32,
}

/// Append `id` to `key`'s FIFO in `map`.
fn push_fifo(
    map: &mut FastMap<(NodeId, u64), Fifo>,
    links: &mut Slab<FifoLink>,
    key: (NodeId, u64),
    id: u32,
) {
    let at = links.insert(FifoLink { id, next: u32::MAX });
    match map.get_mut(&key) {
        Some(q) => {
            links.get_mut(q.tail).next = at;
            q.tail = at;
        }
        None => {
            map.insert(key, Fifo { head: at, tail: at });
        }
    }
}

/// Pop the front of `key`'s FIFO in `map`, dropping the FIFO once empty.
fn pop_fifo(
    map: &mut FastMap<(NodeId, u64), Fifo>,
    links: &mut Slab<FifoLink>,
    key: (NodeId, u64),
) -> Option<u32> {
    let q = map.get_mut(&key)?;
    let front = links.take(q.head);
    if q.head == q.tail {
        map.remove(&key);
    } else {
        q.head = front.next;
    }
    Some(front.id)
}

/// The LCI "world": one device spanning every fabric node, one endpoint per
/// node.
pub struct LciWorld {
    fabric: FabricHandle,
    costs: LciCosts,
    eps: Vec<EpState>,
    /// Messages from send until their destination progresses them, by the
    /// id their `Payload::Wire` carries.
    wires: Slab<LWire>,
}

impl LciWorld {
    /// Create a world over `fabric`, registering receive handlers on every
    /// node. Returns per-rank endpoints.
    pub fn create(fabric: &FabricHandle, costs: LciCosts) -> Vec<Lci> {
        let nodes = fabric.borrow().nodes();
        let eps = (0..nodes).map(|_| EpState::new(&costs)).collect();
        let world = Rc::new(RefCell::new(LciWorld {
            fabric: fabric.clone(),
            costs,
            eps,
            wires: Slab::default(),
        }));
        for node in 0..nodes {
            // Weak: the fabric must not keep the world alive (the world
            // holds the fabric; a strong reference here would leak both).
            let w = Rc::downgrade(&world);
            fabric.borrow_mut().set_handler(
                node,
                rx_handler(move |sim, d| {
                    let Some(w) = w.upgrade() else { return };
                    let waker = {
                        let mut wb = w.borrow_mut();
                        wb.eps[node]
                            .incoming
                            .push_back((d.payload.expect_wire(), d.sent_at));
                        wb.eps[node].waker.clone()
                    };
                    if let Some(waker) = waker {
                        waker(sim);
                    }
                }),
            );
        }
        (0..nodes)
            .map(|rank| Lci {
                world: world.clone(),
                rank,
            })
            .collect()
    }
}

/// Per-rank LCI endpoint handle.
#[derive(Clone)]
pub struct Lci {
    world: Rc<RefCell<LciWorld>>,
    rank: NodeId,
}

/// A [`Lci`] handle that does not keep the world alive: what a handler
/// stored *inside* the world must capture, or world and handler own each
/// other and neither is ever freed.
pub struct WeakLci {
    world: Weak<RefCell<LciWorld>>,
    rank: NodeId,
}

impl WeakLci {
    /// The endpoint, if its world is still alive.
    pub fn upgrade(&self) -> Option<Lci> {
        self.world.upgrade().map(|world| Lci {
            world,
            rank: self.rank,
        })
    }
}

impl Lci {
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// A handle to this endpoint that does not own the world.
    pub fn downgrade(&self) -> WeakLci {
        WeakLci {
            world: Rc::downgrade(&self.world),
            rank: self.rank,
        }
    }

    pub fn costs(&self) -> LciCosts {
        self.world.borrow().costs.clone()
    }

    /// Register the active-message handler invoked (inside `progress`) for
    /// every arriving immediate/buffered message.
    pub fn set_am_handler(&self, h: impl Fn(&mut Sim, AmMsg) -> SimTime + 'static) {
        self.world.borrow_mut().eps[self.rank].am_handler = Some(Rc::new(h));
    }

    /// Register the handler invoked (inside `progress`) for every arriving
    /// one-sided put (§7 direct-put extension).
    pub fn set_put_handler(&self, h: impl Fn(&mut Sim, PutMsg) -> SimTime + 'static) {
        self.world.borrow_mut().eps[self.rank].put_handler = Some(Rc::new(h));
    }

    /// Register a waker fired when new work becomes available for
    /// `progress` (arrival, hardware completion, freed resources).
    pub fn set_waker(&self, waker: impl Fn(&mut Sim) + 'static) {
        self.world.borrow_mut().eps[self.rank].waker = Some(Rc::new(waker));
    }

    fn wake(&self, sim: &mut Sim) {
        let waker = self.world.borrow().eps[self.rank].waker.clone();
        if let Some(w) = waker {
            w(sim);
        }
    }

    /// Number of `Retry` failures observed on this endpoint (diagnostics).
    pub fn retries(&self) -> u64 {
        self.world.borrow().eps[self.rank].retries
    }

    /// Put `wire` on the fabric to `dst` as a `size`-byte message: the
    /// record waits in [`LciWorld::wires`], the fabric carries its id.
    fn send_wire(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        size: usize,
        wire: LWire,
        on_tx_done: Option<EventFn>,
    ) {
        let (fabric, id) = {
            let mut w = self.world.borrow_mut();
            (w.fabric.clone(), w.wires.insert(wire))
        };
        Fabric::send(
            &fabric,
            sim,
            self.rank,
            dst,
            size,
            Payload::Wire(id),
            on_tx_done,
        );
    }

    /// Tx-done callback surfacing direct send `idx`'s local completion in
    /// the next `progress`. The endpoint plus `idx` is three words: stored
    /// inline in the `EventFn`, no allocation.
    fn on_sent(&self, idx: u32) -> EventFn {
        let ep = self.clone();
        EventFn::new(move |sim| {
            ep.world.borrow_mut().eps[ep.rank].local_done.push_back(idx);
            ep.wake(sim);
        })
    }

    /// Immediate send: payload up to a cache line, inline, fire-and-forget.
    pub fn sendi(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) -> Result<SimTime, LciError> {
        let costs = self.costs();
        assert!(size <= costs.imm_max, "sendi payload too large: {size}");
        let wire = LWire::Imm {
            src: self.rank,
            tag,
            size,
            data,
        };
        self.send_wire(sim, dst, size + costs.header_bytes, wire, None);
        Ok(costs.call_base + costs.sendi_base)
    }

    /// Buffered send: payload up to [`LciCosts::buf_max`], copied into a
    /// packet from the bounded transmit pool. Completes locally at copy
    /// time. Fails with `Retry` when the pool is empty.
    pub fn sendb(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) -> Result<SimTime, LciError> {
        let costs = {
            let mut w = self.world.borrow_mut();
            let costs = w.costs.clone();
            assert!(size <= costs.buf_max, "sendb payload too large: {size}");
            let ep = &mut w.eps[self.rank];
            if ep.tx_packets_avail == 0 {
                ep.retries += 1;
                return Err(LciError::Retry);
            }
            ep.tx_packets_avail -= 1;
            costs
        };
        let wire = LWire::Buf {
            src: self.rank,
            tag,
            size,
            data,
        };
        // The packet returns to the pool once the NIC is done with it. The
        // endpoint is two words: the callback stores inline, no allocation.
        let ep = self.clone();
        let packet_free = EventFn::new(move |sim| {
            ep.world.borrow_mut().eps[ep.rank].tx_packets_avail += 1;
            ep.wake(sim);
        });
        self.send_wire(sim, dst, size + costs.header_bytes, wire, Some(packet_free));
        Ok(costs.call_base + costs.sendb_base + costs.copy_cost(size))
    }

    /// Claim a direct-send slot, or fail with `Retry` when
    /// [`LciCosts::max_outstanding_sendd`] are outstanding.
    fn alloc_sendd(&self, s: SendD) -> Result<(u32, LciCosts), LciError> {
        let mut w = self.world.borrow_mut();
        let costs = w.costs.clone();
        let ep = &mut w.eps[self.rank];
        if ep.sendd.len() >= costs.max_outstanding_sendd {
            ep.retries += 1;
            return Err(LciError::Retry);
        }
        Ok((ep.sendd.insert(s), costs))
    }

    /// Direct send: any length, zero-copy RDMA behind an RTS/RTR
    /// rendezvous. `on_local` fires (inside the sender's `progress`) when
    /// the data has left the NIC. Fails with `Retry` when too many direct
    /// sends are outstanding.
    #[allow(clippy::too_many_arguments)]
    pub fn sendd(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        rtag: u64,
        size: usize,
        data: Option<Bytes>,
        ctx: u64,
        on_local: OnComplete,
    ) -> Result<SimTime, LciError> {
        let (idx, costs) = self.alloc_sendd(SendD {
            dst,
            rtag,
            size,
            data,
            ctx,
            on_local,
        })?;
        let wire = LWire::Rts {
            src: self.rank,
            rtag,
            sendd_idx: idx,
        };
        self.send_wire(sim, dst, costs.header_bytes, wire, None);
        Ok(costs.call_base + costs.sendd_base)
    }

    /// One-sided put (§7 future work): a single RDMA write with immediate
    /// data into the target's pre-registered segment; the target's put
    /// handler fires inside its `progress`, with no matching or rendezvous.
    /// `on_local` fires (inside the sender's `progress`) once the data has
    /// left the NIC. Fails with `Retry` when too many writes are
    /// outstanding.
    #[allow(clippy::too_many_arguments)]
    pub fn putd(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        rtag: u64,
        size: usize,
        data: Option<Bytes>,
        cb_data: Bytes,
        ctx: u64,
        on_local: OnComplete,
    ) -> Result<SimTime, LciError> {
        let (idx, costs) = self.alloc_sendd(SendD {
            dst,
            rtag,
            size,
            data: None,
            ctx,
            on_local,
        })?;
        let wire = LWire::PutD {
            src: self.rank,
            rtag,
            size,
            data,
            cb_data,
        };
        let wire_size = size + costs.header_bytes + 32;
        self.send_wire(sim, dst, wire_size, wire, Some(self.on_sent(idx)));
        Ok(costs.call_base + costs.sendd_base)
    }

    /// Post a direct receive matching `(src, rtag)`. Fails with `Retry`
    /// when posted-receive resources are exhausted — the case §5.3.3
    /// delegates from the progress thread to the communication thread.
    pub fn recvd(
        &self,
        sim: &mut Sim,
        src: NodeId,
        rtag: u64,
        ctx: u64,
        on_complete: OnComplete,
    ) -> Result<SimTime, LciError> {
        let (matched, costs) = {
            let mut w = self.world.borrow_mut();
            let costs = w.costs.clone();
            let ep = &mut w.eps[self.rank];
            if ep.posted_count >= costs.max_posted_recvd {
                ep.retries += 1;
                return Err(LciError::Retry);
            }
            ep.posted_count += 1;
            let idx = ep.recvd.insert(RecvD {
                src,
                rtag,
                ctx,
                on_complete,
            });
            // An RTS may already be waiting.
            let rts = pop_fifo(&mut ep.pending_rts, &mut ep.fifo_links, (src, rtag));
            if rts.is_none() {
                push_fifo(&mut ep.posted, &mut ep.fifo_links, (src, rtag), idx);
            }
            (rts.map(|sendd_idx| (sendd_idx, idx)), costs)
        };
        if let Some((sendd_idx, recvd_idx)) = matched {
            let wire = LWire::Rtr {
                sendd_idx,
                recvd_idx,
                recver: self.rank,
            };
            self.send_wire(sim, src, costs.header_bytes, wire, None);
        }
        Ok(costs.call_base + costs.recvd_base)
    }

    /// Return a dynamically allocated receive buffer to the packet pool.
    pub fn buffer_free(&self, sim: &mut Sim) {
        let stalled = {
            let mut w = self.world.borrow_mut();
            let cap = w.costs.rx_packets;
            let ep = &mut w.eps[self.rank];
            assert!(
                ep.rx_packets_avail < cap,
                "buffer_free without matching allocation"
            );
            ep.rx_packets_avail += 1;
            !ep.incoming.is_empty()
        };
        if stalled {
            self.wake(sim);
        }
    }

    /// Register a completion handler (`LCI_handler_create`), run inside
    /// `progress` for every operation completing with
    /// [`OnComplete::Handler`] of the returned id; its returned cost is
    /// charged to the progressing thread. Handlers live as long as the
    /// world: one that captures the world must hold a [`WeakLci`].
    pub fn handler_new(&self, h: impl Fn(&mut Sim, CompEntry) -> SimTime + 'static) -> HandlerId {
        let mut w = self.world.borrow_mut();
        let ep = &mut w.eps[self.rank];
        ep.handlers.push(Rc::new(h));
        HandlerId {
            rank: self.rank,
            idx: ep.handlers.len() - 1,
        }
    }

    fn deliver(&self, sim: &mut Sim, on: OnComplete, entry: CompEntry) -> SimTime {
        let costs = self.costs();
        match on {
            OnComplete::Handler(h) => {
                assert_eq!(h.rank, self.rank, "handler used on wrong rank");
                let f = self.world.borrow().eps[self.rank].handlers[h.idx].clone();
                costs.handler_base + f(sim, entry)
            }
            OnComplete::None => SimTime::ZERO,
        }
    }

    /// Explicit progress (§5.3.1): drain hardware completions and incoming
    /// messages, dispatch active-message handlers, answer rendezvous RTSs,
    /// start RDMA transfers on RTR, and complete direct receives. Returns
    /// the CPU cost of everything done, including handler execution — charge
    /// it to the progressing thread's core.
    pub fn progress(&self, sim: &mut Sim) -> SimTime {
        let mut cost = self.world.borrow().costs.call_base;
        loop {
            // 1. Surface hardware send completions.
            let local = self.world.borrow_mut().eps[self.rank]
                .local_done
                .pop_front();
            if let Some(sendd_idx) = local {
                let (entry, on_local, costs) = {
                    let mut w = self.world.borrow_mut();
                    let costs = w.costs.clone();
                    let s = w.eps[self.rank].sendd.take(sendd_idx);
                    let entry = CompEntry {
                        peer: s.dst,
                        rtag: s.rtag,
                        size: s.size,
                        ctx: s.ctx,
                        data: None,
                        sent_at: SimTime::ZERO,
                    };
                    (entry, s.on_local, costs)
                };
                cost += costs.progress_per_msg + self.deliver(sim, on_local, entry);
                continue;
            }

            // 2. Process one incoming wire message.
            let (wire, sent_at) = {
                let w = &mut *self.world.borrow_mut();
                let ep = &mut w.eps[self.rank];
                let Some(&(id, sent_at)) = ep.incoming.front() else {
                    break;
                };
                if let LWire::Buf { .. } = w.wires.get(id) {
                    // Buffered messages need a receive packet; stall the
                    // (FIFO) hardware queue when the pool is dry.
                    if ep.rx_packets_avail == 0 {
                        break;
                    }
                    ep.rx_packets_avail -= 1;
                }
                ep.incoming.pop_front();
                (w.wires.take(id), sent_at)
            };
            cost += self.process_wire(sim, wire, sent_at);
        }
        cost
    }

    fn process_wire(&self, sim: &mut Sim, wire: LWire, sent_at: SimTime) -> SimTime {
        let costs = self.costs();
        let mut cost = costs.progress_per_msg;
        match wire {
            LWire::Imm {
                src,
                tag,
                size,
                data,
            } => {
                let h = self.am_handler();
                cost += costs.handler_base
                    + h(
                        sim,
                        AmMsg {
                            src,
                            tag,
                            size,
                            data,
                            owns_packet: false,
                            sent_at,
                        },
                    );
            }
            LWire::Buf {
                src,
                tag,
                size,
                data,
            } => {
                let h = self.am_handler();
                cost += costs.handler_base
                    + costs.copy_cost(size)
                    + h(
                        sim,
                        AmMsg {
                            src,
                            tag,
                            size,
                            data,
                            owns_packet: true,
                            sent_at,
                        },
                    );
            }
            LWire::Rts {
                src,
                rtag,
                sendd_idx,
            } => {
                let matched = {
                    let ep = &mut self.world.borrow_mut().eps[self.rank];
                    pop_fifo(&mut ep.posted, &mut ep.fifo_links, (src, rtag))
                };
                match matched {
                    Some(recvd_idx) => {
                        let wire = LWire::Rtr {
                            sendd_idx,
                            recvd_idx,
                            recver: self.rank,
                        };
                        self.send_wire(sim, src, costs.header_bytes, wire, None);
                    }
                    None => {
                        let ep = &mut self.world.borrow_mut().eps[self.rank];
                        push_fifo(
                            &mut ep.pending_rts,
                            &mut ep.fifo_links,
                            (src, rtag),
                            sendd_idx,
                        );
                    }
                }
            }
            LWire::Rtr {
                sendd_idx,
                recvd_idx,
                recver,
            } => {
                // We are the sender: fire the RDMA write.
                let (size, data, rtag) = {
                    let mut w = self.world.borrow_mut();
                    let s = w.eps[self.rank].sendd.get_mut(sendd_idx);
                    (s.size, s.data.take(), s.rtag)
                };
                let wire = LWire::Data {
                    recvd_idx,
                    src: self.rank,
                    rtag,
                    size,
                    data,
                };
                let wire_size = size + costs.header_bytes;
                self.send_wire(sim, recver, wire_size, wire, Some(self.on_sent(sendd_idx)));
            }
            LWire::PutD {
                src,
                rtag,
                size,
                data,
                cb_data,
            } => {
                let h = self.world.borrow().eps[self.rank]
                    .put_handler
                    .clone()
                    .expect("no put handler registered");
                cost += costs.handler_base
                    + h(
                        sim,
                        PutMsg {
                            src,
                            rtag,
                            size,
                            data,
                            cb_data,
                            sent_at,
                        },
                    );
            }
            LWire::Data {
                recvd_idx,
                src,
                rtag,
                size,
                data,
            } => {
                let r = {
                    let mut w = self.world.borrow_mut();
                    let ep = &mut w.eps[self.rank];
                    ep.posted_count -= 1;
                    ep.recvd.take(recvd_idx)
                };
                debug_assert_eq!((r.src, r.rtag), (src, rtag));
                let entry = CompEntry {
                    peer: src,
                    rtag,
                    size,
                    ctx: r.ctx,
                    data,
                    sent_at,
                };
                cost += self.deliver(sim, r.on_complete, entry);
            }
        }
        cost
    }

    fn am_handler(&self) -> AmHandler {
        self.world.borrow().eps[self.rank]
            .am_handler
            .clone()
            .expect("no AM handler registered")
    }

    /// Anything waiting for `progress`? (diagnostics / poll gating)
    pub fn has_work(&self) -> bool {
        let w = self.world.borrow();
        let ep = &w.eps[self.rank];
        !ep.incoming.is_empty() || !ep.local_done.is_empty()
    }

    /// Depth of the incoming hardware queue (diagnostics).
    pub fn incoming_depth(&self) -> usize {
        self.world.borrow().eps[self.rank].incoming.len()
    }

    /// Messages of this endpoint's whole world sent but not yet progressed
    /// by their destination. Zero once a run has drained; more means a wire
    /// record was stored and never taken (diagnostics).
    pub fn wires_in_flight(&self) -> usize {
        self.world.borrow().wires.len()
    }
}
