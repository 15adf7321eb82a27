//! LCI state machines: the three protocols, completion machinery,
//! packet-pool back-pressure and explicit progress.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use amt_netmodel::{rx_handler, Fabric, FabricHandle, NodeId, Payload};
use amt_simnet::{EventFn, FastMap, Sim, SimTime};
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

/// A completion record delivered through a handler, completion queue, or
/// synchronizer.
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

/// Completion-queue handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqId {
    rank: NodeId,
    idx: usize,
}

/// Synchronizer handle (one-shot; re-armed by `sync_test` consuming it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncId {
    rank: NodeId,
    idx: usize,
}

/// Where to deliver a completion.
/// A one-shot completion handler run inside `progress`.
pub type CompHandler = Box<dyn FnOnce(&mut Sim, CompEntry) -> SimTime>;

pub enum OnComplete {
    /// Run inside `progress` on the progressing thread; the returned cost is
    /// charged to that thread.
    Handler(CompHandler),
    /// Push onto a completion queue (polled by any thread).
    Queue(CqId),
    /// Signal a synchronizer.
    Sync(SyncId),
    /// Drop the completion.
    None,
}

struct SendD {
    dst: NodeId,
    rtag: u64,
    size: usize,
    data: Option<Bytes>,
    ctx: u64,
    on_local: Option<OnComplete>,
}

struct RecvD {
    src: NodeId,
    rtag: u64,
    ctx: u64,
    on_complete: Option<OnComplete>,
}

struct RtsInfo {
    src: NodeId,
    sendd_idx: usize,
}

enum LWire {
    Imm {
        src: NodeId,
        tag: u64,
        size: usize,
        data: RefCell<Frames>,
    },
    Buf {
        src: NodeId,
        tag: u64,
        size: usize,
        data: RefCell<Frames>,
    },
    Rts {
        src: NodeId,
        rtag: u64,
        size: usize,
        sendd_idx: usize,
    },
    Rtr {
        sendd_idx: usize,
        recvd_idx: usize,
        recver: NodeId,
    },
    Data {
        recvd_idx: usize,
        src: NodeId,
        rtag: u64,
        size: usize,
        data: RefCell<Option<Bytes>>,
    },
    /// One-sided put: RDMA write with immediate data into a pre-registered
    /// segment (§7 future work). No matching at the target.
    PutD {
        src: NodeId,
        rtag: u64,
        size: usize,
        data: RefCell<Option<Bytes>>,
        cb_data: Bytes,
    },
}

type AmHandler = Rc<dyn Fn(&mut Sim, AmMsg) -> SimTime>;
type PutHandler = Rc<dyn Fn(&mut Sim, PutMsg) -> SimTime>;
type Waker = Rc<dyn Fn(&mut Sim)>;

struct EpState {
    am_handler: Option<AmHandler>,
    put_handler: Option<PutHandler>,
    incoming: VecDeque<(Box<LWire>, SimTime)>,
    /// Hardware send completions awaiting surfacing by `progress`.
    local_done: VecDeque<usize>,
    tx_packets_avail: usize,
    rx_packets_avail: usize,
    sendd: Vec<Option<SendD>>,
    sendd_free: Vec<usize>,
    recvd: Vec<Option<RecvD>>,
    recvd_free: Vec<usize>,
    posted_count: usize,
    posted: FastMap<(NodeId, u64), VecDeque<usize>>,
    pending_rts: FastMap<(NodeId, u64), VecDeque<RtsInfo>>,
    cqs: Vec<VecDeque<CompEntry>>,
    syncs: Vec<Option<CompEntry>>,
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
            sendd: Vec::new(),
            sendd_free: Vec::new(),
            recvd: Vec::new(),
            recvd_free: Vec::new(),
            posted_count: 0,
            posted: FastMap::default(),
            pending_rts: FastMap::default(),
            cqs: Vec::new(),
            syncs: Vec::new(),
            waker: None,
            retries: 0,
        }
    }

    fn alloc_sendd(&mut self, s: SendD) -> usize {
        match self.sendd_free.pop() {
            Some(i) => {
                self.sendd[i] = Some(s);
                i
            }
            None => {
                self.sendd.push(Some(s));
                self.sendd.len() - 1
            }
        }
    }

    fn alloc_recvd(&mut self, r: RecvD) -> usize {
        match self.recvd_free.pop() {
            Some(i) => {
                self.recvd[i] = Some(r);
                i
            }
            None => {
                self.recvd.push(Some(r));
                self.recvd.len() - 1
            }
        }
    }

    fn outstanding_sendd(&self) -> usize {
        self.sendd.len() - self.sendd_free.len()
    }
}

/// The LCI "world": one device spanning every fabric node, one endpoint per
/// node.
pub struct LciWorld {
    fabric: FabricHandle,
    costs: LciCosts,
    eps: Vec<EpState>,
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
        }));
        for node in 0..nodes {
            // Weak: the fabric must not keep the world alive (the world
            // holds the fabric; a strong reference here would leak both).
            let w = Rc::downgrade(&world);
            fabric.borrow_mut().set_handler(
                node,
                rx_handler(move |sim, d| {
                    let Some(w) = w.upgrade() else { return };
                    let sent_at = d.sent_at;
                    let wire = d.payload.downcast::<LWire>();
                    let waker = {
                        let mut wb = w.borrow_mut();
                        wb.eps[node].incoming.push_back((wire, sent_at));
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

    pub fn nranks(&self) -> usize {
        self.world.borrow().eps.len()
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

    /// Immediate send: payload up to a cache line, inline, fire-and-forget.
    pub fn sendi(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) -> Result<SimTime, LciError> {
        let (costs, fabric) = {
            let w = self.world.borrow();
            (w.costs.clone(), w.fabric.clone())
        };
        assert!(size <= costs.imm_max, "sendi payload too large: {size}");
        let wire = Box::new(LWire::Imm {
            src: self.rank,
            tag,
            size,
            data: RefCell::new(data),
        });
        Fabric::send(
            &fabric,
            sim,
            self.rank,
            dst,
            size + costs.header_bytes,
            Payload::Any(wire),
            None,
        );
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
        let (costs, fabric) = {
            let mut w = self.world.borrow_mut();
            let costs = w.costs.clone();
            assert!(size <= costs.buf_max, "sendb payload too large: {size}");
            let ep = &mut w.eps[self.rank];
            if ep.tx_packets_avail == 0 {
                ep.retries += 1;
                return Err(LciError::Retry);
            }
            ep.tx_packets_avail -= 1;
            (costs, w.fabric.clone())
        };
        let wire = Box::new(LWire::Buf {
            src: self.rank,
            tag,
            size,
            data: RefCell::new(data),
        });
        let world = self.world.clone();
        let rank = self.rank;
        Fabric::send(
            &fabric,
            sim,
            self.rank,
            dst,
            size + costs.header_bytes,
            Payload::Any(wire),
            // Packet returns to the pool once the NIC is done with it.
            // (world, rank) is two words: the callback stores inline, no alloc.
            Some(EventFn::new(move |sim| {
                let waker = {
                    let mut w = world.borrow_mut();
                    w.eps[rank].tx_packets_avail += 1;
                    w.eps[rank].waker.clone()
                };
                if let Some(w) = waker {
                    w(sim);
                }
            })),
        );
        Ok(costs.call_base + costs.sendb_base + costs.copy_cost(size))
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
        let (costs, fabric, idx) = {
            let mut w = self.world.borrow_mut();
            let costs = w.costs.clone();
            let max = costs.max_outstanding_sendd;
            let ep = &mut w.eps[self.rank];
            if ep.outstanding_sendd() >= max {
                ep.retries += 1;
                return Err(LciError::Retry);
            }
            let idx = ep.alloc_sendd(SendD {
                dst,
                rtag,
                size,
                data,
                ctx,
                on_local: Some(on_local),
            });
            (costs, w.fabric.clone(), idx)
        };
        let wire = Box::new(LWire::Rts {
            src: self.rank,
            rtag,
            size,
            sendd_idx: idx,
        });
        Fabric::send(
            &fabric,
            sim,
            self.rank,
            dst,
            costs.header_bytes,
            Payload::Any(wire),
            None,
        );
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
        let (costs, fabric, idx) = {
            let mut w = self.world.borrow_mut();
            let costs = w.costs.clone();
            let max = costs.max_outstanding_sendd;
            let ep = &mut w.eps[self.rank];
            if ep.outstanding_sendd() >= max {
                ep.retries += 1;
                return Err(LciError::Retry);
            }
            let idx = ep.alloc_sendd(SendD {
                dst,
                rtag,
                size,
                data: None,
                ctx,
                on_local: Some(on_local),
            });
            (costs, w.fabric.clone(), idx)
        };
        let wire = Box::new(LWire::PutD {
            src: self.rank,
            rtag,
            size,
            data: RefCell::new(data),
            cb_data,
        });
        let world = self.world.clone();
        let rank = self.rank;
        Fabric::send(
            &fabric,
            sim,
            self.rank,
            dst,
            size + costs.header_bytes + 32,
            Payload::Any(wire),
            // (world, rank, idx) is three words: stored inline, no alloc.
            Some(EventFn::new(move |sim| {
                let waker = {
                    let mut w = world.borrow_mut();
                    w.eps[rank].local_done.push_back(idx);
                    w.eps[rank].waker.clone()
                };
                if let Some(w) = waker {
                    w(sim);
                }
            })),
        );
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
        let matched = {
            let mut w = self.world.borrow_mut();
            let costs = w.costs.clone();
            let ep = &mut w.eps[self.rank];
            if ep.posted_count >= costs.max_posted_recvd {
                ep.retries += 1;
                return Err(LciError::Retry);
            }
            ep.posted_count += 1;
            let idx = ep.alloc_recvd(RecvD {
                src,
                rtag,
                ctx,
                on_complete: Some(on_complete),
            });
            // An RTS may already be waiting.
            let rts = match ep.pending_rts.get_mut(&(src, rtag)) {
                Some(q) => {
                    let info = q.pop_front();
                    if q.is_empty() {
                        ep.pending_rts.remove(&(src, rtag));
                    }
                    info
                }
                None => None,
            };
            match rts {
                Some(info) => Some((info, idx, w.fabric.clone(), costs)),
                None => {
                    ep.posted.entry((src, rtag)).or_default().push_back(idx);
                    None
                }
            }
        };
        let cost = {
            let w = self.world.borrow();
            w.costs.call_base + w.costs.recvd_base
        };
        if let Some((info, recvd_idx, fabric, costs)) = matched {
            let wire = Box::new(LWire::Rtr {
                sendd_idx: info.sendd_idx,
                recvd_idx,
                recver: self.rank,
            });
            Fabric::send(
                &fabric,
                sim,
                self.rank,
                info.src,
                costs.header_bytes,
                Payload::Any(wire),
                None,
            );
        }
        Ok(cost)
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

    /// Create a completion queue.
    pub fn cq_new(&self) -> CqId {
        let mut w = self.world.borrow_mut();
        let ep = &mut w.eps[self.rank];
        ep.cqs.push(VecDeque::new());
        CqId {
            rank: self.rank,
            idx: ep.cqs.len() - 1,
        }
    }

    /// Pop one entry from a completion queue.
    pub fn cq_poll(&self, cq: CqId) -> Option<CompEntry> {
        assert_eq!(cq.rank, self.rank, "CQ used on wrong rank");
        self.world.borrow_mut().eps[self.rank].cqs[cq.idx].pop_front()
    }

    /// Create a synchronizer.
    pub fn sync_new(&self) -> SyncId {
        let mut w = self.world.borrow_mut();
        let ep = &mut w.eps[self.rank];
        ep.syncs.push(None);
        SyncId {
            rank: self.rank,
            idx: ep.syncs.len() - 1,
        }
    }

    /// Test-and-consume a synchronizer.
    pub fn sync_test(&self, sync: SyncId) -> Option<CompEntry> {
        assert_eq!(sync.rank, self.rank, "synchronizer used on wrong rank");
        self.world.borrow_mut().eps[self.rank].syncs[sync.idx].take()
    }

    fn deliver(&self, sim: &mut Sim, on: OnComplete, entry: CompEntry) -> SimTime {
        let costs = self.world.borrow().costs.clone();
        match on {
            OnComplete::Handler(h) => costs.handler_base + h(sim, entry),
            OnComplete::Queue(cq) => {
                assert_eq!(cq.rank, self.rank);
                self.world.borrow_mut().eps[self.rank].cqs[cq.idx].push_back(entry);
                costs.handler_base
            }
            OnComplete::Sync(s) => {
                assert_eq!(s.rank, self.rank);
                let prev = self.world.borrow_mut().eps[self.rank].syncs[s.idx].replace(entry);
                assert!(prev.is_none(), "synchronizer signalled twice");
                costs.handler_base
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
                    let ep = &mut w.eps[self.rank];
                    let mut s = ep.sendd[sendd_idx].take().expect("sendd slot empty");
                    ep.sendd_free.push(sendd_idx);
                    (
                        CompEntry {
                            peer: s.dst,
                            rtag: s.rtag,
                            size: s.size,
                            ctx: s.ctx,
                            data: None,
                            sent_at: SimTime::ZERO,
                        },
                        s.on_local.take().expect("sendd completion consumed twice"),
                        costs,
                    )
                };
                cost += costs.progress_per_msg + self.deliver(sim, on_local, entry);
                continue;
            }

            // 2. Process one incoming wire message.
            let (wire, sent_at) = {
                let mut w = self.world.borrow_mut();
                let ep = &mut w.eps[self.rank];
                match ep.incoming.front() {
                    None => break,
                    Some((front, _)) => {
                        // Buffered messages need a receive packet; stall the
                        // (FIFO) hardware queue when the pool is dry.
                        if matches!(**front, LWire::Buf { .. }) && ep.rx_packets_avail == 0 {
                            break;
                        }
                        if matches!(**front, LWire::Buf { .. }) {
                            ep.rx_packets_avail -= 1;
                        }
                        ep.incoming.pop_front().expect("front checked")
                    }
                }
            };
            cost += self.process_wire(sim, &wire, sent_at);
        }
        cost
    }

    fn process_wire(&self, sim: &mut Sim, wire: &LWire, sent_at: SimTime) -> SimTime {
        let costs = self.world.borrow().costs.clone();
        let mut cost = costs.progress_per_msg;
        match wire {
            LWire::Imm {
                src,
                tag,
                size,
                data,
            } => {
                let h = self.world.borrow().eps[self.rank]
                    .am_handler
                    .clone()
                    .expect("no AM handler registered");
                cost += costs.handler_base
                    + h(
                        sim,
                        AmMsg {
                            src: *src,
                            tag: *tag,
                            size: *size,
                            data: data.borrow_mut().take(),
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
                let h = self.world.borrow().eps[self.rank]
                    .am_handler
                    .clone()
                    .expect("no AM handler registered");
                cost += costs.handler_base
                    + costs.copy_cost(*size)
                    + h(
                        sim,
                        AmMsg {
                            src: *src,
                            tag: *tag,
                            size: *size,
                            data: data.borrow_mut().take(),
                            owns_packet: true,
                            sent_at,
                        },
                    );
            }
            LWire::Rts {
                src,
                rtag,
                size,
                sendd_idx,
            } => {
                let matched = {
                    let mut w = self.world.borrow_mut();
                    let ep = &mut w.eps[self.rank];
                    match ep.posted.get_mut(&(*src, *rtag)) {
                        Some(q) => {
                            let idx = q.pop_front();
                            if q.is_empty() {
                                ep.posted.remove(&(*src, *rtag));
                            }
                            idx
                        }
                        None => None,
                    }
                };
                match matched {
                    Some(recvd_idx) => {
                        let fabric = self.world.borrow().fabric.clone();
                        let wire = Box::new(LWire::Rtr {
                            sendd_idx: *sendd_idx,
                            recvd_idx,
                            recver: self.rank,
                        });
                        Fabric::send(
                            &fabric,
                            sim,
                            self.rank,
                            *src,
                            costs.header_bytes,
                            Payload::Any(wire),
                            None,
                        );
                    }
                    None => {
                        self.world.borrow_mut().eps[self.rank]
                            .pending_rts
                            .entry((*src, *rtag))
                            .or_default()
                            .push_back(RtsInfo {
                                src: *src,
                                sendd_idx: *sendd_idx,
                            });
                        let _ = size;
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
                    let s = w.eps[self.rank].sendd[*sendd_idx]
                        .as_mut()
                        .expect("RTR for free sendd slot");
                    (s.size, s.data.take(), s.rtag)
                };
                let fabric = self.world.borrow().fabric.clone();
                let wire = Box::new(LWire::Data {
                    recvd_idx: *recvd_idx,
                    src: self.rank,
                    rtag,
                    size,
                    data: RefCell::new(data),
                });
                let world = self.world.clone();
                let rank = self.rank;
                let sidx = *sendd_idx;
                Fabric::send(
                    &fabric,
                    sim,
                    self.rank,
                    *recver,
                    size + costs.header_bytes,
                    Payload::Any(wire),
                    // (world, rank, sidx) is three words: stored inline.
                    Some(EventFn::new(move |sim| {
                        let waker = {
                            let mut w = world.borrow_mut();
                            w.eps[rank].local_done.push_back(sidx);
                            w.eps[rank].waker.clone()
                        };
                        if let Some(w) = waker {
                            w(sim);
                        }
                    })),
                );
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
                            src: *src,
                            rtag: *rtag,
                            size: *size,
                            data: data.borrow_mut().take(),
                            cb_data: cb_data.clone(),
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
                let (entry, on_complete) = {
                    let mut w = self.world.borrow_mut();
                    let ep = &mut w.eps[self.rank];
                    let mut r = ep.recvd[*recvd_idx]
                        .take()
                        .expect("DATA for free recvd slot");
                    debug_assert_eq!(r.src, *src);
                    debug_assert_eq!(r.rtag, *rtag);
                    ep.recvd_free.push(*recvd_idx);
                    ep.posted_count -= 1;
                    (
                        CompEntry {
                            peer: *src,
                            rtag: *rtag,
                            size: *size,
                            ctx: r.ctx,
                            data: data.borrow_mut().take(),
                            sent_at,
                        },
                        r.on_complete
                            .take()
                            .expect("recvd completion consumed twice"),
                    )
                };
                cost += self.deliver(sim, on_complete, entry);
            }
        }
        cost
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
}
