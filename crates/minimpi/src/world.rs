//! MiniMPI state machines: requests, matching tables, eager and rendezvous
//! wire protocols.
//!
//! Matching scans the arrival-ordered queues of [`crate::matcher`]; each
//! match charges `match_per_item` × the entries its scan examined, so the
//! host does exactly the work the model charges for (the golden fig4
//! report pins that charge).
//!
//! Every message on the fabric is a [`Wire`] record in the world's
//! [`Slab`], sent as its id. The receiving rank's handler queues the id;
//! the rank's next progress takes the record out by value.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use amt_netmodel::{rx_handler, Fabric, FabricHandle, NodeId, Payload};
use amt_simnet::{EventFn, Sim, SimTime, Slab};
use bytes::Frames;

use crate::costs::MpiCosts;
use crate::matcher::{PostTable, PostToken, UnexpTable};

/// MiniMPI does not support wildcard tags: as the paper notes (§4.2.1), all
/// active-message tags are explicitly registered, so `ANY_TAG` is never
/// needed by the PaRSEC backend.
pub const ANY_TAG_UNSUPPORTED: bool = true;

/// Message tag.
pub type Tag = u64;

type Waker = Rc<dyn Fn(&mut Sim)>;

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// `MPI_ANY_SOURCE`.
    Any,
    /// A specific rank.
    Rank(NodeId),
}

impl SrcSel {
    /// Whether a message from `src` satisfies this selector.
    #[inline]
    pub fn matches(self, src: NodeId) -> bool {
        match self {
            SrcSel::Any => true,
            SrcSel::Rank(r) => r == src,
        }
    }
}

/// Handle to a request. Generation-checked: using a stale handle panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqId {
    rank: NodeId,
    idx: usize,
    gen: u32,
}

/// Completion information for a finished operation.
#[derive(Debug, Clone)]
pub struct Status {
    pub src: NodeId,
    pub tag: Tag,
    pub size: usize,
    /// Received payload frames ([`Frames::Empty`] for sends and cost-only
    /// transfers). Frame boundaries are the sender's submission boundaries.
    pub data: Frames,
    /// For receive completions: when the peer injected the message
    /// ([`SimTime::ZERO`] for send completions and probes).
    pub sent_at: SimTime,
}

/// One entry of a `testsome` result.
#[derive(Debug, Clone)]
pub struct Completion {
    pub req: ReqId,
    pub status: Status,
}

enum RState {
    /// Persistent request between `start` calls.
    Inactive,
    /// Eager send completed at issue; rendezvous send waiting for CTS/DATA.
    SendInFlight { tag: Tag, size: usize, data: Frames },
    /// Rendezvous DATA transmitted; completion latched for the next poll.
    Complete(Status),
    /// Receive sitting in the posted table; the token cancels it.
    RecvPosted { tok: PostToken },
    /// Receive matched to an RTS; CTS sent, awaiting DATA.
    RecvAwaitData { src: NodeId, tag: Tag },
}

struct Request {
    gen: u32,
    state: RState,
    /// `Some(template)` for persistent (recv_init) requests.
    persistent: Option<(SrcSel, Tag)>,
}

enum Unexpected {
    Eager {
        src: NodeId,
        tag: Tag,
        size: usize,
        data: Frames,
        sent_at: SimTime,
    },
    Rts {
        src: NodeId,
        tag: Tag,
        size: usize,
        sender_req: usize,
    },
}

/// Wire protocol messages, held in [`MpiWorld::wires`] while in flight.
enum Wire {
    Eager {
        src: NodeId,
        tag: Tag,
        size: usize,
        data: Frames,
    },
    Rts {
        src: NodeId,
        tag: Tag,
        size: usize,
        sender_req: usize,
    },
    Cts {
        sender_req: usize,
        recver: NodeId,
        recver_req: usize,
    },
    Data {
        recver_req: usize,
        size: usize,
        data: Frames,
    },
}

struct RankState {
    requests: Vec<Request>,
    free: Vec<usize>,
    /// Posted receives in post order.
    posted: PostTable,
    /// Unexpected messages in arrival order.
    unexpected: UnexpTable<Unexpected>,
    /// Hardware queue of delivered-but-unprogressed wire messages (their
    /// [`MpiWorld::wires`] ids), with their injection timestamps.
    incoming: VecDeque<(u32, SimTime)>,
    /// Invoked when something poll-worthy happens (message arrival, local
    /// send completion) so a simulated polling thread can schedule a round
    /// without busy-waiting in virtual time.
    waker: Option<Waker>,
}

impl RankState {
    fn new() -> Self {
        RankState {
            requests: Vec::new(),
            free: Vec::new(),
            posted: PostTable::new(),
            unexpected: UnexpTable::new(),
            incoming: VecDeque::new(),
            waker: None,
        }
    }

    fn alloc(&mut self, state: RState, persistent: Option<(SrcSel, Tag)>) -> (usize, u32) {
        if let Some(idx) = self.free.pop() {
            let r = &mut self.requests[idx];
            r.gen = r.gen.wrapping_add(1);
            r.state = state;
            r.persistent = persistent;
            (idx, r.gen)
        } else {
            self.requests.push(Request {
                gen: 0,
                state,
                persistent,
            });
            (self.requests.len() - 1, 0)
        }
    }
}

/// The MPI "world": one communicator spanning every fabric node.
pub struct MpiWorld {
    fabric: FabricHandle,
    costs: MpiCosts,
    ranks: Vec<RankState>,
    /// Messages from send until their destination progresses them, by the
    /// id their `Payload::Wire` carries.
    wires: Slab<Wire>,
}

impl MpiWorld {
    /// Create a world over `fabric` and register its receive handlers on
    /// every node. Returns per-rank handles.
    pub fn create(fabric: &FabricHandle, costs: MpiCosts) -> Vec<Mpi> {
        let nodes = fabric.borrow().nodes();
        let world = Rc::new(RefCell::new(MpiWorld {
            fabric: fabric.clone(),
            costs,
            ranks: (0..nodes).map(|_| RankState::new()).collect(),
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
                    // Hardware enqueue only; progress happens inside calls.
                    let waker = {
                        let mut wb = w.borrow_mut();
                        let id = d.payload.expect_wire();
                        wb.ranks[node].incoming.push_back((id, d.sent_at));
                        wb.ranks[node].waker.clone()
                    };
                    if let Some(waker) = waker {
                        waker(sim);
                    }
                }),
            );
        }
        (0..nodes)
            .map(|rank| Mpi {
                world: world.clone(),
                rank,
            })
            .collect()
    }
}

/// Per-rank MPI handle.
#[derive(Clone)]
pub struct Mpi {
    world: Rc<RefCell<MpiWorld>>,
    rank: NodeId,
}

impl Mpi {
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    pub fn costs(&self) -> MpiCosts {
        self.world.borrow().costs.clone()
    }

    /// Put `wire` on the fabric to `dst` as a `size`-byte message: the
    /// record waits in [`MpiWorld::wires`], the fabric carries its id.
    fn send_wire(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        size: usize,
        wire: Wire,
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

    fn check(&self, req: ReqId) {
        assert_eq!(req.rank, self.rank, "request used on wrong rank");
        let w = self.world.borrow();
        assert_eq!(
            w.ranks[self.rank].requests[req.idx].gen, req.gen,
            "stale request handle"
        );
    }

    /// Non-blocking send. Eager payloads complete immediately (buffered);
    /// larger payloads run the rendezvous protocol. Returns the request and
    /// the CPU cost of the call.
    pub fn isend(
        &self,
        sim: &mut Sim,
        dst: NodeId,
        tag: Tag,
        size: usize,
        data: Frames,
    ) -> (ReqId, SimTime) {
        let mut w = self.world.borrow_mut();
        let costs = w.costs.clone();
        let mut cost = costs.call_base;
        if costs.is_eager(size) {
            cost += costs.send_eager_base + costs.copy_cost(size);
            let wire = Wire::Eager {
                src: self.rank,
                tag,
                size,
                data,
            };
            let (idx, gen) = w.ranks[self.rank].alloc(
                RState::Complete(Status {
                    src: self.rank,
                    tag,
                    size,
                    data: Frames::Empty,
                    sent_at: SimTime::ZERO,
                }),
                None,
            );
            drop(w);
            self.send_wire(sim, dst, size + costs.header_bytes, wire, None);
            (
                ReqId {
                    rank: self.rank,
                    idx,
                    gen,
                },
                cost,
            )
        } else {
            cost += costs.send_rndv_base;
            let (idx, gen) =
                w.ranks[self.rank].alloc(RState::SendInFlight { tag, size, data }, None);
            let wire = Wire::Rts {
                src: self.rank,
                tag,
                size,
                sender_req: idx,
            };
            drop(w);
            self.send_wire(sim, dst, costs.header_bytes, wire, None);
            (
                ReqId {
                    rank: self.rank,
                    idx,
                    gen,
                },
                cost,
            )
        }
    }

    /// Blocking eager send, as PaRSEC uses for active messages (§4.2.1).
    /// Panics if the payload exceeds the eager threshold.
    pub fn send(&self, sim: &mut Sim, dst: NodeId, tag: Tag, size: usize, data: Frames) -> SimTime {
        assert!(
            self.world.borrow().costs.is_eager(size),
            "blocking send restricted to eager payloads ({size} bytes)"
        );
        let (req, cost) = self.isend(sim, dst, tag, size, data);
        // Eager isend is already complete; release the request.
        self.release(req);
        cost
    }

    /// Non-blocking receive. Matches the unexpected table first.
    pub fn irecv(&self, sim: &mut Sim, src: SrcSel, tag: Tag) -> (ReqId, SimTime) {
        let mut w = self.world.borrow_mut();
        let costs = w.costs.clone();
        let mut cost = costs.call_base + costs.recv_post_base;
        let rs = &mut w.ranks[self.rank];
        let out = rs.unexpected.match_take(src, tag);
        cost += costs.match_per_item * out.scanned as u64;
        if let Some(u) = out.found {
            match u {
                Unexpected::Eager {
                    src: usrc,
                    tag,
                    size,
                    data,
                    sent_at,
                } => {
                    cost += costs.copy_cost(size);
                    let (idx, gen) = rs.alloc(
                        RState::Complete(Status {
                            src: usrc,
                            tag,
                            size,
                            data,
                            sent_at,
                        }),
                        None,
                    );
                    (
                        ReqId {
                            rank: self.rank,
                            idx,
                            gen,
                        },
                        cost,
                    )
                }
                Unexpected::Rts {
                    src: usrc,
                    tag,
                    size,
                    sender_req,
                } => {
                    let _ = size;
                    let (idx, gen) = rs.alloc(RState::RecvAwaitData { src: usrc, tag }, None);
                    let wire = Wire::Cts {
                        sender_req,
                        recver: self.rank,
                        recver_req: idx,
                    };
                    drop(w);
                    self.send_wire(sim, usrc, costs.header_bytes, wire, None);
                    (
                        ReqId {
                            rank: self.rank,
                            idx,
                            gen,
                        },
                        cost,
                    )
                }
            }
        } else {
            let (idx, gen) = rs.alloc(
                RState::RecvPosted {
                    tok: PostToken::DANGLING,
                },
                None,
            );
            let tok = rs.posted.post(idx, src, tag);
            rs.requests[idx].state = RState::RecvPosted { tok };
            (
                ReqId {
                    rank: self.rank,
                    idx,
                    gen,
                },
                cost,
            )
        }
    }

    /// Create an inactive persistent receive (`MPI_Recv_init`).
    pub fn recv_init(&self, src: SrcSel, tag: Tag) -> (ReqId, SimTime) {
        let mut w = self.world.borrow_mut();
        let cost = w.costs.call_base;
        let (idx, gen) = w.ranks[self.rank].alloc(RState::Inactive, Some((src, tag)));
        (
            ReqId {
                rank: self.rank,
                idx,
                gen,
            },
            cost,
        )
    }

    /// Activate a persistent request (`MPI_Start`). Matching against the
    /// unexpected table happens exactly as for `irecv`.
    pub fn start(&self, sim: &mut Sim, req: ReqId) -> SimTime {
        self.check(req);
        let (src, tag) = {
            let w = self.world.borrow();
            let r = &w.ranks[self.rank].requests[req.idx];
            assert!(
                matches!(r.state, RState::Inactive),
                "start on a non-inactive request"
            );
            r.persistent.expect("start on non-persistent request")
        };
        let mut w = self.world.borrow_mut();
        let costs = w.costs.clone();
        let mut cost = costs.call_base + costs.recv_post_base;
        let rs = &mut w.ranks[self.rank];
        let out = rs.unexpected.match_take(src, tag);
        cost += costs.match_per_item * out.scanned as u64;
        match out.found {
            Some(u) => match u {
                Unexpected::Eager {
                    src: usrc,
                    tag,
                    size,
                    data,
                    sent_at,
                } => {
                    cost += costs.copy_cost(size);
                    rs.requests[req.idx].state = RState::Complete(Status {
                        src: usrc,
                        tag,
                        size,
                        data,
                        sent_at,
                    });
                }
                Unexpected::Rts {
                    src: usrc,
                    tag,
                    size,
                    sender_req,
                } => {
                    let _ = size;
                    rs.requests[req.idx].state = RState::RecvAwaitData { src: usrc, tag };
                    let wire = Wire::Cts {
                        sender_req,
                        recver: self.rank,
                        recver_req: req.idx,
                    };
                    drop(w);
                    self.send_wire(sim, usrc, costs.header_bytes, wire, None);
                }
            },
            None => {
                let tok = rs.posted.post(req.idx, src, tag);
                rs.requests[req.idx].state = RState::RecvPosted { tok };
            }
        }
        cost
    }

    /// Drain the incoming hardware queue: match eager messages and RTSs,
    /// react to CTSs (send DATA) and DATA (complete receives). Returns the
    /// CPU cost. This is the *only* place the library makes progress.
    fn drain_incoming(&self, sim: &mut Sim) -> SimTime {
        let mut cost = SimTime::ZERO;
        loop {
            let (wire, sent_at) = {
                let mut w = self.world.borrow_mut();
                let Some((id, sent_at)) = w.ranks[self.rank].incoming.pop_front() else {
                    break;
                };
                (w.wires.take(id), sent_at)
            };
            cost += self.process_wire(sim, wire, sent_at);
        }
        cost
    }

    fn process_wire(&self, sim: &mut Sim, wire: Wire, sent_at: SimTime) -> SimTime {
        let mut w = self.world.borrow_mut();
        let costs = w.costs.clone();
        let mut cost = costs.progress_per_msg;
        match wire {
            Wire::Eager {
                src,
                tag,
                size,
                data,
            } => {
                let rs = &mut w.ranks[self.rank];
                let out = rs.posted.match_arrival(src, tag);
                cost += costs.match_per_item * out.scanned as u64;
                match out.found {
                    Some(ridx) => {
                        cost += costs.copy_cost(size);
                        rs.requests[ridx].state = RState::Complete(Status {
                            src,
                            tag,
                            size,
                            data,
                            sent_at,
                        });
                    }
                    None => {
                        rs.unexpected.push(
                            src,
                            tag,
                            Unexpected::Eager {
                                src,
                                tag,
                                size,
                                data,
                                sent_at,
                            },
                        );
                    }
                }
            }
            Wire::Rts {
                src,
                tag,
                size,
                sender_req,
            } => {
                let rs = &mut w.ranks[self.rank];
                let out = rs.posted.match_arrival(src, tag);
                cost += costs.match_per_item * out.scanned as u64;
                match out.found {
                    Some(ridx) => {
                        rs.requests[ridx].state = RState::RecvAwaitData { src, tag };
                        let wire = Wire::Cts {
                            sender_req,
                            recver: self.rank,
                            recver_req: ridx,
                        };
                        drop(w);
                        self.send_wire(sim, src, costs.header_bytes, wire, None);
                    }
                    None => {
                        rs.unexpected.push(
                            src,
                            tag,
                            Unexpected::Rts {
                                src,
                                tag,
                                size,
                                sender_req,
                            },
                        );
                    }
                }
            }
            Wire::Cts {
                sender_req,
                recver,
                recver_req,
            } => {
                // We are the sender: ship DATA, zero-copy (RDMA write).
                let (size, data) = {
                    let r = &mut w.ranks[self.rank].requests[sender_req];
                    match &mut r.state {
                        RState::SendInFlight { size, data, .. } => (*size, data.take()),
                        other => panic!("CTS for request in state {other:?}"),
                    }
                };
                let wire = Wire::Data {
                    recver_req,
                    size,
                    data,
                };
                let world = self.world.clone();
                let rank = self.rank;
                drop(w);
                // Local completion when the last chunk leaves our NIC.
                // (One Rc + two word-sized captures: stays inline in the
                // fabric's `EventFn` tx-done slot, no allocation.)
                self.send_wire(
                    sim,
                    recver,
                    size + costs.header_bytes,
                    wire,
                    Some(EventFn::new(move |sim| {
                        let waker = {
                            let mut w = world.borrow_mut();
                            let r = &mut w.ranks[rank].requests[sender_req];
                            if let RState::SendInFlight { tag, size, .. } = r.state {
                                r.state = RState::Complete(Status {
                                    src: rank,
                                    tag,
                                    size,
                                    data: Frames::Empty,
                                    sent_at: SimTime::ZERO,
                                });
                            } else {
                                panic!("DATA tx-done for request in unexpected state");
                            }
                            w.ranks[rank].waker.clone()
                        };
                        if let Some(waker) = waker {
                            waker(sim);
                        }
                    })),
                );
            }
            Wire::Data {
                recver_req,
                size,
                data,
            } => {
                let r = &mut w.ranks[self.rank].requests[recver_req];
                match r.state {
                    RState::RecvAwaitData { src, tag, .. } => {
                        r.state = RState::Complete(Status {
                            src,
                            tag,
                            size,
                            data,
                            sent_at,
                        });
                    }
                    ref other => panic!("DATA for request in state {other:?}"),
                }
            }
        }
        cost
    }

    /// Test a single request for completion, making library progress.
    pub fn test(&self, sim: &mut Sim, req: ReqId) -> (Option<Status>, SimTime) {
        self.check(req);
        let mut cost = self.world.borrow().costs.call_base;
        cost += self.drain_incoming(sim);
        let mut w = self.world.borrow_mut();
        let r = &mut w.ranks[self.rank].requests[req.idx];
        if matches!(r.state, RState::Complete(_)) {
            let state = std::mem::replace(&mut r.state, RState::Inactive);
            let RState::Complete(status) = state else {
                unreachable!()
            };
            let persistent = r.persistent.is_some();
            drop(w);
            if !persistent {
                self.release(req);
            }
            (Some(status), cost)
        } else {
            (None, cost)
        }
    }

    /// `MPI_Testsome` over the caller's request array: makes progress, then
    /// reports every completed request. Completed persistent requests go
    /// inactive (re-arm with [`Mpi::start`]); completed non-persistent
    /// requests are freed.
    pub fn testsome(&self, sim: &mut Sim, reqs: &[ReqId]) -> (Vec<Completion>, SimTime) {
        let mut done = Vec::new();
        let cost = self.testsome_into(sim, reqs, &mut done);
        (done, cost)
    }

    /// [`Mpi::testsome`] appending the completions, in request order, to a
    /// collection the caller keeps, so a warmed sweep allocates nothing.
    pub fn testsome_into(
        &self,
        sim: &mut Sim,
        reqs: &[ReqId],
        done: &mut impl Extend<Completion>,
    ) -> SimTime {
        let costs = self.world.borrow().costs.clone();
        let mut cost = costs.call_base + costs.testsome_per_req * reqs.len() as u64;
        cost += self.drain_incoming(sim);
        for &req in reqs {
            self.check(req);
            let mut w = self.world.borrow_mut();
            let r = &mut w.ranks[self.rank].requests[req.idx];
            if matches!(r.state, RState::Complete(_)) {
                let state = std::mem::replace(&mut r.state, RState::Inactive);
                let RState::Complete(status) = state else {
                    unreachable!()
                };
                let persistent = r.persistent.is_some();
                drop(w);
                if !persistent {
                    self.release(req);
                }
                done.extend([Completion { req, status }]);
            }
        }
        cost
    }

    /// `MPI_Iprobe`: make progress, then report (without consuming) the
    /// oldest unexpected message matching `(src, tag)`. The paper's §5.2
    /// contrasts LCI's dynamic receive buffers with exactly this
    /// probe-allocate-receive pattern.
    pub fn iprobe(&self, sim: &mut Sim, src: SrcSel, tag: Tag) -> (Option<Status>, SimTime) {
        let mut cost = self.world.borrow().costs.call_base;
        cost += self.drain_incoming(sim);
        let mut w = self.world.borrow_mut();
        let costs = w.costs.clone();
        let rs = &mut w.ranks[self.rank];
        let (found, scanned) = rs.unexpected.probe(src, tag);
        cost += costs.match_per_item * scanned as u64;
        if let Some(u) = found {
            let (usrc, utag, size) = match u {
                Unexpected::Eager { src, tag, size, .. }
                | Unexpected::Rts { src, tag, size, .. } => (*src, *tag, *size),
            };
            return (
                Some(Status {
                    src: usrc,
                    tag: utag,
                    size,
                    data: Frames::Empty,
                    sent_at: SimTime::ZERO,
                }),
                cost,
            );
        }
        (None, cost)
    }

    /// Cancel-and-free a posted receive or inactive persistent request: a
    /// posted entry leaves its table through its token.
    pub fn release(&self, req: ReqId) {
        self.check(req);
        let mut w = self.world.borrow_mut();
        let rs = &mut w.ranks[self.rank];
        if let RState::RecvPosted { tok } = rs.requests[req.idx].state {
            rs.posted.cancel(tok);
        }
        rs.requests[req.idx].state = RState::Inactive;
        rs.requests[req.idx].persistent = None;
        rs.requests[req.idx].gen = rs.requests[req.idx].gen.wrapping_add(1);
        rs.free.push(req.idx);
    }

    /// Register a waker invoked whenever this rank has something new to
    /// poll: a wire message arrived or a local send completed. Used by
    /// simulated polling threads to avoid busy-waiting in virtual time.
    pub fn set_waker(&self, waker: impl Fn(&mut Sim) + 'static) {
        self.world.borrow_mut().ranks[self.rank].waker = Some(Rc::new(waker));
    }

    /// Depth of the unexpected-message table (diagnostics).
    pub fn unexpected_depth(&self) -> usize {
        self.world.borrow().ranks[self.rank].unexpected.len()
    }

    /// Depth of the incoming hardware queue (diagnostics).
    pub fn incoming_depth(&self) -> usize {
        self.world.borrow().ranks[self.rank].incoming.len()
    }

    /// Messages of this rank's whole world sent but not yet progressed by
    /// their destination. Zero once a run has drained; more means a wire
    /// record was stored and never taken (diagnostics).
    pub fn wires_in_flight(&self) -> usize {
        self.world.borrow().wires.len()
    }
}

impl std::fmt::Debug for RState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RState::Inactive => write!(f, "Inactive"),
            RState::SendInFlight { .. } => write!(f, "SendInFlight"),
            RState::Complete(_) => write!(f, "Complete"),
            RState::RecvPosted { .. } => write!(f, "RecvPosted"),
            RState::RecvAwaitData { .. } => write!(f, "RecvAwaitData"),
        }
    }
}
