//! The LCI backend (§5.3): progress thread, completion FIFOs, specialized
//! handshake path, eager small puts, delegated receives.
//!
//! With `direct_put` (the `lci-direct` backend) it is also the paper's
//! §7 future-work proposal: once the target pre-registers its memory, a
//! large put needs no rendezvous at all. The origin issues **one**
//! one-sided RDMA write (`putd`) whose immediate data carries the
//! completion descriptor (remote tag + callback data), and the target's
//! progress thread learns about the transfer only when it has already
//! finished. Per large put this removes one buffered handshake message,
//! the RTS/RTR round-trip inside `sendd`/`recvd`, and the target-side
//! receive posting with its `Retry`/delegation path. Puts at or below
//! `eager_put_max` already ride inline in one buffered message, as cheap
//! as an inline `putd`, so they keep the handshake path: direct put is
//! never slower than the emulation at any size, and the small-fragment
//! bandwidth knee (Fig. 2a) moves left.
//!
//! Completions of the backend's own direct sends, puts and receives go to
//! two LCI handlers registered once in `init` — one for local send/put
//! completions, one for receives — never to a per-operation closure.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use amt_lci::{AmMsg, Lci, LciError, OnComplete, PutMsg};
use amt_netmodel::NodeId;
use amt_simnet::{Counter, FastMap, Sim, SimTime, Slab};
use bytes::{Bytes, Frames};

use crate::backend::CommBackend;
use crate::config::{EngineConfig, AM_BATCH, CMD_OVERHEAD, FIFO_POP, WAKE_LATENCY};
use crate::engine::{
    dispatch_am, dispatch_onesided, dispatch_put_local, AmEvent, CommEngine, Command, Micro,
    PutEvent, PutLocalCb, PutRequest,
};
use crate::stats::EngineStats;
use crate::wire::{EagerMode, PutHandshake};

/// AM-tag bit marking a put handshake; the rendezvous tag rides in the low
/// bits, so the handler never consults the AM hash table (§5.3.3).
pub(crate) const HS_FLAG: u64 = 1 << 63;

/// CPU cost of the progress-thread handler for a user AM: tag hash lookup
/// plus callback-handle pool allocation plus FIFO push (§5.3.2).
const AM_HANDLER_COST: SimTime = SimTime(90);
/// CPU cost of the specialized handshake handler (no hash lookup).
const HS_HANDLER_COST: SimTime = SimTime(60);
/// CPU cost of a completion handler pushing to a FIFO.
const COMP_HANDLER_COST: SimTime = SimTime(40);

/// An AM queued for the communication thread.
struct QueuedAm {
    ev: AmEvent,
    owns_packet: bool,
    /// When the progress thread queued it (`wire → deliver` boundary).
    arrived: SimTime,
}

/// A bulk-data completion queued for the communication thread.
enum DataDone {
    /// Direct-send local completion at the origin.
    Local { rtag: u64 },
    /// Data arrived at the target (eagerly or via direct receive).
    Remote {
        src: NodeId,
        size: usize,
        data: Option<Bytes>,
        r_tag: u64,
        cb_data: Bytes,
        /// When the progress thread queued it (`wire → deliver` boundary).
        arrived: SimTime,
    },
}

/// Where an incoming rendezvous put's data goes once its direct receive
/// completes: the one-sided callback tag and its data. Kept in
/// [`LciState::recvs`] from the handshake until that completion, whose
/// `ctx` is the slab id.
struct RecvTarget {
    r_tag: u64,
    cb_data: Bytes,
}

/// A receive the progress thread could not post (`Retry`), delegated to the
/// communication thread (§5.3.3). `recv` is its [`LciState::recvs`] id.
struct DelegatedRecv {
    src: NodeId,
    rtag: u64,
    recv: u32,
}

/// Micro-task codes, queued on the engine as `Micro::BackendUnit`. The
/// last three each run the front entry of one FIFO: `am_fifo`,
/// `data_fifo`, `eager_done`.
const MICRO_FIFO_ROUND: u32 = 0;
const MICRO_DELEGATED: u32 = 1;
const MICRO_AM: u32 = 2;
const MICRO_DATA: u32 = 3;
const MICRO_EAGER_DONE: u32 = 4;

/// Backend-private state, shared with the progress-thread handlers.
#[derive(Default)]
struct LciState {
    am_fifo: VecDeque<QueuedAm>,
    data_fifo: VecDeque<DataDone>,
    /// Front entries of `am_fifo` / `data_fifo` a fairness round already
    /// queued as `MICRO_AM` / `MICRO_DATA` codes. Entries leave only from
    /// the front, when their code runs, so the claimed ones stay in place
    /// until then.
    am_claimed: usize,
    data_claimed: usize,
    /// Origin-side completions of puts whose data rode eagerly in the
    /// handshake, one per queued `MICRO_EAGER_DONE` code.
    eager_done: VecDeque<PutLocalCb>,
    delegated: VecDeque<DelegatedRecv>,
    /// Incoming rendezvous puts between handshake and data arrival.
    recvs: Slab<RecvTarget>,
    /// Retry delegated receives on the next communication-thread visit
    /// (set by the backend waker when resources may have freed).
    retry_wanted: bool,
    origin_puts: FastMap<u64, Option<PutLocalCb>>,
    put_seq: u64,
    progress_busy: bool,
    /// Times the progress thread delegated a receive to the communication
    /// thread after `Retry` (§5.3.3).
    stat_delegated: Counter,
    /// `Retry` results absorbed by the engine.
    stat_retries: Counter,
    /// Total CPU time charged to the progress thread(s).
    stat_progress_busy: SimTime,
}

pub(crate) struct LciBackend {
    ep: Lci,
    st: Rc<RefCell<LciState>>,
    progress_threads: usize,
    /// §7: issue puts above `eager_put_max` as one `putd`.
    direct_put: bool,
    /// The handler for local completions of `sendd`/`putd` (ctx: the put's
    /// rendezvous tag), registered in `init`.
    on_sent: Cell<OnComplete>,
    /// The handler for `recvd` completions (ctx: a [`LciState::recvs`] id),
    /// registered in `init`.
    on_recv: Cell<OnComplete>,
}

/// The endpoint AM handler, executed on the **progress thread** inside
/// `LCI_progress`. User AMs are queued to the communication thread;
/// handshakes take the specialized path: take the handshake its frame
/// names out of the world's slab, free the packet, and either
/// deliver the eager payload or post the direct receive immediately —
/// delegating to the communication thread on `Retry`.
fn on_am(
    eng: &Rc<CommEngine>,
    ep: &Lci,
    st: &Rc<RefCell<LciState>>,
    on_recv: OnComplete,
    sim: &mut Sim,
    msg: AmMsg,
) -> SimTime {
    let now = sim.now();
    if msg.tag & HS_FLAG == 0 {
        eng.record_stage("am.wire_ns", now.saturating_sub(msg.sent_at));
        st.borrow_mut().am_fifo.push_back(QueuedAm {
            ev: AmEvent {
                src: msg.src,
                tag: msg.tag,
                size: msg.size,
                data: msg.data,
            },
            owns_packet: msg.owns_packet,
            arrived: now,
        });
        CommEngine::wake_comm(eng, sim);
        return AM_HANDLER_COST;
    }

    // Specialized handshake path.
    let mut cost = HS_HANDLER_COST;
    let hs = eng.take_handshake(&msg.data.into_bytes().expect("handshake frame"));
    if msg.owns_packet {
        ep.buffer_free(sim);
    }
    let src = msg.src;
    if hs.is_eager() {
        // The eager payload rode inside this handshake: its wire stage ends
        // here, at the target's progress thread.
        eng.record_stage("put.wire_ns", now.saturating_sub(msg.sent_at));
        eng.wire_add(eng.node, now, -1);
        let data = match hs.eager {
            EagerMode::EagerBytes(b) => Some(b),
            _ => None,
        };
        st.borrow_mut().data_fifo.push_back(DataDone::Remote {
            src,
            size: hs.size as usize,
            data,
            r_tag: hs.r_tag,
            cb_data: hs.cb_data,
            arrived: now,
        });
        CommEngine::wake_comm(eng, sim);
        return cost;
    }

    // Rendezvous: post the matching direct receive right here on the
    // progress thread so the RTS can be answered with minimum latency.
    let recv = st.borrow_mut().recvs.insert(RecvTarget {
        r_tag: hs.r_tag,
        cb_data: hs.cb_data,
    });
    let d = DelegatedRecv {
        src,
        rtag: hs.data_tag,
        recv,
    };
    match try_post_recvd(ep, on_recv, sim, d) {
        Ok(c) => cost += c,
        Err(d) => {
            // §5.3.3: we cannot spin or recurse into progress here —
            // delegate to the communication thread.
            let mut s = st.borrow_mut();
            s.stat_delegated.inc();
            s.delegated.push_back(d);
            s.retry_wanted = true;
            drop(s);
            if eng.cfg.trace {
                eng.trace
                    .borrow_mut()
                    .instant(&eng.prog_track, "delegated", now);
            }
            CommEngine::wake_comm(eng, sim);
        }
    }
    cost
}

/// Attempt to post the direct receive for an incoming put; hand the
/// receive back on `Retry`.
fn try_post_recvd(
    ep: &Lci,
    on_recv: OnComplete,
    sim: &mut Sim,
    d: DelegatedRecv,
) -> Result<SimTime, DelegatedRecv> {
    ep.recvd(sim, d.src, d.rtag, u64::from(d.recv), on_recv)
        .map_err(|LciError::Retry| d)
}

/// The endpoint put handler (§7 direct-put backend), executed on the
/// progress thread: queue the remote completion for the communication
/// thread. No matching, no rendezvous, no hash lookup.
fn on_put(eng: &Rc<CommEngine>, st: &Rc<RefCell<LciState>>, sim: &mut Sim, msg: PutMsg) -> SimTime {
    let now = sim.now();
    eng.record_stage("put.wire_ns", now.saturating_sub(msg.sent_at));
    eng.wire_add(eng.node, now, -1);
    let hs = eng.take_handshake(&msg.cb_data);
    st.borrow_mut().data_fifo.push_back(DataDone::Remote {
        src: msg.src,
        size: msg.size,
        data: msg.data,
        r_tag: hs.r_tag,
        cb_data: hs.cb_data,
        arrived: now,
    });
    CommEngine::wake_comm(eng, sim);
    HS_HANDLER_COST
}

impl LciBackend {
    pub(crate) fn new(ep: Lci, cfg: &EngineConfig, direct_put: bool) -> Self {
        LciBackend {
            ep,
            st: Rc::new(RefCell::new(LciState::default())),
            progress_threads: cfg.lci_progress_threads.max(1),
            direct_put,
            on_sent: Cell::new(OnComplete::None),
            on_recv: Cell::new(OnComplete::None),
        }
    }

    /// Undo a put whose send hit `Retry`: take its handshake back out of
    /// the slab, rebuild the request from it and `data` (unless the payload
    /// rode in the handshake), and queue it at the front of the command
    /// queue; it is retried on the next wake.
    fn retry_put(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        frame: &[u8],
        data: Option<Bytes>,
        on_local: PutLocalCb,
    ) -> SimTime {
        let hs = eng.take_handshake(frame);
        let data = match hs.eager {
            EagerMode::EagerBytes(b) => Some(b),
            _ => data,
        };
        let req = PutRequest {
            dst,
            size: hs.size as usize,
            data,
            r_tag: hs.r_tag,
            cb_data: hs.cb_data,
            on_local,
        };
        {
            let mut st = self.st.borrow_mut();
            st.stat_retries.inc();
            st.put_seq -= 1;
        }
        eng.trace_instant("retry", sim.now());
        let mut inner = eng.inner.borrow_mut();
        inner.stats.puts_started.dec();
        inner.pending.push_front(Command::Put {
            req,
            submitted_at: None,
        });
        CMD_OVERHEAD
    }

    /// Queue a `sendb` that hit `Retry` at the front of the command queue;
    /// [`CommBackend::resend`] retries it on the next wake.
    fn requeue_sendb(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) {
        self.st.borrow_mut().stat_retries.inc();
        eng.trace_instant("retry", sim.now());
        eng.inner.borrow_mut().pending.push_front(Command::Resend {
            dst,
            tag,
            size,
            data,
        });
    }

    /// One §5.3.4 fairness round: up to `AM_BATCH` AM completions, then all
    /// bulk-data completions; repeat while anything was processed. Each
    /// completion becomes one micro-task code; its entry stays at its
    /// FIFO's front until the code runs.
    fn exec_fifo_round(&self, eng: &Rc<CommEngine>) -> SimTime {
        let mut st = self.st.borrow_mut();
        let mut inner = eng.inner.borrow_mut();
        let ams = (st.am_fifo.len() - st.am_claimed).min(AM_BATCH);
        let datas = st.data_fifo.len() - st.data_claimed;
        st.am_claimed += ams;
        st.data_claimed += datas;
        let codes =
            std::iter::repeat_n(MICRO_AM, ams).chain(std::iter::repeat_n(MICRO_DATA, datas));
        inner.micro.extend(codes.map(Micro::BackendUnit));
        if std::mem::take(&mut st.retry_wanted) && !st.delegated.is_empty() {
            inner.micro.push_back(Micro::BackendUnit(MICRO_DELEGATED));
        }
        if ams + datas > 0 {
            inner.micro.push_back(Micro::BackendUnit(MICRO_FIFO_ROUND));
        }
        // One pop per completion plus the final empty probe.
        FIFO_POP * (1 + ams + datas) as u64
    }

    /// Run one queued AM callback and release its receive packet.
    fn exec_am(&self, eng: &Rc<CommEngine>, sim: &mut Sim, q: QueuedAm) -> SimTime {
        eng.record_stage("am.deliver_ns", sim.now().saturating_sub(q.arrived));
        let cost = dispatch_am(eng, sim, q.ev);
        if q.owns_packet {
            self.ep.buffer_free(sim);
        }
        cost
    }

    /// Run one bulk-data completion callback.
    fn exec_data(&self, eng: &Rc<CommEngine>, sim: &mut Sim, d: DataDone) -> SimTime {
        match d {
            DataDone::Local { rtag } => {
                let cb = self
                    .st
                    .borrow_mut()
                    .origin_puts
                    .remove(&rtag)
                    .expect("unknown put rtag")
                    .expect("local completion consumed twice");
                dispatch_put_local(eng, sim, cb)
            }
            DataDone::Remote {
                src,
                size,
                data,
                r_tag,
                cb_data,
                arrived,
            } => {
                eng.record_stage("put.deliver_ns", sim.now().saturating_sub(arrived));
                dispatch_onesided(
                    eng,
                    sim,
                    r_tag,
                    PutEvent {
                        src,
                        size,
                        data,
                        cb_data,
                    },
                )
            }
        }
    }

    /// Retry delegated receives from the communication thread.
    fn exec_delegated(&self, sim: &mut Sim) -> SimTime {
        let mut cost = SimTime::ZERO;
        let mut queue = std::mem::take(&mut self.st.borrow_mut().delegated);
        while let Some(d) = queue.pop_front() {
            cost += CMD_OVERHEAD;
            match try_post_recvd(&self.ep, self.on_recv.get(), sim, d) {
                Ok(c) => cost += c,
                Err(d) => {
                    // Still exhausted: put everything back and stop.
                    let mut st = self.st.borrow_mut();
                    st.delegated.push_front(d);
                    while let Some(rest) = queue.pop_front() {
                        st.delegated.push_back(rest);
                    }
                    break;
                }
            }
        }
        cost
    }
}

impl CommBackend for LciBackend {
    fn progress_threads(&self) -> usize {
        self.progress_threads
    }

    /// Register the two completion handlers, the waker and the AM and put
    /// handlers. Everything stored inside the LCI world holds the engine,
    /// the backend state and the endpoint weakly, or world and engine
    /// would own each other.
    fn init(&self, eng: &Rc<CommEngine>, sim: &mut Sim) {
        let _ = sim;
        let weak = || (Rc::downgrade(eng), Rc::downgrade(&self.st));
        let (weak_eng, weak_st) = weak();
        let on_sent = self.ep.handler_new(move |sim, e| {
            if let (Some(eng), Some(st)) = (weak_eng.upgrade(), weak_st.upgrade()) {
                st.borrow_mut()
                    .data_fifo
                    .push_back(DataDone::Local { rtag: e.ctx });
                CommEngine::wake_comm(&eng, sim);
            }
            COMP_HANDLER_COST
        });
        self.on_sent.set(OnComplete::Handler(on_sent));
        let (weak_eng, weak_st) = weak();
        let on_recv = OnComplete::Handler(self.ep.handler_new(move |sim, e| {
            if let (Some(eng), Some(st)) = (weak_eng.upgrade(), weak_st.upgrade()) {
                let now = sim.now();
                eng.record_stage("put.wire_ns", now.saturating_sub(e.sent_at));
                eng.wire_add(eng.node, now, -1);
                let mut s = st.borrow_mut();
                let id = u32::try_from(e.ctx).expect("recvd ctx is a recvs id");
                let RecvTarget { r_tag, cb_data } = s.recvs.take(id);
                s.data_fifo.push_back(DataDone::Remote {
                    src: e.peer,
                    size: e.size,
                    data: e.data,
                    r_tag,
                    cb_data,
                    arrived: now,
                });
                drop(s);
                CommEngine::wake_comm(&eng, sim);
            }
            COMP_HANDLER_COST
        }));
        self.on_recv.set(on_recv);

        let (weak_eng, weak_st) = weak();
        self.ep.set_waker(move |sim| {
            if let (Some(eng), Some(st)) = (weak_eng.upgrade(), weak_st.upgrade()) {
                eng.backend.drain_progress(&eng, sim);
                // Freed resources may also unblock queued commands or
                // delegated receives on the communication thread.
                st.borrow_mut().retry_wanted = true;
                CommEngine::wake_comm(&eng, sim);
            }
        });
        let (weak_eng, weak_st) = weak();
        let weak_ep = self.ep.downgrade();
        self.ep.set_am_handler(move |sim, msg| {
            match (weak_eng.upgrade(), weak_ep.upgrade(), weak_st.upgrade()) {
                (Some(eng), Some(ep), Some(st)) => on_am(&eng, &ep, &st, on_recv, sim, msg),
                _ => SimTime::ZERO,
            }
        });
        let (weak_eng, weak_st) = weak();
        self.ep.set_put_handler(
            move |sim, msg| match (weak_eng.upgrade(), weak_st.upgrade()) {
                (Some(eng), Some(st)) => on_put(&eng, &st, sim, msg),
                _ => SimTime::ZERO,
            },
        );
    }

    fn issue_am(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) -> SimTime {
        let costs = self.ep.costs();
        let res = if size <= costs.imm_max {
            self.ep.sendi(sim, dst, tag, size, data.clone())
        } else {
            self.ep.sendb(sim, dst, tag, size, data.clone())
        };
        match res {
            Ok(c) => c,
            Err(_) => {
                eng.inner.borrow_mut().stats.am_sent.dec();
                self.requeue_sendb(eng, sim, dst, tag, size, data);
                costs.call_base
            }
        }
    }

    fn issue_am_direct(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Option<Bytes>,
    ) -> SimTime {
        {
            let mut inner = eng.inner.borrow_mut();
            inner.stats.am_submitted.inc();
            inner.stats.am_sent.inc();
        }
        let costs = self.ep.costs();
        let res = if size <= costs.imm_max {
            self.ep
                .sendi(sim, dst, tag, size, Frames::from(data.clone()))
        } else {
            self.ep
                .sendb(sim, dst, tag, size, Frames::from(data.clone()))
        };
        match res {
            Ok(c) => c,
            Err(_) => {
                // Back-pressure: fall back to funneling. The funneled path
                // re-counts the submission, so undo this one.
                self.st.borrow_mut().stat_retries.inc();
                eng.trace_instant("retry", sim.now());
                {
                    let mut inner = eng.inner.borrow_mut();
                    inner.stats.am_sent.dec();
                    inner.stats.am_submitted.dec();
                }
                eng.send_am_opts(sim, dst, tag, size, data, false);
                costs.call_base
            }
        }
    }

    /// Issue a put from the communication thread (§5.3.3): small payloads
    /// ride eagerly in the handshake; larger ones go `sendd` + handshake,
    /// or, with `direct_put` (§7), one `putd`.
    fn issue_put(&self, eng: &Rc<CommEngine>, sim: &mut Sim, req: PutRequest) -> SimTime {
        eng.inner.borrow_mut().stats.puts_started.inc();
        let rtag = {
            let mut st = self.st.borrow_mut();
            st.put_seq += 1;
            st.put_seq - 1
        };
        let PutRequest {
            dst,
            size,
            data,
            r_tag,
            cb_data,
            on_local,
        } = req;

        if size <= eng.cfg.eager_put_max {
            let eager = match data {
                Some(b) => EagerMode::EagerBytes(b),
                None => EagerMode::EagerCostOnly,
            };
            let hs = PutHandshake {
                data_tag: rtag,
                size: size as u64,
                r_tag,
                cb_data,
                eager,
            };
            let wire_len = hs.wire_len();
            let frame = eng.stash_handshake(hs);
            return match self.ep.sendb(
                sim,
                dst,
                HS_FLAG | rtag,
                wire_len,
                Frames::from(frame.clone()),
            ) {
                Ok(c) => {
                    eng.wire_add(dst, sim.now(), 1);
                    // Data copied into the packet: local completion
                    // immediate.
                    self.st.borrow_mut().eager_done.push_back(on_local);
                    eng.inner
                        .borrow_mut()
                        .micro
                        .push_back(Micro::BackendUnit(MICRO_EAGER_DONE));
                    c
                }
                // Requeue the whole put; retried on the next wake.
                Err(LciError::Retry) => self.retry_put(eng, sim, dst, &frame, None, on_local),
            };
        }

        let hs = PutHandshake {
            data_tag: rtag,
            size: size as u64,
            r_tag,
            cb_data,
            eager: EagerMode::Rendezvous,
        };
        let wire_len = hs.wire_len();
        let hs_frame = eng.stash_handshake(hs);
        let on_sent = self.on_sent.get();
        let send_res = if self.direct_put {
            // One one-sided write; the handshake's slot id rides as its
            // immediate data.
            self.ep.putd(
                sim,
                dst,
                rtag,
                size,
                data.clone(),
                hs_frame.clone(),
                rtag,
                on_sent,
            )
        } else {
            // Rendezvous: direct send first (its RTS waits at the target
            // until the handshake posts the receive), then the handshake.
            self.ep
                .sendd(sim, dst, rtag, size, data.clone(), rtag, on_sent)
        };
        let mut cost = match send_res {
            Ok(c) => {
                eng.wire_add(dst, sim.now(), 1);
                c
            }
            Err(LciError::Retry) => {
                return self.retry_put(eng, sim, dst, &hs_frame, data, on_local)
            }
        };
        self.st
            .borrow_mut()
            .origin_puts
            .insert(rtag, Some(on_local));
        if self.direct_put {
            return cost;
        }
        let frame = Frames::from(hs_frame);
        match self
            .ep
            .sendb(sim, dst, HS_FLAG | rtag, wire_len, frame.clone())
        {
            Ok(c) => cost += c,
            // The data send is in flight; only the handshake needs
            // retrying, and it re-sends the same slot id.
            Err(LciError::Retry) => {
                self.requeue_sendb(eng, sim, dst, HS_FLAG | rtag, wire_len, frame)
            }
        }
        cost
    }

    fn next_micro(&self, eng: &CommEngine) -> Option<u32> {
        let _ = eng;
        let st = self.st.borrow();
        (st.am_fifo.len() > st.am_claimed
            || st.data_fifo.len() > st.data_claimed
            || (st.retry_wanted && !st.delegated.is_empty()))
        .then_some(MICRO_FIFO_ROUND)
    }

    fn exec_micro_unit(&self, eng: &Rc<CommEngine>, sim: &mut Sim, code: u32) -> SimTime {
        match code {
            MICRO_FIFO_ROUND => self.exec_fifo_round(eng),
            MICRO_DELEGATED => self.exec_delegated(sim),
            MICRO_AM => {
                let a = {
                    let mut st = self.st.borrow_mut();
                    st.am_claimed -= 1;
                    st.am_fifo.pop_front().expect("claimed AM")
                };
                self.exec_am(eng, sim, a)
            }
            MICRO_DATA => {
                let d = {
                    let mut st = self.st.borrow_mut();
                    st.data_claimed -= 1;
                    st.data_fifo.pop_front().expect("claimed data completion")
                };
                self.exec_data(eng, sim, d)
            }
            MICRO_EAGER_DONE => {
                let cb = self.st.borrow_mut().eager_done.pop_front();
                dispatch_put_local(eng, sim, cb.expect("queued eager completion"))
            }
            c => panic!("unknown micro-task code {c}"),
        }
    }

    fn micro_unit_label(&self, code: u32) -> &'static str {
        match code {
            MICRO_FIFO_ROUND => "fifo_round",
            MICRO_DELEGATED => "delegated",
            MICRO_AM => "am",
            MICRO_DATA | MICRO_EAGER_DONE => "data",
            _ => "backend",
        }
    }

    fn resend(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) -> SimTime {
        match self.ep.sendb(sim, dst, tag, size, data.clone()) {
            Ok(c) => c,
            Err(_) => {
                self.requeue_sendb(eng, sim, dst, tag, size, data);
                SimTime::ZERO
            }
        }
    }

    /// Pump the dedicated progress thread (§5.3.1): if it is idle and LCI
    /// has work, run one `LCI_progress` sweep and charge its cost to the
    /// progress core.
    fn drain_progress(&self, eng: &Rc<CommEngine>, sim: &mut Sim) {
        {
            let mut st = self.st.borrow_mut();
            if st.progress_busy {
                return;
            }
            if !self.ep.has_work() {
                return;
            }
            st.progress_busy = true;
        }
        let cost = self.ep.progress(sim) + WAKE_LATENCY;
        self.st.borrow_mut().stat_progress_busy += cost;
        if eng.cfg.trace {
            let now = sim.now();
            eng.trace
                .borrow_mut()
                .record(&eng.prog_track, "progress", now, now + cost);
        }
        // Ablation: share the communication thread's core instead of using
        // the dedicated progress core(s). With several progress threads
        // (§7), the sweep lands on the earliest-available core — an
        // idealized work split.
        let core = if eng.cfg.lci_shared_progress {
            eng.comm_core.clone()
        } else {
            eng.progress_cores
                .iter()
                .min_by_key(|c| c.borrow().available_at())
                .expect("progress core")
                .clone()
        };
        let weak_eng: Weak<CommEngine> = Rc::downgrade(eng);
        let weak_st = Rc::downgrade(&self.st);
        core.borrow_mut().charge(sim, cost, move |sim| {
            if let (Some(eng), Some(st)) = (weak_eng.upgrade(), weak_st.upgrade()) {
                st.borrow_mut().progress_busy = false;
                eng.backend.drain_progress(&eng, sim);
            }
        });
    }

    fn stats(&self, mut base: EngineStats) -> EngineStats {
        let st = self.st.borrow();
        base.delegated_recvs.add(st.stat_delegated.get());
        base.backend_retries.add(st.stat_retries.get());
        base.progress_busy = st.stat_progress_busy;
        base
    }

    #[cfg(test)]
    fn wires_in_flight(&self) -> usize {
        self.ep.wires_in_flight()
    }
}
