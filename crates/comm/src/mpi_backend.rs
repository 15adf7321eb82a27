//! The MPI backend (§4.2): persistent wildcard receives for AMs, handshake +
//! two-sided transfers for puts, a bounded global request array polled with
//! `Testsome`, inline callbacks, deferred sends and dynamic receives.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use amt_minimpi::{Completion, Mpi, ReqId, SrcSel};
use amt_netmodel::NodeId;
use amt_simnet::{CoreHandle, CoreResource, Counter, FastMap, Sim, SimTime};
use bytes::{Bytes, Frames};

use crate::backend::CommBackend;
use crate::config::{AM_RECV_DEPTH, CMD_OVERHEAD};
use crate::engine::{
    dispatch_am, dispatch_onesided, dispatch_put_local, AmEvent, CommEngine, Micro, PutEvent,
    PutLocalCb, PutRequest, RESERVED_TAG_BASE,
};
use crate::stats::EngineStats;
use crate::wire::{EagerMode, PutHandshake};

/// Internal AM tag carrying put handshakes.
pub(crate) const HS_TAG: u64 = RESERVED_TAG_BASE;
/// Data-transfer tags: `DATA_TAG_BASE + put_id`, unique per origin.
pub(crate) const DATA_TAG_BASE: u64 = RESERVED_TAG_BASE + 1;

/// Micro-task code: one `Testsome` sweep over the global request array.
const MICRO_PROGRESS: u32 = 0;
/// Micro-task code: run the front entry of [`MpiState::completions`].
const MICRO_COMPLETION: u32 = 1;

enum TrackKind {
    /// A persistent AM receive for `tag`.
    AmRecv { tag: u64 },
    /// The origin-side data send of a put.
    DataSend { put_id: u64 },
    /// The target-side data receive of a put.
    DataRecv { src: NodeId, data_tag: u64 },
}

struct TrackedReq {
    req: ReqId,
    kind: TrackKind,
    /// FIFO promotion order for dynamic receives.
    seq: u64,
}

struct TargetPut {
    r_tag: u64,
    cb_data: Bytes,
}

/// Backend-private state, shared with the library waker.
#[derive(Default)]
struct MpiState {
    /// The global request array (`5 × N_am + 30` entries in the paper).
    tracked: Vec<TrackedReq>,
    /// Dynamically-allocated receives, posted but *not polled* until
    /// promoted into the global array (§4.2.2).
    dynamic: VecDeque<TrackedReq>,
    /// Data transfers (sends + receives) currently in the global array.
    slots_in_use: usize,
    /// Puts waiting for a free transfer slot, FIFO.
    deferred_puts: VecDeque<(u64, PutRequest)>,
    /// Sequence source for FIFO promotion ordering.
    next_seq: u64,
    /// Completed requests a sweep found, one per queued
    /// `MICRO_COMPLETION` code, in order.
    completions: VecDeque<Completion>,
    /// Origin-side put completions by put id.
    origin_puts: FastMap<u64, Option<PutLocalCb>>,
    /// Target-side put metadata by (origin, data tag).
    target_puts: FastMap<(NodeId, u64), TargetPut>,
    put_seq: u64,
    /// A `Testsome` sweep is wanted (set by the backend waker).
    progress_queued: bool,
    /// Reusable request-id scratch for `Testsome` sweeps (no per-sweep
    /// allocation once it has grown to the array size).
    req_scratch: Vec<ReqId>,
    /// Times a put had to be deferred for lack of transfer slots.
    stat_deferred: Counter,
    /// Times a receive was posted as "dynamic" outside the polled array.
    stat_dynamic: Counter,
}

impl MpiState {
    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

pub(crate) struct MpiBackend {
    mpi: Mpi,
    /// MPI library serialization (multithreaded senders contend here).
    lock: CoreHandle,
    st: Rc<RefCell<MpiState>>,
}

impl MpiBackend {
    pub(crate) fn new(node: NodeId, mpi: Mpi) -> Self {
        MpiBackend {
            mpi,
            lock: CoreResource::new_shared(format!("n{node}.mpilock")),
            st: Rc::new(RefCell::new(MpiState::default())),
        }
    }

    fn post_persistent(&self, sim: &mut Sim, tag: u64) {
        for _ in 0..AM_RECV_DEPTH {
            let (req, _c) = self.mpi.recv_init(SrcSel::Any, tag);
            self.mpi.start(sim, req);
            let mut st = self.st.borrow_mut();
            let seq = st.bump_seq();
            st.tracked.push(TrackedReq {
                req,
                kind: TrackKind::AmRecv { tag },
                seq,
            });
        }
    }

    /// One `Testsome` sweep over the global array. Completions become their
    /// own micro-tasks; if any completed, another sweep follows them
    /// (§4.2.3: "if no communications were completed ... the progress
    /// function returns; otherwise, it repeats").
    fn exec_progress(&self, eng: &Rc<CommEngine>, sim: &mut Sim) -> SimTime {
        let (reqs, mut completions) = {
            let mut st = self.st.borrow_mut();
            let mut reqs = std::mem::take(&mut st.req_scratch);
            reqs.clear();
            reqs.extend(st.tracked.iter().map(|t| t.req));
            (reqs, std::mem::take(&mut st.completions))
        };
        let queued = completions.len();
        let cost = self.mpi.testsome_into(sim, &reqs, &mut completions);
        let found = completions.len() - queued;
        {
            let mut st = self.st.borrow_mut();
            st.req_scratch = reqs;
            st.completions = completions;
        }
        if found > 0 {
            let mut inner = eng.inner.borrow_mut();
            for _ in 0..found {
                inner.micro.push_back(Micro::BackendUnit(MICRO_COMPLETION));
            }
            inner.micro.push_back(Micro::BackendUnit(MICRO_PROGRESS));
        }
        cost
    }

    /// Process one completed request: run its callback inline (this is the
    /// §4.3/§5.2 pathology — while this executes, nothing else progresses),
    /// then re-enable persistent receives / release transfer slots / promote
    /// deferred work.
    fn exec_completion(&self, eng: &Rc<CommEngine>, sim: &mut Sim, c: Completion) -> SimTime {
        let pos = self.st.borrow().tracked.iter().position(|t| t.req == c.req);
        let Some(pos) = pos else {
            panic!("completion for untracked request");
        };
        let mut cost = SimTime::ZERO;
        let kind = {
            let st = self.st.borrow();
            match &st.tracked[pos].kind {
                TrackKind::AmRecv { tag } => TrackKind::AmRecv { tag: *tag },
                TrackKind::DataSend { put_id } => TrackKind::DataSend { put_id: *put_id },
                TrackKind::DataRecv { src, data_tag } => TrackKind::DataRecv {
                    src: *src,
                    data_tag: *data_tag,
                },
            }
        };
        match kind {
            TrackKind::AmRecv { tag } => {
                // Execute the callback, then re-enable the persistent
                // receive.
                if tag == HS_TAG {
                    let frame = c.status.data.into_bytes().expect("handshake frame");
                    let hs = eng.take_handshake(&frame);
                    cost += self.handle_handshake(eng, sim, c.status.src, hs);
                } else {
                    // Wire stage ends when `Testsome` discovers the receive;
                    // the callback then runs inline (§4.2.3), so the deliver
                    // stage is structurally zero on this backend.
                    eng.record_stage("am.wire_ns", sim.now().saturating_sub(c.status.sent_at));
                    eng.record_stage("am.deliver_ns", SimTime::ZERO);
                    cost += dispatch_am(
                        eng,
                        sim,
                        AmEvent {
                            src: c.status.src,
                            tag,
                            size: c.status.size,
                            data: c.status.data,
                        },
                    );
                }
                cost += self.mpi.start(sim, c.req);
            }
            TrackKind::DataSend { put_id } => {
                self.st.borrow_mut().tracked.remove(pos);
                self.release_slot();
                let cb = self
                    .st
                    .borrow_mut()
                    .origin_puts
                    .remove(&put_id)
                    .expect("unknown put id")
                    .expect("local completion consumed twice");
                cost += dispatch_put_local(eng, sim, cb);
                cost += self.promote(eng, sim);
            }
            TrackKind::DataRecv { src, data_tag } => {
                self.st.borrow_mut().tracked.remove(pos);
                self.release_slot();
                let now = sim.now();
                eng.record_stage("put.wire_ns", now.saturating_sub(c.status.sent_at));
                eng.record_stage("put.deliver_ns", SimTime::ZERO);
                eng.wire_add(eng.node, now, -1);
                let meta = self
                    .st
                    .borrow_mut()
                    .target_puts
                    .remove(&(src, data_tag))
                    .expect("data arrived without handshake");
                cost += dispatch_onesided(
                    eng,
                    sim,
                    meta.r_tag,
                    PutEvent {
                        src,
                        size: c.status.size,
                        data: c.status.data.into_bytes(),
                        cb_data: meta.cb_data,
                    },
                );
                cost += self.promote(eng, sim);
            }
        }
        cost
    }

    fn release_slot(&self) {
        let mut st = self.st.borrow_mut();
        debug_assert!(st.slots_in_use > 0);
        st.slots_in_use -= 1;
    }

    fn start_put(&self, eng: &Rc<CommEngine>, sim: &mut Sim, req: PutRequest) -> SimTime {
        let put_id = {
            let mut st = self.st.borrow_mut();
            let id = st.put_seq;
            st.put_seq += 1;
            id
        };
        let data_tag = DATA_TAG_BASE + put_id;
        let hs = PutHandshake {
            data_tag,
            size: req.size as u64,
            r_tag: req.r_tag,
            cb_data: req.cb_data,
            eager: EagerMode::Rendezvous,
        };
        let wire_len = hs.wire_len();
        let frame = Frames::from(eng.stash_handshake(hs));
        let mut cost = self.mpi.send(sim, req.dst, HS_TAG, wire_len, frame);
        let (sreq, c2) = self
            .mpi
            .isend(sim, req.dst, data_tag, req.size, Frames::from(req.data));
        cost += c2;
        eng.wire_add(req.dst, sim.now(), 1);
        let mut st = self.st.borrow_mut();
        let seq = st.bump_seq();
        st.tracked.push(TrackedReq {
            req: sreq,
            kind: TrackKind::DataSend { put_id },
            seq,
        });
        st.origin_puts.insert(put_id, Some(req.on_local));
        st.progress_queued = true;
        cost
    }

    /// Target side of the handshake: post the matching receive — into the
    /// global array when a slot is free, as an unpolled *dynamic* receive
    /// otherwise (§4.2.2).
    fn handle_handshake(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        src: NodeId,
        hs: PutHandshake,
    ) -> SimTime {
        debug_assert!(
            matches!(hs.eager, EagerMode::Rendezvous),
            "MPI puts never ride eagerly"
        );
        let (rreq, mut cost) = self.mpi.irecv(sim, SrcSel::Rank(src), hs.data_tag);
        let mut st = self.st.borrow_mut();
        st.target_puts.insert(
            (src, hs.data_tag),
            TargetPut {
                r_tag: hs.r_tag,
                cb_data: hs.cb_data,
            },
        );
        let seq = st.bump_seq();
        let tracked = TrackedReq {
            req: rreq,
            kind: TrackKind::DataRecv {
                src,
                data_tag: hs.data_tag,
            },
            seq,
        };
        if st.slots_in_use < eng.cfg.max_concurrent_transfers {
            st.slots_in_use += 1;
            st.tracked.push(tracked);
            st.progress_queued = true;
        } else {
            st.stat_dynamic.inc();
            st.dynamic.push_back(tracked);
            eng.trace_instant("dynamic_recv", sim.now());
        }
        cost += CMD_OVERHEAD;
        cost
    }

    /// While slots are free, start deferred puts and promote dynamic
    /// receives in FIFO order (§4.2.3).
    fn promote(&self, eng: &Rc<CommEngine>, sim: &mut Sim) -> SimTime {
        let mut cost = SimTime::ZERO;
        loop {
            enum Next {
                Put(PutRequest),
                Dyn,
                None,
            }
            let next = {
                let mut st = self.st.borrow_mut();
                if st.slots_in_use >= eng.cfg.max_concurrent_transfers {
                    Next::None
                } else {
                    let pseq = st.deferred_puts.front().map(|(s, _)| *s);
                    let dseq = st.dynamic.front().map(|t| t.seq);
                    match (pseq, dseq) {
                        (None, None) => Next::None,
                        (Some(_), None) => {
                            let (_, p) = st.deferred_puts.pop_front().expect("front checked");
                            st.slots_in_use += 1;
                            Next::Put(p)
                        }
                        (None, Some(_)) => Next::Dyn,
                        (Some(p), Some(d)) => {
                            if p < d {
                                let (_, p) = st.deferred_puts.pop_front().expect("front checked");
                                st.slots_in_use += 1;
                                Next::Put(p)
                            } else {
                                Next::Dyn
                            }
                        }
                    }
                }
            };
            match next {
                Next::None => break,
                Next::Put(p) => {
                    cost += self.start_put(eng, sim, p);
                }
                Next::Dyn => {
                    let mut st = self.st.borrow_mut();
                    let t = st.dynamic.pop_front().expect("checked non-empty");
                    st.slots_in_use += 1;
                    st.tracked.push(t);
                    st.progress_queued = true;
                    cost += CMD_OVERHEAD;
                }
            }
        }
        cost
    }
}

impl CommBackend for MpiBackend {
    fn init(&self, eng: &Rc<CommEngine>, sim: &mut Sim) {
        let weak_eng: Weak<CommEngine> = Rc::downgrade(eng);
        let weak_st = Rc::downgrade(&self.st);
        self.mpi.set_waker(move |sim| {
            if let (Some(eng), Some(st)) = (weak_eng.upgrade(), weak_st.upgrade()) {
                st.borrow_mut().progress_queued = true;
                CommEngine::wake_comm(&eng, sim);
            }
        });
        // Post the persistent receives for the internal handshake tag.
        self.post_persistent(sim, HS_TAG);
    }

    fn register_am_tag(&self, _eng: &Rc<CommEngine>, sim: &mut Sim, tag: u64) {
        self.post_persistent(sim, tag);
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
        let _ = eng;
        self.mpi.send(sim, dst, tag, size, data)
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
        let costs = self.mpi.costs();
        let op_cost = costs.call_base + costs.send_eager_base + costs.copy_cost(size);
        let now = sim.now();
        let end = self.lock.borrow_mut().occupy(now, op_cost);
        // The message leaves once the lock slot is served.
        let mpi = self.mpi.clone();
        sim.schedule_at(end, move |sim| {
            let _ = mpi.send(sim, dst, tag, size, Frames::from(data));
        });
        end - now
    }

    /// Start a put: handshake AM + data `isend` when a transfer slot is
    /// free, deferred otherwise (§4.2.2).
    fn issue_put(&self, eng: &Rc<CommEngine>, sim: &mut Sim, req: PutRequest) -> SimTime {
        eng.inner.borrow_mut().stats.puts_started.inc();
        {
            let mut st = self.st.borrow_mut();
            if st.slots_in_use >= eng.cfg.max_concurrent_transfers {
                st.stat_deferred.inc();
                let seq = st.bump_seq();
                st.deferred_puts.push_back((seq, req));
                eng.trace_instant("deferred_put", sim.now());
                return CMD_OVERHEAD;
            }
            st.slots_in_use += 1;
        }
        self.start_put(eng, sim, req)
    }

    fn next_micro(&self, eng: &CommEngine) -> Option<u32> {
        let _ = eng;
        std::mem::take(&mut self.st.borrow_mut().progress_queued).then_some(MICRO_PROGRESS)
    }

    fn exec_micro_unit(&self, eng: &Rc<CommEngine>, sim: &mut Sim, code: u32) -> SimTime {
        match code {
            MICRO_PROGRESS => self.exec_progress(eng, sim),
            MICRO_COMPLETION => {
                let c = self.st.borrow_mut().completions.pop_front();
                self.exec_completion(
                    eng,
                    sim,
                    c.expect("completion micro-task without a completion"),
                )
            }
            c => panic!("unknown micro-task code {c}"),
        }
    }

    fn micro_unit_label(&self, code: u32) -> &'static str {
        match code {
            MICRO_PROGRESS => "testsome",
            MICRO_COMPLETION => "completion",
            _ => "backend",
        }
    }

    fn serializing_lock(&self) -> Option<CoreHandle> {
        Some(self.lock.clone())
    }

    fn stats(&self, mut base: EngineStats) -> EngineStats {
        let st = self.st.borrow();
        base.deferred_puts.add(st.stat_deferred.get());
        base.dynamic_recvs.add(st.stat_dynamic.get());
        base
    }

    #[cfg(test)]
    fn wires_in_flight(&self) -> usize {
        self.mpi.wires_in_flight()
    }

    #[cfg(test)]
    fn unexpected_depth(&self) -> usize {
        self.mpi.unexpected_depth()
    }
}
