//! The §7 direct-put backend: LCI with `putd` replacing the handshake
//! emulation for large puts.
//!
//! The paper's future-work proposal (§7) observes that once the target
//! pre-registers its memory, a put needs no rendezvous at all: the origin
//! issues **one** one-sided RDMA write whose immediate data carries the
//! completion descriptor (remote tag + callback data), and the target's
//! progress thread learns about the transfer only when it has already
//! finished. Compared to the handshake path this removes, per large put:
//!
//! * one buffered handshake message (origin → target),
//! * one RTS/RTR rendezvous round-trip inside `sendd`/`recvd`,
//! * the target-side receive posting (and its `Retry`/delegation path).
//!
//! Small puts are unaffected: at or below `eager_put_max` the payload
//! already rides inline in a single buffered message, which is exactly as
//! cheap as an inline `putd` — so this backend delegates them to the base
//! LCI path unchanged. The result is that direct put is never *slower* than
//! the handshake emulation at any size, and the small-fragment bandwidth
//! knee (Fig. 2a) moves left: fragments just above `eager_put_max`, which
//! previously paid the full rendezvous round-trip, now cost a single wire
//! crossing.

use std::rc::Rc;

use amt_lci::Lci;
use amt_netmodel::NodeId;
use amt_simnet::{CoreHandle, Sim, SimTime};
use bytes::{Bytes, Frames};

use crate::backend::{BackendTask, CommBackend};
use crate::config::{BackendKind, EngineConfig};
use crate::engine::{CommEngine, PutRequest};
use crate::lci_backend::LciBackend;
use crate::stats::EngineStats;

/// LCI backend variant issuing large puts as single direct RDMA writes.
/// Everything except `issue_put` is the plain LCI backend.
pub(crate) struct LciDirect {
    base: LciBackend,
}

impl LciDirect {
    pub(crate) fn new(ep: Lci, cfg: &EngineConfig) -> Self {
        LciDirect {
            base: LciBackend::new(ep, cfg),
        }
    }
}

impl CommBackend for LciDirect {
    fn kind(&self) -> BackendKind {
        BackendKind::LciDirect
    }

    fn progress_threads(&self) -> usize {
        self.base.progress_threads()
    }

    fn init(&self, eng: &Rc<CommEngine>, sim: &mut Sim) {
        self.base.init(eng, sim);
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
        self.base.issue_am(eng, sim, dst, tag, size, data)
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
        self.base.issue_am_direct(eng, sim, dst, tag, size, data)
    }

    fn issue_put(&self, eng: &Rc<CommEngine>, sim: &mut Sim, req: PutRequest) -> SimTime {
        // Small puts already travel as one inline buffered message on the
        // base path; only above the (possibly adapted) eager threshold does
        // the direct write beat the handshake + rendezvous emulation.
        if req.size <= eng.cfg.eager_put_max {
            self.base.issue_put(eng, sim, req)
        } else {
            self.base.issue_put_direct(eng, sim, req)
        }
    }

    fn next_micro(&self, eng: &CommEngine) -> Option<u32> {
        self.base.next_micro(eng)
    }

    fn exec_micro_unit(&self, eng: &Rc<CommEngine>, sim: &mut Sim, code: u32) -> SimTime {
        self.base.exec_micro_unit(eng, sim, code)
    }

    fn micro_unit_label(&self, code: u32) -> &'static str {
        self.base.micro_unit_label(code)
    }

    fn exec_command(&self, eng: &Rc<CommEngine>, sim: &mut Sim, cmd: BackendTask) -> SimTime {
        self.base.exec_command(eng, sim, cmd)
    }

    fn serializing_lock(&self) -> Option<CoreHandle> {
        self.base.serializing_lock()
    }

    fn drain_progress(&self, eng: &Rc<CommEngine>, sim: &mut Sim) {
        self.base.drain_progress(eng, sim);
    }

    fn stats(&self, base: EngineStats) -> EngineStats {
        self.base.stats(base)
    }
}
