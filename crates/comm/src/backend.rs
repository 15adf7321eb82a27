//! The backend seam: every communication library the engine can sit on
//! implements [`CommBackend`], and [`CommEngine`] dispatches exclusively
//! through a `Box<dyn CommBackend>` — it contains no per-backend branching.
//!
//! The only place allowed to inspect [`BackendKind`] is [`make_backends`],
//! the construction factory. Adding a backend means writing one implementor
//! and one factory arm; the engine, the micro-task actor, and every consumer
//! above stay untouched.
//!
//! Backend work reaches the communication thread as plain `u32` codes on
//! the engine's micro-task queue, never as boxes. A micro-task that carries
//! data (an AM callback, a put completion, a completed MPI request) leaves
//! that data at the front of a FIFO the backend owns and queues its code;
//! since the engine queue is strictly first-in first-out, the `n`-th code
//! of a kind always finds the `n`-th entry of its FIFO. A send that hit
//! back-pressure re-enters the engine's command queue at the front as a
//! typed `Command::Resend` and comes back through [`CommBackend::resend`].
//!
//! The libraries underneath are just as box-free: their wire messages are
//! slab records sent by id, and LCI completions name handlers each backend
//! registers once at `init` (`Lci::handler_new`).

use std::rc::Rc;

use amt_lci::{LciCosts, LciWorld};
use amt_minimpi::{MpiCosts, MpiWorld};
use amt_netmodel::{FabricHandle, NodeId};
use amt_simnet::{CoreHandle, Sim, SimTime};
use bytes::{Bytes, Frames};

use crate::config::{BackendKind, EngineConfig};
use crate::engine::{CommEngine, PutRequest};
use crate::lci_backend::LciBackend;
use crate::mpi_backend::MpiBackend;
use crate::stats::EngineStats;

/// One communication library under the engine. All methods take the engine
/// by `&Rc` so implementors can reach the shared actor state (`eng.inner`),
/// the configuration, and the simulated cores, and can hand weak engine
/// references to completion handlers.
pub(crate) trait CommBackend {
    /// Number of dedicated progress-thread cores this backend wants.
    fn progress_threads(&self) -> usize {
        0
    }

    /// One-time wiring once the engine `Rc` exists: wakers, wire handlers,
    /// internal protocol tags.
    fn init(&self, eng: &Rc<CommEngine>, sim: &mut Sim);

    /// A user AM tag was registered (MPI posts its persistent receives
    /// here; backends with dynamic buffers need nothing).
    fn register_am_tag(&self, eng: &Rc<CommEngine>, sim: &mut Sim, tag: u64) {
        let _ = (eng, sim, tag);
    }

    /// Put an AM on the wire from the communication thread (or a callback
    /// running in its context). `data` may carry several frames when
    /// aggregation merged submissions; the backend forwards them zero-copy.
    /// Returns the CPU cost to charge.
    fn issue_am(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) -> SimTime;

    /// Multithreaded-mode AM send from a worker thread (§6.4.3), bypassing
    /// the communication thread. Returns the cost the caller charges to its
    /// own core — including library serialization where the backend has it.
    fn issue_am_direct(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Option<Bytes>,
    ) -> SimTime;

    /// Start a one-sided put from the communication thread.
    fn issue_put(&self, eng: &Rc<CommEngine>, sim: &mut Sim, req: PutRequest) -> SimTime;

    /// Pull the backend's next micro-task, if it has one ready, as a
    /// backend-private code. Called by the actor after the generic queues
    /// (pending micro-tasks, submitted commands) are empty.
    fn next_micro(&self, eng: &CommEngine) -> Option<u32>;

    /// Execute one backend micro-task, identified by the code it was
    /// queued under (via [`Self::next_micro`] or a `Micro::BackendUnit`
    /// the backend pushed itself). A micro-task that carries data finds it
    /// at the front of the backend's own FIFO for that code: the engine's
    /// micro-task queue is only ever pushed at the back and popped at the
    /// front, so codes and FIFO entries pair up in order.
    fn exec_micro_unit(&self, eng: &Rc<CommEngine>, sim: &mut Sim, code: u32) -> SimTime;

    /// A short static label for a backend micro-task code, naming its span
    /// on the communication-thread trace track.
    fn micro_unit_label(&self, code: u32) -> &'static str;

    /// Retry a send that hit back-pressure and queued itself as a
    /// `Command::Resend`. Backends whose sends never fail keep the default,
    /// a plain [`Self::issue_am`].
    fn resend(
        &self,
        eng: &Rc<CommEngine>,
        sim: &mut Sim,
        dst: NodeId,
        tag: u64,
        size: usize,
        data: Frames,
    ) -> SimTime {
        self.issue_am(eng, sim, dst, tag, size, data)
    }

    /// The library's serializing lock, if the backend has one: every
    /// communication-thread charge occupies it, so multithreaded direct
    /// senders contend with the engine (the MPI pathology of §4.3).
    fn serializing_lock(&self) -> Option<CoreHandle> {
        None
    }

    /// Drive the backend's dedicated progress machinery (the LCI progress
    /// thread of §5.3.1). Called from the backend's own waker; backends
    /// without progress threads keep the default.
    fn drain_progress(&self, eng: &Rc<CommEngine>, sim: &mut Sim) {
        let _ = (eng, sim);
    }

    /// Fold the backend's private counters into an engine-stats snapshot.
    fn stats(&self, base: EngineStats) -> EngineStats;

    /// Wire records the library's whole world holds in flight (sent, not
    /// yet delivered): zero once a run has drained.
    #[cfg(test)]
    fn wires_in_flight(&self) -> usize;

    /// Messages waiting in the library's unexpected-message table: 0 once
    /// a run has drained. Libraries without one keep the default.
    #[cfg(test)]
    fn unexpected_depth(&self) -> usize {
        0
    }
}

/// Construct one backend per fabric node. This factory is the single place
/// in the crate that matches on [`BackendKind`].
pub(crate) fn make_backends(
    fabric: &FabricHandle,
    cfg: &EngineConfig,
) -> Vec<Box<dyn CommBackend>> {
    match cfg.backend {
        BackendKind::Mpi => MpiWorld::create(fabric, MpiCosts::default())
            .into_iter()
            .enumerate()
            .map(|(node, mpi)| Box::new(MpiBackend::new(node, mpi)) as Box<dyn CommBackend>)
            .collect(),
        BackendKind::Lci | BackendKind::LciDirect => {
            let direct_put = cfg.backend == BackendKind::LciDirect;
            LciWorld::create(fabric, LciCosts::default())
                .into_iter()
                .map(|ep| Box::new(LciBackend::new(ep, cfg, direct_put)) as Box<dyn CommBackend>)
                .collect()
        }
    }
}
