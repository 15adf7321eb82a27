//! # amt-comm
//!
//! The PaRSEC-style **communication engine** (paper §4–§5): the abstraction
//! of Listing 1 — registered active messages, one-sided `put` with remote
//! completion callbacks, explicit progress — over pluggable backends behind
//! an object-safe `CommBackend` trait (`backend.rs`). The engine itself
//! never branches on the backend kind; the single construction factory
//! does.
//!
//! * **MPI backend** (§4.2): five persistent wildcard receives per AM tag,
//!   blocking eager sends for AMs, put emulated with a handshake AM plus
//!   two-sided transfers on unique tags, a global request array capped at 30
//!   concurrent data transfers polled with `Testsome`, completion callbacks
//!   executed *inline in the progress loop* (blocking all other progress —
//!   the measured pathology), deferred sends and dynamically-allocated
//!   receives promoted FIFO as slots free up.
//! * **LCI backend** (§5.3): a dedicated **progress thread** on its own core
//!   draining `LCI_progress`; active messages delivered through dynamically
//!   allocated buffers and pushed onto FIFO completion queues consumed by
//!   the communication thread (≤5 AM completions per round, then all bulk
//!   data completions, looping); put handshakes on a specialized tag path
//!   that bypasses the AM hash lookup; small puts carried eagerly inside the
//!   handshake; `Retry` on receive posting delegated from the progress
//!   thread to the communication thread. Its direct sends, puts and
//!   receives complete through two LCI handlers registered once at `init`
//!   — registered objects named by id, as LCI's `LCI_handler_create` makes
//!   them — never through a per-operation closure.
//! * **LCI direct-put backend** (§7): the same implementor with
//!   `direct_put` set, issuing large puts as a single one-sided `putd` —
//!   the completion descriptor rides as immediate data, eliminating the
//!   handshake message and the rendezvous round-trip entirely. Small puts
//!   stay on the eager inline path, so direct put is never slower than the
//!   handshake emulation.
//!
//! ## The communication thread (§4.3)
//!
//! Each node's engine embodies PaRSEC's communication thread as a
//! **micro-task actor** pinned to a dedicated simulated core: every unit of
//! work (a batch of submitted commands, one `Testsome` sweep, one completion
//! callback) executes as a separate charge on that core, so a long active
//! message callback really does delay everything queued behind it — in the
//! MPI backend that includes all matching and progress, in the LCI backends
//! only the callback FIFOs (the progress thread keeps running).
//!
//! Worker threads normally *funnel* ACTIVATE-class messages through the
//! communication thread (with per-destination aggregation); the
//! **multithreaded mode** (§6.4.3) lets workers send directly —
//! [`CommEngine::send_am_direct`] — which disables aggregation and, for the
//! MPI backend, contends on the library's serializing lock.

mod backend;
mod config;
mod engine;
mod lci_backend;
mod mpi_backend;
pub mod shm;
mod stats;
mod wire;

pub use config::{BackendKind, EngineConfig, AM_BATCH, AM_RECV_DEPTH};
pub use engine::{
    AmCallback, AmEvent, CommEngine, CommWorld, OnesidedCallback, PutEvent, PutLocalCb, PutRequest,
};
pub use shm::{ShmMsg, ShmNode, ShmWorld};
pub use stats::EngineStats;
pub use wire::{frame_slot, slot_frame};

#[cfg(test)]
mod tests;
