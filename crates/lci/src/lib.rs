//! # amt-lci
//!
//! A Rust reimplementation of **LCI**, the Lightweight Communication
//! Interface ([Snir, Dang, Mor, Yan; LCI v1.7]), over the simulated fabric —
//! the communication library the paper integrates into PaRSEC (§5).
//!
//! ## The LCI model (paper §5.1)
//!
//! * Three send protocols:
//!   - **Immediate** (`sendi`): messages up to a cache line, sent inline
//!     from the user buffer, fire-and-forget.
//!   - **Buffered** (`sendb`): up to a few pages, copied into a
//!     pre-registered packet from a bounded pool; local completion at copy.
//!   - **Direct** (`sendd`/`recvd`): any length, RDMA with an RTS/RTR
//!     rendezvous, zero-copy; matched by `(source, rendezvous-tag)`.
//! * Every call is **non-blocking** and may fail with [`LciError::Retry`]
//!   when resources (packets, posted-receive slots, outstanding RDMA ops)
//!   are exhausted — back-pressure the consuming runtime must handle by
//!   progressing and resubmitting (§5.3.3 relies on exactly this for
//!   receives posted from the progress thread).
//! * **Explicit progress**: [`Lci::progress`] drains hardware completion
//!   queues, matches rendezvous messages, executes user completion handlers
//!   and refills receive resources. Nothing advances outside `progress`
//!   (and the zero-cost hardware enqueue the fabric performs on delivery).
//!   This is what lets the PaRSEC LCI backend dedicate a *progress thread*
//!   separate from the communication thread.
//! * Completion is signalled through a **handler** run inside `progress`
//!   (LCI also offers completion queues and synchronizers; the engine
//!   needs neither, so the model leaves them out). A handler is a
//!   registered object (`LCI_handler_create`: [`Lci::handler_new`]) that
//!   operations name by a `Copy` id in [`OnComplete`]; the completion's
//!   `ctx` tells the operations apart. No operation carries a closure.
//! * Messages on the simulated fabric are plain records in the world's
//!   slab, sent as their id (`Payload::Wire`); nothing on the message path
//!   is boxed, so a warmed buffered send allocates nothing.
//! * Receive buffers for immediate/buffered messages are **dynamically
//!   allocated at the target** from a packet pool; there is no tag matching
//!   for them, just a handler dispatch — one of the key latency advantages
//!   over the MPI persistent-receive scheme.
//!
//! ## Time accounting
//!
//! As with `amt-minimpi`, calls execute their logic immediately and return
//! the CPU cost the caller must charge to its simulated core. Handler costs
//! incurred inside `progress` are included in the cost `progress` returns,
//! so a dedicated progress-thread core naturally accumulates that load.

mod costs;
mod world;

pub use costs::LciCosts;
pub use world::{
    AmMsg, CompEntry, HandlerId, Lci, LciError, LciWorld, OnComplete, PutMsg, WeakLci,
};

#[cfg(test)]
mod tests;
