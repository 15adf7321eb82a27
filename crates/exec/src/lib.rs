//! # amt-exec
//!
//! The **real execution substrate**: a work-stealing OS-thread pool
//! implementing the [`Substrate`] seam from `amt-simnet`, so the same
//! scheduler/graph/comm stack that runs on the deterministic
//! discrete-event simulator also runs on real hardware threads
//! (`amt_core::Cluster::execute_real`).
//!
//! * [`deque`] — a bounded lock-free Chase–Lev-style deque per worker:
//!   LIFO local push/pop, FIFO stealing, overflow to a shared injector.
//! * [`Pool`] — the pool itself: randomized steal-victim probing seeded by
//!   `DetRng` (reproducible probe sequences per run seed), an atomic
//!   epoch parker/wake protocol for idle workers, and quiescence detection
//!   ([`Pool::run_until_idle`]) from the parked-worker count and an
//!   injector-job counter.
//! * Observability — always-on per-worker scheduling counters
//!   ([`PoolStats`]: spawns, executions, steals, failed probes, parks)
//!   and, on a traced pool ([`Pool::new_traced`]), per-worker lock-free
//!   trace buffers recording task spans, steal flow arrows, park/unpark
//!   instants, and queue-depth samples ([`TraceEvent`]), drained at
//!   quiescence by [`Pool::drain_trace`].
//!
//! Jobs are [`SubstrateJob`] closures taking `&mut dyn Substrate`, so
//! code scheduled here is written once and also runs on the virtual
//! substrate — or bare task ids for a runner installed with the pool
//! ([`Pool::with_runner`]), which cost no allocation. With `threads == 1`
//! execution order is fully deterministic; at any thread count a
//! pure-kernel dataflow graph produces bitwise identical payloads because
//! the graph fixes all data dependencies.

#![deny(missing_docs)]

pub mod deque;
mod obs;
mod pool;

pub use amt_simnet::{Substrate, SubstrateJob, SubstrateKind};
pub use deque::{deque, Steal, Stealer, Worker};
pub use obs::{PoolStats, TraceEvent, WorkerStats};
pub use pool::{Pool, WorkerCtx};

#[cfg(test)]
mod tests;
