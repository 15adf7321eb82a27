//! # amt-exec
//!
//! The **real execution substrate**: a work-stealing OS-thread pool on
//! which `amt_core::Cluster::execute_real` runs the same graphs, kernels
//! and ACTIVATE / GET DATA / put protocol as the deterministic
//! discrete-event simulator, on real hardware threads.
//!
//! * [`Pool`] — the pool itself: one mutex-guarded queue per worker (LIFO
//!   local push/pop, FIFO stealing by `try_lock`), a shared injector for
//!   spawns from outside, randomized steal-victim probing seeded by
//!   `DetRng` (reproducible probe sequences per run seed), a park/wake
//!   protocol for idle workers whose pushes write nothing shared unless a
//!   worker sleeps (checked over every interleaving by the test-only
//!   `park_check` module), and quiescence detection
//!   ([`Pool::run_until_idle`]) from the parked-worker count and an
//!   injector-job counter. Its clock ([`WorkerCtx::now`]) reads the
//!   CPU's time-stamp counter where it is invariant, `Instant` elsewhere.
//! * Observability — always-on per-worker scheduling counters
//!   ([`PoolStats`]: spawns, executions, steals, failed probes, parks)
//!   and, on a traced pool ([`Pool::new_traced`]), per-worker lock-free
//!   trace buffers recording task spans, steal flow arrows, park/unpark
//!   instants, and queue-depth samples ([`TraceEvent`]), drained at
//!   quiescence by [`Pool::drain_trace`].
//!
//! Jobs are [`PoolJob`] closures taking the running worker's
//! [`WorkerCtx`] (its clock, identity, queue and trace buffer) — or bare
//! task ids for a runner installed with the pool ([`Pool::with_runner`]),
//! which cost no allocation. With `threads == 1` execution order is fully
//! deterministic; at any thread count a pure-kernel dataflow graph
//! produces bitwise identical payloads because the graph fixes all data
//! dependencies.

#![deny(missing_docs)]

mod obs;
#[cfg(test)]
mod park_check;
mod pool;

pub use obs::{PoolStats, TraceEvent, WorkerStats};
pub use pool::{Pool, PoolJob, WorkerCtx};
