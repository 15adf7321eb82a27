//! # amt-simnet
//!
//! A deterministic, single-threaded discrete-event simulation (DES) engine.
//!
//! This crate is the substrate on which the rest of the `amtlc` workspace
//! simulates a multi-node HPC cluster: CPU cores, communication threads,
//! NICs and links are all modelled as *resources* whose occupancy is charged
//! in virtual time, while the actual Rust code for schedulers, matching
//! engines and protocol state machines runs for real inside events.
//!
//! ## Model
//!
//! * [`Sim`] owns a virtual clock and a monotone radix queue of events (see
//!   `engine` module docs). An event is an `FnOnce(&mut Sim)` closure stored
//!   in an [`EventFn`] in its slab slot — inline when its captures fit three
//!   words, boxed otherwise. Events scheduled for the same virtual instant
//!   execute in scheduling order, which makes every simulation fully
//!   deterministic.
//! * Components are ordinary Rust structs wrapped in `Rc<RefCell<_>>` and
//!   captured by the closures they schedule. The engine is single-threaded,
//!   so this is safe and cheap.
//! * [`CoreResource`] models a serially-occupied execution resource (a CPU
//!   core, a pinned communication thread, a NIC DMA engine): work items are
//!   served FIFO, each occupying the resource for a caller-supplied duration.
//! * [`TokenPool`] models bounded credit pools (request slots, packet pools)
//!   with FIFO waiter queues, used for back-pressure.
//!
//! ## Example
//!
//! ```
//! use amt_simnet::{Sim, SimTime};
//!
//! let mut sim = Sim::new();
//! sim.schedule_in(SimTime::from_us(5), |sim| {
//!     assert_eq!(sim.now(), SimTime::from_us(5));
//! });
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_us(5));
//! ```

mod engine;
mod event;
mod hash;
mod metrics;
pub mod reference;
mod resource;
pub mod rng;
mod slab;
mod stats;
mod time;
mod trace;

pub use engine::Sim;
pub use event::EventFn;
pub use hash::{FastHasher, FastMap};
pub use metrics::{MetricsRegistry, OverlapTracker};
pub use resource::{CoreHandle, CoreResource, TokenPool, TokenPoolHandle};
pub use rng::DetRng;
pub use slab::Slab;
pub use stats::{Counter, Histogram, OnlineStats};
pub use time::SimTime;
pub use trace::{json_escape, CounterSample, FlowEvent, FlowPhase, InstantEvent, Span, Trace};

/// Convenient alias used throughout the workspace for shared simulation
/// components.
pub type Shared<T> = std::rc::Rc<std::cell::RefCell<T>>;

/// Wrap a component for shared ownership inside the simulation.
pub fn shared<T>(value: T) -> Shared<T> {
    std::rc::Rc::new(std::cell::RefCell::new(value))
}

/// Clone shared handles into a closure without the `let x2 = x.clone()`
/// boilerplate:
///
/// ```
/// use amt_simnet::{cloned, shared, Sim, SimTime};
///
/// let mut sim = Sim::new();
/// let log = shared(Vec::new());
/// sim.schedule_in(
///     SimTime::from_us(1),
///     cloned!([log] move |sim| log.borrow_mut().push(sim.now())),
/// );
/// sim.run();
/// assert_eq!(log.borrow().len(), 1);
/// ```
///
/// Each listed name is shadowed by its clone in a block around the closure,
/// so the original handles stay usable afterwards. Keeping the capture list
/// to the handles the closure actually needs also keeps captures small,
/// which feeds the [`EventFn`] inline (allocation-free) representation.
#[macro_export]
macro_rules! cloned {
    ([$($name:ident),+ $(,)?] $closure:expr) => {{
        $(let $name = $name.clone();)+
        $closure
    }};
}
