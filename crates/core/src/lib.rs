//! # amt-core
//!
//! A PaRSEC-style **asynchronous many-task runtime**: dynamic task-DAG
//! insertion with automatic dependence analysis, priority scheduling onto
//! per-node worker cores, and distributed dataflow through the
//! communication engine's ACTIVATE / GET DATA / put protocol (paper §4.1,
//! Figure 1) — over either **substrate**:
//!
//! * the deterministic single-threaded simulator ([`Cluster::execute`],
//!   [`Cluster::execute_windowed`]): virtual time, simulated fabric and
//!   engines, byte-reproducible runs;
//! * the real work-stealing thread pool ([`Cluster::execute_real`]):
//!   wall-clock time, real OS threads, the same protocol, its records
//!   passed in process as typed messages. Numeric payloads are bitwise
//!   identical across substrates and thread counts.
//!
//! ## Model
//!
//! * **Tasks** are inserted into a [`TaskGraph`] with declared data accesses
//!   (read / write by [`DataKey`]). Writes create new immutable *versions*
//!   (data renaming, like PaRSEC's data copies), so the only true
//!   dependencies are read-after-write.
//! * Each task executes on an assigned **node** (owner-computes by default);
//!   each node runs `workers` simulated cores fed from a priority ready
//!   queue.
//! * When a task completes, versions its consumers need on other nodes are
//!   announced with **ACTIVATE** active messages (aggregated per destination
//!   by the communication thread, or sent directly by workers in
//!   multithreaded mode). The receiver prioritizes each flow and replies
//!   with **GET DATA** when the flow's priority clears its in-flight window;
//!   the owner then starts a one-sided **put**. Data arrival releases the
//!   consumers (Figure 1).
//! * **End-to-end latency** is measured exactly as in the paper (§6.4.2):
//!   from the ACTIVATE send to the arrival of the data, per flow; the
//!   virtual clock is global, so no clock synchronization is needed.
//!
//! ## Execution modes
//!
//! [`ExecMode::Numeric`] runs real kernels on real bytes (results are
//! verifiable); [`ExecMode::CostOnly`] skips kernels and moves declared
//! sizes — identical protocol traffic, none of the memory. Both modes run
//! on both substrates.
//!
//! ## Example
//!
//! ```
//! use amt_core::{Cluster, ClusterConfig, GraphBuilder, TaskDesc};
//! use amt_comm::EngineConfig;
//!
//! let mut cluster = Cluster::new(ClusterConfig {
//!     nodes: 2,
//!     workers_per_node: 4,
//!     engine: EngineConfig::lci(),
//!     ..Default::default()
//! });
//! let mut g = GraphBuilder::new(cluster.nodes());
//! let a = g.data(0, 1024, 0, None); // key 0, 1 KiB, on node 0
//! g.insert(
//!     TaskDesc::new("double")
//!         .on_node(1)
//!         .flops(1e6)
//!         .read(a)
//!         .write(1, 1024),
//! );
//! let report = cluster.execute(g.build());
//! assert_eq!(report.tasks_executed, 1);
//! ```

mod calib;
mod cluster;
mod config;
mod dist;
mod graph;
mod metrics;
mod node;
mod protocol;
mod queue;
mod real;
mod records;
mod store;
mod window;

pub use calib::{
    CalibrationProfile, CostSummary, CALIB_SCHEMA, REC_ACTIVATE, REC_ARRIVAL, REC_GET_REQUEST,
    REC_TASK_OVERHEAD,
};
pub use cluster::{Cluster, RunReport};
pub use config::{ClusterConfig, CostModel, ExecMode};
pub use dist::{Cyclic1d, DataDist, TileDist2d};
pub use graph::{
    DataKey, GraphBuilder, GraphHandle, GraphSource, Kernel, TaskDesc, TaskGraph, TaskId, VersionId,
};
pub use metrics::{LatencySummary, MetricsReport};
pub use records::{tree_children, tree_children_k};

#[cfg(test)]
mod tests;
