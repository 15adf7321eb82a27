//! Cluster and cost-model configuration.

use amt_comm::{BackendKind, EngineConfig};
use amt_netmodel::FabricConfig;
use amt_simnet::SimTime;

/// Whether kernels really execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run real kernels on real bytes; results verifiable.
    #[default]
    Numeric,
    /// Skip kernels; move declared sizes only. Identical protocol traffic.
    CostOnly,
}

/// Task-execution cost model, calibrated to the paper's platform
/// (AMD EPYC 7742 @ 2.25 GHz: ~36 double-precision GFLOP/s per core peak).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Peak double-precision GFLOP/s per worker core.
    pub gflops_per_worker: f64,
    /// Fixed scheduling overhead charged per task execution.
    pub task_overhead: SimTime,
    /// Worker-side cost of submitting one command to the communication
    /// thread (funneled mode).
    pub submit_cost: SimTime,
    /// Communication-thread cost of processing one ACTIVATE record
    /// (unpack, iterate local descendants, decide priority — §4.3).
    pub activate_record_cost: SimTime,
    /// Communication-thread cost of serving one GET DATA request at the
    /// data owner.
    pub get_request_cost: SimTime,
    /// Communication-thread cost of emitting one GET DATA request at the
    /// consumer (queue pop + record build; the wire-send cost is charged by
    /// the engine).
    pub get_send_cost: SimTime,
    /// Communication-thread cost of releasing dependencies on data arrival.
    pub arrival_cost: SimTime,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            gflops_per_worker: 36.0,
            task_overhead: SimTime::from_ns(1500),
            submit_cost: SimTime::from_ns(80),
            // The paper (§4.3) observes that ACTIVATE callbacks are long:
            // unpack each aggregated record, iterate local descendants,
            // evaluate priorities. Microsecond-class, like real PaRSEC.
            activate_record_cost: SimTime::from_ns(2800),
            get_request_cost: SimTime::from_ns(900),
            get_send_cost: SimTime::from_ns(150),
            arrival_cost: SimTime::from_ns(900),
        }
    }
}

impl CostModel {
    /// Virtual duration of a task executing `flops` floating-point
    /// operations at `efficiency` (0, 1] of peak.
    pub fn task_duration(&self, flops: f64, efficiency: f64) -> SimTime {
        debug_assert!(efficiency > 0.0 && efficiency <= 1.0);
        self.task_overhead + SimTime::from_ns_f64(flops / (self.gflops_per_worker * efficiency))
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Worker cores per node. The paper uses 128-core nodes: 127 workers
    /// with the MPI backend (1 communication thread), 126 with LCI
    /// (+1 progress thread); single-node runs use all 128 (§6.1.2).
    pub workers_per_node: usize,
    /// Byte budget for in-flight GET DATA payloads (0 = unlimited). Models
    /// PaRSEC's priority-relative deferral: fetches beyond the budget wait
    /// in the priority queue, so critical-path flows see queue-free
    /// latency instead of burst serialization. At least
    /// `GET_WINDOW_MIN_FLOWS` (4, a constant in `node.rs`) fetches proceed
    /// regardless of size, and never more than `GET_WINDOW` (512, beside
    /// it) are in flight per node whatever the budget (§4.1
    /// prioritization).
    pub get_window_bytes: usize,
    /// Broadcast versions to `Some(k)` or more remote nodes through a
    /// binomial multicast tree (Figure 1): children receive the data, then
    /// forward the announcement down their subtree. `None` = always direct
    /// fan-out from the producer.
    pub bcast_tree_min: Option<usize>,
    /// Multicast tree arity: `Some(k)` splits wide fan-outs into k-way
    /// subtrees ([`crate::records::tree_children_k`]) instead of the
    /// default binomial recursive halving. Only meaningful together with
    /// [`ClusterConfig::bcast_tree_min`]; `k < 2` is rejected at cluster
    /// construction.
    pub multicast_k: Option<usize>,
    /// Execution mode.
    pub mode: ExecMode,
    /// Task cost model.
    pub cost: CostModel,
    /// Fabric parameters (node count is overridden by `nodes`).
    pub fabric: FabricConfig,
    /// Engine parameters, passed to the communication engine unchanged.
    /// The runtime reads four of them too: `backend` picks the
    /// communication library, `multithread_am` the §6.4.3 direct ACTIVATE
    /// sends, and `trace` / `metrics` also switch on the node runtime's and
    /// the real substrate's observability — a Chrome-trace timeline of
    /// task executions, message flows and queue depths
    /// ([`crate::Cluster::trace_json`]), and the per-stage lifecycle
    /// histograms plus the computation/communication overlap integrator
    /// ([`crate::Cluster::metrics_report`]). Both are off by default.
    pub engine: EngineConfig,
    /// Flyweight per-node state for wide clusters: the per-node version
    /// store becomes a hash map over the versions that node actually
    /// touches instead of a byte per version cluster-wide — O(total
    /// versions × nodes) → O(total versions) across the cluster.
    /// Scheduling decisions and reports are byte-identical; dense is
    /// faster per access and remains the default at paper scale (≤ 32
    /// nodes).
    pub flyweight: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            workers_per_node: 8,
            get_window_bytes: 0,
            bcast_tree_min: None,
            multicast_k: None,
            mode: ExecMode::Numeric,
            cost: CostModel::default(),
            fabric: FabricConfig::default(),
            engine: EngineConfig::default(),
            flyweight: false,
        }
    }
}

impl ClusterConfig {
    /// The paper's node configuration: 128 cores, communication thread
    /// pinned (+ progress thread for LCI), remaining cores as workers.
    pub fn expanse_node_workers(backend: BackendKind, nodes: usize) -> usize {
        if nodes == 1 {
            128
        } else {
            match backend {
                BackendKind::Mpi => 127,
                BackendKind::Lci | BackendKind::LciDirect => 126,
            }
        }
    }

    /// Paper-faithful configuration for `nodes` nodes.
    pub fn expanse(backend: BackendKind, nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            workers_per_node: Self::expanse_node_workers(backend, nodes),
            fabric: FabricConfig::expanse(nodes),
            engine: EngineConfig::for_backend(backend),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_duration_scales_with_flops() {
        let c = CostModel::default();
        // 36 GFLOP at 36 GFLOP/s = 1 s (+overhead).
        let d = c.task_duration(36e9, 1.0);
        assert!(d >= SimTime::from_s(1) && d < SimTime::from_s(1) + SimTime::from_us(10));
        // Half efficiency doubles the time.
        let d2 = c.task_duration(36e9, 0.5);
        assert!(d2 > d * 1.9);
    }

    #[test]
    fn expanse_worker_counts_match_paper() {
        assert_eq!(
            ClusterConfig::expanse_node_workers(BackendKind::Mpi, 16),
            127
        );
        assert_eq!(
            ClusterConfig::expanse_node_workers(BackendKind::Lci, 16),
            126
        );
        assert_eq!(
            ClusterConfig::expanse_node_workers(BackendKind::LciDirect, 16),
            126
        );
        assert_eq!(
            ClusterConfig::expanse_node_workers(BackendKind::Lci, 1),
            128
        );
    }
}
