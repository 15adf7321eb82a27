//! Derived run metrics: the paper's Fig. 3 computation/communication
//! overlap fraction and the Fig. 6 activation-latency breakdown, plus the
//! merged per-stage message-lifecycle histograms, serialized as one
//! *stable* JSON report.
//!
//! Stability contract: the report is assembled from BTreeMap-ordered
//! registries, fixed-order engine counters, and integer-nanosecond
//! integrators, so two identical simulated runs (same graph, same seed,
//! same backend) produce **byte-identical** JSON.

use std::fmt::Write as _;

use amt_comm::BackendKind;
use amt_exec::PoolStats;
use amt_simnet::{json_escape, MetricsRegistry, OnlineStats};

/// Summary of one latency distribution in the activation breakdown (µs).
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub min_us: f64,
    pub max_us: f64,
}

impl LatencySummary {
    pub(crate) fn from_stats(s: &OnlineStats) -> Self {
        if s.count() == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: s.count(),
            mean_us: s.mean(),
            min_us: s.min(),
            max_us: s.max(),
        }
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"count":{},"mean_us":{:.3},"min_us":{:.3},"max_us":{:.3}}}"#,
            self.count, self.mean_us, self.min_us, self.max_us
        );
    }
}

/// Cluster-wide derived metrics of one [`crate::Cluster::execute`] run
/// (enable with [`crate::ClusterConfig::metrics`]).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Backend that produced the run.
    pub backend: BackendKind,
    /// Which substrate executed: `"virtual"` (simulated time) or `"real"`
    /// (wall clock on the work-stealing pool).
    pub substrate: &'static str,
    pub nodes: usize,
    pub makespan_ns: u64,
    /// Simulator events executed by the run (engine-throughput metric).
    pub sim_events: u64,
    /// Release-mode past-scheduling clamps — non-zero flags a model bug
    /// that debug builds turn into a panic.
    pub schedule_past_clamped: u64,
    /// High-water mark of the simulator's pending-event queue over the
    /// cluster's lifetime — the queue-pressure signal for scale runs
    /// (0 on the real substrate: there is no event queue).
    pub events_peak_pending: u64,
    /// Per-stage lifecycle histograms + engine-internal counters, merged
    /// across all nodes.
    pub stages: MetricsRegistry,
    /// Engine counters merged across nodes, in a fixed order.
    pub engine: Vec<(&'static str, u64)>,
    /// Total time nodes spent receiving bulk data over the wire (ns).
    pub wire_ns: u64,
    /// Portion of `wire_ns` concurrent with local worker compute (ns).
    pub overlap_ns: u64,
    /// `overlap_ns / wire_ns` — the Fig. 3 overlap fraction. 0 when the
    /// run moved no bulk data.
    pub overlap_fraction: f64,
    /// Individual ACTIVATE message latency (§6.4.3).
    pub activation_msg: LatencySummary,
    /// Control path: ACTIVATE send → GET DATA arrival at the owner.
    pub activation_request: LatencySummary,
    /// End to end: ACTIVATE send → data arrival (§6.4.2, Fig. 6).
    pub activation_e2e: LatencySummary,
    /// Work-stealing pool scheduling counters (real-substrate runs only).
    pub pool: Option<PoolStats>,
}

fn backend_name(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Mpi => "mpi",
        BackendKind::Lci => "lci",
        BackendKind::LciDirect => "lci-direct",
    }
}

impl MetricsReport {
    /// Stable JSON serialization (byte-identical across identical runs).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"backend":"{}","substrate":"{}","nodes":{},"makespan_ns":{},"#,
            json_escape(backend_name(self.backend)),
            json_escape(self.substrate),
            self.nodes,
            self.makespan_ns
        );
        let _ = write!(
            out,
            r#""sim":{{"events":{},"schedule_past_clamped":{},"events_peak_pending":{}}},"#,
            self.sim_events, self.schedule_past_clamped, self.events_peak_pending
        );
        let _ = write!(
            out,
            r#""overlap":{{"wire_ns":{},"overlap_ns":{},"fraction":{:.6}}},"#,
            self.wire_ns, self.overlap_ns, self.overlap_fraction
        );
        out.push_str(r#""activation_latency_us":{"msg":"#);
        self.activation_msg.write_json(&mut out);
        out.push_str(r#","request":"#);
        self.activation_request.write_json(&mut out);
        out.push_str(r#","e2e":"#);
        self.activation_e2e.write_json(&mut out);
        out.push_str(r#"},"engine":{"#);
        let mut first = true;
        for (name, v) in &self.engine {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, r#""{}":{}"#, json_escape(name), v);
        }
        out.push_str(r#"},"pool":"#);
        match &self.pool {
            None => out.push_str("null"),
            Some(p) => {
                let _ = write!(
                    out,
                    r#"{{"workers":{},"injector_pushes":{},"spawns":{},"executions":{},"steals":{},"failed_probes":{},"parks":{},"trace_dropped":{},"per_worker":["#,
                    p.per_worker.len(),
                    p.injector_pushes,
                    p.spawns(),
                    p.executions(),
                    p.steals(),
                    p.failed_probes(),
                    p.parks(),
                    p.trace_dropped
                );
                for (i, w) in p.per_worker.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        r#"{{"executed":{},"deque_pushes":{},"steals":{},"failed_probes":{},"parks":{}}}"#,
                        w.executed, w.deque_pushes, w.steals, w.failed_probes, w.parks
                    );
                }
                out.push_str("]}");
            }
        }
        out.push_str(r#","stages":"#);
        self.stages.write_json(&mut out);
        out.push('}');
        out
    }
}
