//! HiCMA TLR Cholesky measurement runner (Figures 4, 5; Table 2).

use amt_comm::BackendKind;
use amt_core::{Cluster, ClusterConfig, ExecMode};
use amt_tlr::{TlrCholesky, TlrProblem};

/// One TLR Cholesky run configuration.
#[derive(Debug, Clone)]
pub struct TlrRunCfg {
    pub backend: BackendKind,
    pub nodes: usize,
    pub n: usize,
    pub tile_size: usize,
    pub multithread_am: bool,
}

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct TlrRunResult {
    pub tts_s: f64,
    /// Exact virtual makespan in integer nanoseconds (for golden-report
    /// byte-identity checks; `tts_s` is this value in seconds).
    pub makespan_ns: u64,
    /// Mean end-to-end latency (ACTIVATE send → data arrival), µs.
    pub e2e_us: f64,
    /// Mean individual ACTIVATE message latency, µs.
    pub msg_us: f64,
    /// Mean control-path latency (ACTIVATE send → GET arrival at owner), µs.
    pub req_us: f64,
    pub tasks: u64,
    /// Engine events executed by the simulation (wall-clock cost driver).
    pub sim_events: u64,
    pub mean_rank: f64,
    pub worker_util: f64,
    pub comm_util: f64,
}

/// Build and execute one paper-configured CostOnly TLR Cholesky.
pub fn run_tlr(cfg: &TlrRunCfg) -> TlrRunResult {
    let problem = TlrProblem::new(cfg.n, cfg.tile_size);
    let (chol, graph) = TlrCholesky::build_cost_only(problem, cfg.nodes);
    let mut ccfg = ClusterConfig {
        mode: ExecMode::CostOnly,
        // HiCMA relies on PaRSEC's priority-relative deferral to pace data
        // fetches (§4.1/§6.4.1); the byte budget models it.
        get_window_bytes: 2 << 20,
        ..ClusterConfig::expanse(cfg.backend, cfg.nodes)
    };
    ccfg.engine.multithread_am = cfg.multithread_am;
    crate::ObsSink::arm(&mut ccfg);
    let mut cluster = Cluster::new(ccfg);
    let report = cluster.execute(graph);
    assert!(report.complete(), "TLR run incomplete: {report:?}");
    crate::ObsSink::capture(&cluster, &report);
    TlrRunResult {
        tts_s: report.makespan.as_secs_f64(),
        makespan_ns: report.makespan.as_ns(),
        e2e_us: if report.e2e_latency_us.count() > 0 {
            report.e2e_latency_us.mean()
        } else {
            0.0
        },
        msg_us: if report.msg_latency_us.count() > 0 {
            report.msg_latency_us.mean()
        } else {
            0.0
        },
        req_us: if report.request_latency_us.count() > 0 {
            report.request_latency_us.mean()
        } else {
            0.0
        },
        tasks: report.tasks_executed,
        sim_events: report.sim_events,
        mean_rank: chol.stats.mean_rank,
        worker_util: report.worker_util,
        comm_util: report.comm_util,
    }
}

/// The paper's tile-size axis (Fig. 4).
pub const TILE_SIZES: [usize; 9] = [1200, 1500, 1800, 2400, 3000, 3600, 4500, 4800, 6000];

/// Scaled default problem size: every paper tile size divides it (the
/// paper's N = 360 000 also does).
pub const N_SCALED: usize = 144_000;
pub const N_FULL: usize = 360_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tile_size_divides_both_problem_sizes() {
        for ts in TILE_SIZES {
            assert_eq!(N_SCALED % ts, 0, "{ts} does not divide N_SCALED");
            assert_eq!(N_FULL % ts, 0, "{ts} does not divide N_FULL");
        }
    }

    #[test]
    fn small_run_produces_sane_metrics() {
        let r = run_tlr(&TlrRunCfg {
            backend: BackendKind::Lci,
            nodes: 4,
            n: 24_000,
            tile_size: 3000,
            multithread_am: false,
        });
        assert!(r.tts_s > 0.0);
        assert!(r.e2e_us > 0.0);
        assert!(r.tasks > 0);
        assert!(r.worker_util > 0.0 && r.worker_util <= 1.0);
    }
}
