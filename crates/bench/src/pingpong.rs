//! The §6.2/§6.3 task-based windowed ping-pong benchmark, expressed as a
//! runtime task graph.
//!
//! `PINGPONG(t, f, c)` operates on fragment `f` of stream `c` at iteration
//! `t`; fragments live alternately on the two nodes, so every iteration
//! moves the whole window across the network.
//!
//! **Synchronized mode (Fig. 2):** the paper's benchmark forces full
//! serialization between iterations — at any instant a node is either only
//! sending or only receiving (§6.2 attributes the two-stream anomaly to
//! exactly this property). We express that strictly in the task graph: a
//! `SEND(t, f, c)` stage, gated by the global `SYNC(t)` task (control
//! dependencies), publishes each fragment, so iteration t+1's transfers
//! cannot overlap iteration t's. **Unsynchronized mode (Fig. 2b "no sync",
//! Fig. 3):** fragments free-run and opposite-direction transfers overlap,
//! recovering full-duplex bandwidth — the effect the paper observes when
//! loosening the synchronization.

use amt_comm::BackendKind;
use amt_core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, RunReport, TaskDesc, TaskGraph};

/// Ping-pong workload parameters.
#[derive(Debug, Clone)]
pub struct PingPongCfg {
    /// Fragment size N in bytes.
    pub frag_bytes: usize,
    /// Fragments per stream (window). The paper keeps
    /// `window × frag_bytes = 256 MiB`.
    pub window: usize,
    /// Concurrent streams (1 or 2 in the paper).
    pub streams: usize,
    /// Iterations.
    pub iters: usize,
    /// Insert the serializing SYNC task between iterations.
    pub sync: bool,
    /// FMA operations per 8-byte element (0 = pure bandwidth; Fig. 3 uses
    /// `√(M/8)` for GEMM-like intensity).
    pub fma_per_elem: f64,
}

impl PingPongCfg {
    /// The paper's bandwidth configuration for fragment size `n`.
    pub fn bandwidth(n: usize, streams: usize, sync: bool, iters: usize) -> Self {
        let window = ((256.0 * 1024.0 * 1024.0) / n as f64).round().max(1.0) as usize;
        PingPongCfg {
            frag_bytes: n,
            window,
            streams,
            iters,
            sync,
            fma_per_elem: 0.0,
        }
    }

    /// Fig. 3: GEMM-like intensity, total FLOPs ≈ `total_flops`.
    pub fn overlap(n: usize, total_flops: f64) -> Self {
        let window = ((256.0 * 1024.0 * 1024.0) / n as f64).round().max(1.0) as usize;
        let fma = (n as f64 / 8.0).sqrt();
        let flops_per_task = 2.0 * fma * (n as f64 / 8.0);
        let iters = (total_flops / (flops_per_task * window as f64))
            .round()
            .max(3.0) as usize;
        PingPongCfg {
            frag_bytes: n,
            window,
            streams: 1,
            iters,
            sync: false,
            fma_per_elem: fma,
        }
    }

    pub fn flops_per_task(&self) -> f64 {
        2.0 * self.fma_per_elem * (self.frag_bytes as f64 / 8.0)
    }

    /// Bytes crossing the network over the whole run (iteration 0 is
    /// local).
    pub fn bytes_moved(&self) -> f64 {
        (self.iters.saturating_sub(1) * self.window * self.streams * self.frag_bytes) as f64
    }

    /// Build the 2-node task graph.
    pub fn build(&self) -> TaskGraph {
        let mut g = GraphBuilder::new(2);
        let window = self.window as u64;
        let streams = self.streams as u64;
        let frag_key = |c: u64, f: u64| (c * window + f) * 3;
        let tok_key = |c: u64, f: u64| (c * window + f) * 3 + 1;
        let mid_key = |c: u64, f: u64| (c * window + f) * 3 + 2;
        let sync_key = 3 * window * streams;

        for c in 0..streams {
            for f in 0..window {
                // Initial fragment resides where PINGPONG(0, f, c) runs.
                g.data(frag_key(c, f), self.frag_bytes, (c % 2) as usize, None);
            }
        }

        let flops = self.flops_per_task();
        for t in 0..self.iters as u64 {
            // Compute stage.
            for c in 0..streams {
                let node = ((t + c) % 2) as usize;
                for f in 0..window {
                    let mut desc = TaskDesc::new("pingpong")
                        .on_node(node)
                        .flops(flops)
                        .read_key(frag_key(c, f));
                    if self.sync {
                        // Result goes to a node-local intermediate; the
                        // SEND stage publishes it after the barrier.
                        desc = desc
                            .write(mid_key(c, f), self.frag_bytes)
                            .write(tok_key(c, f), 0);
                    } else {
                        desc = desc.write(frag_key(c, f), self.frag_bytes);
                    }
                    g.insert(desc);
                }
            }
            if self.sync {
                // Global barrier over both streams (the paper couples the
                // streams through one synchronization, §6.2).
                let mut desc = TaskDesc::new("sync").on_node(0).write(sync_key, 0);
                for c in 0..streams {
                    for f in 0..window {
                        desc = desc.read_key(tok_key(c, f));
                    }
                }
                g.insert(desc);
                // Publish stage: makes iteration t's fragments visible to
                // iteration t+1 only after the barrier.
                for c in 0..streams {
                    let node = ((t + c) % 2) as usize;
                    for f in 0..window {
                        g.insert(
                            TaskDesc::new("send")
                                .on_node(node)
                                .read_key(mid_key(c, f))
                                .read_key(sync_key)
                                .write(frag_key(c, f), self.frag_bytes),
                        );
                    }
                }
            }
        }
        g.build()
    }
}

/// Result of one ping-pong measurement.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    pub gbit_per_s: f64,
    pub tflop_per_s: f64,
    pub makespan_s: f64,
    pub report: RunReport,
}

/// Execute the workload on a fresh 2-node paper-configured cluster.
pub fn run_pingpong(backend: BackendKind, cfg: &PingPongCfg) -> PingPongResult {
    run_pingpong_cluster(
        cfg,
        ClusterConfig {
            mode: ExecMode::CostOnly,
            ..ClusterConfig::expanse(backend, 2)
        },
    )
}

/// Execute the workload on a caller-configured cluster (ablations).
pub fn run_pingpong_cluster(cfg: &PingPongCfg, mut ccfg: ClusterConfig) -> PingPongResult {
    ccfg.nodes = 2;
    crate::ObsSink::arm(&mut ccfg);
    let graph = cfg.build();
    let total_flops = graph.total_flops();
    let mut cluster = Cluster::new(ccfg);
    let report = cluster.execute(graph);
    assert!(report.complete(), "ping-pong did not complete: {report:?}");
    crate::ObsSink::capture(&cluster, &report);
    let secs = report.makespan.as_secs_f64();
    PingPongResult {
        gbit_per_s: cfg.bytes_moved() * 8.0 / secs / 1e9,
        tflop_per_s: total_flops / secs / 1e12,
        makespan_s: secs,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_keeps_iteration_volume_constant() {
        for n in [8 * 1024, 1024 * 1024, 8 * 1024 * 1024] {
            let cfg = PingPongCfg::bandwidth(n, 1, true, 4);
            let vol = cfg.window * cfg.frag_bytes;
            assert!((vol as f64 - 256.0 * 1024.0 * 1024.0).abs() / (vol as f64) < 0.01);
        }
    }

    #[test]
    fn graph_shape_with_sync() {
        let cfg = PingPongCfg {
            frag_bytes: 1024,
            window: 4,
            streams: 2,
            iters: 3,
            sync: true,
            fma_per_elem: 0.0,
        };
        let graph = cfg.build();
        // 3 iters × (2 streams × 4 frags compute + 1 sync + 2×4 send).
        assert_eq!(graph.task_count(), 3 * (2 * 4 + 1 + 2 * 4));
    }

    #[test]
    fn large_fragments_reach_near_peak_bandwidth() {
        let cfg = PingPongCfg::bandwidth(8 * 1024 * 1024, 1, true, 4);
        let lci = run_pingpong(BackendKind::Lci, &cfg);
        assert!(
            lci.gbit_per_s > 80.0 && lci.gbit_per_s <= 100.0,
            "LCI 8 MiB bandwidth {:.1} Gbit/s",
            lci.gbit_per_s
        );
        let mpi = run_pingpong(BackendKind::Mpi, &cfg);
        assert!(
            mpi.gbit_per_s > 75.0,
            "MPI 8 MiB bandwidth {:.1} Gbit/s",
            mpi.gbit_per_s
        );
    }

    #[test]
    fn lci_sustains_smaller_fragments_than_mpi() {
        // The headline Fig. 2a effect, at a reduced point count.
        let cfg = PingPongCfg::bandwidth(32 * 1024, 1, true, 4);
        let lci = run_pingpong(BackendKind::Lci, &cfg);
        let mpi = run_pingpong(BackendKind::Mpi, &cfg);
        assert!(
            lci.gbit_per_s > mpi.gbit_per_s,
            "at 32 KiB LCI ({:.1}) must beat MPI ({:.1})",
            lci.gbit_per_s,
            mpi.gbit_per_s
        );
    }

    #[test]
    fn overlap_config_conserves_total_flops() {
        let a = PingPongCfg::overlap(64 * 1024, 1e11);
        let b = PingPongCfg::overlap(1024 * 1024, 1e11);
        let fa = a.flops_per_task() * (a.window * a.iters) as f64;
        let fb = b.flops_per_task() * (b.window * b.iters) as f64;
        assert!((fa / fb - 1.0).abs() < 0.3, "{fa:.2e} vs {fb:.2e}");
    }
}
