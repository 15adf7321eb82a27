//! Why HiCMA exists: dense tile Cholesky (the DPLASMA-style baseline) vs
//! tile low-rank Cholesky on the same covariance problem — flops, data
//! volume, accuracy, and simulated time-to-solution.
//!
//! ```sh
//! cargo run --release --example dense_vs_tlr [mpi|lci|lci-direct]
//! ```

use amtlc::bench::ObsSink;
use amtlc::comm::{BackendKind, EngineConfig};
use amtlc::core::{Cluster, ClusterConfig, ExecMode};
use amtlc::tlr::{DenseCholesky, TlrCholesky, TlrProblem};

fn main() {
    ObsSink::install(&std::env::args().skip(1).collect::<Vec<_>>());
    let backend = std::env::args()
        .nth(1)
        .map(|s| BackendKind::parse(&s).unwrap_or_else(|| panic!("unknown backend {s:?}")))
        .unwrap_or(BackendKind::Lci);
    // Numeric comparison at a laptop-friendly size: both must factorize
    // correctly; TLR trades a bounded error for a lot less work.
    let (n, ts, nodes) = (256, 64, 2);
    println!("numeric check, N = {n}, tile {ts}, {nodes} nodes ({backend} backend)\n");

    let (dense, dgraph) = DenseCholesky::build_numeric(n, ts, nodes);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes,
        workers_per_node: 4,
        engine: EngineConfig::for_backend(backend),
        mode: ExecMode::Numeric,
        ..Default::default()
    });
    let dreport = cluster.execute(dgraph);
    assert!(dreport.complete());
    println!(
        "dense : {} tasks, residual {:.2e}",
        dreport.tasks_executed,
        dense.residual(&cluster)
    );

    let (tlr, tgraph) = TlrCholesky::build_numeric(TlrProblem::new(n, ts), nodes);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes,
        workers_per_node: 4,
        engine: EngineConfig::for_backend(backend),
        mode: ExecMode::Numeric,
        ..Default::default()
    });
    let treport = cluster.execute(tgraph);
    assert!(treport.complete());
    println!(
        "TLR   : {} tasks, residual {:.2e} (tol 1e-8, mean rank {:.1})\n",
        treport.tasks_executed,
        tlr.residual(&cluster),
        tlr.stats.mean_rank
    );

    // Paper-scale cost comparison (CostOnly): the compression pays off.
    let (n, ts, nodes) = (72_000, 3000, 8);
    println!("cost comparison, N = {n}, tile {ts}, {nodes} nodes (CostOnly)\n");
    let run = |label: &str, dense: bool| {
        let (flops, graph) = if dense {
            let (d, g) = DenseCholesky::build_cost_only(n, ts, nodes);
            (d.total_flops, g)
        } else {
            let (t, g) = TlrCholesky::build_cost_only(TlrProblem::new(n, ts), nodes);
            (t.stats.total_flops, g)
        };
        let mut cfg = ClusterConfig {
            mode: ExecMode::CostOnly,
            ..ClusterConfig::expanse(backend, nodes)
        };
        ObsSink::arm(&mut cfg);
        let mut cluster = Cluster::new(cfg);
        let r = cluster.execute(graph);
        assert!(r.complete());
        ObsSink::capture(&cluster, &r);
        println!(
            "{label:6}: {:>10.3e} flops, {:>8.1} MiB moved, tts {:>8.3}s",
            flops,
            r.bytes_transferred() as f64 / (1024.0 * 1024.0),
            r.makespan.as_secs_f64()
        );
        // Per task class breakdown.
        for (name, count, busy) in &r.class_stats {
            println!("         {name:>6}: {count:>6} tasks, {busy} busy");
        }
        r.makespan.as_secs_f64()
    };
    let d = run("dense", true);
    let t = run("TLR", false);
    println!(
        "\nTLR speedup over dense: {:.1}x — the compression HiCMA banks on.",
        d / t
    );
}
