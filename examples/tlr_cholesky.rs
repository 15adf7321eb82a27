//! Numeric-mode TLR Cholesky: compress a real st-2d-sqexp covariance
//! matrix, factorize it on a simulated 4-node cluster with real kernels and
//! real data movement, and verify the factorization error — on every
//! communication backend.
//!
//! ```sh
//! cargo run --release --example tlr_cholesky
//! ```
//!
//! A final section factorizes the same matrix **for real** on the
//! work-stealing thread pool (`--threads N`; `0`/default = one per core,
//! `1` = deterministic) and verifies the identical residual.

use amtlc::bench::{comm_tuning_args, threads_arg, threads_arg_opt, ObsSink};
use amtlc::comm::{BackendKind, EngineConfig};
use amtlc::core::{Cluster, ClusterConfig, ExecMode};
use amtlc::tlr::{TlrCholesky, TlrProblem};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ObsSink::install(&args);
    // An explicit --threads directs the observability flags at the real
    // execution below instead of the first simulated backend.
    let threads_flag = threads_arg_opt(&args);
    // --batch-window-ns / --multicast-k: message-layer tuning, applied
    // identically to every backend and the real run.
    let tuning = comm_tuning_args(&args);
    let n = 512;
    let ts = 64;
    let nodes = 4;
    println!("TLR Cholesky (st-2d-sqexp), N = {n}, tile {ts}, {nodes} simulated nodes");
    println!("accuracy 1e-8, maxrank 150, band 1, two-flow algorithm");
    if !tuning.is_default() {
        println!("comm tuning: {}", tuning.describe());
    }
    println!();

    for backend in BackendKind::ALL {
        let problem = TlrProblem::new(n, ts);
        let (chol, graph) = TlrCholesky::build_numeric(problem, nodes);
        println!("backend {backend}:");
        println!(
            "  tasks: {} (potrf {}, trsm {}, syrk {}, gemm {})",
            chol.stats.tasks(),
            chol.stats.potrf,
            chol.stats.trsm,
            chol.stats.syrk,
            chol.stats.gemm
        );
        println!(
            "  mean off-diagonal rank after compression: {:.2}",
            chol.stats.mean_rank
        );

        let mut cfg = ClusterConfig {
            nodes,
            workers_per_node: 8,
            engine: EngineConfig::for_backend(backend),
            mode: ExecMode::Numeric,
            ..Default::default()
        };
        tuning.apply(&mut cfg);
        if threads_flag.is_none() {
            ObsSink::arm(&mut cfg);
        }
        let mut cluster = Cluster::new(cfg);
        let report = cluster.execute(graph);
        assert!(report.complete());
        ObsSink::capture(&cluster, &report);
        let residual = chol.residual(&cluster);
        println!("  virtual makespan : {}", report.makespan);
        println!(
            "  remote flows     : {} ({} KiB moved)",
            report.e2e_latency_us.count(),
            report.bytes_transferred() / 1024
        );
        println!("  ||A - LL'||/||A|| = {residual:.3e}");
        assert!(residual < 1e-6, "factorization accuracy");
        println!("  factorization verified.\n");
    }

    // Real execution: same factorization, real OS threads.
    let threads = threads_arg(&args);
    let problem = TlrProblem::new(n, ts);
    let (chol, graph) = TlrCholesky::build_numeric(problem, nodes);
    let mut cfg = ClusterConfig {
        nodes,
        workers_per_node: 8,
        mode: ExecMode::Numeric,
        ..Default::default()
    };
    tuning.apply(&mut cfg);
    // Arm unconditionally: a no-op once the virtual sweep has captured,
    // so this records the real run only under an explicit --threads.
    ObsSink::arm(&mut cfg);
    let mut cluster = Cluster::new(cfg);
    let report = cluster.execute_real(graph, threads);
    assert!(report.complete());
    ObsSink::capture(&cluster, &report);
    let residual = chol.residual(&cluster);
    println!("real execution ({threads} thread(s)):");
    println!("  tasks executed   : {}", report.tasks_executed);
    println!("  wall-clock span  : {}", report.makespan);
    println!(
        "  remote flows     : {} ({} KiB moved)",
        report.e2e_latency_us.count(),
        report.bytes_transferred() / 1024
    );
    println!("  ||A - LL'||/||A|| = {residual:.3e}");
    assert!(residual < 1e-6, "factorization accuracy");
    println!("  factorization verified.");
}
