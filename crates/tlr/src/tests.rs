//! End-to-end TLR Cholesky tests: numeric verification on the distributed
//! runtime against both backends, graph-shape checks, CostOnly sizing.

use amt_comm::{BackendKind, EngineConfig};
use amt_core::{Cluster, ClusterConfig, ExecMode};

use crate::{TlrCholesky, TlrProblem};

fn cfg(backend: BackendKind, nodes: usize, mode: ExecMode) -> ClusterConfig {
    ClusterConfig {
        nodes,
        workers_per_node: 4,
        engine: EngineConfig::for_backend(backend),
        mode,
        ..Default::default()
    }
}

#[test]
fn task_counts_match_closed_forms() {
    let problem = TlrProblem::new(256, 32); // nt = 8
    let (chol, graph) = TlrCholesky::build_cost_only(problem, 4);
    let nt = 8u64;
    assert_eq!(chol.stats.potrf, nt);
    assert_eq!(chol.stats.trsm, nt * (nt - 1) / 2);
    assert_eq!(chol.stats.syrk, nt * (nt - 1) / 2);
    assert_eq!(chol.stats.gemm, nt * (nt - 1) * (nt - 2) / 6);
    assert_eq!(graph.task_count() as u64, chol.stats.tasks());
}

#[test]
fn sequential_oracle_factorizes() {
    // The graph's kernels, run in insertion order, must produce a valid
    // factorization — independent of the runtime.
    let problem = TlrProblem::new(128, 32);
    let (chol, graph) = TlrCholesky::build_numeric(problem, 1);
    let store = graph.sequential_oracle();
    // Spot-check: every final version exists.
    for v in &chol.diag_out {
        assert!(store.contains_key(v));
    }
}

#[test]
fn distributed_factorization_is_accurate_on_both_backends() {
    for backend in [BackendKind::Mpi, BackendKind::Lci] {
        let problem = TlrProblem::new(256, 64); // nt = 4
        let nodes = 2;
        let (chol, graph) = TlrCholesky::build_numeric(problem, nodes);
        let mut cluster = Cluster::new(cfg(backend, nodes, ExecMode::Numeric));
        let report = cluster.execute(graph);
        assert!(report.complete(), "{backend}: {report:?}");
        let res = chol.residual(&cluster);
        assert!(
            res < 1e-6,
            "{backend}: TLR Cholesky residual too large: {res:.3e}"
        );
        // Remote dataflows actually happened.
        assert!(report.e2e_latency_us.count() > 0, "{backend}");
    }
}

#[test]
fn backends_agree_numerically() {
    let make = || {
        let problem = TlrProblem::new(192, 48);
        TlrCholesky::build_numeric(problem, 2)
    };
    let (chol_a, graph_a) = make();
    let mut mpi = Cluster::new(cfg(BackendKind::Mpi, 2, ExecMode::Numeric));
    mpi.execute(graph_a);
    let res_mpi = chol_a.residual(&mpi);

    let (chol_b, graph_b) = make();
    let mut lci = Cluster::new(cfg(BackendKind::Lci, 2, ExecMode::Numeric));
    lci.execute(graph_b);
    let res_lci = chol_b.residual(&lci);

    // Same task graph, same kernels, deterministic execution order per
    // backend: residuals must both be tiny (bitwise equality is not
    // required — completion order can differ — but accuracy must hold).
    assert!(
        res_mpi < 1e-6 && res_lci < 1e-6,
        "{res_mpi:.3e} vs {res_lci:.3e}"
    );
}

#[test]
fn accuracy_follows_tolerance() {
    let run = |tol: f64| {
        let mut problem = TlrProblem::new(192, 48);
        problem.tol = tol;
        let (chol, graph) = TlrCholesky::build_numeric(problem, 1);
        let mut cluster = Cluster::new(cfg(BackendKind::Lci, 1, ExecMode::Numeric));
        let report = cluster.execute(graph);
        assert!(report.complete());
        chol.residual(&cluster)
    };
    let loose = run(1e-3);
    let tight = run(1e-9);
    assert!(tight < loose, "tight {tight:.2e} !< loose {loose:.2e}");
    assert!(tight < 1e-7);
}

#[test]
fn cost_only_scales_to_many_tiles() {
    // nt = 40 → 11 480 tasks; must build and execute quickly with no
    // payloads.
    let problem = TlrProblem::new(40 * 1200, 1200);
    let (chol, graph) = TlrCholesky::build_cost_only(problem, 4);
    assert_eq!(chol.stats.tasks(), graph.task_count() as u64);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 4,
        workers_per_node: 16,
        engine: EngineConfig::lci(),
        mode: ExecMode::CostOnly,
        ..Default::default()
    });
    let report = cluster.execute(graph);
    assert!(report.complete());
    assert!(report.bytes_transferred() > 0);
}

#[test]
fn smaller_tiles_mean_more_tasks_less_flops_per_task() {
    let big = TlrCholesky::build_cost_only(TlrProblem::new(24_000, 3000), 4).0;
    let small = TlrCholesky::build_cost_only(TlrProblem::new(24_000, 1200), 4).0;
    assert!(small.stats.tasks() > 5 * big.stats.tasks());
    let fpt_big = big.stats.total_flops / big.stats.tasks() as f64;
    let fpt_small = small.stats.total_flops / small.stats.tasks() as f64;
    assert!(fpt_small < fpt_big / 4.0);
}

#[test]
fn two_flow_trsm_touches_only_v() {
    let problem = TlrProblem::new(128, 32);
    let (_, graph) = TlrCholesky::build_numeric(problem, 1);
    for (id, t) in graph.tasks().enumerate() {
        let mut outputs = graph.outputs(id);
        if t.name == "trsm" {
            assert_eq!(outputs.len(), 1, "TRSM writes only the V flow");
            // Its output key is odd (V keys are 2*id+1).
            let vkey = graph.version(outputs.next().expect("one output").0).key;
            assert_eq!(vkey % 2, 1, "TRSM output must be a V key");
        }
        if t.name == "gemm" {
            assert_eq!(outputs.len(), 2, "GEMM rewrites both flows");
        }
    }
}

#[test]
fn windowed_execution_matches_full_unroll_on_three_nodes() {
    // ISSUE 5 satellite: 3-node Numeric TLR Cholesky through the windowed
    // (bounded task discovery) path. With a window covering the whole
    // graph the run must be byte-identical to full unrolling; with a small
    // window every final payload must still match the sequential oracle.
    use crate::TlrCholeskySource;

    let problem = TlrProblem::new(192, 32); // nt = 6 → 56 tasks
    let nodes = 3;
    let (chol, graph) = TlrCholesky::build_numeric(problem.clone(), nodes);
    let oracle = graph.sequential_oracle();
    let ntasks = graph.task_count();
    let mut full = Cluster::new(cfg(BackendKind::Lci, nodes, ExecMode::Numeric));
    let full_report = full.execute(graph);
    assert!(full_report.complete());
    let full_json = full_report.to_json();

    let check_payloads = |cluster: &Cluster, label: &str| {
        // The source produces the same insertion order as the batch
        // build, so the full-unroll version ids are valid here too.
        for v in &chol.diag_out {
            assert_eq!(
                cluster.data(*v),
                oracle.get(v).cloned(),
                "{label}: diagonal tile diverged"
            );
        }
        for &(u, v) in chol.lr_out.values() {
            assert_eq!(cluster.data(u), oracle.get(&u).cloned(), "{label}");
            assert_eq!(cluster.data(v), oracle.get(&v).cloned(), "{label}");
        }
    };

    // Covering window: byte-identical scheduling and report.
    let mut win = Cluster::new(cfg(BackendKind::Lci, nodes, ExecMode::Numeric));
    let report = win.execute_windowed(
        Box::new(TlrCholeskySource::numeric(problem.clone(), nodes)),
        ntasks,
    );
    assert_eq!(
        report.to_json(),
        full_json,
        "covering window must be byte-identical"
    );
    check_payloads(&win, "covering window");

    // Small window: bounded discovery with retirement; results must still
    // verify even though scheduling may differ.
    let mut win = Cluster::new(cfg(BackendKind::Lci, nodes, ExecMode::Numeric));
    let report = win.execute_windowed(Box::new(TlrCholeskySource::numeric(problem, nodes)), 12);
    assert!(report.complete(), "window 12: {report:?}");
    assert_eq!(report.tasks_total as usize, ntasks);
    check_payloads(&win, "window 12");
}

/// Both builders generate A a tile at a time and keep none of it; every
/// initial dense tile must still be bit-identical to its block of the
/// whole matrix that `dense_a()` regenerates.
#[test]
fn tiles_generated_alone_are_blocks_of_the_whole_matrix() {
    let (n, ts, nt) = (96, 32, 3u64);
    let block = |a: &amt_linalg::Matrix, id: u64| {
        let (i, j) = (id / nt, id % nt);
        a.submatrix(i as usize * ts, j as usize * ts, ts, ts)
            .to_bytes()
    };
    let (dense, graph) = crate::DenseCholesky::build_numeric(n, ts, 2);
    let a = dense.dense_a().expect("numeric build");
    let mut tiles = 0;
    for (v, version) in graph.versions().enumerate() {
        if version.producer().is_none() {
            let tile = graph.initial(v).expect("numeric tile");
            assert_eq!(tile[..], block(&a, version.key)[..], "key {}", version.key);
            tiles += 1;
        }
    }
    assert_eq!(tiles, nt * (nt + 1) / 2);
    // TLR: the diagonal tiles stay dense (key 2·(k·nt + k)).
    let (tlr, graph) = TlrCholesky::build_numeric(TlrProblem::new(n, ts), 2);
    let a = tlr.dense_a().expect("numeric build");
    let mut diagonal = 0;
    for (v, version) in graph.versions().enumerate() {
        let id = version.key / 2;
        if version.producer().is_none() && version.key % 2 == 0 && id % (nt + 1) == 0 {
            let tile = graph.initial(v).expect("numeric tile");
            assert_eq!(tile[..], block(&a, id)[..], "diagonal {id}");
            diagonal += 1;
        }
    }
    assert_eq!(diagonal, nt);
    let (cost_only, _) = TlrCholesky::build_cost_only(TlrProblem::new(n, ts), 2);
    assert!(cost_only.dense_a().is_none());
}
