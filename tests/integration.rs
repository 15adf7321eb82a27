//! Cross-crate integration tests: distributed executions against sequential
//! oracles, backend equivalence, determinism, and benchmark sanity.

use amtlc::comm::{BackendKind, EngineConfig};
use amtlc::core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, TaskDesc};
use amtlc::linalg::Matrix;
use amtlc::tlr::{TlrCholesky, TlrProblem};
use bytes::Bytes;

fn backends() -> [BackendKind; 3] {
    BackendKind::ALL
}

/// A randomized DAG executed on 1, 2 and 4 nodes must agree with the
/// sequential oracle byte-for-byte on every backend.
#[test]
fn random_dag_matches_oracle_across_node_counts() {
    use amtlc::simnet::DetRng;

    for backend in backends() {
        for nodes in [1usize, 2, 4] {
            let mut rng = DetRng::seed_from_u64(42);
            let mut g = GraphBuilder::new(nodes);
            let keys = 12u64;
            for k in 0..keys {
                let node = (k as usize) % nodes;
                g.data(k, 16, node, Some(Bytes::from(vec![k as u8 + 1; 16])));
            }
            for step in 0..60u64 {
                let out = rng.gen_range(0..keys);
                let in1 = rng.gen_range(0..keys);
                let in2 = rng.gen_range(0..keys);
                let node = rng.gen_usize(0..nodes);
                let salt = (step % 251) as u8;
                g.insert(
                    TaskDesc::new("mix")
                        .on_node(node)
                        .flops(1e6)
                        .read_key(in1)
                        .read_key(in2)
                        .write(out, 16)
                        .kernel(move |ins| {
                            let mixed: Vec<u8> = ins[0]
                                .iter()
                                .zip(ins[1].iter())
                                .map(|(a, b)| a.wrapping_mul(3).wrapping_add(*b).wrapping_add(salt))
                                .collect();
                            vec![Bytes::from(mixed)]
                        }),
                );
            }
            let finals: Vec<_> = (0..keys).map(|k| g.current(k).expect("version")).collect();
            let graph = g.build();
            let oracle = graph.sequential_oracle();
            let mut cluster = Cluster::new(ClusterConfig {
                nodes,
                workers_per_node: 3,
                engine: EngineConfig::for_backend(backend),
                ..Default::default()
            });
            let report = cluster.execute(graph);
            assert!(report.complete(), "{backend} nodes={nodes}");
            for v in finals {
                assert_eq!(
                    cluster.data(v).as_ref(),
                    oracle.get(&v),
                    "{backend} nodes={nodes}: version {v:?} diverged from oracle"
                );
            }
        }
    }
}

/// Distributed TLR Cholesky achieves the requested accuracy on both
/// backends, several node counts.
#[test]
fn tlr_cholesky_accuracy_across_configs() {
    for backend in backends() {
        for nodes in [1usize, 4] {
            let problem = TlrProblem::new(256, 64);
            let (chol, graph) = TlrCholesky::build_numeric(problem, nodes);
            let mut cluster = Cluster::new(ClusterConfig {
                nodes,
                workers_per_node: 4,
                engine: EngineConfig::for_backend(backend),
                mode: ExecMode::Numeric,
                ..Default::default()
            });
            let report = cluster.execute(graph);
            assert!(report.complete(), "{backend} nodes={nodes}");
            let res = chol.residual(&cluster);
            assert!(res < 1e-6, "{backend} nodes={nodes}: residual {res:.2e}");
        }
    }
}

/// The TLR factor must be numerically usable: solve A·x = b through the
/// factor and check the solution.
#[test]
fn tlr_factor_solves_linear_system() {
    let n = 192;
    let ts = 48;
    let problem = TlrProblem::new(n, ts);
    let (chol, graph) = TlrCholesky::build_numeric(problem, 2);
    let a = chol.dense_a().expect("numeric build");
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        workers_per_node: 4,
        engine: EngineConfig::lci(),
        mode: ExecMode::Numeric,
        ..Default::default()
    });
    cluster.execute(graph);

    // Assemble L and solve L Lᵀ x = b by forward/backward substitution.
    let mut l = Matrix::zeros(n, n);
    for k in 0..(n / ts) as u64 {
        let b = cluster.data(chol.diag_out[k as usize]).expect("diag");
        let lt = Matrix::from_bytes(ts, ts, &b);
        let block = Matrix::from_fn(ts, ts, |i, j| if i >= j { lt.get(i, j) } else { 0.0 });
        l.set_submatrix(k as usize * ts, k as usize * ts, &block);
    }
    for (&(i, j), &(uv, vv)) in &chol.lr_out {
        let u = amtlc::tlr::LrTile::factor_from_bytes(ts, &cluster.data(uv).expect("u"));
        let v = amtlc::tlr::LrTile::factor_from_bytes(ts, &cluster.data(vv).expect("v"));
        let tile = amtlc::tlr::LrTile { u, v };
        l.set_submatrix(i as usize * ts, j as usize * ts, &tile.to_dense());
    }
    let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
    // b = A x.
    let mut b = vec![0.0; n];
    for (j, &xj) in x_true.iter().enumerate() {
        for (i, bi) in b.iter_mut().enumerate() {
            *bi += a.get(i, j) * xj;
        }
    }
    // Forward: L y = b.
    let mut y = b.clone();
    for i in 0..n {
        for k in 0..i {
            y[i] -= l.get(i, k) * y[k];
        }
        y[i] /= l.get(i, i);
    }
    // Backward: Lᵀ x = y.
    let mut x = y.clone();
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            x[i] -= l.get(k, i) * x[k];
        }
        x[i] /= l.get(i, i);
    }
    let err: f64 = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-4, "solution error {err:.2e}");
}

/// The communication backend must not change numerics: a Numeric-mode TLR
/// Cholesky produces byte-identical factor tiles on all three backends, and
/// each backend's virtual makespan is itself reproducible run-to-run.
#[test]
fn backends_agree_byte_for_byte_on_numeric_cholesky() {
    use amtlc::simnet::SimTime;

    let run = |backend: BackendKind| -> (Vec<(String, Vec<u8>)>, SimTime) {
        let problem = TlrProblem::new(256, 64);
        let (chol, graph) = TlrCholesky::build_numeric(problem, 4);
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            workers_per_node: 4,
            engine: EngineConfig::for_backend(backend),
            mode: ExecMode::Numeric,
            ..Default::default()
        });
        let report = cluster.execute(graph);
        assert!(report.complete(), "{backend}");
        let mut out = Vec::new();
        for (k, v) in chol.diag_out.iter().enumerate() {
            out.push((
                format!("diag[{k}]"),
                cluster.data(*v).expect("diag").to_vec(),
            ));
        }
        let mut lr: Vec<_> = chol.lr_out.iter().collect();
        lr.sort_by_key(|(ij, _)| **ij);
        for (&(i, j), &(uv, vv)) in lr {
            out.push((format!("u[{i},{j}]"), cluster.data(uv).expect("u").to_vec()));
            out.push((format!("v[{i},{j}]"), cluster.data(vv).expect("v").to_vec()));
        }
        (out, report.makespan)
    };

    let (reference, _) = run(BackendKind::Mpi);
    assert!(!reference.is_empty());
    for backend in [BackendKind::Lci, BackendKind::LciDirect] {
        let (tiles, makespan) = run(backend);
        assert_eq!(tiles.len(), reference.len(), "{backend}: tile set differs");
        for ((name, bytes), (ref_name, ref_bytes)) in tiles.iter().zip(&reference) {
            assert_eq!(name, ref_name, "{backend}: tile ordering differs");
            assert_eq!(
                bytes, ref_bytes,
                "{backend}: tile {name} diverged from the MPI reference"
            );
        }
        let (_, makespan2) = run(backend);
        assert_eq!(
            makespan, makespan2,
            "{backend}: virtual time not reproducible"
        );
    }
}

/// Same graph, same seed, same backend: byte-identical virtual timings.
#[test]
fn executions_are_deterministic() {
    for backend in backends() {
        let run = || {
            let problem = TlrProblem::new(24_000, 3000);
            let (_, graph) = TlrCholesky::build_cost_only(problem, 4);
            let mut cluster = Cluster::new(ClusterConfig {
                mode: ExecMode::CostOnly,
                ..ClusterConfig::expanse(backend, 4)
            });
            let r = cluster.execute(graph);
            (r.makespan, r.tasks_executed, r.e2e_latency_us.count())
        };
        assert_eq!(run(), run(), "{backend}");
    }
}

/// The headline orderings the paper reports must hold in the simulation.
#[test]
fn paper_headline_orderings_hold() {
    use amt_bench::pingpong::{run_pingpong, PingPongCfg};

    // Fig. 2a: at fine granularity LCI sustains higher bandwidth.
    let fine = PingPongCfg::bandwidth(32 * 1024, 1, true, 4);
    let lci = run_pingpong(BackendKind::Lci, &fine).gbit_per_s;
    let mpi = run_pingpong(BackendKind::Mpi, &fine).gbit_per_s;
    assert!(
        lci > mpi * 1.2,
        "fine-grained bandwidth: LCI {lci:.1} vs MPI {mpi:.1}"
    );

    // At coarse granularity both approach peak.
    let coarse = PingPongCfg::bandwidth(4 * 1024 * 1024, 1, true, 4);
    let lci_c = run_pingpong(BackendKind::Lci, &coarse).gbit_per_s;
    let mpi_c = run_pingpong(BackendKind::Mpi, &coarse).gbit_per_s;
    assert!(
        lci_c > 90.0 && mpi_c > 90.0,
        "coarse: {lci_c:.1} / {mpi_c:.1}"
    );

    // Fig. 4b: LCI's communication latency is lower in TLR Cholesky.
    use amt_bench::tlrrun::{run_tlr, TlrRunCfg};
    let lci_r = run_tlr(&TlrRunCfg {
        backend: BackendKind::Lci,
        nodes: 4,
        n: 36_000,
        tile_size: 1500,
        multithread_am: false,
    });
    let mpi_r = run_tlr(&TlrRunCfg {
        backend: BackendKind::Mpi,
        nodes: 4,
        n: 36_000,
        tile_size: 1500,
        multithread_am: false,
    });
    assert!(
        lci_r.req_us < mpi_r.req_us,
        "control-path latency: LCI {:.1} vs MPI {:.1}",
        lci_r.req_us,
        mpi_r.req_us
    );
}

/// CostOnly and Numeric modes run the same protocol: flow counts match.
#[test]
fn cost_only_and_numeric_have_identical_traffic_shape() {
    for backend in backends() {
        let flows = |mode: ExecMode| {
            let problem = TlrProblem::new(192, 48);
            let (_, graph) = match mode {
                ExecMode::Numeric => TlrCholesky::build_numeric(problem, 2),
                ExecMode::CostOnly => TlrCholesky::build_cost_only(problem, 2),
            };
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 2,
                workers_per_node: 4,
                engine: EngineConfig::for_backend(backend),
                mode,
                ..Default::default()
            });
            let r = cluster.execute(graph);
            assert!(r.complete());
            r.e2e_latency_us.count()
        };
        assert_eq!(
            flows(ExecMode::Numeric),
            flows(ExecMode::CostOnly),
            "{backend}: protocol traffic must not depend on execution mode"
        );
    }
}

/// Execution mode must not change numerics either: the same TLR Cholesky
/// produces bitwise-identical factor tiles (and equal task counts) under
/// full unroll (`execute`), windowed discovery (`execute_windowed`), and
/// **real** work-stealing execution (`execute_real`) at every thread count
/// 1..=4 — kernels are pure functions of their fixed input versions, so not
/// even floating-point summation order can vary.
#[test]
fn execution_modes_agree_byte_for_byte_on_numeric_cholesky() {
    use amtlc::tlr::TlrCholeskySource;

    let nodes = 2;
    let collect = |chol: &TlrCholesky, cluster: &Cluster| -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for (k, v) in chol.diag_out.iter().enumerate() {
            out.push((
                format!("diag[{k}]"),
                cluster.data(*v).expect("diag").to_vec(),
            ));
        }
        let mut lr: Vec<_> = chol.lr_out.iter().collect();
        lr.sort_by_key(|(ij, _)| **ij);
        for (&(i, j), &(uv, vv)) in lr {
            out.push((format!("u[{i},{j}]"), cluster.data(uv).expect("u").to_vec()));
            out.push((format!("v[{i},{j}]"), cluster.data(vv).expect("v").to_vec()));
        }
        out
    };
    let cfg = || ClusterConfig {
        nodes,
        workers_per_node: 4,
        mode: ExecMode::Numeric,
        ..Default::default()
    };

    // Reference: full unroll on the virtual substrate.
    let problem = TlrProblem::new(256, 64);
    let (chol, graph) = TlrCholesky::build_numeric(problem, nodes);
    let mut full = Cluster::new(cfg());
    let full_report = full.execute(graph);
    assert!(full_report.complete());
    let reference = collect(&chol, &full);
    assert!(!reference.is_empty());

    // Windowed discovery produces the same version numbering and bytes.
    let mut win = Cluster::new(cfg());
    let win_report = win.execute_windowed(
        Box::new(TlrCholeskySource::numeric(TlrProblem::new(256, 64), nodes)),
        64,
    );
    assert!(win_report.complete());
    assert_eq!(win_report.tasks_total, full_report.tasks_total);
    assert_eq!(collect(&chol, &win), reference, "windowed diverged");

    // Real execution at 1..=4 worker threads.
    for threads in 1..=4usize {
        let (chol_r, graph_r) = TlrCholesky::build_numeric(TlrProblem::new(256, 64), nodes);
        let mut real = Cluster::new(cfg());
        let report = real.execute_real(graph_r, threads);
        assert!(report.complete(), "threads={threads}");
        assert_eq!(
            report.tasks_total, full_report.tasks_total,
            "threads={threads}"
        );
        assert_eq!(
            collect(&chol_r, &real),
            reference,
            "real execution at {threads} thread(s) diverged bitwise"
        );
    }
}

/// Windowed retirement frees whole task-storage chunks as the completion
/// frontier passes — but data for a version can still arrive at a node
/// *after* consumers on other nodes (already satisfied from their own
/// copies) completed and had their chunk freed. The release scan must skip
/// those instead of touching freed storage. Regression: panicked with
/// "access to a retired (freed) graph chunk" at 512 simulated nodes, with
/// both the dense and the flyweight store. Both flavors must also still
/// agree with the full unroll on virtual time.
#[test]
fn windowed_retirement_survives_late_arrivals_at_scale() {
    use amtlc::tlr::TlrCholeskySource;

    let nodes = 512;
    let problem = || TlrProblem::new(24 * 1200, 1200);
    let cfg = |flyweight: bool| ClusterConfig {
        flyweight,
        mode: ExecMode::CostOnly,
        get_window_bytes: 2 << 20,
        ..ClusterConfig::expanse(BackendKind::Lci, nodes)
    };

    let (_, graph) = TlrCholesky::build_cost_only(problem(), nodes);
    let mut full = Cluster::new(cfg(false));
    let full_report = full.execute(graph);
    assert!(full_report.complete());

    for flyweight in [false, true] {
        let mut cluster = Cluster::new(cfg(flyweight));
        let report = cluster.execute_windowed(
            Box::new(TlrCholeskySource::cost_only(problem(), nodes)),
            20_000,
        );
        assert!(report.complete(), "flyweight={flyweight}");
        assert_eq!(report.tasks_total, full_report.tasks_total);
        assert_eq!(
            report.makespan, full_report.makespan,
            "flyweight={flyweight}: windowed diverged from full unroll"
        );
    }
}

/// Golden for the windowed path (the benchmark of record's
/// `sim_scale --quick` shape): virtual time is byte-identical by contract,
/// so host-side changes to discovery, retirement or init must reproduce
/// this report exactly, with either store. Captured at commit e47e57f;
/// `sim_events` alone was re-captured when the fabric stopped scheduling an
/// event per non-final chunk (86 363 → 74 051, the run's 12 312 non-final
/// chunks).
#[test]
fn windowed_report_matches_golden() {
    use amtlc::tlr::TlrCholeskySource;

    let nodes = 64;
    for flyweight in [true, false] {
        let mut cluster = Cluster::new(ClusterConfig {
            flyweight,
            mode: ExecMode::CostOnly,
            get_window_bytes: 2 << 20,
            ..ClusterConfig::expanse(BackendKind::Lci, nodes)
        });
        let source = TlrCholeskySource::cost_only(TlrProblem::new(12 * 1200, 1200), nodes);
        let report = cluster.execute_windowed(Box::new(source), 150);
        assert_eq!(
            report.to_json(),
            include_str!("../results/golden_windowed.txt").trim_end(),
            "flyweight={flyweight}: windowed report diverged from results/golden_windowed.txt"
        );
    }
}

/// The windowed golden's shape over a four-pod fat tree, on both backends:
/// pins the virtual time of the pod up/down-link calendars, which no other
/// test compares against a committed value. One `backend report` line per
/// backend.
#[test]
fn fat_tree_windowed_report_matches_golden() {
    use amtlc::netmodel::{FatTreeConfig, Topology};
    use amtlc::tlr::TlrCholeskySource;

    let nodes = 64;
    let mut got = String::new();
    for backend in [BackendKind::Mpi, BackendKind::Lci] {
        let mut cfg = ClusterConfig {
            flyweight: true,
            mode: ExecMode::CostOnly,
            get_window_bytes: 2 << 20,
            ..ClusterConfig::expanse(backend, nodes)
        };
        cfg.fabric.topology = Topology::FatTree(FatTreeConfig {
            pods: 4,
            ..Default::default()
        });
        let source = TlrCholeskySource::cost_only(TlrProblem::new(12 * 1200, 1200), nodes);
        let report = Cluster::new(cfg).execute_windowed(Box::new(source), 150);
        assert!(report.complete(), "{backend}");
        got.push_str(&format!("{} {}\n", backend.cli_name(), report.to_json()));
    }
    assert_eq!(
        got.trim_end(),
        include_str!("../results/golden_fattree.txt").trim_end(),
        "fat-tree windowed report diverged from results/golden_fattree.txt"
    );
}

/// AM batching and multicast activation trees are pure message-layer
/// optimizations: with them on, a Numeric-mode TLR Cholesky produces
/// factor tiles bitwise identical to the flat defaults — on every virtual
/// backend and on the real substrate.
#[test]
fn batching_and_multicast_preserve_payloads_byte_for_byte() {
    let nodes = 4;
    let collect = |chol: &TlrCholesky, cluster: &Cluster| -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for (k, v) in chol.diag_out.iter().enumerate() {
            out.push((
                format!("diag[{k}]"),
                cluster.data(*v).expect("diag").to_vec(),
            ));
        }
        let mut lr: Vec<_> = chol.lr_out.iter().collect();
        lr.sort_by_key(|(ij, _)| **ij);
        for (&(i, j), &(uv, vv)) in lr {
            out.push((format!("u[{i},{j}]"), cluster.data(uv).expect("u").to_vec()));
            out.push((format!("v[{i},{j}]"), cluster.data(vv).expect("v").to_vec()));
        }
        out
    };
    let build = || TlrCholesky::build_numeric(TlrProblem::new(256, 64), nodes);
    let base = |backend: BackendKind| ClusterConfig {
        nodes,
        workers_per_node: 4,
        engine: EngineConfig::for_backend(backend),
        mode: ExecMode::Numeric,
        ..Default::default()
    };
    let with_tree = |mut cfg: ClusterConfig| {
        cfg.bcast_tree_min = Some(2);
        cfg.multicast_k = Some(3);
        cfg
    };
    let with_batch = |mut cfg: ClusterConfig| {
        cfg.engine.agg_max_bytes = 4096;
        cfg.engine = cfg.engine.clone().with_batching(5_000);
        cfg
    };

    // Flat reference: library defaults (no batching, no trees).
    let (chol, graph) = build();
    let mut flat = Cluster::new(base(BackendKind::Mpi));
    assert!(flat.execute(graph).complete());
    let reference = collect(&chol, &flat);
    assert!(!reference.is_empty());

    for backend in backends() {
        for (label, cfg) in [
            ("batched", with_batch(base(backend))),
            ("batched+tree", with_tree(with_batch(base(backend)))),
        ] {
            let (chol_v, graph_v) = build();
            let mut cluster = Cluster::new(cfg);
            assert!(cluster.execute(graph_v).complete(), "{backend} {label}");
            assert_eq!(
                collect(&chol_v, &cluster),
                reference,
                "{backend} {label}: payloads diverged from flat"
            );
        }
    }

    // Real substrate with multicast trees on, k-ary and binomial (batching
    // is an engine behavior the transport deliberately lacks; the knob
    // must be inert). Every sender relays in line, so at 2 and 4 threads
    // handlers for one node run concurrently — the debug-build
    // `present`/`requested` checks watch each version arrive and be
    // requested once per node — and children must still find the payload
    // at their tree parent.
    for threads in [1usize, 2, 4] {
        for multicast_k in [Some(3), None] {
            let (chol_r, graph_r) = build();
            let mut cfg = with_tree(with_batch(base(BackendKind::Lci)));
            cfg.multicast_k = multicast_k;
            let mut real = Cluster::new(cfg);
            assert!(
                real.execute_real(graph_r, threads).complete(),
                "real threads={threads} k={multicast_k:?}"
            );
            assert_eq!(
                collect(&chol_r, &real),
                reference,
                "real batched+tree (k={multicast_k:?}) at {threads} thread(s) diverged from flat"
            );
        }
    }
}

/// Engine batching (a 500 µs window per hot link) with 4-ary multicast
/// trees cuts the control messages on the wire without costing time to
/// solution, and changes nothing above the message layer: every mode
/// submits the same records and makes the same data puts. Cost-only, LCI,
/// 8 nodes:
/// - a wide-fan-out TLR Cholesky (N 24 000, ts 500; each panel column goes
///   to its whole node row): 14 051 → 5 642 messages (2.49×) at 1.001×
///   the flat time;
/// - a 5-point stencil (12 × 12 tiles, 4 sweeps), a narrow fan-out with
///   little to coalesce: 3 249 → 3 048 messages at 1.018× the flat time.
///
/// Binomial trees (`multicast_k: None`) still cut the TLR graph's
/// messages 2.23×, but take the stencil to 1.203× the flat time: the k-ary
/// split is what keeps narrow fan-outs flat.
#[test]
fn batching_and_trees_cut_control_messages_at_flat_time() {
    use amtlc::bench::stencil::build_stencil;
    use amtlc::core::{TaskGraph, TileDist2d};

    const NODES: usize = 8;
    let run = |graph: TaskGraph, batched_tree: bool| {
        let mut cfg = ClusterConfig {
            mode: ExecMode::CostOnly,
            get_window_bytes: 2 << 20,
            ..ClusterConfig::expanse(BackendKind::Lci, NODES)
        };
        if batched_tree {
            cfg.engine = cfg.engine.clone().with_batching(500_000);
            cfg.bcast_tree_min = Some(2);
            cfg.multicast_k = Some(4);
        }
        let report = Cluster::new(cfg).execute(graph);
        assert!(report.complete());
        let sum = |f: fn(&amtlc::comm::EngineStats) -> u64| -> u64 {
            report.engine_stats.iter().map(f).sum()
        };
        (
            sum(|s| s.am_sent.get()),
            sum(|s| s.am_submitted.get()),
            sum(|s| s.puts_started.get()),
            report.makespan.as_secs_f64(),
        )
    };
    let tlr_wide: fn() -> TaskGraph =
        || TlrCholesky::build_cost_only(TlrProblem::new(24_000, 500), NODES).1;
    let stencil: fn() -> TaskGraph =
        || build_stencil(12, 512, 4, &TileDist2d::square_grid(12, 12, NODES));
    for (name, graph, min_reduction) in [("tlr_wide", tlr_wide, 2.0), ("stencil", stencil, 1.0)] {
        let (flat_msgs, flat_records, flat_puts, flat_time) = run(graph(), false);
        let (msgs, records, puts, time) = run(graph(), true);
        assert_eq!((records, puts), (flat_records, flat_puts), "{name}");
        let reduction = flat_msgs as f64 / msgs as f64;
        assert!(
            reduction >= min_reduction,
            "{name}: {flat_msgs} -> {msgs} messages"
        );
        let slowdown = time / flat_time;
        assert!(slowdown <= 1.05, "{name}: {slowdown:.3}x the flat time");
    }
}
