//! Runtime tests: dataflow correctness across nodes and backends, priority
//! scheduling, latency instrumentation, determinism.

use amt_comm::{BackendKind, EngineConfig};
use bytes::Bytes;

use crate::{Cluster, ClusterConfig, ExecMode, GraphBuilder, TaskDesc};

fn small_cfg(backend: BackendKind, nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        workers_per_node: 4,
        engine: EngineConfig::for_backend(backend),
        ..Default::default()
    }
}

fn backends() -> [BackendKind; 3] {
    BackendKind::ALL
}

#[test]
fn single_task_runs() {
    for backend in backends() {
        let mut cluster = Cluster::new(small_cfg(backend, 1));
        let mut g = GraphBuilder::new(1);
        g.insert(TaskDesc::new("t").flops(1e6).write(0, 64));
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend}");
        assert_eq!(report.tasks_executed, 1);
        assert!(report.makespan > amt_simnet::SimTime::ZERO);
    }
}

#[test]
fn remote_dataflow_moves_real_bytes() {
    for backend in backends() {
        let mut cluster = Cluster::new(small_cfg(backend, 2));
        let mut g = GraphBuilder::new(2);
        let payload = Bytes::from((0..100u8).collect::<Vec<u8>>());
        let v = g.data(0, 100, 0, Some(payload.clone()));
        g.insert(
            TaskDesc::new("consume")
                .on_node(1)
                .flops(1e6)
                .read(v)
                .write(1, 100)
                .kernel(|ins| {
                    let doubled: Vec<u8> = ins[0].iter().map(|b| b.wrapping_mul(2)).collect();
                    vec![Bytes::from(doubled)]
                }),
        );
        let out = g.current(1).expect("output version");
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend}");
        let got = cluster.data(out).expect("output data");
        let want: Vec<u8> = payload.iter().map(|b| b.wrapping_mul(2)).collect();
        assert_eq!(&got[..], &want[..], "{backend}");
        // One remote flow happened and its latency was measured.
        assert_eq!(report.e2e_latency_us.count(), 1, "{backend}");
        assert!(report.e2e_latency_us.mean() > 0.0, "{backend}");
        assert!(report.bytes_transferred() >= 100, "{backend}");
    }
}

#[test]
fn chain_across_nodes_matches_oracle() {
    for backend in backends() {
        let mut cluster = Cluster::new(small_cfg(backend, 3));
        let mut g = GraphBuilder::new(3);
        g.data(0, 8, 0, Some(Bytes::from(vec![1u8; 8])));
        for step in 0..9u64 {
            let node = (step % 3) as usize;
            g.insert(
                TaskDesc::new("inc")
                    .on_node(node)
                    .flops(1e5)
                    .read_key(0)
                    .write(0, 8)
                    .kernel(|ins| {
                        vec![Bytes::from(
                            ins[0].iter().map(|b| b + 1).collect::<Vec<u8>>(),
                        )]
                    }),
            );
        }
        let last = g.current(0).expect("final version");
        let graph = g.build();
        let oracle = graph.sequential_oracle();
        let want = oracle[&last].clone();
        let report = cluster.execute(graph);
        assert!(report.complete(), "{backend}");
        assert_eq!(
            cluster.data(last).as_deref(),
            Some(&want[..]),
            "{backend}: distributed result diverged from sequential oracle"
        );
        assert_eq!(want[0], 10);
    }
}

#[test]
fn diamond_dependencies_fan_out_and_join() {
    for backend in backends() {
        let mut cluster = Cluster::new(small_cfg(backend, 2));
        let mut g = GraphBuilder::new(2);
        let src = g.data(0, 4, 0, Some(Bytes::from(vec![3u8; 4])));
        // Two branches on different nodes read the same version.
        g.insert(
            TaskDesc::new("left")
                .on_node(0)
                .flops(1e5)
                .read(src)
                .write(1, 4)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0].iter().map(|b| b + 1).collect::<Vec<u8>>(),
                    )]
                }),
        );
        g.insert(
            TaskDesc::new("right")
                .on_node(1)
                .flops(1e5)
                .read(src)
                .write(2, 4)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0].iter().map(|b| b * 2).collect::<Vec<u8>>(),
                    )]
                }),
        );
        g.insert(
            TaskDesc::new("join")
                .on_node(0)
                .flops(1e5)
                .read_key(1)
                .read_key(2)
                .write(3, 4)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0]
                            .iter()
                            .zip(ins[1].iter())
                            .map(|(a, b)| a + b)
                            .collect::<Vec<u8>>(),
                    )]
                }),
        );
        let out = g.current(3).expect("join output");
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend}");
        // 3+1 + 3*2 = 10
        assert_eq!(cluster.data(out).as_deref(), Some(&[10u8, 10, 10, 10][..]));
    }
}

#[test]
fn wide_fanout_many_consumers() {
    for backend in backends() {
        let nodes = 4;
        let mut cluster = Cluster::new(small_cfg(backend, nodes));
        let mut g = GraphBuilder::new(nodes);
        let v = g.data(0, 64 << 10, 0, None);
        for i in 0..40u64 {
            g.insert(
                TaskDesc::new("consume")
                    .on_node((i % nodes as u64) as usize)
                    .flops(1e7)
                    .read(v)
                    .write(100 + i, 1024),
            );
        }
        let mut cfg = small_cfg(backend, nodes);
        cfg.mode = ExecMode::CostOnly;
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend}");
        // 3 remote nodes need the version: 3 flows.
        assert_eq!(report.e2e_latency_us.count(), 3, "{backend}");
        let _ = cfg;
    }
}

#[test]
fn priority_orders_execution_when_saturated() {
    // One worker, several independent ready tasks: higher priority first.
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 1,
        workers_per_node: 1,
        ..Default::default()
    });
    let mut g = GraphBuilder::new(1);
    for (i, prio) in [(0u64, 1i64), (1, 9), (2, 5)] {
        g.insert(
            TaskDesc::new("t")
                .flops(1e6)
                .priority(prio)
                .write(i, 8)
                .kernel(move |_| vec![Bytes::from(vec![prio as u8])]),
        );
    }
    // A sink depending on all three records completion order via bytes? We
    // instead verify by makespan structure: not observable directly, so use
    // executed count and rely on the ready-queue unit ordering (tested via
    // the heap in `node.rs`). Here: just assert completion.
    let report = cluster.execute(g.build());
    assert!(report.complete());
}

#[test]
fn cost_only_mode_moves_no_bytes_but_counts_them() {
    for backend in backends() {
        let mut cfg = small_cfg(backend, 2);
        cfg.mode = ExecMode::CostOnly;
        let mut cluster = Cluster::new(cfg);
        let mut g = GraphBuilder::new(2);
        let v = g.data(0, 1 << 20, 0, None);
        g.insert(TaskDesc::new("c").on_node(1).flops(1e6).read(v));
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend}");
        assert!(
            report.bytes_transferred() >= 1 << 20,
            "{backend}: declared bytes must be accounted"
        );
    }
}

#[test]
fn deterministic_replay() {
    for backend in backends() {
        let run = || {
            let mut cluster = Cluster::new(small_cfg(backend, 2));
            let mut g = GraphBuilder::new(2);
            g.data(0, 4096, 0, None);
            for i in 0..30u64 {
                g.insert(
                    TaskDesc::new("t")
                        .on_node((i % 2) as usize)
                        .flops(1e6 * (1 + i % 5) as f64)
                        .read_key(0)
                        .write(0, 4096),
                );
            }
            let report = cluster.execute(g.build());
            (report.makespan, report.tasks_executed)
        };
        assert_eq!(run(), run(), "{backend}");
    }
}

#[test]
fn multithread_am_mode_completes() {
    for backend in backends() {
        let mut cfg = small_cfg(backend, 2);
        cfg.engine.multithread_am = true;
        cfg.mode = ExecMode::CostOnly;
        let mut cluster = Cluster::new(cfg);
        let mut g = GraphBuilder::new(2);
        g.data(0, 64 << 10, 0, None);
        for i in 0..20u64 {
            g.insert(
                TaskDesc::new("t")
                    .on_node((i % 2) as usize)
                    .flops(1e7)
                    .read_key(0)
                    .write(0, 64 << 10),
            );
        }
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend} (multithreaded ACTIVATE)");
        assert!(report.e2e_latency_us.count() > 0, "{backend}");
    }
}

#[test]
fn get_window_defers_low_priority_flows() {
    // A tiny window still completes everything.
    for backend in backends() {
        let mut cfg = small_cfg(backend, 2);
        cfg.get_window = 1;
        cfg.mode = ExecMode::CostOnly;
        let mut cluster = Cluster::new(cfg);
        let mut g = GraphBuilder::new(2);
        for i in 0..10u64 {
            let v = g.data(i, 256 << 10, 0, None);
            g.insert(
                TaskDesc::new("c")
                    .on_node(1)
                    .flops(1e6)
                    .priority(i as i64)
                    .read(v),
            );
        }
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend}");
        assert_eq!(report.e2e_latency_us.count(), 10, "{backend}");
    }
}

#[test]
fn control_dependencies_need_no_data_transfer() {
    // A size-0 version is a PaRSEC CTL flow: the ACTIVATE alone releases
    // the consumer; no GET DATA / put happens.
    for backend in backends() {
        let mut cluster = Cluster::new(small_cfg(backend, 2));
        let mut g = GraphBuilder::new(2);
        g.insert(TaskDesc::new("signal").on_node(0).flops(1e5).write(0, 0));
        g.insert(
            TaskDesc::new("waiter")
                .on_node(1)
                .flops(1e5)
                .read_key(0)
                .write(1, 16)
                .kernel(|ins| {
                    assert!(ins.is_empty(), "CTL inputs must not reach kernels");
                    vec![Bytes::from(vec![7u8; 16])]
                }),
        );
        let out = g.current(1).expect("output");
        let report = cluster.execute(g.build());
        assert!(report.complete(), "{backend}");
        assert_eq!(cluster.data(out).as_deref(), Some(&[7u8; 16][..]));
        // No put traffic at all — the dependency rode the ACTIVATE.
        assert_eq!(report.bytes_transferred(), 0, "{backend}");
        assert_eq!(report.e2e_latency_us.count(), 0, "{backend}");
        assert!(report.msg_latency_us.count() > 0, "{backend}");
    }
}

#[test]
fn multicast_tree_delivers_to_every_consumer() {
    // A wide broadcast through the binomial tree (Figure 1): every remote
    // consumer receives the data, the relay hops serve their subtrees, and
    // the end-to-end latency of leaf flows spans the whole tree.
    for backend in backends() {
        let run = |tree: Option<usize>| {
            let nodes = 8;
            let mut cfg = small_cfg(backend, nodes);
            cfg.bcast_tree_min = tree;
            let mut cluster = Cluster::new(cfg);
            let mut g = GraphBuilder::new(nodes);
            let payload = Bytes::from((0..64u8).collect::<Vec<u8>>());
            let v = g.data(0, 64, 0, Some(payload.clone()));
            for n in 1..nodes as u64 {
                g.insert(
                    TaskDesc::new("leaf")
                        .on_node(n as usize)
                        .flops(1e5)
                        .read(v)
                        .write(n, 64)
                        .kernel(|ins| vec![ins[0].clone()]),
                );
            }
            let outs: Vec<_> = (1..nodes as u64)
                .map(|n| g.current(n).expect("out"))
                .collect();
            let report = cluster.execute(g.build());
            assert!(report.complete(), "{backend} tree={tree:?}");
            for out in outs {
                assert_eq!(
                    cluster.data(out).as_deref(),
                    Some(&payload[..]),
                    "{backend} tree={tree:?}"
                );
            }
            report
        };
        let star = run(None);
        let tree = run(Some(2));
        // Both deliver 7 consumer flows; the tree sends fewer messages from
        // the root (log fan-out) but the same number of total flows.
        assert_eq!(star.e2e_latency_us.count(), 7, "{backend}");
        assert_eq!(tree.e2e_latency_us.count(), 7, "{backend}");
        let star_root_ams = star.engine_stats[0].am_sent.get();
        let tree_root_ams = tree.engine_stats[0].am_sent.get();
        assert!(
            tree_root_ams < star_root_ams,
            "{backend}: tree root must send fewer ACTIVATEs ({tree_root_ams} vs {star_root_ams})"
        );
        // Relay nodes served data (puts originate from non-root nodes too).
        let relay_puts: u64 = tree.engine_stats[1..]
            .iter()
            .map(|s| s.puts_started.get())
            .sum();
        assert!(
            relay_puts > 0,
            "{backend}: relays must serve their subtrees"
        );
    }
}

#[test]
fn multicast_tree_handles_ctl_flows() {
    for backend in backends() {
        let nodes = 8;
        let mut cfg = small_cfg(backend, nodes);
        cfg.bcast_tree_min = Some(2);
        let mut cluster = Cluster::new(cfg);
        let mut g = GraphBuilder::new(nodes);
        g.insert(TaskDesc::new("signal").on_node(0).flops(1e5).write(0, 0));
        for n in 1..nodes as u64 {
            g.insert(
                TaskDesc::new("waiter")
                    .on_node(n as usize)
                    .flops(1e5)
                    .read_key(0),
            );
        }
        let report = cluster.execute(g.build());
        assert!(
            report.complete(),
            "{backend}: CTL multicast must release all"
        );
        assert_eq!(report.bytes_transferred(), 0, "{backend}");
    }
}

#[test]
fn trace_records_task_timeline() {
    let mut cfg = small_cfg(BackendKind::Lci, 2);
    cfg.engine.trace = true;
    let mut cluster = Cluster::new(cfg);
    let mut g = GraphBuilder::new(2);
    g.data(0, 1024, 0, None);
    for i in 0..6u64 {
        g.insert(
            TaskDesc::new(if i % 2 == 0 { "even" } else { "odd" })
                .on_node((i % 2) as usize)
                .flops(1e6)
                .read_key(0)
                .write(0, 1024),
        );
    }
    let report = cluster.execute(g.build());
    assert!(report.complete());
    let json = cluster.trace_json().expect("trace available");
    assert!(json.contains(r#""name":"even""#));
    assert!(json.contains(r#""name":"odd""#));
    assert!(json.contains("thread_name"));
    // Per-class stats agree with the 6 executions.
    let total: u64 = report.class_stats.iter().map(|(_, n, _)| n).sum();
    assert_eq!(total, 6);
    assert_eq!(report.class_stats.len(), 2);
}

/// The engine config is the one copy of the backend and observability
/// switches: an MPI engine with trace and metrics on runs MPI, records a
/// communication-thread track and fills the stage histograms.
#[test]
fn engine_config_picks_backend_and_observability() {
    let mut cluster = Cluster::new(ClusterConfig {
        engine: EngineConfig::mpi().with_observability(true, true),
        ..small_cfg(BackendKind::Lci, 2)
    });
    let mut g = GraphBuilder::new(2);
    g.data(0, 1024, 0, None);
    g.insert(
        TaskDesc::new("t")
            .on_node(1)
            .flops(1e6)
            .read_key(0)
            .write(0, 1024),
    );
    let report = cluster.execute(g.build());
    assert!(report.complete());
    let metrics = cluster.metrics_report(&report);
    assert_eq!(metrics.backend, BackendKind::Mpi);
    assert!(!metrics.stages.is_empty(), "metrics switched off");
    let json = cluster.trace_json().expect("trace switched off");
    assert!(json.contains("n0.comm"), "no communication-thread track");
}

#[test]
fn report_utilizations_are_sane() {
    let mut cluster = Cluster::new(small_cfg(BackendKind::Lci, 2));
    let mut g = GraphBuilder::new(2);
    g.data(0, 1 << 20, 0, None);
    for i in 0..40u64 {
        g.insert(
            TaskDesc::new("t")
                .on_node((i % 2) as usize)
                .flops(1e8)
                .read_key(0)
                .write(0, 1 << 20),
        );
    }
    let report = cluster.execute(g.build());
    assert!(report.complete());
    assert!(report.worker_util > 0.0 && report.worker_util <= 1.0);
    assert!(report.comm_util > 0.0 && report.comm_util <= 1.0);
    assert!(report.progress_util > 0.0 && report.progress_util <= 1.0);
}

/// A fan-heavy stress graph: versions with many consumers spread over the
/// nodes in interleaved insertion order (duplicate destination nodes,
/// mixed — including negative — priorities), write-after-read renaming,
/// and a final cross-node reduction. Exercises announce grouping, the
/// priority ready queue, and CTL flows.
fn stress_graph(nodes: usize) -> crate::TaskGraph {
    let mut g = GraphBuilder::new(nodes);
    for k in 0..4u64 {
        g.data(k, 256 + 64 * k as usize, (k as usize) % nodes, None);
    }
    let mut next_key = 100u64;
    for round in 0..6i64 {
        for k in 0..4u64 {
            // Interleaved consumers of version `k`-current across nodes,
            // several per node, priority varying with parity.
            for c in 0..7i64 {
                let node = ((c as usize) * 3 + round as usize) % nodes;
                g.insert(
                    TaskDesc::new("fan")
                        .on_node(node)
                        .flops(5e5)
                        .priority((c % 3) - 1 + round)
                        .read_key(k)
                        .write(next_key, 64),
                );
                next_key += 1;
            }
            // Rename the key: supersede the old version.
            g.insert(
                TaskDesc::new("bump")
                    .on_node((k as usize + round as usize) % nodes)
                    .flops(1e6)
                    .priority(round)
                    .read_key(k)
                    .write(k, 256),
            );
        }
    }
    g.build()
}

#[test]
fn fat_tree_runs_are_byte_identical() {
    // Same-instant arrivals at the shared pod up/down links drain in
    // (src, chunk-seq) calendar order, so two runs over the contended
    // fat-tree fabric (8 nodes, 4 pods of 2) make identical decisions.
    use amt_netmodel::{FatTreeConfig, Topology};
    for backend in backends() {
        let run = |topology: Topology| {
            let mut cfg = ClusterConfig {
                nodes: 8,
                workers_per_node: 2,
                engine: EngineConfig::for_backend(backend),
                mode: ExecMode::CostOnly,
                bcast_tree_min: Some(2),
                ..Default::default()
            };
            cfg.fabric.topology = topology;
            let report = Cluster::new(cfg).execute(stress_graph(8));
            assert!(report.complete(), "{backend}");
            report.to_json()
        };
        let fat_tree = || {
            Topology::FatTree(FatTreeConfig {
                pods: 4,
                ..Default::default()
            })
        };
        let first = run(fat_tree());
        assert_eq!(first, run(fat_tree()), "{backend}");
        // Intra-pod traffic behaves exactly like `Flat`, so a differing
        // report means chunks did cross the pod links.
        assert_ne!(
            first,
            run(Topology::Flat),
            "{backend}: no cross-pod traffic"
        );
    }
}

#[test]
fn fat_tree_cluster_completes_and_reports() {
    // The full protocol stack (ACTIVATE / GET DATA / put, multicast trees)
    // must run unchanged over the contended fat-tree fabric.
    use amt_netmodel::{FatTreeConfig, Topology};
    for backend in backends() {
        let mut cfg = small_cfg(backend, 4);
        cfg.mode = ExecMode::CostOnly;
        cfg.bcast_tree_min = Some(2);
        cfg.fabric.topology = Topology::FatTree(FatTreeConfig {
            pods: 2,
            link_bandwidth_gbps: 50.0, // narrower than one NIC
            spine_latency: amt_simnet::SimTime::from_ns(600),
        });
        let report = Cluster::new(cfg).execute(stress_graph(4));
        assert!(report.complete(), "{backend}");
        assert!(report.bytes_transferred() > 0, "{backend}");
    }
}

#[test]
fn flyweight_store_is_byte_identical_to_dense() {
    // The hash-backed per-node version store must make identical
    // scheduling decisions to the dense byte-per-version table — plain
    // and windowed, on every backend.
    for backend in backends() {
        let run = |flyweight: bool, windowed: bool| {
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 6,
                workers_per_node: 2,
                engine: EngineConfig::for_backend(backend),
                mode: ExecMode::CostOnly,
                bcast_tree_min: Some(2),
                flyweight,
                ..Default::default()
            });
            let report = if windowed {
                cluster.execute_windowed(Box::new(ChainSource { len: 40, next: 0 }), 7)
            } else {
                cluster.execute(stress_graph(6))
            };
            assert!(report.complete(), "{backend}");
            report.to_json()
        };
        assert_eq!(run(false, false), run(true, false), "{backend}");
        assert_eq!(run(false, true), run(true, true), "{backend} windowed");
    }
}

#[test]
fn announce_groups_one_flow_per_remote_node() {
    // A version with many consumer tasks on few nodes must be announced
    // (and fetched) once per remote node, not once per consumer.
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        workers_per_node: 2,
        ..Default::default()
    });
    let mut g = GraphBuilder::new(3);
    let v = g.data(0, 512, 0, None);
    // 12 consumers interleaved over nodes 1 and 2 with mixed
    // priorities — the announce must group them into two dests.
    for c in 0..12i64 {
        g.insert(
            TaskDesc::new("c")
                .on_node(1 + (c as usize) % 2)
                .flops(1e5)
                .priority(-(c % 4))
                .read(v)
                .write(100 + c as u64, 32),
        );
    }
    let report = cluster.execute(g.build());
    assert!(report.complete());
    // One remote flow per consumer node.
    assert_eq!(report.e2e_latency_us.count(), 2);
}

/// Incremental chain source for windowed tests: `len` tasks rotating over
/// 3 nodes, all reading/renaming key 0; every 5th task also reads a shared
/// initial version (whose later consumers are discovered long after its
/// init announce — the late-ACTIVATE path).
struct ChainSource {
    len: usize,
    next: usize,
}

impl crate::GraphSource for ChainSource {
    fn next_task(&mut self, g: &mut GraphBuilder) -> bool {
        if self.next >= self.len {
            return false;
        }
        if self.next == 0 {
            g.data(0, 8, 0, Some(Bytes::from(vec![1u8; 8])));
            g.data(99, 8, 0, Some(Bytes::from(vec![7u8; 8])));
        }
        let mut d = TaskDesc::new("inc")
            .on_node(self.next % 3)
            .flops(1e5)
            .read_key(0);
        if self.next.is_multiple_of(5) {
            d = d.read_key(99);
        }
        d = d.write(0, 8).kernel(|ins| {
            let extra = if ins.len() > 1 { ins[1][0] } else { 0 };
            vec![Bytes::from(
                ins[0]
                    .iter()
                    .map(|b| b.wrapping_add(1).wrapping_add(extra))
                    .collect::<Vec<u8>>(),
            )]
        });
        g.insert(d);
        self.next += 1;
        true
    }
}

/// Fully unroll `src` — the graph a covering window executes.
fn unroll(nodes: usize, mut src: impl crate::GraphSource) -> crate::TaskGraph {
    let mut g = GraphBuilder::new(nodes);
    while src.next_task(&mut g) {}
    g.build()
}

fn chain_graph(len: usize) -> crate::TaskGraph {
    unroll(3, ChainSource { len, next: 0 })
}

#[test]
fn windowed_covering_window_is_byte_identical_to_full_unroll() {
    let full_graph = chain_graph(30);
    let last = crate::VersionId(full_graph.version_count() - 1);
    let oracle = full_graph.sequential_oracle();
    let mut full = Cluster::new(small_cfg(BackendKind::Lci, 3));
    let full_json = full.execute(full_graph).to_json();

    let mut win = Cluster::new(small_cfg(BackendKind::Lci, 3));
    let report = win.execute_windowed(Box::new(ChainSource { len: 30, next: 0 }), 1000);
    assert_eq!(report.to_json(), full_json);
    assert_eq!(win.data(last).as_deref(), oracle.get(&last).map(|b| &b[..]));
}

#[test]
fn windowed_small_window_completes_with_identical_payloads() {
    let full_graph = chain_graph(30);
    let last = crate::VersionId(full_graph.version_count() - 1);
    let oracle = full_graph.sequential_oracle();
    for window in [1, 3, 7] {
        let mut win = Cluster::new(small_cfg(BackendKind::Lci, 3));
        let report = win.execute_windowed(Box::new(ChainSource { len: 30, next: 0 }), window);
        assert!(report.complete(), "window {window}: {report:?}");
        assert_eq!(report.tasks_total, 30, "window {window}");
        assert_eq!(
            win.data(last).as_deref(),
            oracle.get(&last).map(|b| &b[..]),
            "window {window}: final payload diverged"
        );
    }
}

/// Broadcast stages for the holder-list tests: stage `s` is one writer on
/// node `s % spread` renaming key 0 (every other stage it also reads the
/// shared initial key 99), then `spread - 1` readers, one per other node,
/// each reading the stage's key-0 version and renaming a node-local key.
/// Every key-0 version therefore lives on all `spread` nodes. A window of
/// a full stage or more announces it through the multicast tree (relays
/// forward to their subtrees); a smaller one discovers the readers after
/// the writer completed — the late-ACTIVATE path.
struct BroadcastStages {
    spread: usize,
    stages: usize,
    next: usize,
}

impl crate::GraphSource for BroadcastStages {
    fn next_task(&mut self, g: &mut GraphBuilder) -> bool {
        let (stage, pos) = (self.next / self.spread, self.next % self.spread);
        if stage >= self.stages {
            return false;
        }
        if self.next == 0 {
            g.data(0, 8, 0, Some(Bytes::from(vec![1u8; 8])));
            g.data(99, 8, 0, Some(Bytes::from(vec![7u8; 8])));
            for n in 0..self.spread {
                g.data(100 + n as u64, 8, n, Some(Bytes::from(vec![n as u8; 8])));
            }
        }
        let add = |ins: &[Bytes]| {
            let extra = ins[1..].iter().fold(0u8, |a, b| a.wrapping_add(b[0]));
            let out = ins[0].iter().map(|b| b.wrapping_add(1).wrapping_add(extra));
            vec![Bytes::from(out.collect::<Vec<u8>>())]
        };
        let node = (stage + pos) % self.spread;
        let mut d = TaskDesc::new("stage").on_node(node).flops(1e5);
        if pos == 0 {
            d = d.read_key(0);
            if stage.is_multiple_of(2) {
                d = d.read_key(99);
            }
            d = d.write(0, 8);
        } else {
            let own = 100 + node as u64;
            d = d.read_key(own).read_key(0).write(own, 8);
        }
        g.insert(d.kernel(add));
        self.next += 1;
        true
    }
}

fn broadcast_stages(spread: usize, stages: usize) -> Box<BroadcastStages> {
    Box::new(BroadcastStages {
        spread,
        stages,
        next: 0,
    })
}

/// Retirement drops a version's payload at its home and its holder list
/// only. After a Numeric run through multicast relays and late
/// activations no retired version may keep bytes on *any* node (debug
/// builds also assert this at every retirement), and every final version
/// must match the sequential oracle.
#[test]
fn windowed_retirement_drops_every_payload_copy_it_created() {
    let nodes = 8;
    let full_graph = unroll(nodes, *broadcast_stages(nodes, 12));
    let oracle = full_graph.sequential_oracle();
    let mut final_of = std::collections::HashMap::new();
    for (i, v) in full_graph.versions().enumerate() {
        final_of.insert(v.key, i);
    }
    for window in [1, 3, 7, 20, 1000] {
        let mut cfg = small_cfg(BackendKind::Lci, nodes);
        cfg.mode = ExecMode::Numeric;
        cfg.bcast_tree_min = Some(2);
        let mut win = Cluster::new(cfg);
        let report = win.execute_windowed(broadcast_stages(nodes, 12), window);
        assert!(report.complete(), "window {window}: {report:?}");
        assert_eq!(report.tasks_total as usize, full_graph.task_count());
        for (i, v) in full_graph.versions().enumerate() {
            let id = crate::VersionId(i);
            if final_of[&v.key] == i {
                assert_eq!(
                    win.data(id).as_deref(),
                    oracle.get(&id).map(|b| &b[..]),
                    "window {window}: final version {i} of key {} diverged",
                    v.key
                );
            } else {
                assert!(
                    win.data(id).is_none(),
                    "window {window}: retired version {i} of key {} kept payload bytes",
                    v.key
                );
            }
        }
    }
}

/// ROADMAP aim 1 (gate on counts, not wall-clock): the bookkeeping work of
/// init and retirement — graph entries visited, store lookups issued — is a
/// function of the graph, not of the cluster it runs on. The same graph on
/// 4 nodes of an 8-node and of a 256-node cluster costs the same probes.
#[test]
fn init_and_retirement_probes_do_not_grow_with_cluster_size() {
    use crate::node::SWEEP_PROBES;
    let probes = |nodes: usize| {
        SWEEP_PROBES.with(|c| c.set(0));
        let mut win = Cluster::new(small_cfg(BackendKind::Lci, nodes));
        let report = win.execute_windowed(broadcast_stages(4, 30), 9);
        assert!(report.complete(), "nodes {nodes}: {report:?}");
        SWEEP_PROBES.with(|c| c.get())
    };
    let small = probes(8);
    assert!(small > 0, "the counter must see init and retirement");
    assert_eq!(
        small,
        probes(256),
        "host bookkeeping scaled with the node count"
    );
}

// ---------------------------------------------------------------------------
// Real substrate (execute_real): same graphs, real threads.

#[test]
fn real_exec_single_task() {
    let mut cluster = Cluster::new(small_cfg(BackendKind::Lci, 1));
    let mut g = GraphBuilder::new(1);
    g.insert(TaskDesc::new("t").flops(1e6).write(0, 64));
    let report = cluster.execute_real(g.build(), 1);
    assert!(report.complete());
    assert_eq!(report.tasks_executed, 1);
    assert_eq!(report.sim_events, 0, "no simulator under a real run");
}

#[test]
fn real_exec_chain_matches_oracle_at_multiple_thread_counts() {
    for threads in [1usize, 2, 3] {
        let mut cluster = Cluster::new(small_cfg(BackendKind::Lci, 3));
        let mut g = GraphBuilder::new(3);
        g.data(0, 8, 0, Some(Bytes::from(vec![1u8; 8])));
        for step in 0..9u64 {
            let node = (step % 3) as usize;
            g.insert(
                TaskDesc::new("inc")
                    .on_node(node)
                    .flops(1e5)
                    .read_key(0)
                    .write(0, 8)
                    .kernel(|ins| {
                        vec![Bytes::from(
                            ins[0].iter().map(|b| b + 1).collect::<Vec<u8>>(),
                        )]
                    }),
            );
        }
        let last = g.current(0).expect("final version");
        let graph = g.build();
        let oracle = graph.sequential_oracle();
        let want = oracle[&last].clone();
        let report = cluster.execute_real(graph, threads);
        assert!(report.complete(), "threads={threads}");
        assert_eq!(
            cluster.data(last).as_deref(),
            Some(&want[..]),
            "threads={threads}: real result diverged from sequential oracle"
        );
        // Steps 1..9 hop nodes: 8 flows ran the real ACTIVATE/GET/put
        // protocol (step 0 reads the initial version locally).
        assert_eq!(report.e2e_latency_us.count(), 8, "threads={threads}");
        assert!(report.bytes_transferred() >= 8 * 8, "threads={threads}");
    }
}

#[test]
fn real_exec_control_dependencies_cross_nodes_without_data() {
    let mut cluster = Cluster::new(small_cfg(BackendKind::Lci, 2));
    let mut g = GraphBuilder::new(2);
    g.insert(TaskDesc::new("produce").on_node(0).flops(1e5).write(7, 0));
    let ctl = g.current(7).expect("control version");
    g.insert(
        TaskDesc::new("gated")
            .on_node(1)
            .flops(1e5)
            .read(ctl)
            .write(8, 4)
            .kernel(|ins| {
                assert!(ins.is_empty(), "CTL inputs must not reach kernels");
                vec![Bytes::from_static(b"done")]
            }),
    );
    let out = g.current(8).expect("output");
    let report = cluster.execute_real(g.build(), 2);
    assert!(report.complete());
    assert_eq!(cluster.data(out).as_deref(), Some(&b"done"[..]));
    // The control flow completed with its ACTIVATE alone: one message
    // latency, no end-to-end sample and zero put bytes (as on the virtual
    // path).
    assert_eq!(report.msg_latency_us.count(), 1);
    assert_eq!(report.e2e_latency_us.count(), 0);
    assert_eq!(report.bytes_transferred(), 0);
}

#[test]
fn real_exec_payloads_match_virtual_execution_bitwise() {
    let build = || {
        let mut g = GraphBuilder::new(2);
        let src = g.data(0, 4, 0, Some(Bytes::from(vec![3u8; 4])));
        g.insert(
            TaskDesc::new("left")
                .on_node(0)
                .flops(1e5)
                .read(src)
                .write(1, 4)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0].iter().map(|b| b + 1).collect::<Vec<u8>>(),
                    )]
                }),
        );
        let l = g.current(1).unwrap();
        g.insert(
            TaskDesc::new("right")
                .on_node(1)
                .flops(1e5)
                .read(src)
                .write(2, 4)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0].iter().map(|b| b * 2).collect::<Vec<u8>>(),
                    )]
                }),
        );
        let r = g.current(2).unwrap();
        g.insert(
            TaskDesc::new("join")
                .on_node(0)
                .flops(1e5)
                .read(l)
                .read(r)
                .write(3, 4)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0]
                            .iter()
                            .zip(ins[1].iter())
                            .map(|(a, b)| a ^ b)
                            .collect::<Vec<u8>>(),
                    )]
                }),
        );
        let out = g.current(3).unwrap();
        (g.build(), out)
    };
    let (vg, out) = build();
    let mut virt = Cluster::new(small_cfg(BackendKind::Lci, 2));
    assert!(virt.execute(vg).complete());
    let want = virt.data(out).expect("virtual payload");

    for threads in [1usize, 2, 4] {
        let (rg, out_r) = build();
        assert_eq!(out_r, out, "same construction, same version ids");
        let mut real = Cluster::new(small_cfg(BackendKind::Lci, 2));
        assert!(real.execute_real(rg, threads).complete());
        assert_eq!(
            real.data(out_r).as_deref(),
            Some(&want[..]),
            "threads={threads}"
        );
    }
}

#[test]
fn real_exec_source_unrolls_and_matches_windowed() {
    let full_graph = chain_graph(30);
    let last = crate::VersionId(full_graph.version_count() - 1);
    let oracle = full_graph.sequential_oracle();
    let mut real = Cluster::new(small_cfg(BackendKind::Lci, 3));
    let report = real.execute_real(unroll(3, ChainSource { len: 30, next: 0 }), 2);
    assert!(report.complete());
    assert_eq!(report.tasks_total, 30);
    assert_eq!(
        real.data(last).as_deref(),
        oracle.get(&last).map(|b| &b[..])
    );
}

/// Cost-only 5-point stencil of `sweeps` sweeps over a `side`² tile grid
/// with an irregular tile → node map: node 0 owns two columns in three,
/// so it announces far more versions than it receives.
fn lopsided_stencil(nodes: usize, side: i64, sweeps: usize) -> crate::TaskGraph {
    let key = |r: i64, c: i64| (r * side + c) as u64;
    let owner = |k: u64| match k % 3 {
        2 => 1 + (k as usize / 3) % (nodes - 1),
        _ => 0,
    };
    let mut g = GraphBuilder::new(nodes);
    for k in 0..(side * side) as u64 {
        g.data(k, 128, owner(k), None);
    }
    for _ in 0..sweeps {
        for r in 0..side {
            for c in 0..side {
                let k = key(r, c);
                let mut desc = TaskDesc::new("stencil")
                    .on_node(owner(k))
                    .read_key(k)
                    .write(k, 128);
                for (nr, nc) in [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)] {
                    if (0..side).contains(&nr) && (0..side).contains(&nc) {
                        desc = desc.read_key(key(nr, nc));
                    }
                }
                g.insert(desc);
            }
        }
    }
    g.build()
}

/// Deterministic proxy (one thread) for the message path: a message is
/// handled in line by the thread that sent it, never as a pool job — pool
/// spawns stay at one per task (7.03 per task when each ACTIVATE, GET and
/// put spawned its own progress job) — under unicast and multicast alike.
#[test]
fn real_exec_messages_are_not_pool_jobs() {
    for bcast_tree_min in [None, Some(2)] {
        let mut cluster = Cluster::new(ClusterConfig {
            mode: ExecMode::CostOnly,
            bcast_tree_min,
            ..small_cfg(BackendKind::Lci, 4)
        });
        let graph = lopsided_stencil(4, 6, 10);
        let (tasks, flows) = (graph.task_count() as u64, graph.remote_flows() as u64);
        let report = cluster.execute_real(graph, 1);
        assert!(report.complete());
        assert_eq!(report.e2e_latency_us.count(), flows);
        assert!(
            flows > tasks,
            "{flows} flows for {tasks} tasks: not message-bound"
        );
        let spawns = report.pool.as_ref().expect("a real run's pool").spawns();
        assert!(
            spawns as f64 <= 1.1 * tasks as f64,
            "{spawns} pool jobs for {tasks} tasks: messages are queuing as jobs again"
        );
    }
}

/// An observed real run of the lopsided stencil on `threads` workers
/// under multicast policy `bcast_tree_min` (complete, every flow
/// measured, no message a pool job): its merged stage registry, the AMs
/// and puts sent, and the report.
fn observed_lopsided_run(
    threads: usize,
    bcast_tree_min: Option<usize>,
) -> (amt_simnet::MetricsRegistry, u64, u64, crate::RunReport) {
    let mut cluster = Cluster::new(ClusterConfig {
        mode: ExecMode::CostOnly,
        engine: EngineConfig::lci().with_observability(false, true),
        bcast_tree_min,
        ..small_cfg(BackendKind::Lci, 4)
    });
    let graph = lopsided_stencil(4, 6, 20);
    let (tasks, flows) = (graph.task_count() as u64, graph.remote_flows() as u64);
    let report = cluster.execute_real(graph, threads);
    assert!(report.complete());
    assert_eq!(report.e2e_latency_us.count(), flows);
    // One startup job besides the tasks: no message becomes a pool job
    // and no second job checks for quiescence.
    let spawns = report.pool.as_ref().expect("a real run's pool").spawns();
    assert_eq!(
        spawns,
        tasks + 1,
        "{spawns} pool jobs for {tasks} tasks at {threads} thread(s)"
    );
    let stages = cluster.metrics_report(&report).stages;
    let sum = |f: fn(&amt_comm::EngineStats) -> u64| report.engine_stats.iter().map(f).sum();
    let (ams, puts) = (sum(|s| s.am_sent.get()), sum(|s| s.puts_started.get()));
    (stages, ams, puts, report)
}

/// Every message is handled at once by the thread that sends it, at any
/// thread count and under unicast and multicast alike: each AM sent was
/// received and each put started landed — none was lost or handled twice,
/// whichever threads ran a node's handlers concurrently — and no message
/// became a pool job (`observed_lopsided_run` holds spawns to one per
/// task plus startup). Under the tree, forward lists travel: a tile of
/// nodes 1–3 has three remote consumer nodes, so its home sends two
/// ACTIVATEs where the star sends three, and node 0, first in every such
/// list, relays the third and serves its data.
#[test]
fn real_exec_every_message_is_handled_by_its_sender() {
    for threads in [1, 2, 4] {
        let [star, tree] = [None, Some(2)].map(|bcast_tree_min| {
            let (_, ams, puts, report) = observed_lopsided_run(threads, bcast_tree_min);
            let ctx = format!("{threads} thread(s), tree {bcast_tree_min:?}");
            let sum = |f: fn(&amt_comm::EngineStats) -> u64| -> u64 {
                report.engine_stats.iter().map(f).sum()
            };
            assert!(ams > 0 && puts > 0, "{ctx}: no traffic");
            assert_eq!(sum(|s| s.am_received.get()), ams, "{ctx}");
            assert_eq!(sum(|s| s.puts_remote_done.get()), puts, "{ctx}");
            report.engine_stats
        });
        let roots_ams =
            |s: &[amt_comm::EngineStats]| -> u64 { s[1..].iter().map(|s| s.am_sent.get()).sum() };
        assert!(
            roots_ams(&tree) < roots_ams(&star),
            "{threads} thread(s): the multicast roots sent {} AMs, the star {}",
            roots_ams(&tree),
            roots_ams(&star)
        );
        assert!(
            tree[0].puts_started.get() > star[0].puts_started.get(),
            "{threads} thread(s): node 0 relayed no data"
        );
    }
}

/// Every message records the sender-side samples: zero queue/inject
/// stages, per-class wire counts and records per message, for every AM
/// and every put, at any thread count. The only AM classes are ACTIVATE
/// and GET DATA.
#[test]
fn real_exec_observed_sender_samples_count_every_message() {
    for threads in [1, 2, 4] {
        let (stages, ams, puts, _) = observed_lopsided_run(threads, None);
        let samples = |name: &str| stages.hist(name).map_or(0, |h| h.count());
        let am_classes = ["activate", "get"];
        let per_class = |what: &str, f: &dyn Fn(&str) -> u64| -> u64 {
            am_classes
                .iter()
                .map(|c| f(&format!("msg.{c}.{what}")))
                .sum()
        };
        let ctx = format!("{threads} thread(s)");
        assert_eq!(samples("am.queue_ns"), ams, "{ctx}");
        assert_eq!(samples("am.inject_ns"), ams, "{ctx}");
        assert_eq!(
            per_class("msgs_on_wire", &|n| stages.counter(n)),
            ams,
            "{ctx}"
        );
        assert_eq!(per_class("records_per_msg", &samples), ams, "{ctx}");
        assert_eq!(samples("put.queue_ns"), puts, "{ctx}");
        assert_eq!(samples("put.inject_ns"), puts, "{ctx}");
        assert_eq!(stages.counter("msg.data.msgs_on_wire"), puts, "{ctx}");
    }
}

/// A traced real run of a cost-only graph records one task span per
/// executed task, at 1 and 2 threads: a kernel-less task skips its clock
/// reads only when nobody wants the interval.
#[test]
fn real_exec_traced_cost_only_run_spans_every_task() {
    for threads in [1, 2] {
        let mut cluster = Cluster::new(ClusterConfig {
            mode: ExecMode::CostOnly,
            engine: EngineConfig::lci().with_observability(true, false),
            ..small_cfg(BackendKind::Lci, 4)
        });
        let graph = lopsided_stencil(4, 6, 5);
        let tasks = graph.task_count();
        assert!(cluster.execute_real(graph, threads).complete());
        let json = cluster.trace_json().expect("a real run's trace");
        let spans = json.matches(r#""name":"stencil","ph":"X""#).count();
        assert_eq!(spans, tasks, "{threads} thread(s)");
    }
}

/// An untraced cost-only real run times no task, so every class ties at
/// 0 ns of busy time: the report then lists the classes in the order the
/// run first met them, the same in every run (a hash map listed them in a
/// random order).
#[test]
fn real_exec_tied_classes_keep_one_order() {
    let classes = || {
        let mut cluster = Cluster::new(ClusterConfig {
            mode: ExecMode::CostOnly,
            ..small_cfg(BackendKind::Lci, 4)
        });
        let report = cluster.execute_real(stress_graph(4), 1);
        assert!(report.complete());
        report.class_stats
    };
    let first = classes();
    assert_eq!(first.len(), 2, "{first:?}");
    assert!(first.iter().all(|c| c.2.is_zero()), "{first:?}");
    for _ in 0..8 {
        assert_eq!(classes(), first);
    }
}

#[test]
fn real_then_virtual_data_stores_supersede_each_other() {
    let mut cluster = Cluster::new(small_cfg(BackendKind::Lci, 1));
    let build = |tag: u8| {
        let mut g = GraphBuilder::new(1);
        g.insert(
            TaskDesc::new("w")
                .flops(1e5)
                .write(0, 1)
                .kernel(move |_| vec![Bytes::from(vec![tag])]),
        );
        let out = g.current(0).unwrap();
        (g.build(), out)
    };
    let (g1, v1) = build(1);
    cluster.execute_real(g1, 1);
    assert_eq!(cluster.data(v1).as_deref(), Some(&[1u8][..]));
    let (g2, v2) = build(2);
    cluster.execute(g2);
    assert_eq!(
        cluster.data(v2).as_deref(),
        Some(&[2u8][..]),
        "virtual run must clear stale real-run data"
    );
}

/// Cross-substrate traffic oracle: one Numeric graph on 3 nodes — a
/// control flow, a data flow whose kernel output is shorter than its
/// declared size, and an initial version with two remote consumer nodes
/// announced over a multicast tree — produces the same protocol traffic
/// on the virtual path and on the real one at 1, 2 and 4 threads.
#[test]
fn protocol_traffic_matches_across_substrates() {
    let build = || {
        let mut g = GraphBuilder::new(3);
        g.insert(TaskDesc::new("signal").on_node(0).flops(1e5).write(0, 0));
        g.insert(TaskDesc::new("gated").on_node(1).flops(1e5).read_key(0));
        g.insert(
            TaskDesc::new("short")
                .on_node(0)
                .flops(1e5)
                .write(1, 64)
                .kernel(|_| vec![Bytes::from(vec![5u8; 16])]),
        );
        g.insert(TaskDesc::new("short_use").on_node(2).flops(1e5).read_key(1));
        let wide = g.data(2, 32, 0, Some(Bytes::from(vec![9u8; 32])));
        for node in [1, 2] {
            g.insert(
                TaskDesc::new("wide_use")
                    .on_node(node)
                    .flops(1e5)
                    .read(wide),
            );
        }
        g.build()
    };
    let cfg = ClusterConfig {
        nodes: 3,
        workers_per_node: 2,
        mode: ExecMode::Numeric,
        bcast_tree_min: Some(2),
        ..Default::default()
    };
    let traffic = |r: &crate::RunReport| {
        let puts: u64 = r.engine_stats.iter().map(|s| s.puts_started.get()).sum();
        (
            r.msg_latency_us.count(),
            r.request_latency_us.count(),
            r.e2e_latency_us.count(),
            puts,
            r.bytes_transferred(),
        )
    };
    let virt = Cluster::new(cfg.clone()).execute(build());
    assert!(virt.complete());
    // 4 ACTIVATEs (control, short, two down the tree); 3 GET/put round
    // trips; the short flow moves the kernel's 16 bytes, not 64.
    assert_eq!(traffic(&virt), (4, 3, 3, 3, 16 + 2 * 32));
    for threads in [1, 2, 4] {
        let real = Cluster::new(cfg.clone()).execute_real(build(), threads);
        assert!(real.complete(), "{threads} thread(s)");
        assert_eq!(traffic(&real), traffic(&virt), "{threads} thread(s)");
    }
}

/// The shared protocol handlers driven against a third, recording
/// [`Port`](crate::protocol::Port).
mod protocol_port {
    use std::collections::HashMap;

    use amt_simnet::SimTime;
    use bytes::Bytes;

    use crate::protocol::{self, Fanout, Forward, Lat, Port, Tree};
    use crate::records::{ActivateRec, GetRec, PutCb};
    use crate::{GraphBuilder, TaskDesc, TaskGraph};

    #[derive(Debug, PartialEq)]
    enum Call {
        Activate {
            dst: usize,
            priority: i64,
            size: u64,
            forward: Vec<u32>,
        },
        Request(usize),
        Put {
            dst: usize,
            size: usize,
            data: bool,
        },
        Present {
            data: bool,
            requested: bool,
        },
        Requested(Option<Forward>),
        TakeForward,
        Payload,
        Sample(Lat),
    }

    /// Records every call; holds the node's payload and kept forwards.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        payload: Option<Bytes>,
        forwards: HashMap<usize, Forward>,
    }

    impl Port for Recorder {
        fn now(&mut self) -> u64 {
            1_000
        }
        fn send_activate(&mut self, dst: usize, rec: ActivateRec) {
            self.calls.push(Call::Activate {
                dst,
                priority: rec.priority,
                size: rec.size,
                forward: rec.forward,
            });
        }
        fn request(&mut self, owner: usize, _rec: &ActivateRec) {
            self.calls.push(Call::Request(owner));
        }
        fn put(&mut self, dst: usize, _cb: PutCb, size: usize, data: Option<Bytes>) {
            let data = data.is_some();
            self.calls.push(Call::Put { dst, size, data });
        }
        fn present(&mut self, _v: usize, data: Option<Bytes>, requested: bool) {
            let data = data.is_some();
            self.calls.push(Call::Present { data, requested });
        }
        fn requested(&mut self, v: usize, forward: Option<Forward>) {
            self.calls.push(Call::Requested(forward.clone()));
            self.forwards.extend(forward.map(|f| (v, f)));
        }
        fn take_forward(&mut self, v: usize) -> Option<Forward> {
            self.calls.push(Call::TakeForward);
            self.forwards.remove(&v)
        }
        fn payload(&mut self, _v: usize) -> Option<Bytes> {
            self.calls.push(Call::Payload);
            self.payload.clone()
        }
        fn sample(&mut self, lat: Lat, _t: SimTime) {
            self.calls.push(Call::Sample(lat));
        }
    }

    fn rec(size: u64, forward: Vec<u32>) -> ActivateRec {
        ActivateRec {
            version: 0,
            size,
            priority: 7,
            sent_at_ns: 400,
            forward,
        }
    }

    fn relay(dst: usize, size: u64, forward: Vec<u32>) -> Call {
        Call::Activate {
            dst,
            priority: 7,
            size,
            forward,
        }
    }

    /// Version 0: 64 bytes declared, at node 0.
    fn graph() -> TaskGraph {
        let mut g = GraphBuilder::new(4);
        g.data(0, 64, 0, None);
        g.build()
    }

    #[test]
    fn control_activate_releases_and_relays_without_a_request() {
        let mut p = Recorder::default();
        protocol::on_activate(&mut p, None, 3, rec(0, vec![5, 6, 7]));
        let want = [
            Call::Sample(Lat::Msg),
            Call::Present {
                data: false,
                requested: false,
            },
            relay(5, 0, vec![6]),
            relay(7, 0, vec![]),
        ];
        assert_eq!(p.calls, want);
    }

    #[test]
    fn data_activate_keeps_the_forward_and_requests_from_its_source() {
        let mut p = Recorder::default();
        protocol::on_activate(&mut p, None, 3, rec(64, vec![5, 6]));
        let want = [
            Call::Sample(Lat::Msg),
            Call::Requested(Some((vec![5, 6], 7))),
            Call::Request(3),
        ];
        assert_eq!(p.calls, want);
    }

    #[test]
    fn get_puts_the_held_payload_length() {
        let mut p = Recorder {
            payload: Some(Bytes::from(vec![1u8; 10])),
            ..Recorder::default()
        };
        let get = GetRec {
            version: 0,
            activate_sent_at_ns: 400,
        };
        protocol::on_get(&mut p, &graph(), 2, get);
        let put = Call::Put {
            dst: 2,
            size: 10,
            data: true,
        };
        assert_eq!(p.calls, [Call::Sample(Lat::Request), Call::Payload, put]);
        // A cost-only version puts its declared size.
        let mut p = Recorder::default();
        protocol::on_get(&mut p, &graph(), 2, get);
        assert!(p.calls.contains(&Call::Put {
            dst: 2,
            size: 64,
            data: false
        }));
    }

    #[test]
    fn put_arrival_releases_and_relays_the_kept_forward() {
        let mut p = Recorder::default();
        p.forwards.insert(0, (vec![5, 6], 7));
        let cb = PutCb {
            version: 0,
            activate_sent_at_ns: 400,
        };
        protocol::on_put(&mut p, Some(2), cb, 10, Some(Bytes::from(vec![1u8; 10])));
        let want = [
            Call::Sample(Lat::E2e),
            Call::Present {
                data: true,
                requested: true,
            },
            Call::TakeForward,
            relay(5, 10, vec![]),
            relay(6, 10, vec![]),
        ];
        assert_eq!(p.calls, want);
    }

    #[test]
    fn announce_groups_by_node_in_first_appearance_order_with_best_priority() {
        let mut g = GraphBuilder::new(3);
        let v = g.data(0, 8, 0, None);
        for (node, prio) in [(2, 1), (0, 50), (1, 5), (2, 9)] {
            g.insert(TaskDesc::new("use").on_node(node).priority(prio).read(v));
        }
        let g = g.build();
        let mut p = Recorder::default();
        let unicast = Tree { min: None, k: None };
        protocol::announce(&mut p, &g, &mut Fanout::default(), unicast, [(v.0, 8)]);
        let to = |dst, priority| Call::Activate {
            dst,
            priority,
            size: 8,
            forward: vec![],
        };
        assert_eq!(p.calls, [to(2, 9), to(1, 5)]);
        // Over a tree, one record per subtree, with the best priority.
        let mut p = Recorder::default();
        let tree = Tree {
            min: Some(2),
            k: None,
        };
        protocol::announce(&mut p, &g, &mut Fanout::default(), tree, [(v.0, 8)]);
        let down = |dst| Call::Activate {
            dst,
            priority: 9,
            size: 8,
            forward: vec![],
        };
        assert_eq!(p.calls, [down(1), down(2)]);
    }
}

/// Both substrates keep latency series as integer ns moments; converted at
/// the end of a run they must read as Welford statistics over the same
/// samples.
mod lat_moments {
    use amt_simnet::{DetRng, OnlineStats, SimTime};

    use crate::protocol::NsMoments;

    fn close(a: f64, b: f64, what: &str) {
        let same = a == b || (a.is_nan() && b.is_nan());
        assert!(
            same || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            "{what}: moments {a} vs Welford {b}"
        );
    }

    /// Moments and Welford over `samples`; the moments also split in two
    /// and merged, as the per-worker series are.
    fn check(samples: &[u64]) {
        let (mut whole, mut halves) = (NsMoments::default(), [NsMoments::default(); 2]);
        let mut welford = OnlineStats::new();
        for (i, &ns) in samples.iter().enumerate() {
            whole.record(ns);
            halves[i % 2].record(ns);
            welford.record(SimTime::from_ns(ns).as_us_f64());
        }
        let [mut merged, odd] = halves;
        merged.merge(&odd);
        for m in [whole, merged] {
            let s = m.to_stats_us();
            assert_eq!(s.count(), welford.count());
            assert_eq!(s.min().to_bits(), welford.min().to_bits(), "min");
            assert_eq!(s.max().to_bits(), welford.max().to_bits(), "max");
            close(s.mean(), welford.mean(), "mean");
            close(s.std_dev(), welford.std_dev(), "std-dev");
        }
    }

    #[test]
    fn integer_moments_match_welford() {
        check(&[]);
        check(&[271]);
        let mut rng = DetRng::seed_from_u64(35);
        // Latency-like: a few hundred ns with a tail to tens of µs.
        let spread: Vec<u64> = (0..10_000)
            .map(|_| {
                100 + rng.gen_usize(0..400) as u64 + 40_000 * (rng.gen_usize(0..100) == 0) as u64
            })
            .collect();
        check(&spread);
        // A large mean with a small spread: a float sum of squares would
        // cancel, and Welford itself drifts by about 5e-9 here, so the
        // spread is checked against Welford over the samples shifted down
        // to the small ones (the spread does not move with a shift).
        let small: Vec<u64> = (0..10_000).map(|_| rng.gen_usize(0..7) as u64).collect();
        let mut offset = NsMoments::default();
        let mut shifted = OnlineStats::new();
        for &ns in &small {
            offset.record(1_000_000_000 + ns);
            shifted.record(SimTime::from_ns(ns).as_us_f64());
        }
        let s = offset.to_stats_us();
        close(s.mean(), 1e6 + shifted.mean(), "mean");
        close(s.std_dev(), shifted.std_dev(), "std-dev");
    }
}
