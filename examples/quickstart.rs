//! Quickstart: build a small distributed task DAG on a simulated 4-node
//! cluster and run it with every communication backend.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The DAG is a map-shuffle-reduce: node-local "map" tasks produce real
//! payloads, a "shuffle" moves them across nodes through the ACTIVATE /
//! GET DATA / put protocol, and a "reduce" on node 0 folds everything.
//! The distributed result is checked against the sequential oracle.
//!
//! After the simulated backends, the same graph runs **for real** on the
//! work-stealing thread pool (`--threads N`; `0`/default = one per core,
//! `1` = deterministic) — same protocol over the in-process shared-memory
//! transport, wall-clock time, and the identical oracle-checked result.

use amtlc::bench::{comm_tuning_args, cost_model_arg, threads_arg, threads_arg_opt, ObsSink};
use amtlc::comm::{BackendKind, EngineConfig};
use amtlc::core::{Cluster, ClusterConfig, GraphBuilder, TaskDesc};
use bytes::Bytes;

fn build_graph(nodes: usize) -> (amtlc::core::TaskGraph, amtlc::core::VersionId) {
    let mut g = GraphBuilder::new(nodes);

    // One seed datum per node.
    for n in 0..nodes as u64 {
        g.data(n, 8, n as usize, Some(Bytes::from(vec![n as u8 + 1; 8])));
    }

    // Map: each node doubles its seed.
    for n in 0..nodes as u64 {
        g.insert(
            TaskDesc::new("map")
                .on_node(n as usize)
                .flops(1e7)
                .read_key(n)
                .write(100 + n, 8)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0].iter().map(|b| b * 2).collect::<Vec<u8>>(),
                    )]
                }),
        );
    }

    // Shuffle: every node consumes its right neighbour's map output.
    for n in 0..nodes as u64 {
        let src = (n + 1) % nodes as u64;
        g.insert(
            TaskDesc::new("shuffle")
                .on_node(n as usize)
                .flops(1e7)
                .read_key(100 + src)
                .write(200 + n, 8)
                .kernel(|ins| {
                    vec![Bytes::from(
                        ins[0].iter().map(|b| b + 1).collect::<Vec<u8>>(),
                    )]
                }),
        );
    }

    // Reduce on node 0.
    let mut reduce = TaskDesc::new("reduce").on_node(0).flops(1e7).write(999, 8);
    for n in 0..nodes as u64 {
        reduce = reduce.read_key(200 + n);
    }
    let reduce = reduce.kernel(|ins| {
        let mut acc = vec![0u8; 8];
        for frame in ins {
            for (a, b) in acc.iter_mut().zip(frame.iter()) {
                *a = a.wrapping_add(*b);
            }
        }
        vec![Bytes::from(acc)]
    });
    g.insert(reduce);

    let out = g.current(999).expect("reduce output");
    (g.build(), out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ObsSink::install(&args);
    // An explicit --threads directs the observability flags at the real
    // execution below instead of the first simulated backend.
    let threads_flag = threads_arg_opt(&args);
    // --cost-model: overlay measured charges (from a --calibrate-out
    // profile) onto the simulated runs.
    let profile = cost_model_arg(&args);
    // --batch-window-ns / --multicast-k: message-layer tuning, applied
    // identically to every backend and the real run.
    let tuning = comm_tuning_args(&args);
    let nodes = 4;
    println!("amtlc quickstart: map-shuffle-reduce on {nodes} simulated nodes");
    if !tuning.is_default() {
        println!("comm tuning: {}", tuning.describe());
    }
    println!();

    for backend in BackendKind::ALL {
        let (graph, out) = build_graph(nodes);
        let oracle = graph.sequential_oracle()[&out].clone();

        let mut cfg = ClusterConfig {
            nodes,
            workers_per_node: 4,
            engine: EngineConfig::for_backend(backend),
            ..Default::default()
        };
        if let Some(p) = &profile {
            cfg.cost.apply_profile(p);
        }
        tuning.apply(&mut cfg);
        if threads_flag.is_none() {
            ObsSink::arm(&mut cfg);
        }
        let mut cluster = Cluster::new(cfg);
        let report = cluster.execute(graph);
        ObsSink::capture(&cluster, &report);
        let result = cluster.data(out).expect("reduce output data");

        assert_eq!(result, oracle, "distributed result must match the oracle");
        println!("backend {backend}:");
        println!("  tasks executed   : {}", report.tasks_executed);
        println!("  virtual makespan : {}", report.makespan);
        println!(
            "  remote flows     : {} ({} bytes moved)",
            report.e2e_latency_us.count(),
            report.bytes_transferred()
        );
        println!(
            "  mean flow latency: {:.1} us",
            report.e2e_latency_us.mean()
        );
        println!(
            "  result           : {:?}  (matches sequential oracle)\n",
            &result[..]
        );
    }

    // Real execution: same graph, real OS threads, wall-clock time.
    let threads = threads_arg(&args);
    let (graph, out) = build_graph(nodes);
    let oracle = graph.sequential_oracle()[&out].clone();
    let mut cfg = ClusterConfig {
        nodes,
        workers_per_node: 4,
        ..Default::default()
    };
    tuning.apply(&mut cfg);
    // Arm unconditionally: if the virtual sweep already captured, this
    // only turns on what is still pending (e.g. the calibration profile,
    // which only a real run can supply).
    ObsSink::arm(&mut cfg);
    let mut cluster = Cluster::new(cfg);
    let report = cluster.execute_real(graph, threads);
    ObsSink::capture(&cluster, &report);
    let result = cluster.data(out).expect("reduce output data");
    assert_eq!(result, oracle, "real result must match the oracle");
    println!("real execution ({threads} thread(s)):");
    println!("  tasks executed   : {}", report.tasks_executed);
    println!("  wall-clock span  : {}", report.makespan);
    println!(
        "  remote flows     : {} ({} bytes moved)",
        report.e2e_latency_us.count(),
        report.bytes_transferred()
    );
    println!(
        "  result           : {:?}  (matches sequential oracle)",
        &result[..]
    );
}
