//! Scheduler hot-path budget benchmark → `BENCH_sched.json`.
//!
//! Three *deterministic* metric families under a counting
//! `#[global_allocator]` (the simulator is single-threaded, so allocation
//! counts repeat exactly; only the tasks/sec column is wall-clock):
//!
//! * **fine_grained_dag** — many short chains of tiny tasks, mostly local
//!   with occasional cross-chain remote reads: per-task runtime overhead
//!   with the communication engine almost idle. Reported under the JSON
//!   key `dense` (the scheduler's datapath).
//!
//! * **tlr_cholesky** — the paper's TLR Cholesky graph in CostOnly mode:
//!   the same columns on a communication-heavy workload.
//!
//! * **windowed_memory** — a large TLR tile count executed fully unrolled
//!   vs through `execute_windowed`; reports the peak-live-bytes
//!   (deterministic peak-RSS proxy) of graph construction + execution for
//!   both, and the ratio that bounds how much further fig4 can scale.
//!
//! Flags: `--quick` (smoke sizes for CI), `--out <path>`.

use std::time::Instant;

use amt_bench::alloc_count::{
    peak_live_bytes, reset_peak_live_bytes, AllocSnapshot, CountingAlloc,
};
use amt_bench::harness_args;
use amt_comm::EngineConfig;
use amt_core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, TaskDesc, TaskGraph};
use amt_tlr::{TlrCholesky, TlrCholeskySource, TlrProblem};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn cluster(nodes: usize, workers: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        workers_per_node: workers,
        engine: EngineConfig::lci(),
        mode: ExecMode::CostOnly,
        ..Default::default()
    })
}

/// `chains` chains of `len` tiny tasks each, chain `c` pinned to node
/// `c % nodes`; every 16th step also reads the neighbour chain (an
/// occasional remote flow), priorities cycle through 8 levels. The
/// scheduler, not the network, is the bottleneck.
fn fine_dag(nodes: usize, chains: usize, len: usize) -> TaskGraph {
    let mut g = GraphBuilder::new(nodes);
    for c in 0..chains {
        g.data(c as u64, 64, c % nodes, None);
    }
    for step in 0..len {
        for c in 0..chains {
            let mut d = TaskDesc::new("t")
                .on_node(c % nodes)
                .flops(1e4)
                .priority(((step + c) % 8) as i64)
                .read_key(c as u64);
            if step % 16 == 0 && chains > 1 {
                let nb = (c + 1) % chains;
                if nb % nodes != c % nodes {
                    d = d.read_key(nb as u64);
                }
            }
            g.insert(d.write(c as u64, 64));
        }
    }
    g.build()
}

struct Columns {
    tasks: u64,
    tasks_per_sec: f64,
    allocs_per_task: f64,
}

/// Warm-up execute on a fresh graph, then a measured execute: wall-clock
/// tasks/sec plus deterministic allocations/task for the execution phase
/// (graph construction is outside the measured region).
fn run_scenario(mut make_graph: impl FnMut() -> TaskGraph, mut cluster: Cluster) -> Columns {
    let warm = make_graph();
    let r = cluster.execute(warm);
    assert!(r.complete(), "warm-up incomplete");
    let graph = make_graph();
    let tasks = graph.task_count() as u64;
    let snap = AllocSnapshot::now();
    let t0 = Instant::now();
    let report = cluster.execute(graph);
    let dt = t0.elapsed().as_secs_f64();
    let d = snap.since();
    assert!(report.complete(), "measured run incomplete");
    Columns {
        tasks,
        tasks_per_sec: tasks as f64 / dt,
        allocs_per_task: d.allocs as f64 / tasks as f64,
    }
}

/// Peak live heap bytes over graph construction + execution, full-unroll
/// vs windowed, on the same problem.
fn windowed_memory(nt: u64, window: usize) -> (u64, u64, u64) {
    let ts = 1200;
    let problem = TlrProblem::new(nt as usize * ts, ts);
    let nodes = 4;

    let mut full = cluster(nodes, 16);
    reset_peak_live_bytes();
    let base = peak_live_bytes();
    let (_, graph) = TlrCholesky::build_cost_only(problem.clone(), nodes);
    let tasks = graph.task_count() as u64;
    let r = full.execute(graph);
    assert!(r.complete(), "full unroll incomplete");
    let full_peak = peak_live_bytes() - base;
    drop(full);

    let mut win = cluster(nodes, 16);
    reset_peak_live_bytes();
    let base = peak_live_bytes();
    let source = TlrCholeskySource::cost_only(problem, nodes);
    let r = win.execute_windowed(Box::new(source), window);
    assert!(r.complete(), "windowed incomplete");
    assert_eq!(r.tasks_total, tasks, "windowed produced a different graph");
    let win_peak = peak_live_bytes() - base;
    (tasks, full_peak, win_peak)
}

fn main() {
    let args = harness_args();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = {
        let mut it = args.iter();
        let mut path = String::from("BENCH_sched.json");
        while let Some(a) = it.next() {
            if a == "--out" {
                path = it.next().expect("--out requires a value").clone();
            } else if let Some(v) = a.strip_prefix("--out=") {
                path = v.to_string();
            }
        }
        path
    };

    let chain_len = if quick { 50 } else { 250 };
    let tlr_nt = if quick { 16 } else { 32 };
    let mem_nt = if quick { 48 } else { 96 };
    let mem_window = 2048;

    println!("== per-task scheduler overhead ==");
    let mut scenarios: Vec<(&str, Columns)> = Vec::new();
    for name in ["fine_grained_dag", "tlr_cholesky"] {
        let dense = match name {
            "fine_grained_dag" => run_scenario(|| fine_dag(4, 64, chain_len), cluster(4, 8)),
            _ => {
                let ts = 1200;
                run_scenario(
                    || TlrCholesky::build_cost_only(TlrProblem::new(tlr_nt * ts, ts), 4).1,
                    cluster(4, 16),
                )
            }
        };
        println!(
            "{:<17} {:>7} tasks   {:>9.0} tasks/s {:>6.2} allocs/task",
            name, dense.tasks, dense.tasks_per_sec, dense.allocs_per_task
        );
        scenarios.push((name, dense));
    }

    println!("== peak live bytes: full unroll vs windowed (window {mem_window}) ==");
    let (mem_tasks, full_peak, win_peak) = windowed_memory(mem_nt, mem_window);
    let ratio = full_peak as f64 / win_peak.max(1) as f64;
    println!(
        "tlr nt={mem_nt} ({mem_tasks} tasks): full {:.1} MiB   windowed {:.1} MiB   ratio {ratio:.1}x",
        full_peak as f64 / (1 << 20) as f64,
        win_peak as f64 / (1 << 20) as f64,
    );

    let mut json = String::from("{\n  \"schema\": \"amtlc-bench-sched-v1\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"throughput\": {\n");
    for (i, (name, d)) in scenarios.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"tasks\": {}, \"dense\": {{\"tasks_per_sec\": {:.0}, \"allocs_per_task\": {:.3}}}}}{}\n",
            d.tasks,
            d.tasks_per_sec,
            d.allocs_per_task,
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"windowed_memory\": {{\"tile_count\": {mem_nt}, \"tasks\": {mem_tasks}, \"window\": {mem_window}, \"full_unroll_peak_bytes\": {full_peak}, \"windowed_peak_bytes\": {win_peak}, \"ratio\": {ratio:.2}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_sched.json");
    println!("wrote {out_path}");
}
