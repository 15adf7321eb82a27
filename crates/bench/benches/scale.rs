//! Cluster-scale benchmark → `BENCH_scale.json`.
//!
//! PRs 1–8 validated the runtime at the paper's 32-node envelope; this
//! bench measures the mechanisms that push the *simulated* cluster
//! 10–100× past it, on one box:
//!
//! * **scaling** — windowed CostOnly TLR Cholesky at 32 → 1024 simulated
//!   nodes with the flyweight node state: simulator events/sec,
//!   time-to-solution, and the deterministic peak-live-bytes RSS proxy
//!   (the counting `#[global_allocator]`) per node count.
//!
//! * **flyweight_memory** — dense per-node version state vs the flyweight
//!   (sparse store + shared config + per-node-indexed dependency
//!   counters), on the workload that isolates the mechanism: 512
//!   independent per-node chains, where each node only ever touches
//!   1/nodes of the global version space. The dense layout pays
//!   O(nodes × versions) bytes regardless; the flyweight pays
//!   O(versions touched). verify.sh gates the flyweight peak at ≤ 0.5×
//!   the dense baseline. (The TLR rows above already run the flyweight
//!   end-to-end; at those shapes per-node engine state, not the version
//!   table, dominates the footprint.)
//!
//! * **million_task** — the headline capacity point: a million-task TLR
//!   Cholesky on 1024 simulated nodes, windowed + flyweight, completing
//!   in bounded memory.
//!
//! Everything runs in virtual time, so every number except the wall-clock
//! columns repeats exactly.
//!
//! Flags: `--quick` (smoke sizes for CI), `--out <path>`.

use std::time::Instant;

use amt_bench::alloc_count::{peak_live_bytes, reset_peak_live_bytes, CountingAlloc};
use amt_bench::harness_args;
use amt_comm::BackendKind;
use amt_core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, GraphSource, TaskDesc};
use amt_tlr::{TlrCholeskySource, TlrProblem};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Paper tile size; the tile-grid side `nt` scales the problem.
const TS: usize = 1200;
/// Discovery window for the windowed runs: bounds live graph state.
const WINDOW: usize = 20_000;

fn scale_cfg(nodes: usize, flyweight: bool) -> ClusterConfig {
    ClusterConfig {
        flyweight,
        mode: ExecMode::CostOnly,
        get_window_bytes: 2 << 20,
        ..ClusterConfig::expanse(BackendKind::Lci, nodes)
    }
}

/// One windowed + flyweight scaling row.
struct Row {
    nodes: usize,
    nt: usize,
    tasks: u64,
    makespan_s: f64,
    sim_events: u64,
    wall_s: f64,
    events_per_sec: f64,
    peak_bytes: u64,
}

/// Windowed CostOnly TLR Cholesky on `nodes` simulated nodes; peak bytes
/// cover graph discovery + execution (construction is part of the cost at
/// this scale).
fn run_row(nodes: usize, nt: usize, flyweight: bool) -> Row {
    let problem = TlrProblem::new(nt * TS, TS);
    let mut cluster = Cluster::new(scale_cfg(nodes, flyweight));
    reset_peak_live_bytes();
    let base = peak_live_bytes();
    let source = TlrCholeskySource::cost_only(problem, nodes);
    let t0 = Instant::now();
    let report = cluster.execute_windowed(Box::new(source), WINDOW);
    let wall = t0.elapsed().as_secs_f64();
    assert!(report.complete(), "nodes={nodes} nt={nt} incomplete");
    let peak = peak_live_bytes() - base;
    Row {
        nodes,
        nt,
        tasks: report.tasks_total,
        makespan_s: report.makespan.as_secs_f64(),
        sim_events: report.sim_events,
        wall_s: wall,
        events_per_sec: report.sim_events as f64 / wall.max(1e-9),
        peak_bytes: peak,
    }
}

fn mib(b: u64) -> f64 {
    b as f64 / (1 << 20) as f64
}

/// `nodes` independent per-node chains, interleaved round-robin in
/// discovery order: task `i` runs on node `i % nodes` and rewrites that
/// node's key. No cross-node traffic — the workload isolates per-node
/// *state* memory, where the dense layout pays O(nodes × total versions)
/// while each node only ever touches its own 1/nodes slice.
struct ShardedChains {
    nodes: usize,
    total: usize,
    next: usize,
}

impl GraphSource for ShardedChains {
    fn next_task(&mut self, g: &mut GraphBuilder) -> bool {
        if self.next >= self.total {
            return false;
        }
        let node = self.next % self.nodes;
        let key = node as u64;
        if self.next < self.nodes {
            g.data(key, 8, node, None);
        }
        g.insert(
            TaskDesc::new("link")
                .on_node(node)
                .flops(1e6)
                .read_key(key)
                .write(key, 8),
        );
        self.next += 1;
        true
    }
}

/// Windowed sharded-chain run; returns (tasks, makespan_s, peak bytes).
fn run_chains(nodes: usize, per_node: usize, flyweight: bool) -> (u64, f64, u64) {
    let mut cluster = Cluster::new(scale_cfg(nodes, flyweight));
    reset_peak_live_bytes();
    let base = peak_live_bytes();
    let source = ShardedChains {
        nodes,
        total: nodes * per_node,
        next: 0,
    };
    let report = cluster.execute_windowed(Box::new(source), WINDOW);
    assert!(report.complete(), "chains nodes={nodes} incomplete");
    (
        report.tasks_total,
        report.makespan.as_secs_f64(),
        peak_live_bytes() - base,
    )
}

fn main() {
    let args = harness_args();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = {
        let mut it = args.iter();
        let mut path = String::from("BENCH_scale.json");
        while let Some(a) = it.next() {
            if a == "--out" {
                path = it.next().expect("--out requires a value").clone();
            } else if let Some(v) = a.strip_prefix("--out=") {
                path = v.to_string();
            }
        }
        path
    };
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // (nodes, tile-grid side) per scaling row.
    let scaling_points: &[(usize, usize)] = if quick {
        &[(32, 12), (128, 16)]
    } else {
        &[(32, 24), (128, 40), (512, 64), (1024, 80)]
    };
    let mem_chain = if quick { 100 } else { 2000 };
    // nt = 181 → 181 + 181·180 + 181·180·179/6 = 1,004,731 tasks.
    let million_nt = if quick { 16 } else { 181 };

    println!("== scaling: windowed + flyweight TLR Cholesky, 32 -> 1024 simulated nodes ==");
    let mut rows = Vec::new();
    for &(nodes, nt) in scaling_points {
        let r = run_row(nodes, nt, true);
        println!(
            "nodes={:<5} nt={:<4} {:>8} tasks  makespan {:>8.3} s  {:>9} events  {:>9.0} ev/s  peak {:>8.1} MiB  wall {:>6.1} s",
            r.nodes, r.nt, r.tasks, r.makespan_s, r.sim_events, r.events_per_sec,
            mib(r.peak_bytes), r.wall_s
        );
        rows.push(r);
    }

    println!("== flyweight vs dense node state: 512 sharded chains ==");
    let mem_nodes = 512;
    let (dense_tasks, dense_ms, dense_peak) = run_chains(mem_nodes, mem_chain, false);
    let (fly_tasks, fly_ms, fly_peak) = run_chains(mem_nodes, mem_chain, true);
    assert_eq!(dense_tasks, fly_tasks, "flyweight changed the graph");
    assert_eq!(dense_ms, fly_ms, "flyweight changed virtual time");
    let mem_ratio = fly_peak as f64 / dense_peak.max(1) as f64;
    println!(
        "chain={mem_chain}/node ({dense_tasks} tasks): dense {:.1} MiB   flyweight {:.1} MiB   ratio {mem_ratio:.3}",
        mib(dense_peak),
        mib(fly_peak),
    );

    println!("== million-task capacity point: 1024 nodes, windowed + flyweight ==");
    let million = run_row(1024, million_nt, true);
    if !quick {
        assert!(
            million.tasks >= 1_000_000,
            "capacity point too small: {} tasks",
            million.tasks
        );
    }
    println!(
        "nodes=1024 nt={million_nt}: {} tasks  makespan {:.3} s  {:.0} ev/s  peak {:.1} MiB  wall {:.1} s",
        million.tasks,
        million.makespan_s,
        million.events_per_sec,
        mib(million.peak_bytes),
        million.wall_s
    );

    let row_json = |r: &Row| {
        format!(
            "{{\"nodes\": {}, \"tile_count\": {}, \"tasks\": {}, \"makespan_s\": {:.6}, \"sim_events\": {}, \"wall_s\": {:.3}, \"events_per_sec\": {:.0}, \"peak_live_bytes\": {}}}",
            r.nodes, r.nt, r.tasks, r.makespan_s, r.sim_events, r.wall_s, r.events_per_sec,
            r.peak_bytes
        )
    };
    let mut json = String::from("{\n  \"schema\": \"amtlc-bench-scale-v1\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"threads_available\": {threads_available},\n"));
    json.push_str("  \"scaling\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {}{}\n",
            row_json(r),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"flyweight_memory\": {{\"nodes\": {mem_nodes}, \"chain_per_node\": {mem_chain}, \"tasks\": {dense_tasks}, \"dense_peak_bytes\": {dense_peak}, \"flyweight_peak_bytes\": {fly_peak}, \"ratio\": {mem_ratio:.4}}},\n",
    ));
    json.push_str(&format!("  \"million_task\": {}\n", row_json(&million)));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_scale.json");
    println!("wrote {out_path}");
}
