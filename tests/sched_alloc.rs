//! A simulated node keeps only protocol state: its ready queue is one heap
//! of entries, not a ring per priority, and the announce scratch and the
//! report tally exist once per run, not once per node. Two cases, one
//! binary with its own counting allocator; the cases take turns, so the
//! process-wide counters count one of them at a time.

use std::sync::Mutex;

use amt_bench::alloc_count::{
    peak_live_bytes, reset_peak_live_bytes, AllocSnapshot, CountingAlloc,
};
use amt_core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, TaskDesc, TaskGraph};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        workers_per_node: 1,
        mode: ExecMode::CostOnly,
        ..Default::default()
    })
}

/// 4 096 independent tasks on one node and one worker, task `i` at
/// priority `i`: a queue that opens a ring per priority allocates once
/// per task (1.007 per task), one heap a handful of times per run.
#[test]
fn distinct_priorities_allocate_nothing_per_task() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tasks = 4096;
    let graph = || {
        let mut g = GraphBuilder::new(1);
        for i in 0..tasks {
            g.insert(TaskDesc::new("t").flops(1e3).priority(i).write(i as u64, 0));
        }
        g.build()
    };
    let mut cluster = cluster(1);
    let mut allocs_per_task = || {
        let graph = graph();
        let snap = AllocSnapshot::now();
        let report = cluster.execute(graph);
        let allocs = snap.since().allocs;
        assert!(report.complete());
        allocs as f64 / tasks as f64
    };
    let first = allocs_per_task();
    assert!(first > 0.0, "the counting allocator is not installed");
    assert!(first < 0.05, "{first:.3} allocations per task");
}

/// 256 nodes, node `i` writing version `i`, and one task reading all of
/// them: on node 0 (`near`), or on node 255 (`far`). Every node announces
/// to the far reader, so a per-node announce scratch indexed by
/// destination grows to 256 entries on each of them (≈ 1 MB); one scratch
/// per run grows once.
#[test]
fn a_far_consumer_costs_no_scratch_per_node() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let nodes = 256;
    let graph = |reader: usize| -> TaskGraph {
        let mut g = GraphBuilder::new(nodes);
        for i in 0..nodes {
            g.insert(TaskDesc::new("w").on_node(i).flops(1e3).write(i as u64, 64));
        }
        let mut read = TaskDesc::new("r").on_node(reader).flops(1e3);
        for i in 0..nodes {
            read = read.read_key(i as u64);
        }
        g.insert(read);
        g.build()
    };
    let peak = |reader: usize| {
        let mut cluster = cluster(nodes);
        let graph = graph(reader);
        reset_peak_live_bytes();
        let report = cluster.execute(graph);
        assert!(report.complete());
        assert_eq!(report.e2e_latency_us.count() as usize, nodes - 1);
        peak_live_bytes()
    };
    let near = peak(0);
    let far = peak(nodes - 1);
    let extra = far.saturating_sub(near);
    assert!(extra < 64 << 10, "far reader: {extra} more peak live bytes");
}
