//! A simulated node keeps only protocol state: its ready queue is one heap
//! of entries, not a ring per priority, and the announce scratch and the
//! report tally exist once per run, not once per node. A windowed run keeps
//! only the window's tasks live, and a flyweight node only the versions it
//! touches. Five cases, one binary with its own counting allocator; the
//! cases take turns, so the process-wide counters count one of them at a
//! time.

use std::sync::Mutex;

use amt_bench::alloc_count::{
    peak_live_bytes, reset_peak_live_bytes, AllocSnapshot, CountingAlloc,
};
use amt_comm::BackendKind;
use amt_core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, GraphSource, TaskDesc, TaskGraph};
use amt_tlr::{TlrCholesky, TlrCholeskySource, TlrProblem};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

fn cluster(nodes: usize, workers_per_node: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        workers_per_node,
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
    let mut cluster = cluster(1, 1);
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
        let mut cluster = cluster(nodes, 1);
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

/// 64 chains of 50 tiny tasks on 4 nodes and 8 workers each, chain `c` on
/// node `c % 4`, priorities cycling through 8 levels, and every 16th step
/// also reading the next chain (a remote flow): the scheduler, not the
/// network, carries the run. A warmed cluster's second run makes 0.07
/// allocations per task.
#[test]
fn a_fine_grained_dag_allocates_almost_nothing_per_task() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, chains, len) = (4, 64, 50);
    let graph = || {
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
                if step % 16 == 0 {
                    d = d.read_key(((c + 1) % chains) as u64);
                }
                g.insert(d.write(c as u64, 64));
            }
        }
        g.build()
    };
    let mut cluster = cluster(nodes, 8);
    let mut allocs_per_task = || {
        let graph = graph();
        let tasks = graph.task_count();
        let snap = AllocSnapshot::now();
        let report = cluster.execute(graph);
        let allocs = snap.since().allocs;
        assert!(report.complete());
        allocs as f64 / tasks as f64
    };
    allocs_per_task();
    let second = allocs_per_task();
    assert!(second < 0.1, "{second:.3} allocations per task");
}

/// Peak live bytes of discovering and running a cost-only TLR Cholesky
/// (48 × 48 tiles, 19 600 tasks, 4 nodes of 16 workers) through a
/// 2 048-task window are 2.7× below those of the full unroll: the window
/// retires finished tasks and their versions as it discovers new ones.
#[test]
fn a_windowed_run_holds_a_fraction_of_the_full_unroll() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, nt, ts, window) = (4, 48, 1200, 2048);
    let problem = TlrProblem::new(nt * ts, ts);
    let full = {
        let mut cluster = cluster(nodes, 16);
        reset_peak_live_bytes();
        let base = peak_live_bytes();
        let (_, graph) = TlrCholesky::build_cost_only(problem.clone(), nodes);
        let report = cluster.execute(graph);
        assert!(report.complete());
        (report.tasks_total, peak_live_bytes() - base)
    };
    let windowed = {
        let mut cluster = cluster(nodes, 16);
        reset_peak_live_bytes();
        let base = peak_live_bytes();
        let source = TlrCholeskySource::cost_only(problem, nodes);
        let report = cluster.execute_windowed(Box::new(source), window);
        assert!(report.complete());
        (report.tasks_total, peak_live_bytes() - base)
    };
    assert_eq!(full.0, windowed.0, "the window discovered another graph");
    let ratio = full.1 as f64 / windowed.1 as f64;
    assert!(ratio >= 2.0, "full unroll / windowed peak: {ratio:.2}");
}

/// `nodes` independent chains, discovered round-robin: task `i` runs on
/// node `i % nodes` and rewrites that node's key, so each node touches
/// only its own slice of the version space.
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

/// 512 nodes of 100-task chains, windowed: dense per-node version state
/// costs O(nodes × versions), the flyweight store O(versions touched), and
/// its peak live bytes read 0.143 of the dense store's at the same
/// virtual time.
#[test]
fn a_flyweight_node_holds_only_the_versions_it_touches() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, per_node, window) = (512, 100, 20_000);
    let run = |flyweight: bool| {
        let mut cluster = Cluster::new(ClusterConfig {
            flyweight,
            mode: ExecMode::CostOnly,
            get_window_bytes: 2 << 20,
            ..ClusterConfig::expanse(BackendKind::Lci, nodes)
        });
        reset_peak_live_bytes();
        let base = peak_live_bytes();
        let source = ShardedChains {
            nodes,
            total: nodes * per_node,
            next: 0,
        };
        let report = cluster.execute_windowed(Box::new(source), window);
        assert!(report.complete());
        (report.makespan, peak_live_bytes() - base)
    };
    let (dense_makespan, dense) = run(false);
    let (fly_makespan, fly) = run(true);
    assert_eq!(
        dense_makespan, fly_makespan,
        "the flyweight moved virtual time"
    );
    let ratio = fly as f64 / dense as f64;
    assert!(ratio <= 0.5, "flyweight / dense peak: {ratio:.3}");
}
