//! A released task is a task id, not a boxed job: once a first run has
//! warmed the process up, a one-thread real execution of a cost-only
//! unicast stencil allocates its fixed setup and nothing per task — no
//! job box, no record buffer, no message. One test in a binary of its
//! own, so the process-wide counter counts nothing else.

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_bench::stencil::build_stencil;
use amt_core::{Cluster, ClusterConfig, ExecMode, TileDist2d};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_real_run_allocates_nothing_per_task() {
    let nodes = 4;
    let dist = TileDist2d::square_grid(8, 8, nodes);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes,
        mode: ExecMode::CostOnly,
        ..Default::default()
    });
    let mut allocs_per_task = || {
        let graph = build_stencil(8, 4, 100, &dist);
        let tasks = graph.task_count();
        let snap = AllocSnapshot::now();
        let report = cluster.execute_real(graph, 1);
        let allocs = snap.since().allocs;
        assert!(report.complete());
        let flows = report.e2e_latency_us.count() as usize;
        assert!(flows > tasks, "{flows} flows for {tasks} tasks");
        allocs as f64 / tasks as f64
    };
    assert!(
        allocs_per_task() > 0.0,
        "the counting allocator is not installed"
    );
    let second = allocs_per_task();
    assert!(second < 0.05, "{second:.3} allocations per task");
}
