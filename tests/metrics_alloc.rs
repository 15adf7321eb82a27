//! Metrics mode keys its counters and histograms by name: a key is
//! allocated when the name is first recorded, not on every sample. Once a
//! first run has warmed the process up, a one-thread, metrics-on real
//! execution of a cost-only unicast stencil allocates its fixed setup, its
//! per-run registries and the calibration sample vectors' growth — far
//! less than one allocation per task. One test in a binary of its own, so
//! the process-wide counter counts nothing else.

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_bench::stencil::build_stencil;
use amt_comm::EngineConfig;
use amt_core::{Cluster, ClusterConfig, ExecMode, TileDist2d};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_metrics_on_real_run_allocates_no_key_per_message() {
    let nodes = 4;
    let dist = TileDist2d::square_grid(8, 8, nodes);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes,
        mode: ExecMode::CostOnly,
        engine: EngineConfig::default().with_observability(false, true),
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
        let wire = cluster.metrics_report(&report).stages;
        assert!(
            wire.counter("msg.activate.msgs_on_wire") > 0,
            "metrics mode recorded no message"
        );
        allocs as f64 / tasks as f64
    };
    allocs_per_task();
    let second = allocs_per_task();
    assert!(second < 0.5, "{second:.3} allocations per task");
}
