//! Metrics mode keys its counters and histograms by name: a key is
//! allocated when the name is first recorded, not on every sample, and no
//! name is built per message. Once a first run has warmed the process up,
//! a one-thread, metrics-on real execution of a cost-only unicast stencil
//! allocates its fixed setup and its per-run registries only — a few
//! hundredths of an allocation per task, nothing per message — and a
//! simulated one about what the same run with metrics off does. Two cases,
//! one binary with its own counting allocator; the cases take turns, so
//! the process-wide counter counts one at a time.

use std::sync::Mutex;

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_bench::stencil::build_stencil;
use amt_comm::EngineConfig;
use amt_core::{Cluster, ClusterConfig, ExecMode, TileDist2d};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_metrics_on_real_run_allocates_no_key_per_message() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    assert!(second < 0.03, "{second:.3} allocations per task");
}

/// The same stencil on the simulator, second run of a warmed cluster, with
/// metrics on and off: each message on the wire counts under its tag's
/// class name, built once when the tag is labeled, not formatted per
/// message: both read 0.73 allocations per task here; two `format!`s per
/// message made metrics mode 4.6 per task dearer.
#[test]
fn a_metrics_on_simulated_run_builds_no_name_per_message() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let nodes = 4;
    let dist = TileDist2d::square_grid(8, 8, nodes);
    let allocs_per_task = |metrics: bool| {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes,
            mode: ExecMode::CostOnly,
            engine: EngineConfig::default().with_observability(false, metrics),
            ..Default::default()
        });
        let mut run = || {
            let graph = build_stencil(8, 4, 100, &dist);
            let tasks = graph.task_count();
            let snap = AllocSnapshot::now();
            let report = cluster.execute(graph);
            let allocs = snap.since().allocs;
            assert!(report.complete());
            allocs as f64 / tasks as f64
        };
        run();
        run()
    };
    let (on, off) = (allocs_per_task(true), allocs_per_task(false));
    assert!(
        on - off < 0.5,
        "metrics on: {on:.3} allocations per task, off: {off:.3}"
    );
}
