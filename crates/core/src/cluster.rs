//! The simulated cluster: Sim + fabric + engines + per-node runtimes, and
//! the run report benches consume.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use amt_comm::{CommEngine, CommWorld, EngineStats};
use amt_netmodel::Fabric;
use amt_simnet::{
    shared, CoreHandle, CoreResource, OnlineStats, OverlapTracker, Shared, Sim, SimTime, Trace,
};
use bytes::Bytes;

use crate::config::ClusterConfig;
use crate::graph::{GraphHandle, GraphSource, TaskGraph, VersionId};
use crate::metrics::{LatencySummary, MetricsReport};
use crate::node::{sweep_probe, NodeRt, RtHandle, ThreadState};
use crate::protocol::{LatMoments, AM_ACTIVATE, AM_GETDATA, RTAG_DATA};
use crate::window::WindowCtl;

/// Outcome of one [`Cluster::execute`] run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time from dispatch to full drain (includes trailing
    /// communication).
    pub makespan: SimTime,
    pub tasks_executed: u64,
    pub tasks_total: u64,
    /// End-to-end latency per remote flow, µs (ACTIVATE send → data
    /// arrival), merged across nodes.
    pub e2e_latency_us: OnlineStats,
    /// Individual ACTIVATE message latency, µs.
    pub msg_latency_us: OnlineStats,
    /// Control-path latency (ACTIVATE send → GET DATA arrival at owner), µs.
    pub request_latency_us: OnlineStats,
    /// Total virtual CPU time spent executing tasks.
    pub worker_busy: SimTime,
    /// Mean worker utilization over the makespan.
    pub worker_util: f64,
    /// Mean communication-thread utilization.
    pub comm_util: f64,
    /// Mean progress-thread utilization (LCI; 0 for MPI).
    pub progress_util: f64,
    /// Per-node engine counters.
    pub engine_stats: Vec<EngineStats>,
    /// Per task-class (name, executions, total busy time), sorted by busy
    /// time descending.
    pub class_stats: Vec<(String, u64, SimTime)>,
    /// Engine events executed by this run (simulator-throughput metric).
    pub sim_events: u64,
    /// Release-mode past-scheduling clamps during this run. Non-zero means
    /// a component scheduled into the past — a model bug that debug builds
    /// turn into a panic.
    pub schedule_past_clamped: u64,
    /// Work-stealing pool scheduling counters ([`Cluster::execute_real`]
    /// runs only; `None` on the virtual substrate). Not part of
    /// [`RunReport::to_json`]: that serialization is a scheduling-decision
    /// digest compared byte-for-byte across substrates, and pool counters
    /// are wall-clock-dependent.
    pub pool: Option<amt_exec::PoolStats>,
}

/// What a run counts for its report, kept once per thread: the
/// simulator's one thread counts every node's tasks and flows in one
/// (`node.rs`'s `ThreadState`), each real worker in its own, merged at the
/// end of the run.
#[derive(Default)]
pub(crate) struct Tally {
    executed: u64,
    worker_busy: SimTime,
    /// `(class, tasks, busy time)` in first-seen order: a graph has a
    /// handful of classes, so a scan that compares pointers before strings
    /// beats hashing the name, and equal busy times keep one order.
    classes: Vec<(&'static str, u64, SimTime)>,
    /// Message-lifecycle latencies of the flows this thread handled.
    pub(crate) lats: LatMoments,
}

impl Tally {
    /// One task of class `name` ran, keeping its worker busy `busy`.
    #[inline]
    pub(crate) fn task(&mut self, name: &'static str, busy: SimTime) {
        self.executed += 1;
        self.worker_busy += busy;
        self.class(name, 1, busy);
    }

    /// Worker time outside any task's class (the simulated send cost a
    /// worker pays for its task's announces).
    pub(crate) fn busy(&mut self, t: SimTime) {
        self.worker_busy += t;
    }

    pub(crate) fn executed(&self) -> u64 {
        self.executed
    }

    #[inline]
    fn class(&mut self, name: &'static str, n: u64, busy: SimTime) {
        match self
            .classes
            .iter_mut()
            .find(|c| std::ptr::eq(c.0, name) || c.0 == name)
        {
            Some(c) => (c.1, c.2) = (c.1 + n, c.2 + busy),
            None => self.classes.push((name, n, busy)),
        }
    }

    /// Add `other`'s counts to this one's.
    pub(crate) fn merge(&mut self, other: &Tally) {
        self.executed += other.executed;
        self.worker_busy += other.worker_busy;
        for &(name, n, busy) in &other.classes {
            self.class(name, n, busy);
        }
        self.lats.merge(&other.lats);
    }

    /// The report fields both substrates derive alike: the latency split,
    /// class statistics by busy time (descending) and the mean utilization
    /// of `workers` workers over `makespan`. The substrate's own fields
    /// (simulated-core utilizations, simulator and pool counters) are left
    /// zero for the caller.
    pub(crate) fn into_report(
        self,
        makespan: SimTime,
        tasks_total: u64,
        workers: usize,
        engine_stats: Vec<EngineStats>,
    ) -> RunReport {
        let mut class_stats: Vec<(String, u64, SimTime)> = self
            .classes
            .into_iter()
            .map(|(k, n, b)| (k.to_string(), n, b))
            .collect();
        class_stats.sort_by_key(|c| std::cmp::Reverse(c.2));
        let [msg, req, e2e] = self.lats.stats_us();
        let span = makespan.as_secs_f64().max(1e-12);
        RunReport {
            makespan,
            tasks_executed: self.executed,
            tasks_total,
            e2e_latency_us: e2e,
            msg_latency_us: msg,
            request_latency_us: req,
            worker_busy: self.worker_busy,
            worker_util: self.worker_busy.as_secs_f64() / (span * workers as f64),
            comm_util: 0.0,
            progress_util: 0.0,
            engine_stats,
            class_stats,
            sim_events: 0,
            schedule_past_clamped: 0,
            pool: None,
        }
    }
}

impl RunReport {
    /// Did every task run?
    pub fn complete(&self) -> bool {
        self.tasks_executed == self.tasks_total
    }

    /// Total put payload bytes received across the cluster.
    pub fn bytes_transferred(&self) -> u64 {
        self.engine_stats.iter().map(|s| s.put_bytes_in.get()).sum()
    }

    /// Deterministic JSON of everything scheduling-dependent in this
    /// report. Two runs that made identical scheduling decisions serialize
    /// byte-identically, so differential tests (dense vs reference
    /// scheduler, windowed vs full unroll) compare one string.
    pub fn to_json(&self) -> String {
        fn stats(out: &mut String, name: &str, s: &OnlineStats) {
            use std::fmt::Write;
            // Zeros for empty stats: min()/max() are +/-inf with no samples.
            let (mean, min, max, sd) = if s.count() == 0 {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                (s.mean(), s.min(), s.max(), s.std_dev())
            };
            write!(
                out,
                "\"{name}\":{{\"count\":{},\"mean\":{mean:.6},\"min\":{min:.6},\"max\":{max:.6},\"std_dev\":{sd:.6}}}",
                s.count()
            )
            .unwrap();
        }
        use std::fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "{{\"makespan_ns\":{},\"tasks_executed\":{},\"tasks_total\":{},\"worker_busy_ns\":{},\"sim_events\":{},\"schedule_past_clamped\":{},\"bytes_transferred\":{},",
            self.makespan.as_ns(),
            self.tasks_executed,
            self.tasks_total,
            self.worker_busy.as_ns(),
            self.sim_events,
            self.schedule_past_clamped,
            self.bytes_transferred(),
        )
        .unwrap();
        stats(&mut out, "e2e_latency_us", &self.e2e_latency_us);
        out.push(',');
        stats(&mut out, "msg_latency_us", &self.msg_latency_us);
        out.push(',');
        stats(&mut out, "request_latency_us", &self.request_latency_us);
        out.push_str(",\"class_stats\":[");
        let mut classes = self.class_stats.clone();
        classes.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (name, n, busy)) in classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "[\"{name}\",{n},{}]", busy.as_ns()).unwrap();
        }
        out.push_str("],\"engine_counters\":[");
        let mut totals = EngineStats::default();
        for s in &self.engine_stats {
            totals.merge(s);
        }
        for (i, (name, v)) in totals.named_counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "[\"{name}\",{v}]").unwrap();
        }
        out.push_str("]}");
        out
    }
}

/// A simulated cluster ready to execute task graphs.
pub struct Cluster {
    sim: Sim,
    engines: Vec<Rc<CommEngine>>,
    workers: Vec<Vec<CoreHandle>>,
    cfg: ClusterConfig,
    /// Active per-node runtimes (set during/after `execute`).
    rts: Rc<RefCell<Option<Vec<RtHandle>>>>,
    /// Cluster-wide wire/compute concurrency integrator (Fig. 3).
    overlap: Shared<OverlapTracker>,
    /// NIC queue-depth counter samples from the fabric.
    net_trace: Shared<Trace>,
    /// Payloads of the last [`Cluster::execute_real`] run (real-substrate
    /// runs have no per-node `NodeRt` stores to query).
    real_data: Option<HashMap<VersionId, Bytes>>,
    /// Observability artifacts of the last [`Cluster::execute_real`] run:
    /// merged wall-clock trace and lifecycle-stage histograms. Cleared by
    /// virtual executions.
    real_obs: Option<crate::real::RealObs>,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Self {
        if let Some(k) = cfg.multicast_k {
            assert!(k >= 2, "multicast_k must be at least 2 (got {k})");
        }
        let mut fabric_cfg = cfg.fabric.clone();
        fabric_cfg.nodes = cfg.nodes;

        let mut sim = Sim::new();
        let fabric = Fabric::new(fabric_cfg);
        let net_trace = shared(Trace::new(cfg.engine.trace));
        if cfg.engine.trace {
            fabric.borrow_mut().set_trace(net_trace.clone());
        }
        let engines = CommWorld::create(&mut sim, &fabric, cfg.engine.clone());
        let overlap = shared(OverlapTracker::new(cfg.nodes));
        if cfg.engine.metrics {
            for engine in &engines {
                engine.set_overlap(overlap.clone());
            }
        }
        let workers: Vec<Vec<CoreHandle>> = (0..cfg.nodes)
            .map(|n| {
                (0..cfg.workers_per_node)
                    .map(|w| CoreResource::new_shared(format!("n{n}.w{w}")))
                    .collect()
            })
            .collect();

        let rts: Rc<RefCell<Option<Vec<RtHandle>>>> = Rc::new(RefCell::new(None));
        let resolve = |slot: &Rc<RefCell<Option<Vec<RtHandle>>>>, node: usize| -> RtHandle {
            slot.borrow().as_ref().expect("no active execution")[node].clone()
        };
        for (node, engine) in engines.iter().enumerate() {
            engine.label_tag(AM_ACTIVATE, "activate");
            engine.label_tag(AM_GETDATA, "get");
            let slot = rts.clone();
            engine.register_am(
                &mut sim,
                AM_ACTIVATE,
                Rc::new(move |sim, _eng, ev| NodeRt::on_activate(&resolve(&slot, node), sim, ev)),
            );
            let slot = rts.clone();
            engine.register_am(
                &mut sim,
                AM_GETDATA,
                Rc::new(move |sim, _eng, ev| NodeRt::on_getdata(&resolve(&slot, node), sim, ev)),
            );
            let slot = rts.clone();
            engine.register_onesided(
                RTAG_DATA,
                Rc::new(move |sim, _eng, ev| NodeRt::on_data(&resolve(&slot, node), sim, ev)),
            );
        }

        Cluster {
            sim,
            engines,
            workers,
            cfg,
            rts,
            overlap,
            net_trace,
            real_data: None,
            real_obs: None,
        }
    }

    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Execute a task graph to completion (drains the virtual event queue)
    /// and report.
    pub fn execute(&mut self, graph: TaskGraph) -> RunReport {
        self.execute_handle(GraphHandle::new(graph), None)
    }

    /// Execute with PaRSEC-style bounded task discovery: unroll at most
    /// `window` tasks from `source` ahead of the completion frontier,
    /// retiring completed tasks and dead versions as the frontier passes,
    /// so peak memory is O(window) instead of O(total tasks). With a window
    /// at least the total task count, scheduling and the report are
    /// byte-identical to [`Cluster::execute`] on the same graph.
    pub fn execute_windowed(&mut self, source: Box<dyn GraphSource>, window: usize) -> RunReport {
        let handle = GraphHandle::new(TaskGraph::empty());
        let ctl = WindowCtl::new(self.cfg.nodes, handle.clone(), source, window);
        self.execute_handle(handle, Some(ctl))
    }

    /// Execute a task graph **for real** on `threads` work-stealing worker
    /// threads (`0` = one per core): wall-clock time, real OS threads, and
    /// the same ACTIVATE / GET DATA / put protocol, its records handed from
    /// sender to handler in process. One thread is fully deterministic; at any
    /// thread count, Numeric payloads are bitwise identical to the virtual
    /// modes (kernels are pure functions of their fixed input versions).
    ///
    /// The report's times are wall-clock (`makespan`, `worker_busy`,
    /// latency stats); `comm_util` / `progress_util` / `sim_events` are 0 —
    /// there is no simulated communication core under a real run.
    pub fn execute_real(&mut self, graph: TaskGraph, threads: usize) -> RunReport {
        // A real run supersedes any virtual run's data stores and
        // observability, and vice versa (execute_handle clears both).
        *self.rts.borrow_mut() = None;
        let (report, data, obs) = crate::real::run(graph, &self.cfg, threads);
        self.real_data = Some(data);
        self.real_obs = Some(obs);
        report
    }

    fn execute_handle(&mut self, graph: GraphHandle, window: Option<Rc<WindowCtl>>) -> RunReport {
        self.real_data = None;
        self.real_obs = None;
        // One shared config allocation for every runtime, and one tally and
        // scratch for the thread that runs them all.
        let shared_cfg = Rc::new(self.cfg.clone());
        let overlap = self.cfg.engine.metrics.then(|| self.overlap.clone());
        let thread = shared(ThreadState::new(overlap));
        let node_rts: Vec<RtHandle> = (0..self.cfg.nodes)
            .map(|n| {
                Rc::new(NodeRt::new(
                    n,
                    graph.clone(),
                    self.engines[n].clone(),
                    shared_cfg.clone(),
                    self.workers[n].clone(),
                    thread.clone(),
                ))
            })
            .collect();
        *self.rts.borrow_mut() = Some(node_rts.clone());
        if let Some(ctl) = &window {
            ctl.attach(&node_rts);
            for rt in &node_rts {
                rt.set_window(Some(ctl.clone()));
            }
            ctl.prefill(&mut self.sim);
        }

        let t0 = self.sim.now();
        let ev0 = self.sim.events_executed();
        let clamp0 = self.sim.schedule_past_clamped();
        self.init_nodes(&graph, &node_rts);
        self.sim.run();
        let tally = std::mem::take(&mut thread.borrow_mut().tally);
        let report = self.finish_execution(
            &graph,
            &node_rts,
            tally,
            self.sim.now() - t0,
            self.sim.events_executed() - ev0,
            self.sim.schedule_past_clamped() - clamp0,
        );
        debug_assert!(
            !report.complete() || thread.borrow().records.is_empty(),
            "a complete run left records in flight"
        );
        report
    }

    /// Seed every node's initial events: one start-state pass admits every
    /// task at its node (ready queues fill in task order), then the nodes
    /// start in ascending order, so virtual time is unchanged. The pass
    /// runs once for the cluster, not once per node.
    fn init_nodes(&mut self, graph: &GraphHandle, node_rts: &[RtHandle]) {
        let sources = {
            let g = graph.get();
            for rt in node_rts {
                rt.reserve_tasks(g.local_task_count(rt.node));
            }
            g.start_state(self.cfg.nodes, |t, task, missing| {
                sweep_probe();
                node_rts[task.node()].admit_local(t, task.local_ix, task.priority, missing);
            })
        };
        for rt in node_rts {
            NodeRt::init(rt, &mut self.sim, &sources[rt.node]);
        }
    }

    /// Assemble the report of a drained run.
    fn finish_execution(
        &self,
        graph: &GraphHandle,
        node_rts: &[RtHandle],
        tally: Tally,
        makespan: SimTime,
        sim_events: u64,
        schedule_past_clamped: u64,
    ) -> RunReport {
        // Break the NodeRt → WindowCtl → NodeRt reference cycle.
        for rt in node_rts {
            rt.set_window(None);
        }
        // After the run: in windowed mode the graph now holds every task
        // the source produced.
        let tasks_total = graph.get().task_count() as u64;
        let now = self.sim.now();
        let comm_util = self
            .engines
            .iter()
            .map(|e| e.comm_core().borrow().utilization(now))
            .sum::<f64>()
            / self.cfg.nodes as f64;
        let progress_util = self
            .engines
            .iter()
            .filter_map(|e| e.progress_core().map(|c| c.borrow().utilization(now)))
            .sum::<f64>()
            / self.cfg.nodes as f64;
        RunReport {
            comm_util,
            progress_util,
            sim_events,
            schedule_past_clamped,
            ..tally.into_report(
                makespan,
                tasks_total,
                self.cfg.nodes * self.cfg.workers_per_node,
                self.engines.iter().map(|e| e.stats()).collect(),
            )
        }
    }

    /// Engine events executed over this cluster's lifetime.
    pub fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    /// Release-mode past-scheduling clamps over this cluster's lifetime
    /// (see [`RunReport::schedule_past_clamped`]).
    pub fn schedule_past_clamped(&self) -> u64 {
        self.sim.schedule_past_clamped()
    }

    /// Chrome-trace JSON of the last execution (enable with
    /// [`crate::ClusterConfig::trace`]); load in chrome://tracing or
    /// Perfetto. `None` before the first execution.
    ///
    /// Tracks follow a uniform naming scheme — `n{ix}.w{j}` for worker
    /// cores, `n{ix}.comm` / `n{ix}.prog` for the communication and
    /// progress threads — and merge order is irrelevant: thread ids are
    /// assigned in sorted track-name order at export time.
    pub fn trace_json(&self) -> Option<String> {
        // Real runs carry their merged wall-clock trace (task spans on the
        // same `n{ix}.w{j}` tracks, plus `pool.w{j}` steal/park activity);
        // a disabled real run serializes the same empty shell as a
        // disabled virtual run.
        if let Some(obs) = &self.real_obs {
            return Some(obs.trace.to_chrome_json());
        }
        let rts = self.rts.borrow();
        let rts = rts.as_ref()?;
        let mut merged = Trace::new(true);
        for rt in rts {
            rt.merge_trace_into(&mut merged);
        }
        for engine in &self.engines {
            merged.merge_from(&engine.trace_handle().borrow());
        }
        merged.merge_from(&self.net_trace.borrow());
        Some(merged.to_chrome_json())
    }

    /// Derived metrics of `report`'s execution (enable with
    /// [`crate::ClusterConfig::metrics`]): merged message-lifecycle stage
    /// histograms, engine counters, the Fig. 3 overlap fraction, and the
    /// Fig. 6 activation-latency breakdown. Deterministic: identical runs
    /// serialize to byte-identical JSON.
    pub fn metrics_report(&self, report: &RunReport) -> MetricsReport {
        // Real runs: wall-clock stage histograms merged from the workers
        // and per-worker pool counters. There is no overlap integrator on
        // the real path (no simulated wire), so wire/overlap are 0.
        let (substrate, stages, peak, (wire, overlap), overlap_fraction) = match &self.real_obs {
            Some(obs) => ("real", obs.metrics.clone(), 0, Default::default(), 0.0),
            None => {
                let mut stages = amt_simnet::MetricsRegistry::new(true);
                for engine in &self.engines {
                    stages.merge(&engine.metrics_handle().borrow());
                }
                let (now, o) = (self.sim.now(), self.overlap.borrow());
                let peak = self.sim.events_peak_pending() as u64;
                ("virtual", stages, peak, o.totals(now), o.fraction(now))
            }
        };
        let mut engine_totals = EngineStats::default();
        for s in &report.engine_stats {
            engine_totals.merge(s);
        }
        MetricsReport {
            backend: self.cfg.engine.backend,
            substrate,
            nodes: self.cfg.nodes,
            makespan_ns: report.makespan.as_ns(),
            sim_events: report.sim_events,
            schedule_past_clamped: report.schedule_past_clamped,
            events_peak_pending: peak,
            stages,
            engine: engine_totals.named_counters().to_vec(),
            wire_ns: wire.as_ns(),
            overlap_ns: overlap.as_ns(),
            overlap_fraction,
            activation_msg: LatencySummary::from_stats(&report.msg_latency_us),
            activation_request: LatencySummary::from_stats(&report.request_latency_us),
            activation_e2e: LatencySummary::from_stats(&report.e2e_latency_us),
            pool: report.pool.clone(),
        }
    }

    /// Payload of `version` from whichever node holds it (after a Numeric
    /// execution). Which versions keep one depends on the run: every
    /// version after [`Cluster::execute`]; only the *final* ones — those no
    /// later write of their key supersedes — after
    /// [`Cluster::execute_windowed`] and [`Cluster::execute_real`], which
    /// free every other payload once nothing reads it any more.
    pub fn data(&self, version: VersionId) -> Option<Bytes> {
        if let Some(real) = &self.real_data {
            return real.get(&version).cloned();
        }
        let rts = self.rts.borrow();
        let rts = rts.as_ref()?;
        rts.iter().find_map(|rt| rt.data(version))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The engines' registered callbacks hold the `rts` slot, and each
        // NodeRt holds its engine — an Rc cycle through the slot's
        // contents. Clear it so the node runtimes (and the task graph and
        // data store they reference) are actually freed.
        *self.rts.borrow_mut() = None;
    }
}
