//! Per-layer metrics of a traced run: counts read from the run's public
//! reports, probe results, and the computed estimates
//! `X.est_share = count × the layer's own probe cost / wall_s`.
//!
//! The estimates are estimates: a probe drives a layer in isolation, with
//! warm caches and a shallow queue, so the shares need not sum to one.
//! `host.unattributed_share = 1 − Σ shares` is printed so that "the layers
//! sum to the run" is checked rather than assumed.

use amt_comm::{BackendKind, EngineStats};

use crate::metrics::{MetricSet, PER_LAYER};
use crate::probes::{self, Sample};
use crate::spans::Spans;
use crate::workloads::{Kind, Plan, Rep};

/// Outstanding receives of the matcher probe: the MPI backend keeps five
/// persistent wildcard receives per AM tag (two tags) and at most 30 data
/// transfers posted.
const MPI_OUTSTANDING: usize = 40;

/// Results of the probes a workload's layers call for; the rest stay zero
/// and print as such.
#[derive(Debug, Default)]
pub struct Probed {
    /// An event at the workload's queue depth and event density.
    pub event_ns: f64,
    /// An event in an otherwise empty queue: the part of every event's cost
    /// that is `simnet`'s whatever the layer above does.
    pub event_floor_ns: f64,
    /// A message of the workload's mean size on the workload's fabric.
    pub fabric: Sample,
    /// A message as the `lci`, `minimpi` and `comm` probes send it (two
    /// nodes, [`probes::AM_BYTES`]), to take `netmodel`'s part out of their
    /// time.
    pub fabric_2node: Sample,
    pub mpi_match_ns: f64,
    pub mpi_match_cmp: f64,
    pub mpi_msg: Sample,
    pub lci_msg: Sample,
    pub am_mpi: Sample,
    pub am_lci: Sample,
    pub put_mpi: Sample,
    pub put_lci: Sample,
    pub shm_ns: f64,
    pub graph_build_ns: f64,
    pub sched: Sample,
    pub real: Sample,
    pub exec_job_ns: f64,
    pub gemm_gflops: f64,
    pub potrf_gflops: f64,
    pub lr_update_us: f64,
    pub compress_us: f64,
}

fn engine_totals(stats: &[EngineStats]) -> EngineStats {
    let mut total = EngineStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}

fn per(count: u64, of: u64) -> f64 {
    count as f64 / of.max(1) as f64
}

/// Run the probes of the layers `plan` exercises, sized from `rep` (the
/// workload's own traced rep), sharing `budget_s` equally, each in a span.
pub fn probe(plan: &Plan, rep: &Rep, budget_s: f64, spans: &mut Spans) -> Probed {
    let main = rep.main_run();
    let totals = engine_totals(&main.report.engine_stats);
    let (ams, puts) = (totals.am_sent.get(), totals.puts_started.get());
    let mean_put = (main.report.bytes_transferred() / puts.max(1)) as usize;
    let mean_msg = (main.report.bytes_transferred() / (ams + puts).max(1)) as usize + 64;
    let depth = main.peak_pending as usize;
    // A hold model with `depth` events pending, each drawn uniformly within
    // `range` ahead, executes depth / (range / 2) events per virtual
    // nanosecond; choose the range that gives the run's own rate.
    let range = (2.0 * depth as f64 * main.report.makespan.as_ns() as f64
        / main.report.sim_events.max(1) as f64) as u64;
    let rank = rep.mean_rank.round() as usize;
    let (nodes, threads, ts) = (plan.nodes, plan.threads, plan.ts);

    let mut p = Probed::default();
    type Job<'a> = (&'static str, Box<dyn FnOnce(f64) + 'a>);
    let mut jobs: Vec<Job> = vec![(
        "probe.core.graph_build",
        Box::new(|s| p.graph_build_ns = probes::graph_build(plan, s)),
    )];
    let mut add = |name, job| jobs.push((name, job));
    if plan.kind.is_sim() {
        add(
            "probe.simnet.event",
            Box::new(|s| p.event_ns = probes::simnet_event(depth, range, s)),
        );
        add(
            "probe.simnet.event_floor",
            Box::new(|s| p.event_floor_ns = probes::simnet_event(1, range, s)),
        );
        add(
            "probe.netmodel.msg",
            Box::new(|s| p.fabric = probes::fabric_msg(nodes, mean_msg, s)),
        );
        add(
            "probe.netmodel.msg_2node",
            Box::new(|s| p.fabric_2node = probes::fabric_msg(2, probes::AM_BYTES, s)),
        );
        add(
            "probe.lci.msg",
            Box::new(|s| p.lci_msg = probes::lci_msg(s)),
        );
        add(
            "probe.comm.am.lci",
            Box::new(|s| p.am_lci = probes::comm_am(BackendKind::Lci, s)),
        );
        add(
            "probe.comm.put.lci",
            Box::new(|s| p.put_lci = probes::comm_put(BackendKind::Lci, mean_put, s)),
        );
        add(
            "probe.core.sched",
            Box::new(|s| p.sched = probes::core_sched(s)),
        );
    } else {
        add(
            "probe.comm.shm",
            Box::new(|s| p.shm_ns = probes::shm_msg(s)),
        );
        add(
            "probe.core.real",
            Box::new(|s| p.real = probes::core_real(threads, s)),
        );
        add(
            "probe.exec.job",
            Box::new(|s| p.exec_job_ns = probes::exec_job(threads, s)),
        );
    }
    if plan.kind == Kind::SimFig4 {
        add(
            "probe.minimpi.match",
            Box::new(|s| (p.mpi_match_ns, p.mpi_match_cmp) = probes::mpi_match(MPI_OUTSTANDING, s)),
        );
        add(
            "probe.minimpi.msg",
            Box::new(|s| p.mpi_msg = probes::mpi_msg(s)),
        );
        add(
            "probe.comm.am.mpi",
            Box::new(|s| p.am_mpi = probes::comm_am(BackendKind::Mpi, s)),
        );
        add(
            "probe.comm.put.mpi",
            Box::new(|s| p.put_mpi = probes::comm_put(BackendKind::Mpi, mean_put, s)),
        );
    }
    if plan.kind == Kind::RealTlr {
        add(
            "probe.linalg.gemm",
            Box::new(|s| p.gemm_gflops = probes::gemm_gflops(ts, s)),
        );
        add(
            "probe.linalg.potrf",
            Box::new(|s| p.potrf_gflops = probes::potrf_gflops(ts, s)),
        );
        add(
            "probe.tlr.lr_update",
            Box::new(|s| p.lr_update_us = probes::lr_update_us(plan, rank, s)),
        );
        add(
            "probe.tlr.compress",
            Box::new(|s| p.compress_us = probes::compress_us(plan, s)),
        );
    }
    let each = budget_s / jobs.len() as f64;
    for (name, job) in jobs {
        spans.scope(name, |_| job(each));
    }
    p
}

/// Estimated share of the run's host time per layer.
#[derive(Debug, Default, PartialEq)]
pub struct Shares {
    pub simnet: f64,
    pub netmodel: f64,
    pub minimpi: f64,
    pub lci: f64,
    pub comm: f64,
    pub core: f64,
    pub exec: f64,
    /// Measured, not estimated: task-body time over thread time.
    pub kernels: f64,
}

impl Shares {
    pub fn unattributed(&self) -> f64 {
        1.0 - (self.simnet
            + self.netmodel
            + self.minimpi
            + self.lci
            + self.comm
            + self.core
            + self.exec
            + self.kernels)
    }
}

/// A probe's own cost per operation: its time less the events it executed
/// (at `event_ns` each) and less what the layers below it took. Floored at
/// zero: a probe is an estimate and the subtraction can overshoot.
fn own_ns(s: &Sample, event_ns: f64, below_ns: f64) -> f64 {
    (s.ns - s.events * event_ns - below_ns).max(0.0)
}

pub fn estimate(plan: &Plan, rep: &Rep, p: &Probed) -> Shares {
    let mut ns = Shares::default();
    if plan.kind.is_sim() {
        // Every event's queue cost is charged to simnet at the run's depth;
        // the probes of the layers above give up only the empty-queue cost
        // of their events, so what a deep queue adds is counted once.
        let floor = p.event_floor_ns;
        let fabric_own = own_ns(&p.fabric, floor, 0.0);
        let fabric_2node_own = own_ns(&p.fabric_2node, floor, 0.0);
        let core_own = own_ns(&p.sched, floor, 0.0)
            // Windowed discovery builds the graph inside the run.
            + if plan.kind == Kind::SimScale { p.graph_build_ns } else { 0.0 };
        for run in &rep.runs {
            let mpi = run.backend == BackendKind::Mpi;
            let (lib, am, put) = if mpi {
                (&p.mpi_msg, &p.am_mpi, &p.put_mpi)
            } else {
                (&p.lci_msg, &p.am_lci, &p.put_lci)
            };
            let totals = engine_totals(&run.report.engine_stats);
            let (ams, puts) = (
                totals.am_sent.get() as f64,
                totals.puts_started.get() as f64,
            );
            let fabric_msgs = ams * am.fabric_msgs + puts * put.fabric_msgs;
            let lib_own =
                own_ns(lib, floor, lib.fabric_msgs * fabric_2node_own) / lib.fabric_msgs.max(1.0);
            let below = |s: &Sample| s.fabric_msgs * (fabric_2node_own + lib_own);
            // One of a put's messages carries the data: it costs the fabric
            // what a message of the workload's size does.
            let below_put = below(put) + (fabric_own - fabric_2node_own).max(0.0);
            ns.simnet += run.report.sim_events as f64 * p.event_ns;
            ns.netmodel += fabric_msgs * fabric_own;
            *(if mpi { &mut ns.minimpi } else { &mut ns.lci }) += fabric_msgs * lib_own;
            ns.comm += ams * own_ns(am, floor, below(am)) + puts * own_ns(put, floor, below_put);
            ns.core += run.report.tasks_executed as f64 * core_own;
        }
    } else {
        let report = &rep.main_run().report;
        let totals = engine_totals(&report.engine_stats);
        let jobs = report.pool.as_ref().map_or(0, |pool| pool.spawns());
        ns.exec = jobs as f64 * p.exec_job_ns;
        ns.comm = (totals.am_sent.get() + totals.puts_started.get()) as f64 * p.shm_ns;
        ns.core =
            report.tasks_executed as f64 * (p.real.ns - p.real.events * p.exec_job_ns).max(0.0);
        if plan.kind == Kind::RealTlr {
            ns.kernels = report
                .class_stats
                .iter()
                .map(|(_, _, busy)| busy.as_ns() as f64)
                .sum();
        }
    }
    let available = rep.wall_s() * 1e9 * plan.threads as f64;
    Shares {
        simnet: ns.simnet / available,
        netmodel: ns.netmodel / available,
        minimpi: ns.minimpi / available,
        lci: ns.lci / available,
        comm: ns.comm / available,
        core: ns.core / available,
        exec: ns.exec / available,
        kernels: ns.kernels / available,
    }
}

/// Every per-layer metric of one workload. `untraced_wall_s` is the median
/// of the untraced reps; `one_thread_wall_s` a rep on a single pool thread
/// (`real_*` only).
pub fn per_layer(
    plan: &Plan,
    rep: &Rep,
    p: &Probed,
    untraced_wall_s: f64,
    one_thread_wall_s: Option<f64>,
) -> Result<MetricSet, String> {
    let shares = estimate(plan, rep, p);
    let tasks = rep.tasks();
    let wall_s = rep.wall_s();
    let main = &rep.main_run().report;
    let events: u64 = rep.runs.iter().map(|r| r.report.sim_events).sum();

    // Counters summed over the rep's runs (both backends on sim_fig4).
    let mut all = EngineStats::default();
    for run in &rep.runs {
        all.merge(&engine_totals(&run.report.engine_stats));
    }
    let bytes: u64 = rep.runs.iter().map(|r| r.report.bytes_transferred()).sum();
    let pool = main.pool.clone().unwrap_or_default();

    let mut m = MetricSet::new(&PER_LAYER);
    let mut set = |name: &str, v: f64| m.set(name, v);

    set("simnet.events_per_task", per(events, tasks))?;
    set("simnet.events_per_s", events as f64 / wall_s)?;
    set(
        "simnet.peak_pending",
        rep.runs.iter().map(|r| r.peak_pending).max().unwrap_or(0) as f64,
    )?;
    set("simnet.probe_ns_per_event", p.event_ns)?;
    set("simnet.est_share", shares.simnet)?;

    set("netmodel.probe_ns_per_msg", p.fabric.ns)?;
    set("netmodel.probe_events_per_msg", p.fabric.events)?;
    set("netmodel.est_share", shares.netmodel)?;

    set("minimpi.probe_ns_per_match", p.mpi_match_ns)?;
    set("minimpi.probe_cmp_per_match", p.mpi_match_cmp)?;
    set("minimpi.probe_ns_per_msg", p.mpi_msg.ns)?;
    set("minimpi.est_share", shares.minimpi)?;

    set("lci.probe_ns_per_msg", p.lci_msg.ns)?;
    set("lci.retries", all.backend_retries.get() as f64)?;
    set("lci.est_share", shares.lci)?;

    set("comm.am_per_task", per(all.am_sent.get(), tasks))?;
    set("comm.puts_per_task", per(all.puts_started.get(), tasks))?;
    set("comm.bytes_per_task", per(bytes, tasks))?;
    set(
        "comm.records_per_msg",
        per(all.am_submitted.get(), all.am_sent.get()),
    )?;
    set(
        "comm.retries",
        (all.deferred_puts.get() + all.dynamic_recvs.get() + all.delegated_recvs.get()) as f64,
    )?;
    set("comm.comm_util", main.comm_util)?;
    set("comm.probe_ns_per_am.mpi", p.am_mpi.ns)?;
    set("comm.probe_ns_per_am.lci", p.am_lci.ns)?;
    set("comm.probe_ns_per_put.mpi", p.put_mpi.ns)?;
    set("comm.probe_ns_per_put.lci", p.put_lci.ns)?;
    set("comm.probe_allocs_per_am", p.am_lci.allocs)?;
    set("comm.shm_probe_ns_per_msg", p.shm_ns)?;
    set("comm.est_share", shares.comm)?;

    set("core.graph_build_ns_per_task", p.graph_build_ns)?;
    set("core.cluster_new_s", rep.cluster_new_s)?;
    set("core.probe_sched_ns_per_task", p.sched.ns)?;
    set("core.probe_real_ns_per_task", p.real.ns)?;
    set("core.worker_util", main.worker_util)?;
    set("core.est_share", shares.core)?;

    set("exec.steals_per_task", per(pool.steals(), tasks))?;
    set(
        "exec.failed_probes_per_task",
        per(pool.failed_probes(), tasks),
    )?;
    set("exec.parks", pool.parks() as f64)?;
    set("exec.probe_ns_per_job", p.exec_job_ns)?;
    set(
        "exec.scaling_1_to_n",
        one_thread_wall_s.map_or(0.0, |one| one / untraced_wall_s),
    )?;
    set("exec.est_share", shares.exec)?;

    set("linalg.probe_gemm_gflops", p.gemm_gflops)?;
    set("linalg.probe_potrf_gflops", p.potrf_gflops)?;
    set("linalg.kernel_busy_share", shares.kernels)?;

    set("tlr.probe_lr_update_us", p.lr_update_us)?;
    set("tlr.probe_compress_us", p.compress_us)?;
    set(
        "tlr.build_s",
        if plan.kind == Kind::RealStencil {
            0.0
        } else {
            rep.build_s
        },
    )?;
    set("tlr.mean_rank", rep.mean_rank)?;

    set("host.allocs_per_task", per(rep.run_allocs, tasks))?;
    set("host.unattributed_share", shares.unattributed())?;
    set("host.trace_overhead_frac", wall_s / untraced_wall_s - 1.0)?;

    // Paper: up to 12 % time-to-solution gain and > 50 % latency cut for
    // LCI over MPI at this tile size. Reported, never gated.
    let (gain, cut, mpi_makespan) = match (plan.kind, rep.runs.first()) {
        (Kind::SimFig4, Some(mpi)) => {
            let (m, l) = (&mpi.report, main);
            let rel = |a: f64, b: f64| 100.0 * (a - b) / a;
            (
                rel(m.makespan.as_secs_f64(), l.makespan.as_secs_f64()),
                rel(m.e2e_latency_us.mean(), l.e2e_latency_us.mean()),
                m.makespan.as_secs_f64(),
            )
        }
        _ => (0.0, 0.0, 0.0),
    };
    set("fidelity.fig4_lci_gain_pct", gain)?;
    set("fidelity.e2e_latency_cut_pct", cut)?;
    set("fidelity.sim_makespan_mpi_s", mpi_makespan)?;

    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cost_subtracts_events_and_lower_layers_and_floors_at_zero() {
        let s = Sample {
            ns: 1000.0,
            events: 4.0,
            fabric_msgs: 2.0,
            allocs: 0.0,
        };
        assert_eq!(own_ns(&s, 50.0, 300.0), 500.0);
        assert_eq!(own_ns(&s, 50.0, 900.0), 0.0);
    }

    #[test]
    fn unattributed_is_what_the_shares_leave() {
        let s = Shares {
            simnet: 0.2,
            comm: 0.3,
            core: 0.1,
            ..Default::default()
        };
        assert!((s.unattributed() - 0.4).abs() < 1e-12);
    }
}
