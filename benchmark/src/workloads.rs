//! The four workloads: inputs made from the seed, one rep (set-up, timed
//! `execute*` call, output checks) and the end-to-end numbers of a rep.
//!
//! Closed loop: one process, one rep at a time. Simulator reps are
//! single-threaded; real-substrate reps use `min(nproc, 2)` pool threads.

use std::time::Instant;

use amt_bench::alloc_count::{peak_live_bytes, reset_peak_live_bytes, AllocSnapshot};
use amt_comm::BackendKind;
use amt_core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, RunReport, TaskDesc, TaskGraph};
use amt_simnet::DetRng;
use amt_tlr::{RankModel, TlrCholesky, TlrCholeskySource, TlrProblem};

use crate::spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SimScale,
    SimFig4,
    RealTlr,
    RealStencil,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SimScale,
        Kind::SimFig4,
        Kind::RealTlr,
        Kind::RealStencil,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SimScale => "sim_scale",
            Kind::SimFig4 => "sim_fig4",
            Kind::RealTlr => "real_tlr",
            Kind::RealStencil => "real_stencil",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_sim(self) -> bool {
        matches!(self, Kind::SimScale | Kind::SimFig4)
    }
}

/// Protocol nodes of the real-substrate workloads.
const REAL_NODES: usize = 4;

/// One workload's inputs, all derived from `(kind, seed, quick)`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub kind: Kind,
    /// Pool threads (`real_*`); 1 on the simulator.
    pub threads: usize,
    pub nodes: usize,
    /// Tiles per matrix dimension (TLR) or per grid side (stencil).
    pub nt: usize,
    /// Elements per tile side.
    pub ts: usize,
    /// Discovery window (`sim_scale`).
    pub window: usize,
    /// Stencil sweeps (`real_stencil`).
    pub sweeps: u64,
    /// Covariance length scale (`real_tlr`; the CostOnly rank model does
    /// not read it).
    pub length_scale: f64,
    /// Tile → node map, row-major (`real_stencil`).
    pub owners: Vec<usize>,
}

impl Plan {
    /// The seed perturbs, per workload, what the public builders let it
    /// reach — kept small so that ten seeds measure one workload, not ten:
    /// * `sim_*`: tile size within ±0.5 % of 1200, hence every flop count,
    ///   rank and message size of the CostOnly model;
    /// * `real_tlr`: `TlrProblem::length_scale` within ±2 % (tile ranks);
    /// * `real_stencil`: a uniformly random tile → node map (about two
    ///   remote flows per version, as the block-cyclic map has).
    pub fn new(kind: Kind, seed: u64, quick: bool) -> Plan {
        let mut rng = DetRng::seed_from_u64(seed ^ (0x9e37_79b9 * (kind as u64 + 1)));
        let real_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(2);
        let sim_ts = 1194 + rng.gen_usize(0..13);
        let mut plan = Plan {
            kind,
            threads: 1,
            nodes: REAL_NODES,
            nt: 0,
            ts: 32,
            window: 0,
            sweeps: 0,
            length_scale: 0.1,
            owners: Vec::new(),
        };
        match kind {
            Kind::SimScale => {
                // The ROADMAP's 512-node row, shrunk from nt = 64 so that a
                // 20 s run holds a dozen reps; the window shrinks with it so
                // discovery and retirement still run inside the timed region.
                (plan.nodes, plan.nt, plan.window) = if quick {
                    (64, 12, 150)
                } else {
                    (512, 40, 5000)
                };
                plan.ts = sim_ts;
            }
            Kind::SimFig4 => {
                (plan.nodes, plan.nt) = if quick { (4, 12) } else { (16, 80) };
                plan.ts = sim_ts;
            }
            Kind::RealTlr => {
                plan.threads = real_threads;
                plan.nt = if quick { 8 } else { 32 };
                plan.length_scale = 0.1 * (0.98 + 0.04 * rng.gen_f64());
            }
            Kind::RealStencil => {
                plan.threads = real_threads;
                (plan.nt, plan.sweeps) = if quick { (8, 20) } else { (32, 200) };
                plan.ts = 16;
                plan.owners = (0..plan.nt * plan.nt)
                    .map(|_| rng.gen_usize(0..REAL_NODES))
                    .collect();
            }
        }
        plan
    }

    pub fn tlr_problem(&self) -> TlrProblem {
        let mut p = TlrProblem::new(self.nt * self.ts, self.ts);
        p.length_scale = self.length_scale;
        p
    }

    /// The workload's graph without payloads or kernels: what `core`'s
    /// graph builder alone costs for this shape.
    pub fn cost_only_graph(&self) -> TaskGraph {
        match self.kind {
            Kind::RealStencil => self.stencil_graph(),
            _ => TlrCholesky::build_cost_only(self.tlr_problem(), self.nodes).1,
        }
    }

    /// Cost-only 5-point stencil, as `amt_bench::stencil::build_stencil`
    /// builds it, but over an arbitrary tile → node map (`TileDist2d` can
    /// only express block-cyclic ones).
    pub fn stencil_graph(&self) -> TaskGraph {
        let tiles = self.nt as i64;
        let key = |r: i64, c: i64| (r * tiles + c) as u64;
        let bytes = self.ts * self.ts * 8;
        let flops = 5.0 * (self.ts * self.ts) as f64;
        let mut g = GraphBuilder::new(self.nodes);
        for (k, &owner) in self.owners.iter().enumerate() {
            g.data(k as u64, bytes, owner, None);
        }
        for _ in 0..self.sweeps {
            for r in 0..tiles {
                for c in 0..tiles {
                    let k = key(r, c);
                    let mut desc = TaskDesc::new("stencil")
                        .on_node(self.owners[k as usize])
                        .flops(flops)
                        .efficiency(0.15)
                        .read_key(k)
                        .write(k, bytes);
                    for (nr, nc) in [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)] {
                        if (0..tiles).contains(&nr) && (0..tiles).contains(&nc) {
                            desc = desc.read_key(key(nr, nc));
                        }
                    }
                    g.insert(desc);
                }
            }
        }
        g.build()
    }

    fn sim_config(&self, backend: BackendKind) -> ClusterConfig {
        ClusterConfig {
            flyweight: self.kind == Kind::SimScale,
            mode: ExecMode::CostOnly,
            // HiCMA paces data fetches by priority; the byte budget models it.
            get_window_bytes: 2 << 20,
            ..ClusterConfig::expanse(backend, self.nodes)
        }
    }

    fn real_config(&self, mode: ExecMode) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            workers_per_node: 8,
            mode,
            ..Default::default()
        }
    }
}

/// One `execute*` call of a rep.
pub struct RunOut {
    pub backend: BackendKind,
    pub report: RunReport,
    pub wall_s: f64,
    /// Deepest the event queue got (`MetricsReport`; 0 on the real path).
    pub peak_pending: u64,
}

/// Output checks, counted for the result line's `attempted` / `failed`.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed checks over checks attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

pub struct Rep {
    /// Problem and graph construction before the timed region.
    pub build_s: f64,
    pub cluster_new_s: f64,
    /// One run, or MPI then LCI on `sim_fig4`.
    pub runs: Vec<RunOut>,
    /// Peak live heap over set-up and run, above the level at rep start.
    pub peak_live_bytes: u64,
    /// Heap allocations inside the `execute*` calls.
    pub run_allocs: u64,
    pub mean_rank: f64,
    pub checks: Checks,
    /// What must repeat across reps of one run: the reports' JSON on the
    /// deterministic simulator, a digest of the factor tiles on `real_tlr`.
    pub fingerprint: Option<String>,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.cluster_new_s
    }

    pub fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_s).sum()
    }

    pub fn tasks(&self) -> u64 {
        self.runs.iter().map(|r| r.report.tasks_executed).sum()
    }

    /// The LCI-backend run (the only one, except on `sim_fig4`).
    pub fn main_run(&self) -> &RunOut {
        self.runs.last().expect("a rep has at least one run")
    }

    pub fn makespan_s(&self) -> f64 {
        self.main_run().report.makespan.as_secs_f64()
    }

    pub fn e2e_latency_us(&self) -> f64 {
        self.main_run().report.e2e_latency_us.mean()
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// What a rep accumulates over its one or two `execute*` calls.
#[derive(Default)]
struct Executed {
    runs: Vec<RunOut>,
    run_allocs: u64,
    checks: Checks,
}

impl Executed {
    /// One timed `execute*` call, then the checks every report must pass.
    fn execute(
        &mut self,
        spans: &mut Spans,
        backend: BackendKind,
        cluster: &mut Cluster,
        call: impl FnOnce(&mut Cluster) -> RunReport,
    ) {
        let snap = AllocSnapshot::now();
        let (report, wall_s) = spans.scope("run.execute", |_| timed(|| call(cluster)));
        self.run_allocs += snap.since().allocs;
        let peak_pending = spans.scope("report", |_| {
            cluster.metrics_report(&report).events_peak_pending
        });
        spans.scope("verify", |_| {
            self.checks.check(report.complete(), || {
                format!(
                    "{backend}: {} of {} tasks ran",
                    report.tasks_executed, report.tasks_total
                )
            });
            self.checks.check(report.schedule_past_clamped == 0, || {
                format!(
                    "{backend}: {} events scheduled into the past",
                    report.schedule_past_clamped
                )
            });
        });
        self.runs.push(RunOut {
            backend,
            report,
            wall_s,
            peak_pending,
        });
    }
}

/// One rep of `plan`. `full_verify` adds the check too dear to repeat (the
/// `real_tlr` residual, 6.6 s against a 1.1 s run); it runs outside every
/// timed region, as all checks do.
pub fn run_rep(plan: &Plan, spans: &mut Spans, full_verify: bool) -> Rep {
    spans.next_rep();
    reset_peak_live_bytes();
    let live0 = peak_live_bytes();
    let mut done = Executed::default();
    let mut fingerprint = None;
    let mean_rank;
    let build_s;
    let cluster_new_s;

    match plan.kind {
        Kind::SimScale => {
            let (source, b) = spans.scope("setup.build_graph", |_| {
                timed(|| TlrCholeskySource::cost_only(plan.tlr_problem(), plan.nodes))
            });
            let (mut cluster, c) = spans.scope("setup.cluster_new", |_| {
                timed(|| Cluster::new(plan.sim_config(BackendKind::Lci)))
            });
            (build_s, cluster_new_s) = (b, c);
            mean_rank =
                RankModel::new(plan.ts, plan.tlr_problem().maxrank).mean_rank(plan.nt as u64);
            done.execute(spans, BackendKind::Lci, &mut cluster, |cl| {
                cl.execute_windowed(Box::new(source), plan.window)
            });
        }
        Kind::SimFig4 => {
            let backends = [BackendKind::Mpi, BackendKind::Lci];
            let (built, b) = spans.scope("setup.build_graph", |_| {
                timed(|| {
                    backends.map(|_| TlrCholesky::build_cost_only(plan.tlr_problem(), plan.nodes))
                })
            });
            let (clusters, c) = spans.scope("setup.cluster_new", |_| {
                timed(|| backends.map(|bk| Cluster::new(plan.sim_config(bk))))
            });
            (build_s, cluster_new_s) = (b, c);
            mean_rank = built[0].0.stats.mean_rank;
            for ((backend, (_, graph)), mut cluster) in
                backends.into_iter().zip(built).zip(clusters)
            {
                done.execute(spans, backend, &mut cluster, |cl| cl.execute(graph));
            }
        }
        Kind::RealTlr => {
            let ((chol, graph), b) = spans.scope("setup.build_graph", |_| {
                timed(|| TlrCholesky::build_numeric(plan.tlr_problem(), plan.nodes))
            });
            let (mut cluster, c) = spans.scope("setup.cluster_new", |_| {
                timed(|| Cluster::new(plan.real_config(ExecMode::Numeric)))
            });
            (build_s, cluster_new_s) = (b, c);
            mean_rank = chol.stats.mean_rank;
            done.execute(spans, BackendKind::Lci, &mut cluster, |cl| {
                cl.execute_real(graph, plan.threads)
            });
            spans.scope("verify", |_| {
                fingerprint = Some(format!("{:016x}", factor_digest(&chol, &cluster)));
                if full_verify {
                    let residual = chol.residual(&cluster);
                    done.checks.check(residual < 1e-6, || {
                        format!("factorization residual {residual:.3e}")
                    });
                }
            });
        }
        Kind::RealStencil => {
            let (graph, b) = spans.scope("setup.build_graph", |_| timed(|| plan.stencil_graph()));
            let (mut cluster, c) = spans.scope("setup.cluster_new", |_| {
                timed(|| Cluster::new(plan.real_config(ExecMode::CostOnly)))
            });
            (build_s, cluster_new_s) = (b, c);
            mean_rank = 0.0;
            let flows = spans.scope("verify", |_| graph.remote_flows() as u64);
            done.execute(spans, BackendKind::Lci, &mut cluster, |cl| {
                cl.execute_real(graph, plan.threads)
            });
            let arrived = done.runs[0].report.e2e_latency_us.count();
            done.checks.check(arrived == flows, || {
                format!("{arrived} flows arrived, the graph has {flows}")
            });
        }
    }
    if plan.kind.is_sim() {
        fingerprint = Some(done.runs.iter().map(|r| r.report.to_json()).collect());
    }

    Rep {
        build_s,
        cluster_new_s,
        runs: done.runs,
        peak_live_bytes: peak_live_bytes() - live0,
        run_allocs: done.run_allocs,
        mean_rank,
        checks: done.checks,
        fingerprint,
    }
}

/// FNV-1a over the final factor tiles in a fixed order. Numeric payloads
/// are bitwise identical across reps and thread counts, so a rep whose
/// digest equals that of the residual-verified rep is verified too.
fn factor_digest(chol: &TlrCholesky, cluster: &Cluster) -> u64 {
    let mut versions = chol.diag_out.clone();
    let mut lr: Vec<_> = chol.lr_out.iter().collect();
    lr.sort_by_key(|(&tile, _)| tile);
    versions.extend(lr.into_iter().flat_map(|(_, &(u, v))| [u, v]));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in versions {
        let data = cluster.data(v).expect("final factor tile");
        for chunk in data.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
