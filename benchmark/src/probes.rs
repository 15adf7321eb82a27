//! Per-layer probes: closed-loop microbenchmarks that drive one crate's
//! public API alone, sized from the workload (queue depth, node count,
//! message size, tile size, rank). Each probe repeats a batch until its
//! share of the run's time is spent and reports the median batch.
//!
//! Probes of upper layers run on a `Sim` over a `Fabric`, so their time
//! includes the layers below; they also report the events and fabric
//! messages one operation caused, which `layers.rs` uses to subtract the
//! lower layers' cost and leave each layer's own.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use amt_bench::alloc_count::AllocSnapshot;
use amt_comm::{BackendKind, CommWorld, EngineConfig, PutRequest, ShmMsg, ShmWorld};
use amt_core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, TaskDesc, TaskGraph};
use amt_exec::Pool;
use amt_lci::{LciCosts, LciWorld};
use amt_linalg::{gemm, potrf, sqexp_covariance, Grid2d, Matrix, Trans};
use amt_minimpi::matcher::PostTable;
use amt_minimpi::{MpiCosts, MpiWorld, SrcSel};
use amt_netmodel::{rx_handler, Fabric, FabricConfig, FabricHandle, Payload};
use amt_simnet::{DetRng, Sim, SimTime};
use amt_tlr::LrTile;
use bytes::{Bytes, Frames};

use crate::stats::median;
use crate::workloads::Plan;

/// Payload of the control-message probes (`fabric_msg` on two nodes,
/// `lci_msg`, `mpi_msg`, `comm_am`): one ACTIVATE-sized record.
pub const AM_BYTES: usize = 64;

/// What one operation of a probe cost, inclusive of the layers below.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub ns: f64,
    /// Simulator events executed per operation.
    pub events: f64,
    /// `Fabric::send` calls per operation.
    pub fabric_msgs: f64,
    pub allocs: f64,
}

/// One warm-up batch, then batches until `budget_s` is spent (three at
/// least). Time is the median batch's; the counts repeat exactly on the
/// single-threaded simulator, so the last batch's are reported.
fn steady(budget_s: f64, mut batch: impl FnMut() -> Sample) -> Sample {
    batch();
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || t0.elapsed().as_secs_f64() < budget_s {
        samples.push(batch());
    }
    let ns: Vec<f64> = samples.iter().map(|s| s.ns).collect();
    Sample {
        ns: median(&ns),
        ..*samples.last().expect("at least three batches")
    }
}

fn per_op(elapsed_ns: f64, ops: f64) -> Sample {
    Sample {
        ns: elapsed_ns / ops,
        ..Default::default()
    }
}

fn elapsed_ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// `simnet`: the classic hold model — `depth` events pending, each
/// execution schedules one successor uniformly within `range_ns` ahead.
/// Both matter: the ladder queue's cost grows with the events per bucket
/// (depth / range), far more than with depth alone.
pub fn simnet_event(depth: usize, range_ns: u64, budget_s: f64) -> f64 {
    const EVENTS: u64 = 200_000;
    fn hold(sim: &mut Sim, left: Rc<Cell<u64>>, x: u64, range_ns: u64) {
        if left.get() == 0 {
            return;
        }
        left.set(left.get() - 1);
        let x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let delay = SimTime::from_ns(1 + (x >> 33) % range_ns);
        sim.schedule_in(delay, move |sim| hold(sim, left, x, range_ns));
    }
    steady(budget_s, || {
        let mut sim = Sim::new();
        let left = Rc::new(Cell::new(EVENTS));
        for chain in 0..depth.max(1) as u64 {
            hold(&mut sim, left.clone(), chain, range_ns.max(1));
        }
        let t0 = Instant::now();
        sim.run();
        per_op(elapsed_ns(t0), sim.events_executed() as f64)
    })
    .ns
}

fn fabric_tx_msgs(fabric: &FabricHandle) -> u64 {
    let f = fabric.borrow();
    (0..f.nodes()).map(|n| f.tx_msgs(n)).sum()
}

/// Counts of simulator events and fabric messages since construction.
struct Meter<'a> {
    fabric: &'a FabricHandle,
    events0: u64,
    msgs0: u64,
    allocs0: AllocSnapshot,
    t0: Instant,
}

impl<'a> Meter<'a> {
    fn start(sim: &Sim, fabric: &'a FabricHandle) -> Meter<'a> {
        Meter {
            fabric,
            events0: sim.events_executed(),
            msgs0: fabric_tx_msgs(fabric),
            allocs0: AllocSnapshot::now(),
            t0: Instant::now(),
        }
    }

    fn stop(self, sim: &Sim, ops: f64) -> Sample {
        let ns = elapsed_ns(self.t0);
        Sample {
            ns: ns / ops,
            events: (sim.events_executed() - self.events0) as f64 / ops,
            fabric_msgs: (fabric_tx_msgs(self.fabric) - self.msgs0) as f64 / ops,
            allocs: self.allocs0.since().allocs as f64 / ops,
        }
    }
}

/// `netmodel`: `Fabric::send` of `bytes` between pairs of an `nodes`-node
/// fabric on a bare `Sim`, receive handlers doing nothing, in bursts of 256.
pub fn fabric_msg(nodes: usize, bytes: usize, budget_s: f64) -> Sample {
    const BURST: usize = 256;
    const ROUNDS: usize = 16;
    let nodes = nodes.max(2);
    let mut sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(nodes));
    for n in 0..nodes {
        fabric.borrow_mut().set_handler(n, rx_handler(|_, _| {}));
    }
    steady(budget_s, || {
        let meter = Meter::start(&sim, &fabric);
        for i in 0..BURST * ROUNDS {
            let src = i % nodes;
            let dst = (src + 1 + (i / nodes) % (nodes - 1)) % nodes;
            Fabric::send(&fabric, &mut sim, src, dst, bytes, Payload::Empty, None);
            if (i + 1) % BURST == 0 {
                sim.run();
            }
        }
        meter.stop(&sim, (BURST * ROUNDS) as f64)
    })
}

/// `minimpi` matcher: keep `outstanding` receives posted (a quarter of them
/// wildcards), match arrivals on random tags and repost. Returns
/// `(ns, comparisons)` per match.
pub fn mpi_match(outstanding: usize, budget_s: f64) -> (f64, f64) {
    const ROUNDS: usize = 20_000;
    let mut cmp_per_match = 0.0;
    let ns = steady(budget_s, || {
        let mut table = PostTable::new();
        let mut rng = DetRng::seed_from_u64(0xc0ffee);
        let src_of = |rng: &mut DetRng, i: usize| {
            if rng.gen_bool(0.25) {
                SrcSel::Any
            } else {
                SrcSel::Rank(i % 8)
            }
        };
        for i in 0..outstanding {
            let src = src_of(&mut rng, i);
            table.post(i, src, i as u64);
        }
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            let tag = rng.gen_usize(0..outstanding);
            if table.match_arrival(tag % 8, tag as u64).found.is_some() {
                let src = src_of(&mut rng, tag);
                table.post(tag, src, tag as u64);
            }
        }
        let s = per_op(elapsed_ns(t0), ROUNDS as f64);
        cmp_per_match = table.comparisons() as f64 / table.match_calls() as f64;
        s
    })
    .ns;
    (ns, cmp_per_match)
}

/// `minimpi` world: `irecv` + eager `isend` between two ranks, polled to
/// completion with `testsome` over a request array of 30 (the MPI backend's
/// cap on concurrent transfers).
pub fn mpi_msg(budget_s: f64) -> Sample {
    const ARRAY: u64 = 30;
    const ROUNDS: u64 = 16;
    let mut sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(2));
    let ranks = MpiWorld::create(&fabric, MpiCosts::default());
    let mut tag = 0u64;
    steady(budget_s, || {
        let meter = Meter::start(&sim, &fabric);
        for _ in 0..ROUNDS {
            let mut recvs = Vec::new();
            let mut sends = Vec::new();
            for _ in 0..ARRAY {
                tag += 1;
                recvs.push(ranks[1].irecv(&mut sim, SrcSel::Rank(0), tag).0);
                sends.push(ranks[0].isend(&mut sim, 1, tag, AM_BYTES, Frames::Empty).0);
            }
            while !(recvs.is_empty() && sends.is_empty()) {
                let mut completed = 0;
                for (rank, pending) in [(&ranks[1], &mut recvs), (&ranks[0], &mut sends)] {
                    let (done, _) = rank.testsome(&mut sim, pending);
                    pending.retain(|r| !done.iter().any(|c| c.req == *r));
                    completed += done.len();
                }
                assert!(sim.step() || completed > 0, "mpi_msg probe stalled");
            }
        }
        meter.stop(&sim, (ARRAY * ROUNDS) as f64)
    })
}

/// `lci`: buffered sends between two endpoints, both progressed until the
/// receiver's handler has seen every message.
pub fn lci_msg(budget_s: f64) -> Sample {
    const BURST: usize = 32;
    const ROUNDS: usize = 16;
    let mut sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(2));
    let eps = LciWorld::create(&fabric, LciCosts::default());
    let seen = Rc::new(Cell::new(0usize));
    let (ep1, seen_in) = (eps[1].clone(), seen.clone());
    eps[1].set_am_handler(move |sim, m| {
        seen_in.set(seen_in.get() + 1);
        if m.owns_packet {
            ep1.buffer_free(sim);
        }
        SimTime::ZERO
    });
    steady(budget_s, || {
        let meter = Meter::start(&sim, &fabric);
        for round in 1..=ROUNDS {
            for _ in 0..BURST {
                eps[0]
                    .sendb(&mut sim, 1, 0, AM_BYTES, Frames::Empty)
                    .expect("burst fits the transmit pool");
            }
            while seen.get() < round * BURST {
                let mut progressed = false;
                for ep in eps.iter().filter(|ep| ep.has_work()) {
                    ep.progress(&mut sim);
                    progressed = true;
                }
                assert!(sim.step() || progressed, "lci_msg probe stalled");
            }
        }
        seen.set(0);
        meter.stop(&sim, (BURST * ROUNDS) as f64)
    })
}

fn two_node_engines(backend: BackendKind) -> (Sim, FabricHandle, Vec<Rc<amt_comm::CommEngine>>) {
    let mut sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(2));
    let engines = CommWorld::create(&mut sim, &fabric, EngineConfig::for_backend(backend));
    (sim, fabric, engines)
}

/// `comm`: payload-carrying active messages through a 2-node engine
/// of `backend`, paced 5 µs apart so each crosses the full datapath instead
/// of aggregating; the handler recycles arrival frames as the runtime does.
pub fn comm_am(backend: BackendKind, budget_s: f64) -> Sample {
    const MSGS: usize = 1024;
    let (mut sim, fabric, engines) = two_node_engines(backend);
    engines[1].register_am(
        &mut sim,
        1,
        Rc::new(|_sim, eng, ev| {
            eng.buf_pool().recycle_frames(ev.data);
            SimTime::ZERO
        }),
    );
    steady(budget_s, || {
        let meter = Meter::start(&sim, &fabric);
        for i in 0..MSGS {
            let src = engines[0].clone();
            sim.schedule_in(SimTime::from_ns(5_000 * i as u64), move |sim| {
                src.send_am(
                    sim,
                    1,
                    1,
                    AM_BYTES,
                    Some(Bytes::from(vec![i as u8; AM_BYTES])),
                );
            });
        }
        sim.run();
        meter.stop(&sim, MSGS as f64)
    })
}

/// `comm`: cost-only one-sided puts of `bytes` (the workload's mean put)
/// through a 2-node engine of `backend`, paced 100 µs apart so the transfer
/// window stays shallow.
pub fn comm_put(backend: BackendKind, bytes: usize, budget_s: f64) -> Sample {
    const PUTS: usize = 256;
    let (mut sim, fabric, engines) = two_node_engines(backend);
    engines[1].register_onesided(1, Rc::new(|_sim, _eng, _ev| SimTime::ZERO));
    steady(budget_s, || {
        let meter = Meter::start(&sim, &fabric);
        for i in 0..PUTS {
            let src = engines[0].clone();
            sim.schedule_in(SimTime::from_ns(100_000 * i as u64), move |sim| {
                src.put(
                    sim,
                    PutRequest {
                        dst: 1,
                        size: bytes,
                        data: None,
                        r_tag: 1,
                        cb_data: Bytes::new(),
                        on_local: Box::new(|_s, _e| SimTime::ZERO),
                    },
                );
            });
        }
        sim.run();
        meter.stop(&sim, PUTS as f64)
    })
}

/// `comm::ShmWorld`: a pooled 64-byte active message sent, popped,
/// accounted and recycled, on one thread (no mailbox contention).
pub fn shm_msg(budget_s: f64) -> f64 {
    const MSGS: u64 = 20_000;
    let world = ShmWorld::new(2, 64);
    steady(budget_s, || {
        let t0 = Instant::now();
        for now in 0..MSGS {
            let mut buf = world.node(0).pool().take(64);
            buf.extend_from_slice(&[0u8; 64]);
            let mut frames = Frames::new();
            frames.push(buf.freeze());
            world.send_am(0, 1, 1, frames, now);
            match world.node(1).pop() {
                Some(ShmMsg::Am {
                    frames, sent_at_ns, ..
                }) => {
                    world.delivered(1, false, 64, now, sent_at_ns);
                    world.node(1).pool().recycle_frames(frames);
                }
                other => panic!("expected the active message just sent, got {other:?}"),
            }
        }
        per_op(elapsed_ns(t0), MSGS as f64)
    })
    .ns
}

/// 64 chains of 256 empty tasks on one node: no communication, no kernels,
/// only the scheduler's release, queue and countdown work.
fn empty_task_graph() -> TaskGraph {
    const CHAINS: u64 = 64;
    const LEN: usize = 256;
    let mut g = GraphBuilder::new(1);
    for c in 0..CHAINS {
        g.data(c, 8, 0, None);
    }
    for _ in 0..LEN {
        for c in 0..CHAINS {
            g.insert(TaskDesc::new("empty").on_node(0).read_key(c).write(c, 8));
        }
    }
    g.build()
}

fn one_node_cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 1,
        workers_per_node: 8,
        mode: ExecMode::CostOnly,
        ..Default::default()
    })
}

/// `core` virtual protocol: `Cluster::execute` of the empty-task graph.
pub fn core_sched(budget_s: f64) -> Sample {
    steady(budget_s, || {
        let graph = empty_task_graph();
        let mut cluster = one_node_cluster();
        let t0 = Instant::now();
        let report = cluster.execute(graph);
        let ns = elapsed_ns(t0);
        assert!(report.complete(), "core_sched probe incomplete");
        Sample {
            events: report.sim_events as f64 / report.tasks_executed as f64,
            ..per_op(ns, report.tasks_executed as f64)
        }
    })
}

/// `core` real protocol: the same graph through `Cluster::execute_real`.
/// Returns thread-nanoseconds (wall × threads) per task, and pool jobs per
/// task in `events`.
pub fn core_real(threads: usize, budget_s: f64) -> Sample {
    steady(budget_s, || {
        let graph = empty_task_graph();
        let mut cluster = one_node_cluster();
        let t0 = Instant::now();
        let report = cluster.execute_real(graph, threads);
        let ns = elapsed_ns(t0) * threads as f64;
        assert!(report.complete(), "core_real probe incomplete");
        let jobs = report.pool.as_ref().map_or(0, |p| p.spawns());
        Sample {
            events: jobs as f64 / report.tasks_executed as f64,
            ..per_op(ns, report.tasks_executed as f64)
        }
    })
}

/// `core` graph builder: nanoseconds per task to build the workload's
/// shape without payloads or kernels.
pub fn graph_build(plan: &Plan, budget_s: f64) -> f64 {
    steady(budget_s, || {
        let t0 = Instant::now();
        let graph = plan.cost_only_graph();
        per_op(elapsed_ns(t0), graph.task_count() as f64)
    })
    .ns
}

/// `exec`: empty jobs — 8 roots spawned from outside, each deferring 2048
/// children from inside a worker. Thread-nanoseconds per job.
pub fn exec_job(threads: usize, budget_s: f64) -> f64 {
    const ROOTS: usize = 8;
    const CHILDREN: usize = 2048;
    let pool = Pool::new(threads, 1);
    steady(budget_s, || {
        let t0 = Instant::now();
        for _ in 0..ROOTS {
            pool.spawn(Box::new(|sub| {
                for _ in 0..CHILDREN {
                    sub.defer(Box::new(|_| {}));
                }
            }));
        }
        pool.run_until_idle();
        per_op(
            elapsed_ns(t0) * threads as f64,
            (ROOTS * (CHILDREN + 1)) as f64,
        )
    })
    .ns
}

fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17 + salt) as f64).sin())
}

/// How many calls make a batch of about 10 ms at a guessed 1 GFLOP/s.
fn calls_per_batch(flops_per_call: f64) -> usize {
    ((1e7 / flops_per_call) as usize).clamp(1, 10_000)
}

/// `linalg`: GFLOP/s of a `ts × ts` GEMM (`C = A·Bᵀ`).
pub fn gemm_gflops(ts: usize, budget_s: f64) -> f64 {
    let (a, b) = (test_matrix(ts, ts, 0), test_matrix(ts, ts, 7));
    let flops = 2.0 * (ts as f64).powi(3);
    let calls = calls_per_batch(flops);
    let ns = steady(budget_s, || {
        let mut c = Matrix::zeros(ts, ts);
        let t0 = Instant::now();
        for _ in 0..calls {
            gemm(1.0, &a, Trans::No, &b, Trans::Yes, 0.0, &mut c);
            std::hint::black_box(&mut c);
        }
        per_op(elapsed_ns(t0), calls as f64)
    })
    .ns;
    flops / ns
}

/// `linalg`: GFLOP/s of a `ts × ts` Cholesky factorization.
pub fn potrf_gflops(ts: usize, budget_s: f64) -> f64 {
    let a = test_matrix(ts, ts, 3);
    let mut spd = Matrix::zeros(ts, ts);
    gemm(1.0, &a, Trans::No, &a, Trans::Yes, 0.0, &mut spd);
    for i in 0..ts {
        spd.add_assign_at(i, i, ts as f64);
    }
    let flops = (ts as f64).powi(3) / 3.0;
    let calls = calls_per_batch(flops);
    let ns = steady(budget_s, || {
        let t0 = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(potrf(std::hint::black_box(&spd)).expect("SPD by construction"));
        }
        per_op(elapsed_ns(t0), calls as f64)
    })
    .ns;
    flops / ns
}

/// An off-diagonal tile of the workload's covariance matrix, next to the
/// diagonal (the highest-rank kind).
fn offdiag_block(plan: &Plan) -> Matrix {
    let p = plan.tlr_problem();
    let grid = Grid2d::new(p.n);
    sqexp_covariance(
        &grid,
        p.tile_size,
        0,
        p.tile_size,
        p.tile_size,
        p.length_scale,
        0.0,
    )
}

/// `tlr`: microseconds per low-rank update (`LrTile::add_truncate`) of a
/// workload tile by a rank-`rank` product — the GEMM task's kernel.
pub fn lr_update_us(plan: &Plan, rank: usize, budget_s: f64) -> f64 {
    const CALLS: usize = 20;
    let p = plan.tlr_problem();
    let tile = LrTile::compress(&offdiag_block(plan), p.tol, p.maxrank);
    let (w, z) = (
        test_matrix(p.tile_size, rank.max(1), 1),
        test_matrix(p.tile_size, rank.max(1), 5),
    );
    steady(budget_s, || {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(tile.add_truncate(&w, &z, p.tol, p.maxrank));
        }
        per_op(elapsed_ns(t0), CALLS as f64)
    })
    .ns / 1e3
}

/// `tlr`: microseconds to compress one workload tile (`LrTile::compress`),
/// the dominant cost of building a Numeric problem.
pub fn compress_us(plan: &Plan, budget_s: f64) -> f64 {
    const CALLS: usize = 10;
    let p = plan.tlr_problem();
    let block = offdiag_block(plan);
    steady(budget_s, || {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(LrTile::compress(&block, p.tol, p.maxrank));
        }
        per_op(elapsed_ns(t0), CALLS as f64)
    })
    .ns / 1e3
}
