//! Wall-clock microbenchmarks: engine throughput and kernel speed of the
//! substrates themselves (performance of the simulator and libraries, not
//! virtual-time results).
//!
//! Self-timed (median of repeated runs) rather than criterion-based so the
//! workspace builds offline with no external dev-dependencies.
//!
//! ## Engine suite → `BENCH_engine.json`
//!
//! The first section drives the engine ([`Sim`]: a monotone radix queue of
//! inline [`amt_simnet::EventFn`] bodies in one slab) and the in-tree seed
//! engine ([`RefSim`]: boxed closures on a heap) through identical event
//! patterns, and writes per-scenario `ns/event`, `events/sec` and the
//! `ref`-over-engine speedup to `BENCH_engine.json` at the workspace root.
//! The `ref` column is `RefSim`, so the speedup measures what inline event
//! bodies in a radix queue buy over boxed closures on a heap. Every future
//! change has a perf trajectory to regress against.
//!
//! Flags:
//! * `--quick` — smoke mode: tiny event counts, 3 samples (used by
//!   `scripts/verify.sh` to validate the JSON schema, not the numbers);
//! * `--out <path>` — write the JSON elsewhere;
//! * `--engine-only` — skip the kernel/library benchmarks.

use amt_bench::harness_args;
use amt_bench::tlrrun::{run_tlr, TlrRunCfg};
use amt_comm::{BackendKind, CommWorld, EngineConfig};
use amt_lci::{LciCosts, LciWorld};
use amt_linalg::{gemm, potrf, qr_thin, sqexp_covariance, svd_truncate, Grid2d, Matrix, Trans};
use amt_minimpi::{MpiCosts, MpiWorld, SrcSel};
use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::reference::RefSim;
use amt_simnet::rng::DetRng;
use amt_simnet::{Sim, SimTime};
use amt_tlr::LrTile;
use std::rc::Rc;
use std::time::Instant;

/// Runs `f` `samples` times (plus one warm-up) and returns the median
/// wall-clock seconds.
fn median_secs<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    times[times.len() / 2]
}

/// Median-of-samples wall-clock printer for the kernel benchmarks.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let mut times: Vec<f64> = Vec::with_capacity(10);
    for _ in 0..10 {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let median = times[times.len() / 2];
    let (lo, hi) = (times[0], times[times.len() - 1]);
    println!("{name:<40} {median:>10.3} ms   [{lo:.3} .. {hi:.3}]");
}

/// `bench` for kernels of tens of microseconds: one sample is 100 calls.
fn bench100<R>(name: &str, mut f: impl FnMut() -> R) {
    bench(&format!("{name} x100"), || {
        for _ in 0..100 {
            std::hint::black_box(f());
        }
    });
}

/// One engine-suite measurement.
struct Scenario {
    name: &'static str,
    events: u64,
    ns_per_event: f64,
    /// Seed-engine ns/event on the same pattern, when expressible there.
    ref_ns_per_event: Option<f64>,
}

impl Scenario {
    fn events_per_sec(&self) -> f64 {
        1e9 / self.ns_per_event
    }
    fn speedup(&self) -> Option<f64> {
        self.ref_ns_per_event.map(|r| r / self.ns_per_event)
    }
}

/// Measure `run(n)` (which must execute exactly its returned event count).
fn measure(
    name: &'static str,
    samples: usize,
    n: u64,
    run: impl Fn(u64) -> u64,
    reference: Option<&dyn Fn(u64) -> u64>,
) -> Scenario {
    let events = run(n);
    let secs = median_secs(samples, || run(n));
    let ns_per_event = secs * 1e9 / events as f64;
    let ref_ns_per_event = reference.map(|r| {
        let rev = r(n);
        median_secs(samples, || r(n)) * 1e9 / rev as f64
    });
    Scenario {
        name,
        events,
        ns_per_event,
        ref_ns_per_event,
    }
}

/// Tight chain of near-future events: the simulator's hottest pattern
/// (progress polls, NIC serialization). One pending event at a time.
fn churn_chain(n: u64) -> u64 {
    let mut sim = Sim::new();
    fn chain(sim: &mut Sim, left: u64) {
        if left > 0 {
            sim.schedule_in(SimTime::from_ns(10), move |sim| chain(sim, left - 1));
        }
    }
    chain(&mut sim, n);
    sim.run();
    sim.events_executed()
}

fn churn_chain_ref(n: u64) -> u64 {
    let mut sim = RefSim::new();
    fn chain(sim: &mut RefSim, left: u64) {
        if left > 0 {
            sim.schedule_in(SimTime::from_ns(10), move |sim| chain(sim, left - 1));
        }
    }
    chain(&mut sim, n);
    sim.run();
    sim.events_executed()
}

/// Preload a big pseudorandom batch spanning near and far horizons, then
/// drain it: the queue-discipline stress (large pending set, arbitrary
/// insertion order).
fn preload_drain(n: u64) -> u64 {
    let mut sim = Sim::new();
    let mut rng = DetRng::seed_from_u64(42);
    for _ in 0..n {
        let at = SimTime::from_ns(rng.gen_range(0..16_000_000));
        sim.schedule_at(at, |_| {});
    }
    sim.run();
    sim.events_executed()
}

fn preload_drain_ref(n: u64) -> u64 {
    let mut sim = RefSim::new();
    let mut rng = DetRng::seed_from_u64(42);
    for _ in 0..n {
        let at = SimTime::from_ns(rng.gen_range(0..16_000_000));
        sim.schedule_at(at, |_| {});
    }
    sim.run();
    sim.events_executed()
}

/// Same-instant bursts through the `schedule_now` fast path (callback
/// cascades, waiter wakeups): each step event fans out 8 now-events.
fn now_burst(n: u64) -> u64 {
    let mut sim = Sim::new();
    fn step(sim: &mut Sim, left: u64) {
        if left == 0 {
            return;
        }
        for _ in 0..8 {
            sim.schedule_now(|_| {});
        }
        sim.schedule_in(SimTime::from_ns(50), move |sim| step(sim, left - 1));
    }
    step(&mut sim, n / 9);
    sim.run();
    sim.events_executed()
}

fn now_burst_ref(n: u64) -> u64 {
    let mut sim = RefSim::new();
    fn step(sim: &mut RefSim, left: u64) {
        if left == 0 {
            return;
        }
        for _ in 0..8 {
            sim.schedule_now(|_| {});
        }
        sim.schedule_in(SimTime::from_ns(50), move |sim| step(sim, left - 1));
    }
    step(&mut sim, n / 9);
    sim.run();
    sim.events_executed()
}

/// Alternating near hops and multi-millisecond jumps: a sparse timeline
/// with one pending event.
fn mixed_horizon(n: u64) -> u64 {
    let mut sim = Sim::new();
    fn hop(sim: &mut Sim, left: u64) {
        if left == 0 {
            return;
        }
        let delay = if left.is_multiple_of(16) {
            SimTime::from_ms(6)
        } else {
            SimTime::from_ns(200)
        };
        sim.schedule_in(delay, move |sim| hop(sim, left - 1));
    }
    hop(&mut sim, n);
    sim.run();
    sim.events_executed()
}

fn mixed_horizon_ref(n: u64) -> u64 {
    let mut sim = RefSim::new();
    fn hop(sim: &mut RefSim, left: u64) {
        if left == 0 {
            return;
        }
        let delay = if left.is_multiple_of(16) {
            SimTime::from_ms(6)
        } else {
            SimTime::from_ns(200)
        };
        sim.schedule_in(delay, move |sim| hop(sim, left - 1));
    }
    hop(&mut sim, n);
    sim.run();
    sim.events_executed()
}

fn engine_suite(quick: bool, out: &std::path::Path) {
    let samples = if quick { 3 } else { 10 };
    let scale: u64 = if quick { 2_000 } else { 100_000 };

    println!(
        "{:<28} {:>8} {:>12} {:>14} {:>10} {:>9}",
        "engine scenario", "events", "ns/event", "events/sec", "ref ns/ev", "speedup"
    );
    let mut scenarios = vec![measure(
        "churn_chain_near",
        samples,
        scale,
        churn_chain,
        Some(&churn_chain_ref),
    )];
    scenarios.push(measure(
        "churn_preload_drain",
        samples,
        scale / 2,
        preload_drain,
        Some(&preload_drain_ref),
    ));
    scenarios.push(measure(
        "schedule_now_burst",
        samples,
        scale,
        now_burst,
        Some(&now_burst_ref),
    ));
    scenarios.push(measure(
        "mixed_horizon",
        samples,
        scale / 2,
        mixed_horizon,
        Some(&mixed_horizon_ref),
    ));

    // One real workload point (the golden fig4 configuration) so the suite
    // tracks end-to-end simulator throughput, not just queue microcosms.
    {
        let cfg = TlrRunCfg {
            backend: BackendKind::Lci,
            nodes: 4,
            n: if quick { 12_000 } else { 24_000 },
            tile_size: 3000,
            multithread_am: false,
        };
        let mut events = 0u64;
        let secs = median_secs(if quick { 1 } else { 3 }, || {
            let r = run_tlr(&cfg);
            events = r.sim_events;
            r
        });
        scenarios.push(Scenario {
            name: "fig4_point",
            events,
            ns_per_event: secs * 1e9 / events as f64,
            ref_ns_per_event: None,
        });
    }

    for s in &scenarios {
        println!(
            "{:<28} {:>8} {:>12.2} {:>14.3e} {:>10} {:>9}",
            s.name,
            s.events,
            s.ns_per_event,
            s.events_per_sec(),
            s.ref_ns_per_event.map_or("-".into(), |r| format!("{r:.2}")),
            s.speedup().map_or("-".into(), |x| format!("{x:.2}x")),
        );
    }

    // Hand-rolled JSON (offline build: no serde).
    let mut json = String::from("{\n  \"schema\": \"amtlc-bench-engine-v1\",\n");
    json.push_str(&format!(
        "  \"quick\": {quick},\n  \"samples\": {samples},\n"
    ));
    json.push_str("  \"scenarios\": {\n");
    for (i, s) in scenarios.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"events\": {}, \"ns_per_event\": {:.3}, \"events_per_sec\": {:.1}",
            s.name,
            s.events,
            s.ns_per_event,
            s.events_per_sec()
        ));
        if let (Some(r), Some(x)) = (s.ref_ns_per_event, s.speedup()) {
            json.push_str(&format!(
                ", \"ref_ns_per_event\": {r:.3}, \"speedup\": {x:.3}"
            ));
        }
        json.push_str(if i + 1 == scenarios.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("  }\n}\n");
    std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    println!("\nengine suite written to {}", out.display());
}

fn fabric_message_rate() {
    bench("netmodel/10k_small_messages", || {
        let mut sim = Sim::new();
        let fab = Fabric::new(FabricConfig::expanse(2));
        fab.borrow_mut()
            .set_handler(1, amt_netmodel::rx_handler(|_, _| {}));
        for _ in 0..10_000 {
            Fabric::send(&fab, &mut sim, 0, 1, 64, amt_netmodel::Payload::Empty, None);
        }
        sim.run();
    });
}

fn minimpi_matching() {
    for depth in [10usize, 100, 1000] {
        bench(&format!("minimpi/unexpected_scan/depth_{depth}"), || {
            let mut sim = Sim::new();
            let fabric = Fabric::new(FabricConfig::expanse(2));
            let ranks = MpiWorld::create(&fabric, MpiCosts::default());
            for i in 0..depth as u64 {
                ranks[0].send(&mut sim, 1, 1000 + i, 32, bytes::Frames::Empty);
            }
            sim.run();
            // Drain the incoming queue into the unexpected queue.
            let (r, _) = ranks[1].irecv(&mut sim, SrcSel::Any, 1);
            let _ = ranks[1].test(&mut sim, r);
            // The measured operation: post a non-matching receive (full
            // unexpected-queue scan). Setup dominates; the relative cost
            // across depths is what matters.
            let (r, cost) = ranks[1].irecv(&mut sim, SrcSel::Any, 2);
            ranks[1].release(r);
            cost
        });
    }
}

fn lci_op_issue() {
    bench("lci/sendb_issue_100", || {
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::expanse(2));
        let eps = LciWorld::create(&fabric, LciCosts::default());
        eps[1].set_am_handler(|_, _| SimTime::ZERO);
        for _ in 0..100 {
            eps[0]
                .sendb(&mut sim, 1, 0, 1024, bytes::Frames::Empty)
                .expect("sendb");
        }
        sim.run();
    });
}

fn comm_engine_am_roundtrip() {
    for cfg in EngineConfig::all_backends() {
        bench(&format!("comm/1k_am_roundtrips/{}", cfg.backend), || {
            let mut sim = Sim::new();
            let fabric = Fabric::new(FabricConfig::expanse(2));
            let engines = CommWorld::create(&mut sim, &fabric, cfg.clone());
            engines[1].register_am(&mut sim, 1, Rc::new(|_s, _e, _ev| SimTime::ZERO));
            for _ in 0..1000 {
                engines[0].send_am_opts(&mut sim, 1, 1, 64, None, false);
            }
            sim.run();
        });
    }
}

/// Tile `(i, j)` of the benchmark of record's `real_tlr` problem
/// (n = 1024, ts = 32), compressed at its tolerance: the rows below time
/// the shapes that workload has, not round numbers.
fn workload_tile(i: usize, j: usize) -> LrTile {
    let grid = Grid2d::new(1024);
    let block = sqexp_covariance(&grid, 32 * i, 32 * j, 32, 32, 0.1, 0.0);
    LrTile::compress(&block, 1e-8, 150)
}

/// The `W·Zᵀ` a GEMM task adds to tile `(i, j)` at step `k`:
/// `−U_ik·(V_ikᵀ·V_jk)·U_jkᵀ`.
fn workload_update(i: usize, j: usize, k: usize) -> (Matrix, Matrix) {
    let (a, b) = (workload_tile(i, k), workload_tile(j, k));
    let mut small = Matrix::zeros(a.rank(), b.rank());
    gemm(1.0, &a.v, Trans::Yes, &b.v, Trans::No, 0.0, &mut small);
    let mut w = Matrix::zeros(32, b.rank());
    gemm(-1.0, &a.u, Trans::No, &small, Trans::No, 0.0, &mut w);
    (w, b.u)
}

fn linalg_kernels() {
    let a = Matrix::from_fn(32, 32, |i, j| ((i * 31 + j * 17) as f64).sin());
    let spd = {
        let mut s = Matrix::zeros(32, 32);
        gemm(1.0, &a, Trans::No, &a, Trans::Yes, 0.0, &mut s);
        for i in 0..32 {
            s.add_assign_at(i, i, 32.0);
        }
        s
    };
    bench100("linalg/gemm_32_nt", || {
        let mut out = Matrix::zeros(32, 32);
        gemm(1.0, &a, Trans::No, &a, Trans::Yes, 0.0, &mut out);
        out
    });
    bench100("linalg/gemm_32_tn", || {
        let mut out = Matrix::zeros(32, 32);
        gemm(1.0, &a, Trans::Yes, &a, Trans::No, 0.0, &mut out);
        out
    });
    bench100("linalg/potrf_32", || potrf(&spd).expect("spd"));
    // The stacked factors [U W] of a rounded addition, and the core
    // Ru·Rvᵀ its SVD sees.
    let (c, (w, z)) = (workload_tile(2, 1), workload_update(2, 1, 0));
    let stack = |x: &Matrix, y: &Matrix| {
        Matrix::from_vec(32, x.cols() + y.cols(), [x.data(), y.data()].concat())
    };
    let (su, sv) = (stack(&c.u, &w), stack(&c.v, &z));
    bench100(&format!("linalg/qr_32x{}", su.cols()), || qr_thin(&su));
    let (ru, rv) = (qr_thin(&su).1, qr_thin(&sv).1);
    let mut core = Matrix::zeros(ru.rows(), rv.rows());
    gemm(1.0, &ru, Trans::No, &rv, Trans::Yes, 0.0, &mut core);
    bench100("linalg/svd_truncate_core_32", || {
        svd_truncate(&core, 1e-8, 150)
    });
}

fn tlr_compression() {
    let grid = Grid2d::new(1024);
    let block = sqexp_covariance(&grid, 32, 0, 32, 32, 0.1, 0.0);
    bench100("tlr/compress_32", || LrTile::compress(&block, 1e-8, 150));
    // Wide stacks (k1 + k2 > ts) next to the diagonal, narrow ones far away.
    for (i, j) in [(2, 1), (24, 12)] {
        let (c, (w, z)) = (workload_tile(i, j), workload_update(i, j, 0));
        bench100(
            &format!("tlr/add_truncate_32_r{}+{}", c.rank(), w.cols()),
            || c.add_truncate(&w, &z, 1e-8, 150),
        );
    }
}

fn main() {
    let args = harness_args();
    let quick = args.iter().any(|a| a == "--quick");
    let engine_only = args.iter().any(|a| a == "--engine-only");
    let out = {
        let mut it = args.iter();
        let mut path = None;
        while let Some(a) = it.next() {
            if a == "--out" {
                path = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| panic!("--out requires a path")),
                ));
            } else if let Some(v) = a.strip_prefix("--out=") {
                path = Some(std::path::PathBuf::from(v));
            }
        }
        path.unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
        })
    };

    engine_suite(quick, &out);

    if quick || engine_only {
        return;
    }
    println!();
    println!("{:<40} {:>13}   [min .. max]", "benchmark", "median");
    fabric_message_rate();
    minimpi_matching();
    lci_op_issue();
    comm_engine_am_roundtrip();
    linalg_kernels();
    tlr_compression();
}
