//! Message-rate benchmark → `BENCH_msgrate.json`.
//!
//! The paper's §5 scaling wall is *control-plane* message rate: the flat
//! per-consumer ACTIVATE unicast and the per-put GET traffic dominate at
//! high node counts. This bench measures what the engine-level AM batching
//! window and the multicast activation trees buy there: **control messages
//! on the wire** (AM sends across all engines — ACTIVATE, GET, COLL) and
//! **time to solution**, for three engine configurations of the same
//! workload:
//!
//! * `flat` — seed defaults: every record is its own wire message, every
//!   announce a direct unicast.
//! * `batched` — the per-(destination, tag) rate-limit window, capped at
//!   the engine's 8 KiB aggregation limit (`agg_max_bytes`), coalesces
//!   same-destination ACTIVATE/GET records into one message (cold links
//!   flush at their own instant, hot links at one message per window).
//! * `batched_tree` — batching plus k-ary multicast activation trees for
//!   wide fan-outs.
//!
//! Data puts are reported alongside (`data_puts`) but not folded into the
//! gated count: a put is the payload delivery itself — dataflow semantics
//! require one per consumer, so no control-plane mechanism can merge them;
//! they are bandwidth-bound, not injection-rate-bound.
//!
//! Two workloads: a wide-fan-out CostOnly TLR Cholesky (`tlr_wide` — panel
//! columns broadcast to the whole node row) and the 5-point stencil halo
//! exchange (`stencil`, narrow fan-out — the contrast case, where batching
//! finds little to coalesce). Everything runs in virtual time on the LCI
//! backend, so results are deterministic and repeat exactly.
//!
//! verify.sh gates on `tlr_wide`: `batched_tree` must put **≥ 2× fewer
//! control messages on the wire** than `flat` at **≤ 1.05× its time to
//! solution**.
//!
//! Flags: `--quick` (smoke sizes for CI), `--out <path>`.

use amt_bench::harness_args;
use amt_bench::stencil::build_stencil;
use amt_comm::BackendKind;
use amt_core::{Cluster, ClusterConfig, ExecMode, RunReport, TileDist2d};
use amt_tlr::{TlrCholesky, TlrProblem};

/// One engine configuration under measurement.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Flat,
    Batched,
    BatchedTree,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Flat, Mode::Batched, Mode::BatchedTree];

    fn slug(self) -> &'static str {
        match self {
            Mode::Flat => "flat",
            Mode::Batched => "batched",
            Mode::BatchedTree => "batched_tree",
        }
    }

    /// Overlay this mode's knobs on a base configuration. The 500 µs
    /// rate-limit window caps each hot link at one message per window;
    /// since cold links flush at their own instant, sporadic critical-path
    /// sends pay no latency and time to solution stays within noise of
    /// flat while sustained ACTIVATE/GET streams coalesce 2.5×+.
    fn configure(self, mut cfg: ClusterConfig) -> ClusterConfig {
        match self {
            Mode::Flat => {}
            Mode::Batched => {
                cfg.engine = cfg.engine.clone().with_batching(500_000);
            }
            Mode::BatchedTree => {
                cfg.engine = cfg.engine.clone().with_batching(500_000);
                cfg.bcast_tree_min = Some(2);
                cfg.multicast_k = Some(4);
            }
        }
        cfg
    }
}

/// Wire-level outcome of one run.
struct Measure {
    /// Control-plane AM messages put on the wire (ACTIVATE/GET/COLL).
    msgs_on_wire: u64,
    /// AM records submitted above the batching layer — identical across
    /// modes; `msgs_on_wire / records` is the coalescing factor.
    records_submitted: u64,
    /// Payload deliveries — one per consumer by dataflow semantics,
    /// identical across modes.
    data_puts: u64,
    tts_s: f64,
    tasks: u64,
}

fn measure(report: &RunReport) -> Measure {
    let mut msgs = 0u64;
    let mut recs = 0u64;
    let mut puts = 0u64;
    for s in &report.engine_stats {
        msgs += s.am_sent.get();
        recs += s.am_submitted.get();
        puts += s.puts_started.get();
    }
    Measure {
        msgs_on_wire: msgs,
        records_submitted: recs,
        data_puts: puts,
        tts_s: report.makespan.as_secs_f64(),
        tasks: report.tasks_executed,
    }
}

/// Wide-fan-out CostOnly TLR Cholesky: every panel column broadcasts to
/// the whole node set, the pattern the multicast trees target.
fn run_tlr_wide(mode: Mode, quick: bool) -> Measure {
    let (nodes, n, ts) = if quick {
        (8usize, 24_000, 500)
    } else {
        (16usize, 48_000, 500)
    };
    let problem = TlrProblem::new(n, ts);
    let (_, graph) = TlrCholesky::build_cost_only(problem, nodes);
    let cfg = mode.configure(ClusterConfig {
        mode: ExecMode::CostOnly,
        get_window_bytes: 2 << 20,
        ..ClusterConfig::expanse(BackendKind::Lci, nodes)
    });
    let mut cluster = Cluster::new(cfg);
    let report = cluster.execute(graph);
    assert!(report.complete(), "tlr_wide {} incomplete", mode.slug());
    measure(&report)
}

/// 5-point stencil halo exchange: nearest-neighbour dataflows, narrow
/// fan-out — batching territory, no wide broadcasts.
fn run_stencil(mode: Mode, quick: bool) -> Measure {
    let (nodes, tiles, sweeps) = if quick {
        (8usize, 12u64, 4u64)
    } else {
        (16usize, 16u64, 8u64)
    };
    let dist = TileDist2d::square_grid(tiles, tiles, nodes);
    let graph = build_stencil(tiles, 512, sweeps, &dist);
    let cfg = mode.configure(ClusterConfig {
        mode: ExecMode::CostOnly,
        ..ClusterConfig::expanse(BackendKind::Lci, nodes)
    });
    let mut cluster = Cluster::new(cfg);
    let report = cluster.execute(graph);
    assert!(report.complete(), "stencil {} incomplete", mode.slug());
    measure(&report)
}

fn main() {
    let args = harness_args();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = {
        let mut it = args.iter();
        let mut path = String::from("BENCH_msgrate.json");
        while let Some(a) = it.next() {
            if a == "--out" {
                path = it.next().expect("--out requires a value").clone();
            } else if let Some(v) = a.strip_prefix("--out=") {
                path = v.to_string();
            }
        }
        path
    };

    let mut json = String::from("{\n  \"schema\": \"amtlc-bench-msgrate-v1\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n  \"scenarios\": {{\n"));

    type Runner = fn(Mode, bool) -> Measure;
    let scenarios: [(&str, Runner); 2] = [("tlr_wide", run_tlr_wide), ("stencil", run_stencil)];
    let n_scen = scenarios.len();
    for (si, (name, run)) in scenarios.into_iter().enumerate() {
        println!("== {name}: messages on the wire vs time to solution ==");
        let results: Vec<(Mode, Measure)> =
            Mode::ALL.into_iter().map(|m| (m, run(m, quick))).collect();
        let flat = &results[0].1;
        // Batching and trees must not change what is computed or delivered:
        // same tasks, same records, same payload deliveries, fewer messages.
        assert!(results.iter().all(|(_, r)| r.tasks == flat.tasks));
        assert!(results
            .iter()
            .all(|(_, r)| r.records_submitted == flat.records_submitted
                && r.data_puts == flat.data_puts));
        json.push_str(&format!("    \"{name}\": {{\n"));
        for (i, (mode, r)) in results.iter().enumerate() {
            let reduction = flat.msgs_on_wire as f64 / r.msgs_on_wire as f64;
            let time_ratio = r.tts_s / flat.tts_s;
            println!(
                "{:<13} {:>8} ctl msgs ({:>8} records, {:>7} puts)  tts {:>7.3} s   {:>5.2}x fewer msgs, {:>5.3}x time",
                mode.slug(),
                r.msgs_on_wire,
                r.records_submitted,
                r.data_puts,
                r.tts_s,
                reduction,
                time_ratio
            );
            json.push_str(&format!(
                "      \"{}\": {{\"msgs_on_wire\": {}, \"records_submitted\": {}, \"data_puts\": {}, \"tts_s\": {:.6}, \"reduction_vs_flat\": {:.3}, \"time_vs_flat\": {:.4}}}{}\n",
                mode.slug(),
                r.msgs_on_wire,
                r.records_submitted,
                r.data_puts,
                r.tts_s,
                reduction,
                time_ratio,
                if i + 1 == results.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!(
            "    }}{}\n",
            if si + 1 == n_scen { "" } else { "," }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_msgrate.json");
    println!("wrote {out_path}");
}
