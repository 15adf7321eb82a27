//! Figure 4: HiCMA TLR Cholesky on 16 nodes, scaling the tile size from
//! 6000×6000 down to 1200×1200 (st-2d-sqexp, maxrank 150, accuracy 1e-8,
//! band size 1, two-flow algorithm).
//!
//! * Fig. 4a — time-to-solution per tile size, LCI vs Open MPI.
//! * Fig. 4b — mean end-to-end communication latency (ACTIVATE send → data
//!   arrival), including the multithreaded-ACTIVATE variants (§6.4.3).
//!
//! Default N is scaled to 72 000 (the paper's 360 000 with `-- --full`);
//! the tile-size axis is identical.

use amt_bench::table::{banner, cell, header, row};
use amt_bench::tlrrun::{run_tlr, TlrRunCfg, N_FULL, N_SCALED, TILE_SIZES};
use amt_bench::{backend_arg, full_scale, harness_args, jobs_arg, run_sweep, ObsSink};
use amt_comm::BackendKind;

/// `-- --golden [--jobs N]`: run one fixed, scaled fig4 point on every
/// backend and print the exact virtual-time results (integer nanoseconds).
/// verify.sh diffs this output against `results/golden_fig4.txt` — at
/// several `--jobs` settings — to prove engine changes alter no
/// virtual-time behaviour and that the sweep runner's parallelism cannot
/// leak into results.
fn golden_point(jobs: usize) {
    println!("golden fig4 point: N=24000 nodes=4 ts=3000 mt=false");
    let backends = [BackendKind::Lci, BackendKind::LciDirect, BackendKind::Mpi];
    let cfgs: Vec<TlrRunCfg> = backends
        .iter()
        .map(|&backend| TlrRunCfg {
            backend,
            nodes: 4,
            n: 24_000,
            tile_size: 3000,
            multithread_am: false,
        })
        .collect();
    let runs = run_sweep(&cfgs, jobs, run_tlr);
    for (backend, r) in backends.iter().zip(runs) {
        println!(
            "{backend} makespan_ns={} tasks={} e2e_us={:.6} msg_us={:.6} req_us={:.6}",
            r.makespan_ns, r.tasks, r.e2e_us, r.msg_us, r.req_us
        );
    }
}

fn main() {
    let args = harness_args();
    if args.iter().any(|a| a == "--golden") {
        golden_point(jobs_arg(&args));
        return;
    }
    ObsSink::install(&args);
    let full = full_scale(&args);
    let n = if full { N_FULL } else { N_SCALED };
    let nodes = 16;
    // The figure compares an LCI variant against the Open MPI baseline;
    // `--backend lci-direct` swaps the §7 direct-put backend into the LCI
    // series.
    let lci_kind = match backend_arg(&args) {
        None => BackendKind::Lci,
        Some(BackendKind::Mpi) => {
            panic!("fig4 always includes the MPI baseline; pass --backend lci|lci-direct")
        }
        Some(b) => b,
    };

    println!("TLR Cholesky st-2d-sqexp, N = {n}, {nodes} nodes, maxrank 150, acc 1e-8, band 1");
    println!("LCI series backend: {lci_kind}");

    // Every (tile, backend, mt) point is an independent simulation; sweep
    // them across `--jobs` workers and regroup in configuration order.
    let mut points = Vec::new();
    for &ts in &TILE_SIZES {
        for backend in [lci_kind, BackendKind::Mpi] {
            for mt in [false, true] {
                points.push(TlrRunCfg {
                    backend,
                    nodes,
                    n,
                    tile_size: ts,
                    multithread_am: mt,
                });
            }
        }
    }
    let runs = run_sweep(&points, jobs_arg(&args), run_tlr);
    let mut results: Vec<(usize, Vec<(BackendKind, bool, _)>)> = Vec::new();
    for (cfg, r) in points.into_iter().zip(runs) {
        if results.last().map(|(ts, _)| *ts) != Some(cfg.tile_size) {
            results.push((cfg.tile_size, Vec::new()));
        }
        results
            .last_mut()
            .expect("pushed above")
            .1
            .push((cfg.backend, cfg.multithread_am, r));
    }

    banner("Figure 4a: time-to-solution (s)");
    header(&[
        ("tile", 6),
        ("LCI", 9),
        ("Open MPI", 9),
        ("LCI MT", 9),
        ("MPI MT", 9),
    ]);
    for (ts, per_ts) in &results {
        let find = |b: BackendKind, mt: bool| {
            per_ts
                .iter()
                .find(|(bb, mm, _)| *bb == b && *mm == mt)
                .map(|(_, _, r)| r)
                .expect("run present")
        };
        row(&[
            cell(format!("{ts}"), 6),
            cell(format!("{:.3}", find(lci_kind, false).tts_s), 9),
            cell(format!("{:.3}", find(BackendKind::Mpi, false).tts_s), 9),
            cell(format!("{:.3}", find(lci_kind, true).tts_s), 9),
            cell(format!("{:.3}", find(BackendKind::Mpi, true).tts_s), 9),
        ]);
    }

    banner("Figure 4b: mean communication latency (us)");
    println!("control-path latency = ACTIVATE send -> GET DATA arrival at owner (the paper's");
    println!("software-latency regime); e2e additionally includes the bulk transfer+queueing.");
    println!();
    header(&[
        ("tile", 6),
        ("LCI", 9),
        ("Open MPI", 9),
        ("LCI MT", 9),
        ("MPI MT", 9),
        ("LCI e2e", 9),
        ("MPI e2e", 9),
    ]);
    for (ts, per_ts) in &results {
        let find = |b: BackendKind, mt: bool| {
            per_ts
                .iter()
                .find(|(bb, mm, _)| *bb == b && *mm == mt)
                .map(|(_, _, r)| r)
                .expect("run present")
        };
        row(&[
            cell(format!("{ts}"), 6),
            cell(format!("{:.1}", find(lci_kind, false).req_us), 9),
            cell(format!("{:.1}", find(BackendKind::Mpi, false).req_us), 9),
            cell(format!("{:.1}", find(lci_kind, true).req_us), 9),
            cell(format!("{:.1}", find(BackendKind::Mpi, true).req_us), 9),
            cell(format!("{:.1}", find(lci_kind, false).e2e_us), 9),
            cell(format!("{:.1}", find(BackendKind::Mpi, false).e2e_us), 9),
        ]);
    }

    banner("§6.4 headline numbers");
    // Best tile per backend (funneled).
    let best = |b: BackendKind| {
        results
            .iter()
            .map(|(ts, per)| {
                let r = per
                    .iter()
                    .find(|(bb, mm, _)| *bb == b && !*mm)
                    .map(|(_, _, r)| r)
                    .expect("run present");
                (*ts, r.tts_s)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
    };
    let (lci_ts, lci_tts) = best(lci_kind);
    let (mpi_ts, mpi_tts) = best(BackendKind::Mpi);
    println!("best LCI: ts={lci_ts} tts={lci_tts:.3}s | best MPI: ts={mpi_ts} tts={mpi_tts:.3}s");
    println!(
        "LCI speedup over MPI at respective bests: {:.1}% (paper: up to 12%)",
        (mpi_tts / lci_tts - 1.0) * 100.0
    );
    // Latency reduction at every tile size.
    let mut max_red = 0.0f64;
    for (_, per) in &results {
        let lci = per
            .iter()
            .find(|(b, m, _)| *b == lci_kind && !m)
            .expect("lci")
            .2
            .req_us;
        let mpi = per
            .iter()
            .find(|(b, m, _)| *b == BackendKind::Mpi && !m)
            .expect("mpi")
            .2
            .req_us;
        if mpi > 0.0 {
            max_red = max_red.max(1.0 - lci / mpi);
        }
    }
    println!(
        "max LCI control-path latency reduction vs MPI: {:.0}% (paper: >50% end-to-end)",
        max_red * 100.0
    );
    // Multithreading effects at the smallest tile (paper: LCI −46% e2e
    // latency, −10% tts at ts=1200; MPI neutral or negative).
    let (ts0, per0) = &results[0];
    let g = |b: BackendKind, mt: bool| {
        per0.iter()
            .find(|(bb, mm, _)| *bb == b && *mm == mt)
            .map(|(_, _, r)| r)
            .expect("run present")
    };
    println!(
        "ts={ts0} LCI multithreaded ACTIVATE: ctl-latency {:+.0}%, tts {:+.1}% (paper: -46% e2e, -10% tts)",
        (g(lci_kind, true).req_us / g(lci_kind, false).req_us - 1.0) * 100.0,
        (g(lci_kind, true).tts_s / g(lci_kind, false).tts_s - 1.0) * 100.0,
    );
    println!(
        "ts={ts0} MPI multithreaded ACTIVATE: ctl-latency {:+.0}%, tts {:+.1}% (paper: ~neutral/negative)",
        (g(BackendKind::Mpi, true).req_us / g(BackendKind::Mpi, false).req_us - 1.0) * 100.0,
        (g(BackendKind::Mpi, true).tts_s / g(BackendKind::Mpi, false).tts_s - 1.0) * 100.0,
    );
}
