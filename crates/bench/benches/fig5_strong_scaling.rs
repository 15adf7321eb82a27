//! Figure 5 + Table 2: TLR Cholesky strong scaling, 1 → 32 nodes.
//!
//! The problem size is fixed; the tile size shrinks as nodes are added to
//! keep enough parallelism. Three series, as in the paper:
//!   * LCI at its best tile size,
//!   * Open MPI at the *same* tile size LCI prefers,
//!   * Open MPI at its own best tile size ("Open MPI (best)").
//!
//! `-- --sweep` finds the best tile size per (backend, nodes) by sweeping
//! the Fig. 4 tile-size axis and prints Table 2 from the measurements;
//! the default uses the paper's Table 2 entries directly.

use amt_bench::table::{banner, cell, header, row};
use amt_bench::tlrrun::{run_tlr, TlrRunCfg, TlrRunResult, N_FULL, N_SCALED, TILE_SIZES};
use amt_bench::{backend_arg, full_scale, harness_args, jobs_arg, run_sweep, ObsSink};
use amt_comm::BackendKind;

const NODE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Table 2 of the paper: tile size with the lowest time-to-solution.
const PAPER_BEST_MPI: [usize; 6] = [4500, 4500, 3600, 3000, 3000, 3000];
const PAPER_BEST_LCI: [usize; 6] = [4500, 4500, 3600, 3000, 2400, 1800];

fn main() {
    let args = harness_args();
    ObsSink::install(&args);
    let full = full_scale(&args);
    let sweep = args.iter().any(|a| a == "--sweep");
    let n = if full { N_FULL } else { N_SCALED };
    // `--backend lci-direct` swaps the §7 direct-put backend into the LCI
    // series; Open MPI stays the baseline either way.
    let lci_kind = match backend_arg(&args) {
        None => BackendKind::Lci,
        Some(BackendKind::Mpi) => {
            panic!("fig5 always includes the MPI baseline; pass --backend lci|lci-direct")
        }
        Some(b) => b,
    };

    println!("TLR Cholesky strong scaling, N = {n}, maxrank 150, acc 1e-8, band 1");
    println!("LCI series backend: {lci_kind}");

    let jobs = jobs_arg(&args);
    let cfg_of = |backend: BackendKind, nodes: usize, ts: usize| TlrRunCfg {
        backend,
        nodes,
        n,
        tile_size: ts,
        multithread_am: false,
    };

    // Phase 1: the per-(backend, nodes) tile-size candidates — the full
    // Fig. 4 axis under `--sweep`, otherwise the paper's Table 2 entry —
    // swept in parallel across `--jobs` workers. Every run is a pure
    // function of its configuration, so results can be reused wherever the
    // same point is needed again and the output matches the sequential
    // (re-running) harness byte for byte.
    let mut phase1: Vec<TlrRunCfg> = Vec::new();
    for (i, &nodes) in NODE_COUNTS.iter().enumerate() {
        for (backend, fallback) in [
            (lci_kind, PAPER_BEST_LCI[i]),
            (BackendKind::Mpi, PAPER_BEST_MPI[i]),
        ] {
            if sweep {
                phase1.extend(TILE_SIZES.iter().map(|&ts| cfg_of(backend, nodes, ts)));
            } else {
                phase1.push(cfg_of(backend, nodes, fallback));
            }
        }
    }
    let results1 = run_sweep(&phase1, jobs, run_tlr);
    let lookup = |pool: &[(TlrRunCfg, TlrRunResult)], backend, nodes, ts| -> Option<TlrRunResult> {
        pool.iter()
            .find(|(c, _)| c.backend == backend && c.nodes == nodes && c.tile_size == ts)
            .map(|(_, r)| r.clone())
    };
    let pool1: Vec<(TlrRunCfg, TlrRunResult)> = phase1.into_iter().zip(results1).collect();
    let best_for = |backend: BackendKind, nodes: usize| -> (usize, f64) {
        pool1
            .iter()
            .filter(|(c, _)| c.backend == backend && c.nodes == nodes)
            .map(|(c, r)| (c.tile_size, r.tts_s))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("phase 1 covered this (backend, nodes)")
    };

    // Phase 2: points that depend on LCI's chosen tile size (MPI at that
    // size) and were not already covered by phase 1.
    let mut phase2: Vec<TlrRunCfg> = Vec::new();
    for &nodes in &NODE_COUNTS {
        let (lci_ts, _) = best_for(lci_kind, nodes);
        if lookup(&pool1, BackendKind::Mpi, nodes, lci_ts).is_none() {
            phase2.push(cfg_of(BackendKind::Mpi, nodes, lci_ts));
        }
    }
    let results2 = run_sweep(&phase2, jobs, run_tlr);
    let pool2: Vec<(TlrRunCfg, TlrRunResult)> = phase2.into_iter().zip(results2).collect();

    let mut table2: Vec<(usize, usize, usize)> = Vec::new();
    let mut rows = Vec::new();
    for &nodes in &NODE_COUNTS {
        let (lci_ts, lci_tts) = best_for(lci_kind, nodes);
        let (mpi_best_ts, mpi_best_tts) = best_for(BackendKind::Mpi, nodes);
        let mpi_at_lci_run = lookup(&pool1, BackendKind::Mpi, nodes, lci_ts)
            .or_else(|| lookup(&pool2, BackendKind::Mpi, nodes, lci_ts))
            .expect("phase 2 covered MPI at LCI's tile size");
        // Latency series at LCI's tile size.
        let lci_lat = lookup(&pool1, lci_kind, nodes, lci_ts)
            .expect("phase 1 covered LCI at its best tile size")
            .req_us;
        let mpi_lat = mpi_at_lci_run.req_us;
        table2.push((nodes, mpi_best_ts, lci_ts));
        rows.push((
            nodes,
            lci_ts,
            lci_tts,
            mpi_at_lci_run.tts_s,
            mpi_best_ts,
            mpi_best_tts,
            lci_lat,
            mpi_lat,
        ));
    }

    banner("Figure 5a: time-to-solution (s)");
    header(&[
        ("nodes", 6),
        ("LCI", 9),
        ("Open MPI", 9),
        ("MPI(best)", 10),
        ("LCI ts", 7),
        ("MPI ts", 7),
    ]);
    for &(nodes, lci_ts, lci_tts, mpi_at_lci, mpi_ts, mpi_best, _, _) in &rows {
        row(&[
            cell(format!("{nodes}"), 6),
            cell(format!("{lci_tts:.3}"), 9),
            cell(format!("{mpi_at_lci:.3}"), 9),
            cell(format!("{mpi_best:.3}"), 10),
            cell(format!("{lci_ts}"), 7),
            cell(format!("{mpi_ts}"), 7),
        ]);
    }

    banner("Figure 5b: mean control-path communication latency (us), at LCI's tile size");
    header(&[("nodes", 6), ("LCI", 9), ("Open MPI", 9)]);
    for &(nodes, _, _, _, _, _, lci_lat, mpi_lat) in &rows {
        if nodes == 1 {
            continue; // no inter-node communication
        }
        row(&[
            cell(format!("{nodes}"), 6),
            cell(format!("{lci_lat:.1}"), 9),
            cell(format!("{mpi_lat:.1}"), 9),
        ]);
    }

    banner("Table 2: tile size with lowest time-to-solution");
    header(&[("nodes", 6), ("Open MPI", 9), ("LCI", 9)]);
    for &(nodes, mpi_ts, lci_ts) in &table2 {
        row(&[
            cell(format!("{nodes}"), 6),
            cell(format!("{mpi_ts}"), 9),
            cell(format!("{lci_ts}"), 9),
        ]);
    }
    if !sweep {
        println!();
        println!("(tile sizes taken from the paper's Table 2; run with -- --sweep to re-derive)");
    }
}
