//! Ablation benches for the design choices DESIGN.md §7 calls out, run on
//! communication-bound workloads so the knobs actually bind:
//!
//! 1. ACTIVATE aggregation on/off (fine-grained ping-pong) — §4.3 duty #1.
//! 2. The MPI backend's 30-concurrent-transfer cap — §4.2.2 trade-off.
//! 3. LCI's dedicated progress thread vs sharing the communication core —
//!    undoing §5.3.1.
//! 4. The LCI eager-put-in-handshake optimization — §5.3.3.
//! 5. Fabric chunk size (model robustness).
//! 6. Multithreaded ACTIVATE (§6.4.3) on the TLR workload.
//!
//! Each ablation's points are independent simulations, swept across
//! `--jobs N` worker threads; rows always print in parameter order.

use amt_bench::pingpong::{run_pingpong, run_pingpong_cluster, PingPongCfg};
use amt_bench::table::{banner, cell, header, row};
use amt_bench::tlrrun::{run_tlr, TlrRunCfg};
use amt_bench::{harness_args, jobs_arg, run_sweep, ObsSink};
use amt_comm::{BackendKind, EngineConfig};
use amt_core::{ClusterConfig, ExecMode};
use amt_netmodel::FabricConfig;
use amt_tlr::{TlrCholesky, TlrProblem};

fn cluster_cfg(backend: BackendKind) -> ClusterConfig {
    ClusterConfig {
        mode: ExecMode::CostOnly,
        ..ClusterConfig::expanse(backend, 2)
    }
}

fn main() {
    let args = harness_args();
    ObsSink::install(&args);
    let jobs = jobs_arg(&args);

    banner("Ablation 1: ACTIVATE aggregation (ping-pong, 16 KiB fragments, Gbit/s)");
    header(&[("backend", 9), ("aggregated", 11), ("disabled", 9)]);
    let backends = [BackendKind::Lci, BackendKind::Mpi];
    let rows1 = run_sweep(&backends, jobs, |&backend| {
        let cfg = PingPongCfg::bandwidth(16 * 1024, 1, true, 4);
        let on = run_pingpong(backend, &cfg).gbit_per_s;
        let mut ccfg = cluster_cfg(backend);
        ccfg.engine.agg_max_bytes = 0;
        let off = run_pingpong_cluster(&cfg, ccfg).gbit_per_s;
        (on, off)
    });
    for (backend, (on, off)) in backends.iter().zip(rows1) {
        row(&[
            cell(format!("{backend:?}"), 9),
            cell(format!("{on:.1}"), 11),
            cell(format!("{off:.1}"), 9),
        ]);
    }
    println!();
    println!("without aggregation the MPI backend's five persistent receives per tag are");
    println!("overrun; the unexpected queue grows and matching cost spirals (§4.3).");

    banner("Ablation 2: MPI concurrent-transfer cap (ping-pong 128 KiB, Gbit/s; paper: 30)");
    header(&[("cap", 6), ("bandwidth", 10)]);
    let caps = [5usize, 30, 120, 1000];
    let bws = run_sweep(&caps, jobs, |&cap| {
        let cfg = PingPongCfg::bandwidth(128 * 1024, 1, true, 4);
        let mut ccfg = cluster_cfg(BackendKind::Mpi);
        ccfg.engine.max_concurrent_transfers = cap;
        run_pingpong_cluster(&cfg, ccfg).gbit_per_s
    });
    for (cap, bw) in caps.iter().zip(bws) {
        row(&[cell(format!("{cap}"), 6), cell(format!("{bw:.1}"), 10)]);
    }

    banner("Ablation 3: LCI progress thread placement (ping-pong, Gbit/s)");
    header(&[("granularity", 12), ("dedicated", 10), ("shared", 8)]);
    let grans = [16usize, 64, 256];
    let rows3 = run_sweep(&grans, jobs, |&kib| {
        let cfg = PingPongCfg::bandwidth(kib * 1024, 1, true, 4);
        let dedicated = run_pingpong(BackendKind::Lci, &cfg).gbit_per_s;
        let mut ccfg = cluster_cfg(BackendKind::Lci);
        ccfg.engine.lci_shared_progress = true;
        let shared = run_pingpong_cluster(&cfg, ccfg).gbit_per_s;
        (dedicated, shared)
    });
    for (kib, (dedicated, shared)) in grans.iter().zip(rows3) {
        row(&[
            cell(format!("{kib} KiB"), 12),
            cell(format!("{dedicated:.1}"), 10),
            cell(format!("{shared:.1}"), 8),
        ]);
    }

    banner("Ablation 4: LCI eager put in handshake (ping-pong 2 KiB fragments, Gbit/s)");
    header(&[("eager max", 10), ("bandwidth", 10)]);
    let eager = [4096usize, 0];
    let bws4 = run_sweep(&eager, jobs, |&max| {
        let cfg = PingPongCfg {
            frag_bytes: 2048,
            window: 8192,
            streams: 1,
            iters: 4,
            sync: true,
            fma_per_elem: 0.0,
        };
        let mut ccfg = cluster_cfg(BackendKind::Lci);
        ccfg.engine.eager_put_max = max;
        run_pingpong_cluster(&cfg, ccfg).gbit_per_s
    });
    for (max, bw) in eager.iter().zip(bws4) {
        row(&[cell(format!("{max}"), 10), cell(format!("{bw:.2}"), 10)]);
    }

    banner("Ablation 5: fabric chunk size (ping-pong 256 KiB, LCI, Gbit/s; default 64 KiB)");
    header(&[("chunk KiB", 10), ("bandwidth", 10)]);
    let chunks = [16usize, 64, 256];
    let bws5 = run_sweep(&chunks, jobs, |&chunk| {
        let cfg = PingPongCfg::bandwidth(256 * 1024, 1, true, 4);
        let mut ccfg = cluster_cfg(BackendKind::Lci);
        ccfg.fabric = FabricConfig {
            chunk_bytes: chunk * 1024,
            ..FabricConfig::expanse(2)
        };
        run_pingpong_cluster(&cfg, ccfg).gbit_per_s
    });
    for (chunk, bw) in chunks.iter().zip(bws5) {
        row(&[cell(format!("{chunk}"), 10), cell(format!("{bw:.1}"), 10)]);
    }

    banner("Ablation 6: §7 direct LCI put vs handshake emulation (ping-pong, Gbit/s)");
    header(&[
        ("granularity", 12),
        ("handshake", 10),
        ("direct put", 11),
        ("delta", 7),
    ]);
    let grans6 = [8usize, 16, 64, 256];
    let rows6 = run_sweep(&grans6, jobs, |&kib| {
        let cfg = PingPongCfg::bandwidth(kib * 1024, 1, true, 4);
        let hs = run_pingpong(BackendKind::Lci, &cfg).gbit_per_s;
        let direct = run_pingpong(BackendKind::LciDirect, &cfg).gbit_per_s;
        (hs, direct)
    });
    for (kib, (hs, direct)) in grans6.iter().zip(rows6) {
        row(&[
            cell(format!("{kib} KiB"), 12),
            cell(format!("{hs:.1}"), 10),
            cell(format!("{direct:.1}"), 11),
            cell(format!("{:+.0}%", (direct / hs - 1.0) * 100.0), 7),
        ]);
    }
    println!();
    println!("direct put removes the RTR round-trip from every rendezvous transfer, so the");
    println!("saving is a fixed per-fragment latency: large at small granularity, washed");
    println!("out once wire time dominates (§7).");

    banner("Ablation 7: §7 multiple LCI progress threads (ping-pong 16 KiB, Gbit/s)");
    header(&[("threads", 8), ("bandwidth", 10)]);
    let threads = [1usize, 2, 4];
    let bws7 = run_sweep(&threads, jobs, |&t| {
        let cfg = PingPongCfg::bandwidth(16 * 1024, 2, true, 4);
        let mut ccfg = cluster_cfg(BackendKind::Lci);
        ccfg.engine.lci_progress_threads = t;
        run_pingpong_cluster(&cfg, ccfg).gbit_per_s
    });
    for (t, bw) in threads.iter().zip(bws7) {
        row(&[cell(format!("{t}"), 8), cell(format!("{bw:.1}"), 10)]);
    }

    banner("Ablation 8: binomial multicast tree for wide broadcasts (TLR, 16 nodes)");
    header(&[("bcast", 8), ("tts s", 8), ("ctl-lat us", 11)]);
    let trees = [("star", None), ("tree>=4", Some(4usize))];
    let rows8 = run_sweep(&trees, jobs, |&(_, tree)| {
        let problem = TlrProblem::new(72_000, 1800);
        let (_, graph) = TlrCholesky::build_cost_only(problem, 16);
        let mut ccfg = ClusterConfig {
            mode: ExecMode::CostOnly,
            get_window_bytes: 2 << 20,
            bcast_tree_min: tree,
            ..ClusterConfig::expanse(BackendKind::Lci, 16)
        };
        ccfg.engine.agg_max_bytes = 8192;
        let mut cluster = amt_core::Cluster::new(ccfg);
        let r = cluster.execute(graph);
        assert!(r.complete());
        (r.makespan.as_secs_f64(), r.request_latency_us.mean())
    });
    for (&(label, _), (tts, lat)) in trees.iter().zip(rows8) {
        row(&[
            cell(label, 8),
            cell(format!("{tts:.3}"), 8),
            cell(format!("{lat:.1}"), 11),
        ]);
    }

    banner("Ablation 9: multithreaded ACTIVATE (TLR ctl latency us, 8 nodes, ts=1200)");
    header(&[("backend", 9), ("funneled", 9), ("multithreaded", 14)]);
    let points9: Vec<(BackendKind, bool)> = [BackendKind::Lci, BackendKind::Mpi]
        .into_iter()
        .flat_map(|b| [(b, false), (b, true)])
        .collect();
    let rows9 = run_sweep(&points9, jobs, |&(backend, mt)| {
        run_tlr(&TlrRunCfg {
            backend,
            nodes: 8,
            n: 72_000,
            tile_size: 1200,
            multithread_am: mt,
        })
        .req_us
    });
    for pair in points9.iter().zip(&rows9).collect::<Vec<_>>().chunks(2) {
        let ((backend, _), funneled) = pair[0];
        let (_, multithreaded) = pair[1];
        row(&[
            cell(format!("{backend:?}"), 9),
            cell(format!("{funneled:.1}"), 9),
            cell(format!("{multithreaded:.1}"), 14),
        ]);
    }
    let _ = EngineConfig::default();
}
