//! A 2-D five-point stencil with halo exchange — the classic
//! communication-bound pattern the paper's introduction motivates — run as
//! a task graph over the simulated cluster, strong-scaled over node counts.
//!
//! The domain is split into a grid of tiles (one task per tile per sweep);
//! each sweep's task reads its own tile plus the four neighbour tiles from
//! the previous sweep, so tile boundaries crossing node boundaries become
//! runtime dataflows.
//!
//! ```sh
//! cargo run --release --example stencil
//! ```

use amtlc::bench::stencil::build_stencil;
use amtlc::bench::{comm_tuning_args, threads_arg, threads_arg_opt, ObsSink};
use amtlc::comm::BackendKind;
use amtlc::core::{Cluster, ClusterConfig, ExecMode, TileDist2d};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ObsSink::install(&args);
    // An explicit --threads directs the observability flags at the real
    // execution below instead of the first simulated backend.
    let threads_flag = threads_arg_opt(&args);
    // --batch-window-ns / --multicast-k: message-layer tuning, applied
    // identically to every backend and the real run.
    let tuning = comm_tuning_args(&args);
    let tiles = 16u64; // 16×16 tile grid
    let tile_elems = 512; // 512² doubles per tile (2 MiB)
    let sweeps = 8;
    println!("2-D 5-point stencil, {tiles}x{tiles} tiles of {tile_elems}^2 f64, {sweeps} sweeps");
    if !tuning.is_default() {
        println!("comm tuning: {}", tuning.describe());
    }
    println!();
    println!(
        "{:>6} {:>13} {:>13} {:>13} {:>10} {:>10} {:>10}",
        "nodes", "LCI", "LCI-direct", "MPI", "LCI us", "direct us", "MPI us"
    );
    for nodes in [1usize, 2, 4, 8, 16] {
        let mut row = Vec::new();
        for backend in [BackendKind::Lci, BackendKind::LciDirect, BackendKind::Mpi] {
            let dist = TileDist2d::square_grid(tiles, tiles, nodes);
            let graph = build_stencil(tiles, tile_elems, sweeps, &dist);
            let mut cfg = ClusterConfig {
                mode: ExecMode::CostOnly,
                ..ClusterConfig::expanse(backend, nodes)
            };
            tuning.apply(&mut cfg);
            if threads_flag.is_none() {
                ObsSink::arm(&mut cfg);
            }
            let mut cluster = Cluster::new(cfg);
            let report = cluster.execute(graph);
            assert!(report.complete());
            ObsSink::capture(&cluster, &report);
            row.push((
                report.makespan,
                if report.e2e_latency_us.count() > 0 {
                    report.e2e_latency_us.mean()
                } else {
                    0.0
                },
            ));
        }
        println!(
            "{:>6} {:>13} {:>13} {:>13} {:>10.1} {:>10.1} {:>10.1}",
            nodes,
            format!("{}", row[0].0),
            format!("{}", row[1].0),
            format!("{}", row[2].0),
            row[0].1,
            row[1].1,
            row[2].1
        );
    }
    println!("\nHalo dataflows become runtime ACTIVATE/GET DATA/put traffic; more nodes");
    println!("mean more halo crossings, and the lighter LCI path keeps latency lower");
    println!("(the §7 direct put lower still).");

    // Real execution: a smaller sweep set (cost-only tasks are empty, so
    // this exercises protocol + scheduling overhead) on the thread pool.
    let threads = threads_arg(&args);
    let nodes = 4;
    let dist = TileDist2d::square_grid(8, 8, nodes);
    let graph = build_stencil(8, tile_elems, 2, &dist);
    let mut cfg = ClusterConfig {
        mode: ExecMode::CostOnly,
        ..ClusterConfig::expanse(BackendKind::Lci, nodes)
    };
    tuning.apply(&mut cfg);
    // Arm unconditionally: a no-op once the virtual sweep has captured,
    // so this records the real run only under an explicit --threads.
    ObsSink::arm(&mut cfg);
    let mut cluster = Cluster::new(cfg);
    let report = cluster.execute_real(graph, threads);
    assert!(report.complete());
    ObsSink::capture(&cluster, &report);
    println!(
        "\nreal execution ({threads} thread(s)): 8x8 tiles, 2 sweeps on {nodes} nodes — \
         {} tasks, {} halo flows, wall-clock {}",
        report.tasks_executed,
        report.e2e_latency_us.count(),
        report.makespan
    );
}
