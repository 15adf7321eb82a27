//! Table 1: hardware and software configuration — printed for the
//! *simulated* platform, side by side with the paper's real one.

use amt_comm::{EngineConfig, AM_BATCH, AM_RECV_DEPTH};
use amt_core::CostModel;
use amt_netmodel::FabricConfig;

fn main() {
    let fab = FabricConfig::expanse(2);
    let eng = EngineConfig::default();
    let cost = CostModel::default();

    println!("Table 1: simulated platform configuration (paper values in parentheses)");
    println!("------------------------------------------------------------------------");
    println!("CPU               modelled EPYC 7742-class   (2x AMD EPYC 7742)");
    println!(
        "Cores             128 @ {} GFLOP/s DP/core   (128 @ 2.25 GHz)",
        cost.gflops_per_worker
    );
    println!(
        "NIC bandwidth     {} Gbit/s per direction    (2x 50 Gb/s HDR InfiniBand)",
        fab.nic_bandwidth_gbps
    );
    println!(
        "Wire latency      {}                      (hybrid fat tree, ~1 us class)",
        fab.wire_latency
    );
    println!(
        "NIC msg overhead  {} per message, {} per {}-KiB chunk",
        fab.per_message_overhead,
        fab.per_chunk_overhead,
        fab.chunk_bytes / 1024
    );
    println!("Backends          MiniMPI (Open MPI 4.1.5/UCX model) | LCI (v1.7 model)");
    println!(
        "MPI backend       {} persistent recvs/tag, {} concurrent transfers",
        AM_RECV_DEPTH, eng.max_concurrent_transfers
    );
    println!(
        "LCI backend       progress thread on own core, {} AM completions/round,",
        AM_BATCH
    );
    println!(
        "                  eager puts <= {} B, AM aggregation <= {} B",
        eng.eager_put_max, eng.agg_max_bytes
    );
    println!(
        "Task overhead     {}  (scheduling cost per task)",
        cost.task_overhead
    );
    println!("Workers/node      127 (MPI) / 126 (LCI) on multi-node runs; 128 single-node");
}
