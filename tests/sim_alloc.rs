//! The simulated wire hands records over as values: a put handshake and
//! an ACTIVATE or GET DATA record wait in a slab and travel as their slot
//! id, an immediate frame, so no message allocates a buffer for its
//! record. Two cases, one binary with its own counting allocator; the
//! cases take turns, so the process-wide counters count one at a time.

use std::rc::Rc;
use std::sync::Mutex;

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_comm::{BackendKind, CommWorld, EngineConfig, PutRequest};
use amt_core::{Cluster, ClusterConfig, ExecMode};
use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::{Sim, SimTime};
use amt_tlr::{TlrCholeskySource, TlrProblem};
use bytes::Bytes;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Warmed cost-only rendezvous puts (256 KiB, 16 bytes of callback data,
/// the runtime's `PutCb`), paced 100 µs apart on a 2-node world: the
/// allocations left per put are the library's and the engine's own
/// bookkeeping, MPI 4, LCI and LCI-direct none. A handshake encoded into a
/// buffer cost two more on every backend (an `Arc` and its `Vec`: 6, 2
/// and 2 per put).
#[test]
fn a_put_handshake_allocates_no_buffer() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const PUTS: usize = 256;
    for (backend, bound) in [
        (BackendKind::Mpi, 4.0),
        (BackendKind::Lci, 0.0),
        (BackendKind::LciDirect, 0.0),
    ] {
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::expanse(2));
        let engines = CommWorld::create(&mut sim, &fabric, EngineConfig::for_backend(backend));
        engines[1].register_onesided(1, Rc::new(|_sim, _eng, _ev| SimTime::ZERO));
        let burst = |sim: &mut Sim| {
            for i in 0..PUTS {
                let src = engines[0].clone();
                sim.schedule_in(SimTime::from_ns(100_000 * i as u64), move |sim| {
                    src.put(
                        sim,
                        PutRequest {
                            dst: 1,
                            size: 256 << 10,
                            data: None,
                            r_tag: 1,
                            cb_data: Bytes::inline(&[7u8; 16]).expect("fits the handle"),
                            on_local: Box::new(|_s, _e| SimTime::ZERO),
                        },
                    );
                });
            }
            sim.run();
        };
        burst(&mut sim);
        let done0 = engines[1].stats().puts_remote_done.get();
        let snap = AllocSnapshot::now();
        burst(&mut sim);
        let allocs = snap.since().allocs;
        let done = engines[1].stats().puts_remote_done.get() - done0;
        assert_eq!(done, PUTS as u64, "{backend}");
        let per_put = allocs as f64 / PUTS as f64;
        assert!(
            per_put <= bound + 0.05,
            "{backend}: {per_put:.3} allocations per put (bound {bound})"
        );
    }
}

/// The second windowed, flyweight LCI run of a `sim_scale`-shaped TLR
/// Cholesky (64 nodes, 12 × 12 tiles, a 150-task window: the benchmark's
/// quick shape) on one warmed cluster: 6.06 allocations per task, most of
/// them windowed discovery's task descriptors. Encoded handshakes missed
/// the engine's pool on every put (a buffer taken at the origin, freed at
/// the target): 11.53 per task with them.
#[test]
fn a_windowed_tlr_run_allocates_no_record_buffer() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, nt, ts, window) = (64, 12, 1200, 150);
    let mut cluster = Cluster::new(ClusterConfig {
        flyweight: true,
        mode: ExecMode::CostOnly,
        get_window_bytes: 2 << 20,
        ..ClusterConfig::expanse(BackendKind::Lci, nodes)
    });
    let mut allocs_per_task = || {
        let source = TlrCholeskySource::cost_only(TlrProblem::new(nt * ts, ts), nodes);
        let snap = AllocSnapshot::now();
        let report = cluster.execute_windowed(Box::new(source), window);
        let allocs = snap.since().allocs;
        assert!(report.complete());
        allocs as f64 / report.tasks_total as f64
    };
    allocs_per_task();
    let second = allocs_per_task();
    assert!(second < 7.0, "{second:.3} allocations per task");
}
