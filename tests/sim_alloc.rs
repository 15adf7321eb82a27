//! The simulated wire hands records over as values: a put handshake and
//! an ACTIVATE or GET DATA record wait in a slab and travel as their slot
//! id, an immediate frame, so no message allocates a buffer for its
//! record, and a warmed active message or put allocates nothing on any
//! backend; nor does windowed discovery allocate per task descriptor.
//! Four cases, one binary with its own counting allocator; the
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
/// the runtime's `PutCb`), paced 100 µs apart on a 2-node world: no
/// backend allocates per put. A handshake encoded into a buffer cost two
/// allocations on every backend (an `Arc` and its `Vec`). MPI made four
/// more. Three were `Testsome` result vectors, one from each sweep that
/// found one of the put's requests complete; the backend now collects
/// completions into the queue it keeps. The fourth was the posted-receive
/// bucket of the data receive's tag, a tag of its own per put; a new
/// bucket now reuses the buffer of one a match emptied.
#[test]
fn a_put_handshake_allocates_no_buffer() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const PUTS: usize = 256;
    for backend in BackendKind::ALL {
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
        assert_eq!(allocs, 0, "{backend}: allocations over {PUTS} puts");
    }
}

/// Warmed 64-byte active messages paced 5 µs apart on a 2-node world, so
/// each one takes the whole per-message path (submission, framing, fabric,
/// progress, delivery) on its own: no backend allocates per message. Every
/// send hands over a clone of one payload built before the count, and the
/// handler drops the frames. MPI made one allocation per message, the
/// result vector of the `Testsome` sweep that finds its receive complete.
#[test]
fn an_active_message_allocates_no_buffer() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const MSGS: usize = 512;
    for backend in BackendKind::ALL {
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::expanse(2));
        let engines = CommWorld::create(&mut sim, &fabric, EngineConfig::for_backend(backend));
        engines[1].register_am(&mut sim, 1, Rc::new(|_sim, _eng, _ev| SimTime::ZERO));
        let payload = Rc::new(Bytes::from(vec![7u8; 64]));
        let burst = |sim: &mut Sim| {
            for i in 0..MSGS {
                let (src, payload) = (engines[0].clone(), payload.clone());
                sim.schedule_in(SimTime::from_ns(5_000 * i as u64), move |sim| {
                    src.send_am(sim, 1, 1, 64, Some((*payload).clone()));
                });
            }
            sim.run();
        };
        burst(&mut sim);
        let received0 = engines[1].stats().am_received.get();
        let snap = AllocSnapshot::now();
        burst(&mut sim);
        let allocs = snap.since().allocs;
        let received = engines[1].stats().am_received.get() - received0;
        assert_eq!(received, MSGS as u64, "{backend}");
        assert_eq!(allocs, 0, "{backend}: allocations over {MSGS} messages");
    }
}

/// Allocations per task of the second windowed, flyweight, cost-only LCI
/// run of a TLR Cholesky (`nt` × `nt` tiles of 1 200) on one warmed
/// cluster of `nodes`.
fn warmed_windowed_tlr_allocs_per_task(nodes: usize, nt: usize, window: usize) -> f64 {
    let ts = 1200;
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
    allocs_per_task()
}

/// The benchmark's quick `sim_scale` shape (64 nodes, 12 × 12 tiles, a
/// 150-task window): 2.87 allocations per task. Encoded handshakes missed
/// the engine's pool on every put (a buffer taken at the origin, freed at
/// the target): 11.53 per task with them. Each task descriptor's `reads`
/// and `writes` vectors and the window's superseded-version feed (a
/// fresh vector per refill) made it 6.06.
#[test]
fn a_windowed_tlr_run_allocates_no_record_buffer() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_task = warmed_windowed_tlr_allocs_per_task(64, 12, 150);
    assert!(per_task <= 3.0, "{per_task:.3} allocations per task");
}

/// 256 nodes, 24 × 24 tiles, a 1 000-task window: 1.59 allocations per
/// task, 4.98 with per-descriptor vectors and the per-refill superseded
/// feed.
#[test]
fn a_windowed_run_on_256_nodes_allocates_under_two_per_task() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_task = warmed_windowed_tlr_allocs_per_task(256, 24, 1000);
    assert!(per_task <= 1.7, "{per_task:.3} allocations per task");
}
