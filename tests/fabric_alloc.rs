//! A warmed fabric moves a multi-chunk message without touching the
//! allocator: chunk records come from the fabric's slab, per-chunk events
//! capture two words and stay inline, and the delivery event builds its
//! `Delivery` in place. One test in a binary of its own, so the
//! process-wide counter counts nothing else.

use std::cell::Cell;
use std::rc::Rc;

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_netmodel::{rx_handler, Fabric, FabricConfig, Payload};
use amt_simnet::{Sim, SimTime};
use bytes::Bytes;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The engine's ladder ring spans `1024 << 12` ns; a send this much later
/// than an identical one lands every event in a bucket the first warmed.
const RING_PERIOD: SimTime = SimTime::from_ns(1024 << 12);

#[test]
fn second_multi_chunk_send_allocates_nothing() {
    let cfg = FabricConfig::expanse(2);
    let mut sim = Sim::new();
    let fab = Fabric::new(cfg.clone());
    let delivered = Rc::new(Cell::new(0usize));
    let d2 = delivered.clone();
    fab.borrow_mut().set_handler(
        1,
        rx_handler(move |_, d| d2.set(d2.get() + d.payload.data_len())),
    );
    let data = Bytes::from(vec![7u8; 3 * cfg.chunk_bytes + 100]);
    assert_eq!(cfg.chunks_of(data.len()), 4);

    let send = |sim: &mut Sim| {
        let snap = AllocSnapshot::now();
        Fabric::send(
            &fab,
            sim,
            0,
            1,
            data.len(),
            Payload::Bytes(data.clone()),
            None,
        );
        sim.run();
        snap.since().allocs
    };
    let first = send(&mut sim);
    assert!(first >= 1, "the counting allocator is not installed");
    sim.schedule_at(RING_PERIOD, |_| {});
    sim.run();
    assert_eq!(send(&mut sim), 0);
    assert_eq!(delivered.get(), 2 * data.len());
}
