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

/// Idle virtual time before the second send, so it runs at clock values
/// the first never reached: the warmed state it reuses (the fabric's chunk
/// slab, the engine's queues) must not depend on the clock.
const IDLE_GAP: SimTime = SimTime::from_ms(4);

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
    sim.schedule_in(IDLE_GAP, |_| {});
    sim.run();
    assert_eq!(send(&mut sim), 0);
    assert_eq!(delivered.get(), 2 * data.len());
}
