//! Warmed messages through the simulated libraries allocate nothing: wire
//! records live in each world's slab and travel as ids, LCI completions
//! name handlers registered once, LCI's matching FIFOs are links in a
//! per-endpoint slab, and MPI's match queues keep their capacity. Each
//! scenario runs three identical rounds and pins the third round's count.
//! One test in a binary of its own, so the process-wide counter counts
//! nothing else.

use std::cell::Cell;
use std::rc::Rc;

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_lci::{Lci, LciCosts, LciWorld, OnComplete};
use amt_minimpi::{MpiCosts, MpiWorld, SrcSel};
use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::{Sim, SimTime};
use bytes::Frames;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROUNDS: usize = 3;

/// Run the simulation, progressing every endpoint with work, until the
/// queue and both endpoints are drained.
fn drive(sim: &mut Sim, eps: &[Lci]) {
    loop {
        let mut progressed = false;
        for ep in eps.iter().filter(|ep| ep.has_work()) {
            ep.progress(sim);
            progressed = true;
        }
        if !sim.step() && !progressed {
            break;
        }
    }
}

/// Allocations of each of [`ROUNDS`] runs of `round`.
fn per_round(mut round: impl FnMut(usize)) -> Vec<u64> {
    (0..ROUNDS)
        .map(|r| {
            let snap = AllocSnapshot::now();
            round(r);
            snap.since().allocs
        })
        .collect()
}

/// 32 buffered sends into the AM handler, which frees each packet.
fn lci_sendb_rounds() -> Vec<u64> {
    const BURST: usize = 32;
    let mut sim = Sim::new();
    let eps = LciWorld::create(&Fabric::new(FabricConfig::expanse(2)), LciCosts::default());
    let seen = Rc::new(Cell::new(0usize));
    let (ep1, seen_in) = (eps[1].downgrade(), seen.clone());
    eps[1].set_am_handler(move |sim, m| {
        seen_in.set(seen_in.get() + 1);
        if m.owns_packet {
            ep1.upgrade().expect("world alive").buffer_free(sim);
        }
        SimTime::ZERO
    });
    let counts = per_round(|r| {
        for _ in 0..BURST {
            eps[0]
                .sendb(&mut sim, 1, 0, 1024, Frames::Empty)
                .expect("burst fits the transmit pool");
        }
        drive(&mut sim, &eps);
        assert_eq!(seen.get(), (r + 1) * BURST);
    });
    assert_eq!(eps[0].wires_in_flight(), 0);
    counts
}

/// 8 rendezvous transfers on the same 8 rendezvous tags every round, the
/// receive posted first; both sides complete through a handler.
fn lci_rendezvous_rounds() -> Vec<u64> {
    const PUTS: u64 = 8;
    let mut sim = Sim::new();
    let eps = LciWorld::create(&Fabric::new(FabricConfig::expanse(2)), LciCosts::default());
    let done = Rc::new(Cell::new(0u64));
    let count = |ep: &Lci| {
        let done = done.clone();
        OnComplete::Handler(ep.handler_new(move |_, _| {
            done.set(done.get() + 1);
            SimTime::ZERO
        }))
    };
    let (on_recv, on_sent) = (count(&eps[1]), count(&eps[0]));
    let counts = per_round(|r| {
        for rtag in 0..PUTS {
            eps[1]
                .recvd(&mut sim, 0, rtag, rtag, on_recv)
                .expect("recvd");
            eps[0]
                .sendd(&mut sim, 1, rtag, 256 << 10, None, rtag, on_sent)
                .expect("sendd");
        }
        drive(&mut sim, &eps);
        assert_eq!(done.get(), 2 * PUTS * (r as u64 + 1));
    });
    assert_eq!(eps[0].wires_in_flight(), 0);
    counts
}

/// 30 eager `irecv` + `isend` pairs on fresh tags, polled to completion
/// with `testsome_into`; the request and completion vectors are kept
/// across rounds.
fn mpi_eager_rounds() -> Vec<u64> {
    const ARRAY: usize = 30;
    let mut sim = Sim::new();
    let ranks = MpiWorld::create(&Fabric::new(FabricConfig::expanse(2)), MpiCosts::default());
    let mut tag = 0u64;
    let (mut recvs, mut sends, mut done) = (Vec::new(), Vec::new(), Vec::new());
    let counts = per_round(|_| {
        for _ in 0..ARRAY {
            tag += 1;
            recvs.push(ranks[1].irecv(&mut sim, SrcSel::Rank(0), tag).0);
            sends.push(ranks[0].isend(&mut sim, 1, tag, 64, Frames::Empty).0);
        }
        while !(recvs.is_empty() && sends.is_empty()) {
            let mut completed = 0;
            for (rank, pending) in [(&ranks[1], &mut recvs), (&ranks[0], &mut sends)] {
                done.clear();
                rank.testsome_into(&mut sim, pending, &mut done);
                pending.retain(|r| !done.iter().any(|c| c.req == *r));
                completed += done.len();
            }
            assert!(sim.step() || completed > 0, "stalled");
        }
    });
    assert_eq!(ranks[0].wires_in_flight(), 0);
    counts
}

#[test]
fn warmed_library_messages_allocate_no_wire_or_completion() {
    let sendb = lci_sendb_rounds();
    assert!(sendb[0] >= 1, "the counting allocator is not installed");
    assert_eq!(sendb[2], 0, "LCI sendb, 32 messages: {sendb:?}");

    // Matching FIFOs are links in a per-endpoint slab, so a posted
    // receive allocates no bucket; no wire record, no completion.
    let rendezvous = lci_rendezvous_rounds();
    assert_eq!(rendezvous[2], 0, "LCI rendezvous, 8 puts: {rendezvous:?}");

    // A post on a fresh tag lands in the rank's one posted queue, whose
    // capacity the first round grew; no wire record, no completion vector.
    let mpi = mpi_eager_rounds();
    assert_eq!(mpi[2], 0, "MPI eager, 30 messages: {mpi:?}");
}
