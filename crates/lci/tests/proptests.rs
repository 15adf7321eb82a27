//! Randomized property tests for LCI resource conservation and protocol
//! integrity, driven by the in-tree deterministic generator (the workspace
//! builds offline, so no external `proptest`).

use amt_lci::{Lci, LciCosts, LciWorld, OnComplete};
use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::{DetRng, Sim, SimTime};
use bytes::{Bytes, Frames};
use std::cell::RefCell;
use std::rc::Rc;

const CASES: u64 = 32;

fn setup(costs: LciCosts) -> (Sim, Vec<Lci>) {
    let sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(2));
    let eps = LciWorld::create(&fabric, costs);
    (sim, eps)
}

fn drive(sim: &mut Sim, eps: &[Lci]) {
    loop {
        let mut any = false;
        for ep in eps {
            if ep.has_work() {
                ep.progress(sim);
                any = true;
            }
        }
        if !sim.step() && !any {
            break;
        }
    }
}

/// Every direct send pairs with its matching receive and delivers its
/// payload intact, under arbitrary (src-tag, size) mixes and arbitrary
/// post order.
#[test]
fn direct_rendezvous_pairs_and_delivers() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x1c1_0000 + case);
        let n = rng.gen_usize(1..20);
        let ops: Vec<(u64, usize)> = (0..n)
            .map(|_| (rng.gen_range(0..5), rng.gen_usize(1..100_000)))
            .collect();
        let recv_first = rng.gen_bool(0.5);

        let (mut sim, eps) = setup(LciCosts::default());
        eps[0].set_am_handler(|_, _| SimTime::ZERO);
        eps[1].set_am_handler(|_, _| SimTime::ZERO);
        let got: Rc<RefCell<Vec<(u64, usize, Bytes)>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let on_recv = eps[1].handler_new(move |_s, e| {
            g.borrow_mut()
                .push((e.rtag, e.size, e.data.expect("payload")));
            SimTime::ZERO
        });

        let post_recvs = |sim: &mut Sim| {
            for (i, &(rtag, _size)) in ops.iter().enumerate() {
                eps[1]
                    .recvd(sim, 0, rtag, i as u64, OnComplete::Handler(on_recv))
                    .expect("recvd");
            }
        };
        if recv_first {
            post_recvs(&mut sim);
        }
        for &(rtag, size) in &ops {
            let data = Bytes::from(vec![(rtag as u8).wrapping_add(size as u8); size]);
            eps[0]
                .sendd(&mut sim, 1, rtag, size, Some(data), 0, OnComplete::None)
                .expect("sendd");
        }
        if !recv_first {
            drive(&mut sim, &eps);
            post_recvs(&mut sim);
        }
        drive(&mut sim, &eps);

        let got = got.borrow();
        assert_eq!(got.len(), ops.len(), "case {case}");
        // Every send pairs with a receive of the same rtag and size.
        // (Completion *order* may differ: small DATA messages ride the
        // control lane and can overtake multi-chunk bulk transfers.)
        for rtag in 0..5u64 {
            let mut sent: Vec<usize> = ops
                .iter()
                .filter(|(t, _)| *t == rtag)
                .map(|(_, s)| *s)
                .collect();
            let mut recvd: Vec<usize> = got
                .iter()
                .filter(|(t, _, _)| *t == rtag)
                .map(|(_, s, _)| *s)
                .collect();
            sent.sort_unstable();
            recvd.sort_unstable();
            assert_eq!(sent, recvd, "rtag {rtag} pairing (case {case})");
        }
        for (_, size, data) in got.iter() {
            assert_eq!(data.len(), *size, "case {case}");
        }
    }
}

/// Packet pools conserve: after quiescence the endpoint accepts as
/// many buffered sends as its pool capacity again.
#[test]
fn tx_packet_pool_conserves() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x2e2e_0000 + case);
        let pool = rng.gen_usize(1..6);
        let batches = rng.gen_usize(1..5);

        let costs = LciCosts {
            tx_packets: pool,
            ..Default::default()
        };
        let (mut sim, eps) = setup(costs);
        let ep1 = eps[1].clone();
        eps[1].set_am_handler(move |sim, m| {
            if m.owns_packet {
                ep1.buffer_free(sim);
            }
            SimTime::ZERO
        });
        eps[0].set_am_handler(|_, _| SimTime::ZERO);
        for _ in 0..batches {
            let mut sent = 0;
            // Fill the pool.
            while eps[0].sendb(&mut sim, 1, 0, 512, Frames::Empty).is_ok() {
                sent += 1;
                assert!(sent <= pool, "pool over-granted (case {case})");
            }
            assert_eq!(sent, pool, "case {case}");
            drive(&mut sim, &eps);
        }
        // After draining, the full pool is available again.
        let mut sent = 0;
        while eps[0].sendb(&mut sim, 1, 0, 512, Frames::Empty).is_ok() {
            sent += 1;
        }
        assert_eq!(sent, pool, "case {case}");
    }
}
