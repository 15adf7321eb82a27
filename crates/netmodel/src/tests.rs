//! Fabric behaviour tests: chunk interleaving, payload integrity, accounting,
//! determinism.

use std::cell::RefCell;
use std::rc::Rc;

use amt_simnet::{EventFn, Sim, SimTime};
use bytes::Bytes;

use crate::{rx_handler, Fabric, FabricConfig, Payload};

fn two_node_fabric() -> (Sim, crate::FabricHandle) {
    (Sim::new(), Fabric::new(FabricConfig::expanse(2)))
}

#[test]
fn payload_bytes_arrive_intact() {
    let (mut sim, fab) = two_node_fabric();
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let got2 = got.clone();
    fab.borrow_mut().set_handler(
        1,
        rx_handler(move |_sim, d| {
            *got2.borrow_mut() = Some(d.payload.expect_bytes());
        }),
    );
    fab.borrow_mut()
        .set_handler(0, rx_handler(|_, _| panic!("unexpected")));

    let data = Bytes::from((0..=255u8).collect::<Vec<u8>>());
    Fabric::send(
        &fab,
        &mut sim,
        0,
        1,
        data.len(),
        Payload::Bytes(data.clone()),
        None,
    );
    sim.run();
    assert_eq!(got.borrow().as_deref(), Some(&data[..]));
}

#[test]
fn small_message_overtakes_bulk_transfer() {
    // A tiny control message injected right after an 8 MiB transfer must be
    // delayed by at most ~one chunk, not the whole transfer.
    let (mut sim, fab) = two_node_fabric();
    let deliveries = Rc::new(RefCell::new(Vec::new()));
    let d2 = deliveries.clone();
    fab.borrow_mut().set_handler(
        1,
        rx_handler(move |sim, d| {
            d2.borrow_mut().push((d.size, sim.now()));
        }),
    );
    let big = 8 * 1024 * 1024;
    Fabric::send(&fab, &mut sim, 0, 1, big, Payload::Empty, None);
    Fabric::send(&fab, &mut sim, 0, 1, 64, Payload::Empty, None);
    sim.run();

    let log = deliveries.borrow();
    assert_eq!(log.len(), 2);
    // Small message delivered first.
    assert_eq!(log[0].0, 64);
    assert_eq!(log[1].0, big);
    // And within a couple of chunk times of t=0 (one chunk ~5.3 us).
    assert!(
        log[0].1 < SimTime::from_us(20),
        "control message delayed: {}",
        log[0].1
    );
    // Bulk transfer takes ~671 us of serialization.
    assert!(log[1].1 > SimTime::from_us(600));
}

#[test]
fn tx_done_fires_before_delivery() {
    let (mut sim, fab) = two_node_fabric();
    let order = Rc::new(RefCell::new(Vec::new()));
    let (o1, o2) = (order.clone(), order.clone());
    fab.borrow_mut().set_handler(
        1,
        rx_handler(move |_sim, _d| o1.borrow_mut().push("delivered")),
    );
    Fabric::send(
        &fab,
        &mut sim,
        0,
        1,
        1024,
        Payload::Empty,
        Some(EventFn::new(move |_sim| o2.borrow_mut().push("tx_done"))),
    );
    sim.run();
    assert_eq!(*order.borrow(), vec!["tx_done", "delivered"]);
}

#[test]
fn counters_track_traffic() {
    let (mut sim, fab) = two_node_fabric();
    fab.borrow_mut().set_handler(1, rx_handler(|_, _| {}));
    fab.borrow_mut().set_handler(0, rx_handler(|_, _| {}));
    for _ in 0..3 {
        Fabric::send(&fab, &mut sim, 0, 1, 1000, Payload::Empty, None);
    }
    Fabric::send(&fab, &mut sim, 1, 0, 500, Payload::Empty, None);
    sim.run();
    let f = fab.borrow();
    assert_eq!(f.tx_msgs(0), 3);
    assert_eq!(f.tx_bytes(0), 3000);
    assert_eq!(f.rx_msgs(1), 3);
    assert_eq!(f.rx_bytes(1), 3000);
    assert_eq!(f.tx_bytes(1), 500);
    assert_eq!(f.rx_bytes(0), 500);
}

#[test]
fn self_send_loops_back() {
    let (mut sim, fab) = two_node_fabric();
    let hit = Rc::new(RefCell::new(false));
    let h2 = hit.clone();
    fab.borrow_mut().set_handler(
        0,
        rx_handler(move |_sim, d| {
            assert_eq!(d.src, 0);
            assert_eq!(d.dst, 0);
            *h2.borrow_mut() = true;
        }),
    );
    Fabric::send(&fab, &mut sim, 0, 0, 128, Payload::Empty, None);
    sim.run();
    assert!(*hit.borrow());
    // Loopback does not touch the NIC counters.
    assert_eq!(fab.borrow().tx_msgs(0), 0);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut sim, fab) = two_node_fabric();
        let log = Rc::new(RefCell::new(Vec::new()));
        for node in 0..2 {
            let l = log.clone();
            let f2 = fab.clone();
            fab.borrow_mut().set_handler(
                node,
                rx_handler(move |sim, d| {
                    l.borrow_mut().push((d.msg_id, d.size, sim.now().as_ns()));
                    if d.size > 1000 {
                        Fabric::send(&f2, sim, d.dst, d.src, d.size / 2, Payload::Empty, None);
                    }
                }),
            );
        }
        for i in 0..10usize {
            Fabric::send(
                &fab,
                &mut sim,
                i % 2,
                (i + 1) % 2,
                100_000 >> (i % 4),
                Payload::Empty,
                None,
            );
        }
        sim.run();
        let result = log.borrow().clone();
        result
    };
    assert_eq!(run(), run());
}

/// Events one isolated `k`-chunk message costs on the flat topology: a
/// transmit completion and a receive-calendar drain per chunk, one receive
/// completion (the final chunk's) and one delivery. The `k - 1` non-final
/// chunks are charged to the receive engine without an event.
fn flat_message_events(chunks: u64) -> u64 {
    2 * chunks + 2
}

#[test]
fn multi_chunk_message_costs_only_the_models_events() {
    // Full chunks that serialize in whole nanoseconds at 12.5 B/ns, so the
    // per-chunk sums below are exact and no chunk waits behind a longer one.
    let cfg = FabricConfig {
        chunk_bytes: 50_000,
        ..FabricConfig::expanse(2)
    };
    for k in [1usize, 2, 5] {
        let size = k * cfg.chunk_bytes;
        let mut sim = Sim::new();
        let fab = Fabric::new(cfg.clone());
        let arrived = Rc::new(RefCell::new(None));
        let a2 = arrived.clone();
        fab.borrow_mut().set_handler(
            1,
            rx_handler(move |sim, d| {
                assert_eq!(d.payload.data_len(), 0);
                *a2.borrow_mut() = Some(sim.now());
            }),
        );
        Fabric::send(&fab, &mut sim, 0, 1, size, Payload::Empty, None);
        sim.run();
        assert_eq!(
            sim.events_executed(),
            flat_message_events(k as u64),
            "k={k}"
        );
        assert_eq!(*arrived.borrow(), Some(cfg.ideal_one_way(size)), "k={k}");

        // The receive engine is billed exactly as k `charge`s would bill it.
        let mut expect = amt_simnet::CoreResource::new("rx");
        for c in 0..k {
            let first = if c == 0 {
                cfg.per_message_overhead
            } else {
                SimTime::ZERO
            };
            let dur = cfg.serialization_time(cfg.chunk_bytes) + cfg.per_chunk_overhead + first;
            expect.occupy(SimTime::ZERO, dur);
        }
        let f = fab.borrow();
        assert_eq!(f.rx_engine(1).busy_time(), expect.busy_time(), "k={k}");
        assert_eq!(f.rx_engine(1).jobs(), k as u64, "k={k}");
    }
}

#[test]
fn same_instant_arrivals_drain_in_source_order() {
    // Three one-chunk messages leave three NICs at the same instant and
    // meet at one resource. They are injected (and so reach the calendar)
    // in descending source order; the drain must serve them ascending.
    let deliveries = |fab: &crate::FabricHandle, sim: &mut Sim, pairs: &[(usize, usize)]| {
        let log = Rc::new(RefCell::new(Vec::new()));
        for &(_, dst) in pairs {
            let l = log.clone();
            fab.borrow_mut().set_handler(
                dst,
                rx_handler(move |sim, d| l.borrow_mut().push((d.src, sim.now()))),
            );
        }
        for &(src, dst) in pairs.iter().rev() {
            Fabric::send(fab, sim, src, dst, 4096, Payload::Empty, None);
        }
        sim.run();
        let got = log.borrow().clone();
        got
    };
    let assert_ascending = |log: &[(usize, SimTime)], what: &str| {
        assert_eq!(log.len(), 3, "{what}");
        for w in log.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "{what}: {log:?}");
        }
    };

    // One destination NIC.
    let mut sim = Sim::new();
    let fab = Fabric::new(FabricConfig::expanse(4));
    let log = deliveries(&fab, &mut sim, &[(1, 0), (2, 0), (3, 0)]);
    assert_ascending(&log, "nic");

    // One pod up-link: sources 0..3 share pod 0, destinations are distinct
    // nodes of pod 1, so only the up-link (and the down-link behind it)
    // serializes them.
    let (mut sim, fab) = fat_tree_fabric(6, 2, 100.0);
    let log = deliveries(&fab, &mut sim, &[(0, 3), (1, 4), (2, 5)]);
    assert_ascending(&log, "pod link");
}

#[test]
fn concurrent_senders_share_receiver_bandwidth() {
    // Two senders into one receiver: total time ~ twice a single transfer
    // (receive engine is the bottleneck).
    let mut sim = Sim::new();
    let fab = Fabric::new(FabricConfig::expanse(3));
    let done = Rc::new(RefCell::new(Vec::new()));
    let d2 = done.clone();
    fab.borrow_mut().set_handler(
        2,
        rx_handler(move |sim, d| d2.borrow_mut().push((d.src, sim.now()))),
    );
    let size = 4 * 1024 * 1024;
    Fabric::send(&fab, &mut sim, 0, 2, size, Payload::Empty, None);
    Fabric::send(&fab, &mut sim, 1, 2, size, Payload::Empty, None);
    sim.run();
    let log = done.borrow();
    assert_eq!(log.len(), 2);
    let single = FabricConfig::expanse(2).serialization_time(size);
    let last = log[1].1;
    // Both transfers must finish in about 2x the single-transfer service
    // time (within overheads), not 1x.
    assert!(last > single * 2, "rx sharing too fast: {last}");
    assert!(
        last < single * 2 + SimTime::from_us(200),
        "rx sharing too slow: {last}"
    );
}

fn fat_tree_fabric(nodes: usize, pods: usize, link_gbps: f64) -> (Sim, crate::FabricHandle) {
    let cfg = FabricConfig {
        topology: crate::Topology::FatTree(crate::FatTreeConfig {
            pods,
            link_bandwidth_gbps: link_gbps,
            spine_latency: SimTime::from_ns(600),
        }),
        ..FabricConfig::expanse(nodes)
    };
    (Sim::new(), Fabric::new(cfg))
}

#[test]
fn cross_pod_message_pays_spine_and_pod_links() {
    // node 0 → node 1 stays inside pod 0; node 0 → node 2 crosses the
    // spine. The cross-pod copy of an identical message must arrive later
    // by at least the spine latency plus one pod-link serialization.
    let (mut sim, fab) = fat_tree_fabric(4, 2, 400.0);
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    for node in [1usize, 2] {
        let a = arrivals.clone();
        fab.borrow_mut().set_handler(
            node,
            rx_handler(move |sim, d| a.borrow_mut().push((d.dst, sim.now()))),
        );
    }
    let size = 256 * 1024;
    Fabric::send(&fab, &mut sim, 0, 1, size, Payload::Empty, None);
    sim.run();
    Fabric::send(&fab, &mut sim, 0, 2, size, Payload::Empty, None);
    sim.run();
    let log = arrivals.borrow();
    assert_eq!(log.len(), 2);
    let intra = log[0].1;
    let cross = log[1].1 - intra; // second send started at `intra`
    assert!(
        cross >= intra + SimTime::from_ns(600),
        "cross-pod not slower: intra {intra}, cross {cross}"
    );
}

#[test]
fn shared_up_link_serializes_cross_pod_senders() {
    // Two senders in pod 0 push to pod 1 concurrently through a shared
    // up-link narrower than one NIC: the up-link is the bottleneck, so the
    // last delivery lands no earlier than the link-serialization of the
    // combined traffic — and strictly later than with a wide link.
    let run = |gbps: f64| {
        let (mut sim, fab) = fat_tree_fabric(4, 2, gbps);
        let done = Rc::new(RefCell::new(Vec::new()));
        for node in [2usize, 3] {
            let d2 = done.clone();
            fab.borrow_mut().set_handler(
                node,
                rx_handler(move |sim, _d| d2.borrow_mut().push(sim.now())),
            );
        }
        let size = 4 * 1024 * 1024;
        Fabric::send(&fab, &mut sim, 0, 2, size, Payload::Empty, None);
        Fabric::send(&fab, &mut sim, 1, 3, size, Payload::Empty, None);
        sim.run();
        let log = done.borrow().clone();
        assert_eq!(log.len(), 2);
        *log.iter().max().unwrap()
    };
    let narrow = run(50.0);
    let wide = run(800.0);
    // 8 MiB through a 50 Gb/s link is ≥ 1342 us of pure serialization.
    let floor = FabricConfig::default().link_time(8 * 1024 * 1024, 50.0);
    assert!(narrow >= floor, "narrow link too fast: {narrow} < {floor}");
    assert!(narrow > wide, "no up-link contention: {narrow} <= {wide}");
}

#[test]
fn fat_tree_deterministic_replay() {
    // Same replay guarantee as the flat fabric, with cross-pod traffic and
    // shared-link contention in play.
    let run = || {
        let (mut sim, fab) = fat_tree_fabric(6, 3, 100.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for node in 0..6 {
            let l = log.clone();
            let f2 = fab.clone();
            fab.borrow_mut().set_handler(
                node,
                rx_handler(move |sim, d| {
                    l.borrow_mut().push((d.msg_id, d.size, sim.now().as_ns()));
                    if d.size > 2000 {
                        Fabric::send(&f2, sim, d.dst, d.src, d.size / 3, Payload::Empty, None);
                    }
                }),
            );
        }
        for i in 0..18usize {
            Fabric::send(
                &fab,
                &mut sim,
                i % 6,
                (i * 5 + 2) % 6,
                300_000 >> (i % 5),
                Payload::Empty,
                None,
            );
        }
        sim.run();
        let result = log.borrow().clone();
        result
    };
    assert_eq!(run(), run());
}
