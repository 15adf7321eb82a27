//! LCI semantics tests: three protocols, completion machinery, explicit
//! progress, back-pressure.

use std::cell::RefCell;
use std::rc::Rc;

use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::{Sim, SimTime};
use bytes::{Bytes, Frames};

use crate::{Lci, LciCosts, LciError, LciWorld, OnComplete};

fn setup_with(nodes: usize, costs: LciCosts) -> (Sim, Vec<Lci>) {
    let sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(nodes));
    let eps = LciWorld::create(&fabric, costs);
    (sim, eps)
}

fn setup(nodes: usize) -> (Sim, Vec<Lci>) {
    setup_with(nodes, LciCosts::default())
}

/// Run the simulation, interleaving `progress` calls on every endpoint
/// whenever they have work — a stand-in for each node's progress thread.
fn run_progressed(sim: &mut Sim, eps: &[Lci]) {
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

#[test]
fn immediate_message_reaches_handler() {
    let (mut sim, eps) = setup(2);
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    eps[1].set_am_handler(move |_sim, m| {
        g.borrow_mut().push((m.src, m.tag, m.size, m.data.clone()));
        assert!(!m.owns_packet);
        SimTime::ZERO
    });
    let data = Bytes::from_static(b"hello");
    eps[0]
        .sendi(&mut sim, 1, 7, data.len(), Frames::from(data.clone()))
        .expect("sendi");
    run_progressed(&mut sim, &eps);
    assert_eq!(got.borrow().len(), 1);
    assert_eq!(got.borrow()[0], (0, 7, 5, Frames::from(data)));
}

#[test]
fn buffered_message_owns_packet() {
    let (mut sim, eps) = setup(2);
    let got = Rc::new(RefCell::new(0usize));
    let g = got.clone();
    let ep1 = eps[1].clone();
    eps[1].set_am_handler(move |sim, m| {
        assert!(m.owns_packet);
        *g.borrow_mut() += m.size;
        ep1.buffer_free(sim);
        SimTime::from_ns(10)
    });
    eps[0]
        .sendb(&mut sim, 1, 3, 4096, Frames::Empty)
        .expect("sendb");
    run_progressed(&mut sim, &eps);
    assert_eq!(*got.borrow(), 4096);
}

#[test]
fn direct_rendezvous_delivers_data_and_completions() {
    let (mut sim, eps) = setup(2);
    eps[0].set_am_handler(|_, _| SimTime::ZERO);
    eps[1].set_am_handler(|_, _| SimTime::ZERO);
    let local_done = Rc::new(RefCell::new(None));
    let remote_done = Rc::new(RefCell::new(None));
    let size = 1 << 20;
    let data = Bytes::from(vec![9u8; size]);

    let rd = remote_done.clone();
    let on_recv = eps[1].handler_new(move |_sim, e| {
        *rd.borrow_mut() = Some(e);
        SimTime::ZERO
    });
    eps[1]
        .recvd(&mut sim, 0, 42, 777, OnComplete::Handler(on_recv))
        .expect("recvd");

    let ld = local_done.clone();
    let on_sent = eps[0].handler_new(move |_sim, e| {
        *ld.borrow_mut() = Some(e);
        SimTime::ZERO
    });
    eps[0]
        .sendd(
            &mut sim,
            1,
            42,
            size,
            Some(data.clone()),
            555,
            OnComplete::Handler(on_sent),
        )
        .expect("sendd");

    run_progressed(&mut sim, &eps);

    let l = local_done.borrow();
    let r = remote_done.borrow();
    let l = l.as_ref().expect("local completion");
    let r = r.as_ref().expect("remote completion");
    assert_eq!(l.ctx, 555);
    assert_eq!(l.peer, 1);
    assert_eq!(l.size, size);
    assert_eq!(r.ctx, 777);
    assert_eq!(r.peer, 0);
    assert_eq!(r.data.as_deref(), Some(&data[..]));
}

#[test]
fn rts_before_recvd_matches_later() {
    let (mut sim, eps) = setup(2);
    eps[0].set_am_handler(|_, _| SimTime::ZERO);
    eps[1].set_am_handler(|_, _| SimTime::ZERO);
    let done = Rc::new(RefCell::new(false));
    eps[0]
        .sendd(&mut sim, 1, 5, 256 << 10, None, 0, OnComplete::None)
        .expect("sendd");
    // Let the RTS arrive and be progressed before the receive is posted.
    run_progressed(&mut sim, &eps);
    let d = done.clone();
    let on_recv = eps[1].handler_new(move |_s, e| {
        assert_eq!(e.size, 256 << 10);
        *d.borrow_mut() = true;
        SimTime::ZERO
    });
    eps[1]
        .recvd(&mut sim, 0, 5, 0, OnComplete::Handler(on_recv))
        .expect("recvd");
    run_progressed(&mut sim, &eps);
    assert!(*done.borrow());
}

#[test]
fn sendb_retries_when_tx_pool_exhausted() {
    let costs = LciCosts {
        tx_packets: 2,
        ..Default::default()
    };
    let (mut sim, eps) = setup_with(2, costs);
    eps[1].set_am_handler(|_, _| SimTime::ZERO);
    assert!(eps[0].sendb(&mut sim, 1, 0, 1024, Frames::Empty).is_ok());
    assert!(eps[0].sendb(&mut sim, 1, 0, 1024, Frames::Empty).is_ok());
    // Pool exhausted until the NIC finishes with a packet.
    assert_eq!(
        eps[0].sendb(&mut sim, 1, 0, 1024, Frames::Empty),
        Err(LciError::Retry)
    );
    assert_eq!(eps[0].retries(), 1);
    sim.run(); // transmit completes, packets return
    assert!(eps[0].sendb(&mut sim, 1, 0, 1024, Frames::Empty).is_ok());
}

#[test]
fn recvd_retries_when_posted_resources_exhausted() {
    let costs = LciCosts {
        max_posted_recvd: 3,
        ..Default::default()
    };
    let (mut sim, eps) = setup_with(2, costs);
    for i in 0..3 {
        assert!(eps[1].recvd(&mut sim, 0, i, 0, OnComplete::None).is_ok());
    }
    assert_eq!(
        eps[1].recvd(&mut sim, 0, 99, 0, OnComplete::None),
        Err(LciError::Retry)
    );
}

#[test]
fn rx_packet_exhaustion_stalls_buffered_delivery() {
    let costs = LciCosts {
        rx_packets: 1,
        ..Default::default()
    };
    let (mut sim, eps) = setup_with(2, costs);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = seen.clone();
    // Handler does NOT free the buffer immediately.
    eps[1].set_am_handler(move |_sim, m| {
        s.borrow_mut().push(m.tag);
        SimTime::ZERO
    });
    eps[0]
        .sendb(&mut sim, 1, 1, 512, Frames::Empty)
        .expect("sendb");
    eps[0]
        .sendb(&mut sim, 1, 2, 512, Frames::Empty)
        .expect("sendb");
    sim.run();
    eps[1].progress(&mut sim);
    // Only the first message could be delivered: no packets left.
    assert_eq!(*seen.borrow(), vec![1]);
    assert!(eps[1].has_work(), "second message still queued");
    // Freeing the buffer lets the next progress call deliver the rest.
    eps[1].buffer_free(&mut sim);
    eps[1].progress(&mut sim);
    assert_eq!(*seen.borrow(), vec![1, 2]);
}

#[test]
fn progress_cost_includes_handler_cost() {
    let (mut sim, eps) = setup(2);
    eps[1].set_am_handler(|_sim, _m| SimTime::from_us(5));
    eps[0]
        .sendi(&mut sim, 1, 0, 8, Frames::Empty)
        .expect("sendi");
    sim.run();
    let cost = eps[1].progress(&mut sim);
    assert!(
        cost >= SimTime::from_us(5),
        "handler cost not accounted: {cost}"
    );
}

#[test]
fn multiple_streams_same_rtag_fifo_match() {
    // Two sendd with the same (src, rtag): matches must pair FIFO.
    let (mut sim, eps) = setup(2);
    eps[0].set_am_handler(|_, _| SimTime::ZERO);
    eps[1].set_am_handler(|_, _| SimTime::ZERO);
    let order = Rc::new(RefCell::new(Vec::new()));
    let o = order.clone();
    let on_recv = eps[1].handler_new(move |_s, e| {
        o.borrow_mut().push((e.ctx, e.size));
        SimTime::ZERO
    });
    for ctx in [100u64, 200] {
        eps[1]
            .recvd(&mut sim, 0, 9, ctx, OnComplete::Handler(on_recv))
            .expect("recvd");
    }
    eps[0]
        .sendd(&mut sim, 1, 9, 1000, None, 0, OnComplete::None)
        .expect("sendd");
    eps[0]
        .sendd(&mut sim, 1, 9, 2000, None, 1, OnComplete::None)
        .expect("sendd");
    run_progressed(&mut sim, &eps);
    assert_eq!(*order.borrow(), vec![(100, 1000), (200, 2000)]);
}

#[test]
fn waker_fires_on_arrival() {
    let (mut sim, eps) = setup(2);
    eps[1].set_am_handler(|_, _| SimTime::ZERO);
    let woke = Rc::new(RefCell::new(0));
    let w = woke.clone();
    eps[1].set_waker(move |_sim| *w.borrow_mut() += 1);
    eps[0]
        .sendi(&mut sim, 1, 0, 8, Frames::Empty)
        .expect("sendi");
    sim.run();
    assert!(*woke.borrow() >= 1, "waker should fire on arrival");
}

#[test]
fn direct_put_delivers_without_rendezvous() {
    let (mut sim, eps) = setup(2);
    eps[0].set_am_handler(|_, _| SimTime::ZERO);
    eps[1].set_am_handler(|_, _| SimTime::ZERO);
    let got = Rc::new(RefCell::new(None));
    let g = got.clone();
    eps[1].set_put_handler(move |_sim, m| {
        *g.borrow_mut() = Some((m.src, m.rtag, m.size, m.data, m.cb_data));
        SimTime::ZERO
    });
    let local = Rc::new(RefCell::new(false));
    let l = local.clone();
    let on_sent = eps[0].handler_new(move |_s, e| {
        assert_eq!(e.ctx, 9);
        *l.borrow_mut() = true;
        SimTime::ZERO
    });
    let data = Bytes::from(vec![3u8; 100_000]);
    eps[0]
        .putd(
            &mut sim,
            1,
            77,
            data.len(),
            Some(data.clone()),
            Bytes::from_static(b"imm"),
            9,
            OnComplete::Handler(on_sent),
        )
        .expect("putd");
    run_progressed(&mut sim, &eps);
    assert!(*local.borrow(), "local completion");
    let r = got.borrow();
    let (src, rtag, size, d, imm) = r.as_ref().expect("put delivered");
    assert_eq!((*src, *rtag, *size), (0, 77, 100_000));
    assert_eq!(d.as_deref(), Some(&data[..]));
    assert_eq!(&imm[..], b"imm");
}

#[test]
fn direct_put_respects_outstanding_cap() {
    let costs = LciCosts {
        max_outstanding_sendd: 2,
        ..Default::default()
    };
    let (mut sim, eps) = setup_with(2, costs);
    eps[1].set_put_handler(|_, _| SimTime::ZERO);
    for _ in 0..2 {
        assert!(eps[0]
            .putd(
                &mut sim,
                1,
                0,
                1024,
                None,
                Bytes::new(),
                0,
                OnComplete::None
            )
            .is_ok());
    }
    assert_eq!(
        eps[0].putd(
            &mut sim,
            1,
            0,
            1024,
            None,
            Bytes::new(),
            0,
            OnComplete::None
        ),
        Err(LciError::Retry)
    );
}
