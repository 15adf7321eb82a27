//! Communication-engine tests: a backend-conformance suite run against all
//! three backends (AM delivery + ordering, put completion callbacks,
//! deferral/promotion, retry delegation, determinism), plus backend-specific
//! behaviour (eager puts, direct put, progress threads) and the headline
//! latency ordering (LCI < MPI).

use std::cell::RefCell;
use std::rc::Rc;

use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::{Sim, SimTime};
use bytes::Bytes;

use crate::{BackendKind, CommEngine, CommWorld, EngineConfig, PutRequest};

fn setup(nodes: usize, cfg: EngineConfig) -> (Sim, Vec<Rc<CommEngine>>) {
    let mut sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(nodes));
    let engines = CommWorld::create(&mut sim, &fabric, cfg);
    (sim, engines)
}

fn all_backends() -> [EngineConfig; 3] {
    EngineConfig::all_backends()
}

#[test]
fn am_roundtrip_all_backends() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        engines[1].register_am(
            &mut sim,
            7,
            Rc::new(move |_sim, _eng, ev| {
                g.borrow_mut().push((ev.src, ev.tag, ev.size, ev.data));
                SimTime::from_ns(200)
            }),
        );
        let payload = Bytes::from_static(b"activate!");
        engines[0].send_am(&mut sim, 1, 7, payload.len(), Some(payload.clone()));
        sim.run();
        let log = got.borrow();
        assert_eq!(log.len(), 1, "{backend}: AM not delivered");
        assert_eq!(log[0].0, 0);
        assert_eq!(log[0].3.to_vec(), &payload[..]);
        assert_eq!(engines[0].stats().am_sent.get(), 1);
        assert_eq!(engines[1].stats().am_received.get(), 1);
        assert_eq!(engines[0].backend(), backend);
    }
}

/// Conformance: AMs from one source to one destination are delivered in
/// submission order on every backend.
#[test]
fn am_delivery_preserves_submission_order() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg);
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        engines[1].register_am(
            &mut sim,
            2,
            Rc::new(move |_sim, _eng, ev| {
                // Payloads may arrive as multi-frame batches (aggregation);
                // every byte records its submission index.
                g.borrow_mut().extend_from_slice(&ev.data.to_vec());
                SimTime::from_ns(50)
            }),
        );
        for i in 0..32u8 {
            engines[0].send_am(&mut sim, 1, 2, 1, Some(Bytes::from(vec![i])));
        }
        sim.run();
        let order = got.borrow();
        let expect: Vec<u8> = (0..32).collect();
        assert_eq!(*order, expect, "{backend}: AM delivery reordered");
    }
}

#[test]
fn put_roundtrip_all_backends() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg);
        let remote = Rc::new(RefCell::new(None));
        let local = Rc::new(RefCell::new(false));
        let r = remote.clone();
        engines[1].register_onesided(
            1,
            Rc::new(move |_sim, _eng, ev| {
                *r.borrow_mut() = Some((ev.src, ev.size, ev.data, ev.cb_data));
                SimTime::from_ns(100)
            }),
        );
        let size = 1 << 20;
        let data = Bytes::from(vec![5u8; size]);
        let l = local.clone();
        engines[0].put(
            &mut sim,
            PutRequest {
                dst: 1,
                size,
                data: Some(data.clone()),
                r_tag: 1,
                cb_data: Bytes::from_static(b"meta"),
                on_local: Box::new(move |_sim, _eng| {
                    *l.borrow_mut() = true;
                    SimTime::from_ns(50)
                }),
            },
        );
        sim.run();
        assert!(*local.borrow(), "{backend}: local completion missing");
        let r = remote.borrow();
        let (src, sz, d, cb) = r.as_ref().expect("remote completion");
        assert_eq!(*src, 0, "{backend}");
        assert_eq!(*sz, size, "{backend}");
        assert_eq!(d.as_deref(), Some(&data[..]), "{backend}");
        assert_eq!(&cb[..], b"meta", "{backend}");
        assert_eq!(engines[0].stats().puts_local_done.get(), 1);
        assert_eq!(engines[1].stats().puts_remote_done.get(), 1);
    }
}

#[test]
fn small_put_rides_eagerly_on_lci_backends() {
    for cfg in [EngineConfig::lci(), EngineConfig::lci_direct()] {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg);
        let remote = Rc::new(RefCell::new(None));
        let r = remote.clone();
        engines[1].register_onesided(
            9,
            Rc::new(move |_sim, _eng, ev| {
                *r.borrow_mut() = Some((ev.size, ev.data));
                SimTime::ZERO
            }),
        );
        let data = Bytes::from_static(b"small payload");
        engines[0].put(
            &mut sim,
            PutRequest {
                dst: 1,
                size: data.len(),
                data: Some(data.clone()),
                r_tag: 9,
                cb_data: Bytes::new(),
                on_local: Box::new(|_s, _e| SimTime::ZERO),
            },
        );
        sim.run();
        let r = remote.borrow();
        let (sz, d) = r.as_ref().expect("remote completion");
        assert_eq!(*sz, data.len(), "{backend}");
        assert_eq!(d.as_deref(), Some(&data[..]), "{backend}");
        assert_eq!(engines[1].stats().delegated_recvs.get(), 0, "{backend}");
    }
}

#[test]
fn activates_aggregate_per_destination() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        engines[1].register_am(
            &mut sim,
            3,
            Rc::new(move |_sim, _eng, ev| {
                g.borrow_mut().push((ev.size, ev.data));
                SimTime::ZERO
            }),
        );
        // Submit 4 AMs back-to-back; the communication thread is woken once
        // and they aggregate into fewer wire messages.
        for i in 0..4u8 {
            engines[0].send_am(&mut sim, 1, 3, 8, Some(Bytes::from(vec![i; 8])));
        }
        sim.run();
        let stats = engines[0].stats();
        assert_eq!(stats.am_submitted.get(), 4, "{backend}");
        assert!(
            stats.am_sent.get() < 4,
            "{backend}: no aggregation happened ({} wire msgs)",
            stats.am_sent.get()
        );
        // All payload bytes arrive, in submission order, carried as frames
        // (no concatenation copy on the send side).
        let total: usize = got.borrow().iter().map(|(s, _)| *s).sum();
        assert_eq!(total, 32, "{backend}");
        let bytes: Vec<u8> = got.borrow().iter().flat_map(|(_, d)| d.to_vec()).collect();
        let expect: Vec<u8> = (0..4u8).flat_map(|i| vec![i; 8]).collect();
        assert_eq!(bytes, expect, "{backend}");
    }
}

/// Tentpole: with a batching window, records submitted across distinct
/// wake-ups of the communication thread still coalesce per (destination,
/// tag), and every payload byte arrives in submission order. The window is
/// a rate limit: the first record finds a cold link and flushes at its own
/// instant, then the link is hot and the remaining seven ride one window
/// flush — two wire messages for eight records.
#[test]
fn batching_window_coalesces_across_wakeups() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let cfg = cfg.with_batching(10_000);
        let (mut sim, engines) = setup(2, cfg);
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        engines[1].register_am(
            &mut sim,
            3,
            Rc::new(move |_sim, _eng, ev| {
                g.borrow_mut().extend_from_slice(&ev.data.to_vec());
                SimTime::ZERO
            }),
        );
        // Spread 8 submissions over 8 µs of virtual time — far apart for
        // the classic queue-scan aggregation (the comm thread drains
        // between them) but inside one 10 µs batching window.
        for i in 0..8u8 {
            let eng = engines[0].clone();
            sim.schedule_in(SimTime::from_ns(i as u64 * 1000), move |sim| {
                eng.send_am(sim, 1, 3, 4, Some(Bytes::from(vec![i; 4])));
            });
        }
        sim.run();
        let stats = engines[0].stats();
        assert_eq!(stats.am_submitted.get(), 8, "{backend}");
        assert_eq!(
            stats.am_sent.get(),
            2,
            "{backend}: expected a cold-link flush plus one window flush"
        );
        let expect: Vec<u8> = (0..8u8).flat_map(|i| vec![i; 4]).collect();
        assert_eq!(*got.borrow(), expect, "{backend}: bytes or order changed");
    }
}

/// The byte threshold (`agg_max_bytes`) flushes a batch early, and a fresh
/// window opens for the overflow — the stale window event for the flushed
/// buffer must not double-send.
#[test]
fn batching_byte_threshold_flushes_early() {
    let cfg = EngineConfig {
        agg_max_bytes: 16,
        ..EngineConfig::lci()
    }
    .with_batching(1_000_000);
    let (mut sim, engines) = setup(2, cfg);
    let msgs = Rc::new(RefCell::new(0usize));
    let m = msgs.clone();
    engines[1].register_am(
        &mut sim,
        3,
        Rc::new(move |_sim, _eng, _ev| {
            *m.borrow_mut() += 1;
            SimTime::ZERO
        }),
    );
    // 5 × 8 bytes against a 16-byte threshold: flush at 16, 32, then the
    // 8-byte tail waits out its window.
    for i in 0..5u8 {
        engines[0].send_am(&mut sim, 1, 3, 8, Some(Bytes::from(vec![i; 8])));
    }
    sim.run();
    let stats = engines[0].stats();
    assert_eq!(stats.am_submitted.get(), 5);
    assert_eq!(stats.am_sent.get(), 3, "two threshold flushes + one window");
    assert_eq!(*msgs.borrow(), 3);
}

/// A zero window means flush-immediately: the batching layer is inert and
/// the classic funnel path runs unchanged.
#[test]
fn zero_window_disables_batching() {
    let cfg = EngineConfig::lci().with_batching(0);
    let (mut sim, engines) = setup(2, cfg);
    engines[1].register_am(&mut sim, 3, Rc::new(|_s, _e, _ev| SimTime::ZERO));
    engines[0].send_am(&mut sim, 1, 3, 8, Some(Bytes::from(vec![7; 8])));
    sim.run();
    assert_eq!(engines[0].stats().am_sent.get(), 1);
    assert_eq!(engines[0].stats().am_received.get(), 0);
    assert_eq!(engines[1].stats().am_received.get(), 1);
}

/// Conformance: saturating the backend's transfer resources must never lose
/// a put — MPI defers beyond its 30-transfer cap, LCI delegates receives on
/// `Retry`, direct put retries the `putd` itself, and an eager put whose
/// `sendb` finds LCI's send packets exhausted retries whole. Every
/// handshake a retry stored is taken back out: the world's handshake slab
/// is empty once the run drains.
#[test]
fn saturating_puts_all_complete_on_every_backend() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        // Rendezvous-sized puts beyond max_posted_recvd=512 and the MPI
        // transfer cap; eager-sized ones beyond LCI's 1024 send packets.
        for (size, n) in [(64 << 10, 600), (cfg.eager_put_max, 1500)] {
            let (mut sim, engines) = setup(2, cfg.clone());
            let done = Rc::new(RefCell::new(0));
            let d = done.clone();
            engines[1].register_onesided(
                1,
                Rc::new(move |_sim, _eng, _ev| {
                    *d.borrow_mut() += 1;
                    SimTime::ZERO
                }),
            );
            for _ in 0..n {
                engines[0].put(
                    &mut sim,
                    PutRequest {
                        dst: 1,
                        size,
                        data: None,
                        r_tag: 1,
                        cb_data: Bytes::new(),
                        on_local: Box::new(|_s, _e| SimTime::ZERO),
                    },
                );
            }
            sim.run();
            assert_eq!(
                *done.borrow(),
                n,
                "{backend}/{size}: all puts must complete despite back-pressure"
            );
            let stats = engines[0].stats();
            assert_eq!(stats.puts_local_done.get(), n as u64, "{backend}/{size}");
            if backend != BackendKind::Mpi && size <= cfg.eager_put_max {
                assert!(
                    stats.backend_retries.get() > 0,
                    "{backend}: the eager sendb never hit Retry"
                );
            }
            assert_eq!(engines[0].handshakes_in_flight(), 0, "{backend}/{size}");
        }
    }
}

#[test]
fn mpi_puts_defer_beyond_transfer_cap() {
    let mut cfg = EngineConfig::mpi();
    cfg.max_concurrent_transfers = 4;
    let (mut sim, engines) = setup(2, cfg);
    let done = Rc::new(RefCell::new(0));
    let d = done.clone();
    engines[1].register_onesided(
        1,
        Rc::new(move |_sim, _eng, _ev| {
            *d.borrow_mut() += 1;
            SimTime::ZERO
        }),
    );
    for _ in 0..10 {
        engines[0].put(
            &mut sim,
            PutRequest {
                dst: 1,
                size: 256 << 10,
                data: None,
                r_tag: 1,
                cb_data: Bytes::new(),
                on_local: Box::new(|_s, _e| SimTime::ZERO),
            },
        );
    }
    sim.run();
    assert_eq!(*done.borrow(), 10, "all puts must eventually complete");
    let stats = engines[0].stats();
    assert!(
        stats.deferred_puts.get() > 0,
        "cap of 4 with 10 puts must defer some (deferred={})",
        stats.deferred_puts.get()
    );
}

/// The LCI handshake path delegates receive posting to the communication
/// thread under saturation (§5.3.3); direct put has no receive to post, so
/// the same workload delegates nothing.
#[test]
fn direct_put_eliminates_retry_delegation() {
    // Two origins flood one target so the incoming handshakes outnumber the
    // target's 512-receive posting cap (one origin alone is bounded by its
    // own 512-sendd cap and can never overflow the target).
    let saturate = |cfg: EngineConfig| {
        let (mut sim, engines) = setup(3, cfg);
        engines[1].register_onesided(1, Rc::new(|_s, _e, _ev| SimTime::ZERO));
        for _ in 0..400 {
            for origin in [0usize, 2] {
                engines[origin].put(
                    &mut sim,
                    PutRequest {
                        dst: 1,
                        size: 64 << 10,
                        data: None,
                        r_tag: 1,
                        cb_data: Bytes::new(),
                        on_local: Box::new(|_s, _e| SimTime::ZERO),
                    },
                );
            }
        }
        sim.run();
        engines[1].stats().delegated_recvs.get()
    };
    let lci = saturate(EngineConfig::lci());
    let direct = saturate(EngineConfig::lci_direct());
    assert!(
        lci > 0,
        "expected handshake path to delegate under saturation"
    );
    assert_eq!(direct, 0, "direct put posts no receives, so none delegate");
}

#[test]
fn put_inside_am_callback_get_data_pattern() {
    // The GET DATA pattern: an AM callback at the data owner issues the put
    // directly from communication-thread context.
    for cfg in all_backends() {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg);
        let delivered = Rc::new(RefCell::new(None));

        // Node 0 owns data; GET DATA requests arrive on tag 11.
        let payload = Bytes::from(vec![42u8; 128 << 10]);
        let p2 = payload.clone();
        engines[0].register_am(
            &mut sim,
            11,
            Rc::new(move |sim, eng, ev| {
                let data = p2.clone();
                eng.put(
                    sim,
                    PutRequest {
                        dst: ev.src,
                        size: data.len(),
                        data: Some(data),
                        r_tag: 2,
                        cb_data: Bytes::new(),
                        on_local: Box::new(|_s, _e| SimTime::ZERO),
                    },
                );
                SimTime::from_ns(500)
            }),
        );
        let d = delivered.clone();
        engines[1].register_onesided(
            2,
            Rc::new(move |_sim, _eng, ev| {
                *d.borrow_mut() = ev.data;
                SimTime::ZERO
            }),
        );
        // Node 1 asks node 0 for the data.
        engines[1].send_am(&mut sim, 0, 11, 16, None);
        sim.run();
        assert_eq!(
            delivered.borrow().as_deref(),
            Some(&payload[..]),
            "{backend}: GET DATA round trip failed"
        );
    }
}

/// Measure the AM software latency (send_am submission to callback start).
fn measure_am_latency(cfg: EngineConfig) -> SimTime {
    let (mut sim, engines) = setup(2, cfg);
    let arrival: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let a = arrival.clone();
    engines[1].register_am(
        &mut sim,
        1,
        Rc::new(move |sim, _eng, _ev| {
            a.borrow_mut().get_or_insert(sim.now());
            SimTime::ZERO
        }),
    );
    engines[0].send_am_opts(&mut sim, 1, 1, 64, None, false);
    let t0 = sim.now();
    sim.run();
    let t1 = arrival.borrow().expect("latency probe never delivered");
    t1 - t0
}

#[test]
fn lci_am_latency_beats_mpi() {
    let lci = measure_am_latency(EngineConfig::lci());
    let mpi = measure_am_latency(EngineConfig::mpi());
    assert!(lci < mpi, "LCI AM latency ({lci}) should beat MPI ({mpi})");
}

/// Measure virtual put latency: submission to remote completion.
fn measure_put_latency(cfg: EngineConfig, size: usize) -> SimTime {
    let (mut sim, engines) = setup(2, cfg);
    let arrival: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let a = arrival.clone();
    engines[1].register_onesided(
        1,
        Rc::new(move |sim, _eng, _ev| {
            a.borrow_mut().get_or_insert(sim.now());
            SimTime::ZERO
        }),
    );
    engines[0].put(
        &mut sim,
        PutRequest {
            dst: 1,
            size,
            data: None,
            r_tag: 1,
            cb_data: Bytes::new(),
            on_local: Box::new(|_s, _e| SimTime::ZERO),
        },
    );
    let t0 = sim.now();
    sim.run();
    let t1 = arrival.borrow().expect("put never completed");
    t1 - t0
}

/// §7 acceptance: the direct put is never slower than the handshake
/// emulation at any size — inline below the eager threshold (identical
/// path), and strictly faster above it (no rendezvous round-trip).
#[test]
fn direct_put_never_slower_than_handshake_at_any_size() {
    for size in [64, 1 << 10, 4096, 4097, 16 << 10, 256 << 10, 4 << 20] {
        let hs = measure_put_latency(EngineConfig::lci(), size);
        let direct = measure_put_latency(EngineConfig::lci_direct(), size);
        assert!(
            direct <= hs,
            "size {size}: direct put ({direct}) slower than handshake ({hs})"
        );
    }
    // Just above the eager threshold the win must be strict: the handshake
    // path pays the full rendezvous round-trip there.
    let hs = measure_put_latency(EngineConfig::lci(), 8 << 10);
    let direct = measure_put_latency(EngineConfig::lci_direct(), 8 << 10);
    assert!(
        direct < hs,
        "8 KiB: direct put ({direct}) must strictly beat handshake ({hs})"
    );
}

#[test]
fn direct_send_bypasses_comm_thread() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg.with_multithread_am(true));
        let got = Rc::new(RefCell::new(0));
        let g = got.clone();
        engines[1].register_am(
            &mut sim,
            5,
            Rc::new(move |_sim, _eng, _ev| {
                *g.borrow_mut() += 1;
                SimTime::ZERO
            }),
        );
        let cost = engines[0].send_am_direct(&mut sim, 1, 5, 128, None);
        assert!(cost > SimTime::ZERO, "{backend}");
        sim.run();
        assert_eq!(*got.borrow(), 1, "{backend}");
        assert_eq!(engines[0].stats().am_sent.get(), 1, "{backend}");
    }
}

#[test]
fn deterministic_replay_same_schedule() {
    for cfg in all_backends() {
        let run = || {
            let (mut sim, engines) = setup(3, cfg.clone());
            let log = Rc::new(RefCell::new(Vec::new()));
            for engine in engines.iter().take(3) {
                let l = log.clone();
                engine.register_am(
                    &mut sim,
                    1,
                    Rc::new(move |sim, _eng, ev| {
                        l.borrow_mut().push((ev.src, sim.now().as_ns()));
                        SimTime::from_ns(100)
                    }),
                );
            }
            for i in 0..12usize {
                engines[i % 3].send_am(&mut sim, (i + 1) % 3, 1, 64, None);
            }
            sim.run();
            let out = log.borrow().clone();
            out
        };
        assert_eq!(run(), run(), "{}", cfg.backend);
    }
}

#[test]
fn stats_track_comm_thread_occupancy() {
    let (mut sim, engines) = setup(2, EngineConfig::lci());
    engines[1].register_am(&mut sim, 1, Rc::new(|_s, _e, _ev| SimTime::from_us(1)));
    for _ in 0..10 {
        engines[0].send_am_opts(&mut sim, 1, 1, 64, None, false);
    }
    sim.run();
    let s = engines[1].stats();
    assert!(
        s.comm_busy >= SimTime::from_us(10),
        "callback time accounted"
    );
    assert!(s.progress_busy > SimTime::ZERO, "progress thread worked");
    assert!(s.comm_rounds.get() > 0);
}

#[test]
fn direct_put_mode_round_trips() {
    // §7 future work: the put interface implemented directly by LCI.
    let (mut sim, engines) = setup(2, EngineConfig::lci_direct());
    let remote = Rc::new(RefCell::new(None));
    let local = Rc::new(RefCell::new(false));
    let r = remote.clone();
    engines[1].register_onesided(
        4,
        Rc::new(move |_sim, _eng, ev| {
            *r.borrow_mut() = Some((ev.src, ev.size, ev.data, ev.cb_data));
            SimTime::ZERO
        }),
    );
    let data = Bytes::from(vec![9u8; 300_000]);
    let l = local.clone();
    engines[0].put(
        &mut sim,
        PutRequest {
            dst: 1,
            size: data.len(),
            data: Some(data.clone()),
            r_tag: 4,
            cb_data: Bytes::from_static(b"ctx"),
            on_local: Box::new(move |_s, _e| {
                *l.borrow_mut() = true;
                SimTime::ZERO
            }),
        },
    );
    sim.run();
    assert!(*local.borrow());
    let r = remote.borrow();
    let (src, size, d, cb) = r.as_ref().expect("remote completion");
    assert_eq!((*src, *size), (0, 300_000));
    assert_eq!(d.as_deref(), Some(&data[..]));
    assert_eq!(&cb[..], b"ctx");
}

#[test]
fn backend_kind_roundtrips_through_engine() {
    for cfg in all_backends() {
        let kind = cfg.backend;
        let (_sim, engines) = setup(2, cfg);
        assert_eq!(engines[0].backend(), kind);
        assert_eq!(BackendKind::parse(kind.cli_name()), Some(kind));
    }
}

#[test]
fn multiple_progress_threads_complete_and_split_load() {
    for mut cfg in [EngineConfig::lci(), EngineConfig::lci_direct()] {
        let backend = cfg.backend;
        cfg.lci_progress_threads = 2;
        let (mut sim, engines) = setup(2, cfg);
        let n = Rc::new(RefCell::new(0));
        let n2 = n.clone();
        engines[1].register_onesided(
            1,
            Rc::new(move |_s, _e, _ev| {
                *n2.borrow_mut() += 1;
                SimTime::ZERO
            }),
        );
        for _ in 0..100 {
            engines[0].put(
                &mut sim,
                PutRequest {
                    dst: 1,
                    size: 64 << 10,
                    data: None,
                    r_tag: 1,
                    cb_data: Bytes::new(),
                    on_local: Box::new(|_s, _e| SimTime::ZERO),
                },
            );
        }
        sim.run();
        assert_eq!(*n.borrow(), 100, "{backend}");
        // Both progress cores saw work.
        let cores = engines[1].progress_cores();
        assert_eq!(cores.len(), 2, "{backend}");
        assert!(cores.iter().all(|c| c.borrow().jobs() > 0), "{backend}");
    }
}

/// Every wire record a library stores is taken again when its message is
/// delivered: AMs, eager and rendezvous puts (direct puts on `lci-direct`)
/// and, past 512 puts in flight, LCI's delegated receives and MPI's
/// deferred transfers all leave the world's slab empty once drained.
#[test]
fn drained_runs_leave_no_wire_record_in_flight() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let (mut sim, engines) = setup(2, cfg);
        engines[1].register_am(&mut sim, 7, Rc::new(|_s, _e, _ev| SimTime::ZERO));
        engines[1].register_onesided(1, Rc::new(|_s, _e, _ev| SimTime::ZERO));
        for i in 0..16u8 {
            engines[0].send_am(&mut sim, 1, 7, 8, Some(Bytes::from(vec![i; 8])));
        }
        for i in 0..600 {
            engines[0].put(
                &mut sim,
                PutRequest {
                    dst: 1,
                    size: if i % 4 == 0 { 256 } else { 64 << 10 },
                    data: None,
                    r_tag: 1,
                    cb_data: Bytes::new(),
                    on_local: Box::new(|_s, _e| SimTime::ZERO),
                },
            );
        }
        let mut peak = 0;
        while sim.step() {
            peak = peak.max(engines[0].backend.wires_in_flight());
        }
        assert!(peak > 0, "{backend}: no wire record was ever in flight");
        assert_eq!(engines[1].stats().puts_remote_done.get(), 600, "{backend}");
        assert_eq!(engines[0].backend.wires_in_flight(), 0, "{backend}");
    }
}

/// MPI's unexpected-message table keeps nothing once a put storm has
/// drained. A put's data RTS arrives before the target's comm thread has
/// posted the receive its handshake asks for, so it waits in the table, on
/// a tag of its own, until that receive matches it by `(src, tag)`; no
/// `ANY_SOURCE` receive ever probes it. Every such message must leave the
/// table.
#[test]
fn mpi_unexpected_table_holds_nothing_after_a_put_storm() {
    for puts in [200, 800] {
        let (mut sim, engines) = setup(4, EngineConfig::for_backend(BackendKind::Mpi));
        for e in &engines {
            e.register_onesided(1, Rc::new(|_s, _e, _ev| SimTime::ZERO));
        }
        for i in 0..puts {
            let src = i % 4;
            engines[src].put(
                &mut sim,
                PutRequest {
                    dst: (src + 1 + i / 4 % 3) % 4,
                    size: 4096,
                    data: None,
                    r_tag: 1,
                    cb_data: Bytes::new(),
                    on_local: Box::new(|_s, _e| SimTime::ZERO),
                },
            );
        }
        sim.run();
        let done: u64 = engines
            .iter()
            .map(|e| e.stats().puts_remote_done.get())
            .sum();
        assert_eq!(done, puts as u64);
        for e in &engines {
            assert_eq!(e.backend.unexpected_depth(), 0, "{puts} puts");
        }
    }
}

/// A comm world must die with its engines. Regression: the LCI backend's
/// AM handler, stored inside the `LciWorld`, held a strong endpoint, so
/// every LCI world (and through it the fabric) was an `Rc` cycle that
/// outlived its cluster.
#[test]
fn dropping_the_engines_frees_the_world_on_every_backend() {
    for cfg in all_backends() {
        let backend = cfg.backend;
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::expanse(2));
        let engines = CommWorld::create(&mut sim, &fabric, cfg);
        engines[1].register_am(&mut sim, 7, Rc::new(|_sim, _eng, _ev| SimTime::ZERO));
        engines[0].send_am(&mut sim, 1, 7, 4, Some(Bytes::from_static(b"ping")));
        sim.run();
        assert!(
            Rc::strong_count(&fabric) > 1,
            "{backend}: the world holds the fabric while its engines live"
        );
        drop(engines);
        drop(sim);
        assert_eq!(
            Rc::strong_count(&fabric),
            1,
            "{backend}: engines dropped but something still owns the fabric"
        );
    }
}

/// Backend micro-tasks carry their data in the backend's own FIFO and only
/// a code on the engine queue; each span on the communication track is
/// labelled from that code. Span counts per label must equal the work
/// items behind them: one `am` per user AM and one `data` per put
/// completion (origin and target) on LCI, one `completion` per completed
/// request — user AM, handshake, data send, data receive — on MPI.
#[test]
fn comm_thread_spans_count_one_per_backend_micro_task() {
    for mut cfg in all_backends() {
        let backend = cfg.backend;
        cfg.trace = true;
        let (mut sim, engines) = setup(2, cfg);
        engines[1].register_am(&mut sim, 7, Rc::new(|_s, _e, _ev| SimTime::from_ns(50)));
        engines[1].register_onesided(1, Rc::new(|_s, _e, _ev| SimTime::ZERO));
        for i in 0..12u8 {
            engines[0].send_am_opts(&mut sim, 1, 7, 8, Some(Bytes::from(vec![i; 8])), false);
        }
        // Eager (small) and rendezvous (large) puts.
        for size in [256usize, 1 << 20, 512, 3 << 20] {
            engines[0].put(
                &mut sim,
                PutRequest {
                    dst: 1,
                    size,
                    data: None,
                    r_tag: 1,
                    cb_data: Bytes::new(),
                    on_local: Box::new(|_s, _e| SimTime::ZERO),
                },
            );
        }
        sim.run();

        let spans = |label: &str| -> u64 {
            engines
                .iter()
                .map(|e| {
                    let track = format!("n{}.comm", e.node());
                    let tr = e.trace_handle();
                    let n = tr
                        .borrow()
                        .spans()
                        .iter()
                        .filter(|s| s.track == track && s.name == label)
                        .count();
                    n as u64
                })
                .sum()
        };
        let ams = engines[1].stats().am_received.get();
        let local = engines[0].stats().puts_local_done.get();
        let remote = engines[1].stats().puts_remote_done.get();
        assert_eq!((ams, local, remote), (12, 4, 4), "{backend}");
        if backend == BackendKind::Mpi {
            assert_eq!(spans("completion"), ams + local + 2 * remote, "{backend}");
            assert_eq!(spans("am") + spans("data"), 0, "{backend}");
        } else {
            assert_eq!(spans("am"), ams, "{backend}");
            assert_eq!(spans("data"), local + remote, "{backend}");
            assert_eq!(spans("completion"), 0, "{backend}");
        }
        assert_eq!(spans("backend"), 0, "{backend}: unlabelled micro-task");
    }
}
