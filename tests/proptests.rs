//! Randomized property tests over the whole stack, driven by the in-tree
//! deterministic generator (the workspace builds offline, so no external
//! `proptest`).

use amtlc::comm::{BackendKind, EngineConfig};
use amtlc::core::{Cluster, ClusterConfig, GraphBuilder, TaskDesc};
use amtlc::linalg::{gemm, qr_thin, qr_truncate, Matrix, Trans};
use amtlc::simnet::{DetRng, Sim, SimTime};
use amtlc::tlr::LrTile;
use bytes::Bytes;

const CASES: u64 = 24;

/// DES: events execute in non-decreasing time order regardless of the
/// scheduling order.
#[test]
fn des_event_order_is_monotone() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xde5_0000 + case);
        let n = rng.gen_usize(1..200);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();

        let mut sim = Sim::new();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for &t in &times {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ns(t), move |sim| {
                log.borrow_mut().push(sim.now().as_ns());
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), times.len(), "case {case}");
        for w in log.windows(2) {
            assert!(w[0] <= w[1], "case {case}");
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(&*log, &sorted, "case {case}");
    }
}

/// The engine executes arbitrary interleaved
/// `schedule_at`/`schedule_in`/`schedule_now` workloads — including events
/// that schedule further events mid-run, with times spanning dense ties,
/// microseconds and tens of milliseconds — in exactly the order of the seed
/// reference engine (one heap of boxed closures). A second case family
/// preloads over 2 048 events, `sim_fig4`'s peak pending population, half
/// of them tied on 64 instants, so the queue runs at realistic depth. A
/// third aims at the radix queue's edges: times one below, at and one
/// above powers of two up to bit 63, long runs of ties, and bodies that
/// call `schedule_now` and `schedule_at(now)`.
#[test]
fn engine_matches_reference_order() {
    use amtlc::simnet::reference::RefSim;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, u64)>>>;

    #[derive(Clone, Copy, PartialEq)]
    enum Family {
        Sparse,
        Dense,
        Radix,
    }

    /// A time next to a power-of-two boundary above `now`: one below, at
    /// or one above the next multiple of `2^k`, for a random `k` up to 63.
    /// `None` when that multiple overflows a `u64`.
    fn straddle(rng: &mut DetRng, now: u64) -> Option<u64> {
        let k = rng.gen_range(0..64);
        let boundary = (now | ((1u64 << k) - 1)).checked_add(1)?;
        Some(boundary - 1 + rng.gen_range(0..3))
    }

    // Identical workload driver for both engine types. Every executed
    // event logs (id, now) and may spawn children whose scheduling mode
    // and delay are drawn from an id-seeded rng, so the two engines see
    // byte-identical closures in byte-identical schedule order; any
    // divergence in execution order derails the id stream and the logs.
    macro_rules! workload {
        ($sim_ty:ty, $case:expr, $family:expr) => {{
            fn event(
                sim: &mut $sim_ty,
                id: u64,
                depth: u32,
                (case, family): (u64, Family),
                log: Log,
                next: Rc<RefCell<u64>>,
            ) {
                log.borrow_mut().push((id, sim.now().as_ns()));
                if depth == 0 {
                    return;
                }
                let mut rng = DetRng::seed_from_u64(case.wrapping_mul(0x9e3779b9).wrapping_add(id));
                for _ in 0..rng.gen_usize(0..3) {
                    let kid = {
                        let mut n = next.borrow_mut();
                        *n += 1;
                        *n
                    };
                    let (log, next) = (log.clone(), next.clone());
                    let body =
                        move |s: &mut $sim_ty| event(s, kid, depth - 1, (case, family), log, next);
                    let now = sim.now().as_ns();
                    let d = rng.gen_range(0..5_000);
                    if family == Family::Radix {
                        match rng.gen_range(0..4) {
                            0 => sim.schedule_now(body),
                            1 => sim.schedule_at(SimTime::from_ns(now), body),
                            2 => sim.schedule_in(SimTime::from_ns(d % 3), body), // ties
                            _ => match straddle(&mut rng, now) {
                                Some(t) => sim.schedule_at(SimTime::from_ns(t), body),
                                None => sim.schedule_now(body),
                            },
                        }
                        continue;
                    }
                    match rng.gen_range(0..3) {
                        0 => sim.schedule_now(body),
                        1 => sim.schedule_in(SimTime::from_ns(d), body),
                        _ => sim.schedule_at(SimTime::from_ns(now + d * 1000), body),
                    }
                }
            }
            let case: u64 = $case;
            let family: Family = $family;
            let mut rng = DetRng::seed_from_u64(0x1adde2 ^ case);
            let n = match family {
                Family::Sparse => rng.gen_usize(1..100),
                Family::Dense => rng.gen_usize(2048..2560),
                Family::Radix => rng.gen_usize(200..600),
            };
            let mut sim = <$sim_ty>::new();
            let log: Log = Rc::new(RefCell::new(Vec::new()));
            let next = Rc::new(RefCell::new(n as u64));
            // The radix family preloads runs of up to 48 tied events.
            let (mut tie, mut tie_left) = (0, 0);
            for id in 0..n as u64 {
                let t = match (family, rng.gen_range(0..4)) {
                    (Family::Dense, 0 | 1) => rng.gen_range(0..64) * 1_000, // 64 instants
                    (Family::Dense, _) => rng.gen_range(0..5_000_000),
                    (Family::Sparse, 0) => rng.gen_range(0..200), // dense ties
                    (Family::Sparse, 1) => rng.gen_range(0..100_000),
                    (Family::Sparse, 2) => rng.gen_range(0..5_000_000),
                    (Family::Sparse, _) => rng.gen_range(0..50_000_000),
                    (Family::Radix, _) => {
                        if tie_left == 0 {
                            tie = straddle(&mut rng, 0).expect("from zero");
                            tie_left = rng.gen_usize(1..49);
                        }
                        tie_left -= 1;
                        tie
                    }
                };
                let (log, next) = (log.clone(), next.clone());
                sim.schedule_at(SimTime::from_ns(t), move |s| {
                    event(s, id, 3, (case, family), log, next)
                });
            }
            sim.run();
            let trace = log.borrow().clone();
            (trace, sim.events_executed())
        }};
    }

    let families = [Family::Sparse, Family::Dense, Family::Radix];
    for (f, &family) in families.iter().enumerate() {
        for case in f as u64 * CASES..(f as u64 + 1) * CASES {
            let (engine, engine_n) = workload!(Sim, case, family);
            let (reference, ref_n) = workload!(RefSim, case, family);
            assert_eq!(engine_n, ref_n, "case {case}");
            assert_eq!(engine.len() as u64, engine_n, "case {case}");
            assert_eq!(engine, reference, "case {case}");
        }
    }
}

/// The parallel sweep runner returns bit-identical results to the
/// sequential one, whatever the worker count.
#[test]
fn parallel_sweep_is_bit_identical_across_jobs() {
    use amtlc::bench::pingpong::{run_pingpong, PingPongCfg};
    use amtlc::bench::run_sweep;

    let points: Vec<(usize, BackendKind)> = [16 * 1024, 64 * 1024]
        .into_iter()
        .flat_map(|n| BackendKind::ALL.into_iter().map(move |b| (n, b)))
        .collect();
    let run = |&(n, b): &(usize, BackendKind)| {
        run_pingpong(b, &PingPongCfg::bandwidth(n, 1, true, 2))
            .gbit_per_s
            .to_bits()
    };
    let sequential = run_sweep(&points, 1, run);
    for jobs in [2, 8] {
        assert_eq!(run_sweep(&points, jobs, run), sequential, "jobs {jobs}");
    }
}

/// Fabric: every sent message is delivered exactly once with its
/// declared size, whatever the size/order mix.
#[test]
fn fabric_delivers_every_message() {
    use amtlc::netmodel::{rx_handler, Fabric, FabricConfig, Payload};
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xfab_0000 + case);
        let n = rng.gen_usize(1..40);
        let sizes: Vec<usize> = (0..n).map(|_| rng.gen_usize(0..2_000_000)).collect();

        let mut sim = Sim::new();
        let fab = Fabric::new(FabricConfig::expanse(2));
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let g = got.clone();
        fab.borrow_mut()
            .set_handler(1, rx_handler(move |_s, d| g.borrow_mut().push(d.size)));
        for &s in &sizes {
            Fabric::send(&fab, &mut sim, 0, 1, s, Payload::Empty, None);
        }
        sim.run();
        let mut got = got.borrow().clone();
        let mut want = sizes.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

/// Runtime: arbitrary read/write chains over a handful of keys match
/// the sequential oracle on every backend.
#[test]
fn runtime_matches_oracle() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x0c1e_0000 + case);
        let n = rng.gen_usize(1..40);
        let ops: Vec<(u64, u64, usize)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..6),
                    rng.gen_range(0..6),
                    rng.gen_usize(0..3),
                )
            })
            .collect();
        let seed = rng.gen_range(0..255) as u8;

        for backend in BackendKind::ALL {
            let nodes = 3;
            let mut g = GraphBuilder::new(nodes);
            for k in 0..6u64 {
                g.data(
                    k,
                    4,
                    (k as usize) % nodes,
                    Some(Bytes::from(vec![seed ^ k as u8; 4])),
                );
            }
            for &(src, dst, node) in &ops {
                g.insert(
                    TaskDesc::new("op")
                        .on_node(node)
                        .flops(1e5)
                        .read_key(src)
                        .write(dst, 4)
                        .kernel(move |ins| {
                            vec![Bytes::from(
                                ins[0]
                                    .iter()
                                    .map(|b| b.wrapping_add(7))
                                    .collect::<Vec<u8>>(),
                            )]
                        }),
                );
            }
            let finals: Vec<_> = (0..6u64).map(|k| g.current(k).expect("version")).collect();
            let graph = g.build();
            let oracle = graph.sequential_oracle();
            let mut cluster = Cluster::new(ClusterConfig {
                nodes,
                workers_per_node: 2,
                engine: EngineConfig::for_backend(backend),
                ..Default::default()
            });
            let report = cluster.execute(graph);
            assert!(report.complete(), "case {case} backend {backend}");
            for v in finals {
                let got = cluster.data(v);
                assert_eq!(
                    got.as_ref(),
                    oracle.get(&v),
                    "case {case} backend {backend}"
                );
            }
        }
    }
}

/// Multicast trees span: for an arbitrary destination list and arity,
/// the splitter `tree_children_k` covers every destination exactly once
/// with fan-out at most `k` at every level.
#[test]
fn multicast_splitter_covers_arbitrary_destinations() {
    use amtlc::core::tree_children_k;

    fn walk(subtree: &[u32], k: usize, out: &mut Vec<u32>, case: u64) {
        let splits = tree_children_k(subtree, k);
        assert!(splits.len() <= k, "case {case}: fan-out {}", splits.len());
        for (child, rest) in splits {
            out.push(child);
            walk(&rest, k, out, case);
        }
    }

    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x7ee_0000 + case);
        let k = rng.gen_usize(2..9);
        // Multicast destination splitter: arbitrary dest list, full
        // single coverage.
        let m = rng.gen_usize(0..80);
        let dests: Vec<u32> = (0..m as u32).map(|i| i * 3 + 1).collect();
        let mut covered = Vec::new();
        walk(&dests, k, &mut covered, case);
        covered.sort_unstable();
        assert_eq!(covered, dests, "case {case}: coverage differs");
    }
}

/// Fat-tree routing is deterministic and loop-free for arbitrary
/// topologies: recomputing a route yields the identical hop list, no hop
/// repeats, every route starts at the source NIC and ends at the
/// destination NIC, and cross-pod routes climb exactly once through the
/// two pods' shared links and the spine.
#[test]
fn fat_tree_routes_are_deterministic_and_loop_free() {
    use amtlc::netmodel::{FabricConfig, FatTreeConfig, Hop, Topology};

    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xf47_0000 + case);
        let nodes = rng.gen_usize(2..130);
        let pods = rng.gen_usize(1..nodes.min(16) + 1);
        let mut cfg = FabricConfig::expanse(nodes);
        cfg.topology = Topology::FatTree(FatTreeConfig {
            pods,
            link_bandwidth_gbps: 50.0 + rng.gen_f64() * 750.0,
            spine_latency: SimTime::from_ns(rng.gen_range(1..5_000)),
        });
        for _ in 0..64 {
            let src = rng.gen_usize(0..nodes);
            let dst = rng.gen_usize(0..nodes);
            let route = cfg.route(src, dst);
            assert_eq!(route, cfg.route(src, dst), "case {case}: nondeterministic");
            for (i, h) in route.iter().enumerate() {
                assert!(!route[..i].contains(h), "case {case}: loop in {route:?}");
            }
            assert_eq!(route.first(), Some(&Hop::SrcNic(src)), "case {case}");
            assert_eq!(route.last(), Some(&Hop::DstNic(dst)), "case {case}");
            if cfg.pod_of(src) == cfg.pod_of(dst) {
                assert_eq!(route.len(), 2, "case {case}: {route:?}");
            } else {
                assert_eq!(
                    route,
                    vec![
                        Hop::SrcNic(src),
                        Hop::PodUp(cfg.pod_of(src)),
                        Hop::Spine,
                        Hop::PodDown(cfg.pod_of(dst)),
                        Hop::DstNic(dst),
                    ],
                    "case {case}"
                );
            }
        }
    }
}

/// TLR compression respects the error bound: the truncated tile
/// reconstructs the original within tol × √(matrix area) (absolute
/// threshold on singular values bounds the Frobenius error).
#[test]
fn tlr_compression_error_bounded() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x71c_0000 + case);
        let m = rng.gen_usize(4..20);
        let n = rng.gen_usize(4..20);
        let tol_exp = rng.gen_range(2..10) as u32;

        let tol = 10f64.powi(-(tol_exp as i32));
        let a = Matrix::from_fn(m, n, |i, j| {
            (-((i as f64 / m as f64 - j as f64 / n as f64).powi(2)) * 8.0).exp()
        });
        let t = LrTile::compress(&a, tol, m.min(n));
        let err = t.to_dense().max_diff(&a);
        // Dropped singular values are each < tol; crude but sound bound.
        let bound = tol * (m.min(n) as f64) + 1e-12;
        assert!(err <= bound, "case {case}: err {err} > bound {bound}");
        assert!(t.rank() >= 1 && t.rank() <= m.min(n), "case {case}");
    }
}

/// Rounded low-rank addition equals the dense sum within tolerance.
#[test]
fn tlr_addition_matches_dense() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xadd_0000 + case);
        let k1 = rng.gen_usize(1..4);
        let k2 = rng.gen_usize(1..4);
        let scale = 0.1 + rng.gen_f64() * 9.9;

        let n = 16;
        let mk = |k: usize, off: usize| {
            Matrix::from_fn(n, k, |i, j| {
                let h = ((i * 37 + j * 11 + off) as u64).wrapping_mul(0x9e3779b97f4a7c15);
                (((h >> 16) % 1000) as f64 / 1000.0 - 0.5) * scale
            })
        };
        let (u, v, w, z) = (mk(k1, 0), mk(k1, 5), mk(k2, 11), mk(k2, 17));
        let t = LrTile {
            u: u.clone(),
            v: v.clone(),
        };
        let sum = t.add_truncate(&w, &z, 1e-12, n);
        let mut dense = Matrix::zeros(n, n);
        gemm(1.0, &u, Trans::No, &v, Trans::Yes, 0.0, &mut dense);
        gemm(1.0, &w, Trans::No, &z, Trans::Yes, 1.0, &mut dense);
        let err = sum.to_dense().max_diff(&dense);
        assert!(err < 1e-8 * scale.max(1.0), "case {case}: err {err}");
    }
}

/// `U·diag(sigma)·Vᵀ`, `m × n`, with random orthonormal `U` (`m × k`) and
/// `V` (`n × k`), `k = sigma.len() ≤ min(m, n)`: a matrix whose singular
/// values are known by construction, to `eps·‖sigma‖`.
fn with_spectrum(rng: &mut DetRng, m: usize, n: usize, sigma: &[f64]) -> Matrix {
    let k = sigma.len();
    let mut orth = |rows: usize| qr_thin(&Matrix::from_fn(rows, k, |_, _| rng.gen_f64() - 0.5)).0;
    let (u, v) = (orth(m), orth(n));
    let us = Matrix::from_fn(m, k, |i, j| u.get(i, j) * sigma[j]);
    let mut a = Matrix::zeros(m, n);
    gemm(1.0, &us, Trans::No, &v, Trans::Yes, 0.0, &mut a);
    a
}

/// `qr_truncate`'s contract, against `sigma`, the singular values of `a`
/// (all `s = min(m, n)` of them, descending, exact to `eps·‖A‖`):
/// `1 ≤ k ≤ max(1, min(s, maxrank))`; `k` at least the count of
/// `σ > √(s−k)·tol` unless the cap stopped it; `Q_k` — the factor with the
/// longer side's rows — orthonormal to 1e-12; and, when the cap did not
/// stop it, an error of at most `√(s−k)·tol + 1e-12·‖A‖`.
fn check_rounding(what: &str, a: &Matrix, sigma: &[f64], tol: f64, maxrank: usize) -> usize {
    let (x, y) = qr_truncate(a.clone(), tol, maxrank);
    let k = x.cols();
    assert_eq!(
        (x.rows(), y.rows(), y.cols()),
        (a.rows(), a.cols(), k),
        "{what}"
    );
    let s = sigma.len();
    assert!(
        (1..=s.min(maxrank).max(1)).contains(&k),
        "{what}: rank {k} above the cap"
    );
    let norm = sigma.iter().map(|s| s * s).sum::<f64>().sqrt();
    let bound = ((s - k.min(s)) as f64).sqrt() * tol;
    let revealed = sigma.iter().filter(|&&x| x > bound + 1e-12 * norm).count();
    assert!(
        k >= revealed.min(maxrank).max(1),
        "{what}: rank {k}, but {revealed} σ above √(s−k)·tol = {bound}"
    );

    let q = if a.rows() < a.cols() { &y } else { &x };
    let mut gram = Matrix::zeros(k, k);
    gemm(1.0, q, Trans::Yes, q, Trans::No, 0.0, &mut gram);
    let off = gram.max_diff(&Matrix::identity(k));
    assert!(off <= 1e-12, "{what}: orthonormal factor off by {off}");
    let mut err = Matrix::zeros(a.rows(), a.cols());
    gemm(1.0, &x, Trans::No, &y, Trans::Yes, 0.0, &mut err);
    let err = err
        .data()
        .iter()
        .zip(a.data())
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    assert!(!err.is_nan(), "{what}: NaN in the product");
    if k < maxrank || k == s {
        assert!(
            err <= bound + 1e-12 * norm,
            "{what}: error {err} above √(s−k)·tol = {bound}"
        );
    }
    k
}

/// Rounding on random shapes — row and column vectors, 33 × 32 and
/// 32 × 33, anything up to 40 × 40 — with a random spectrum over twelve
/// decades and a threshold inside it, and on rank-deficient inputs built
/// from one: duplicated columns (`[B B]` has `√2·σ(B)` and zeros), zero
/// columns, and the zero matrix.
#[test]
fn rounding_keeps_its_contract_on_random_shapes_and_deficient_inputs() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x5fd_0000 + case);
        let mut shapes = vec![
            (1, rng.gen_usize(1..40)),
            (rng.gen_usize(1..40), 1),
            (33, 32),
            (32, 33),
        ];
        shapes.push((rng.gen_usize(1..41), rng.gen_usize(1..41)));
        for (m, n) in shapes {
            let k = m.min(n);
            let mut sigma: Vec<f64> = (0..k).map(|_| 10f64.powf(-12.0 * rng.gen_f64())).collect();
            sigma.sort_by(|p, q| q.total_cmp(p));
            let tol = 10f64.powf(-1.0 - 10.0 * rng.gen_f64());
            let maxrank = if rng.gen_bool(0.25) {
                rng.gen_usize(0..k + 1)
            } else {
                usize::MAX
            };
            let a = with_spectrum(&mut rng, m, n, &sigma);
            let what = format!("case {case}: {m} x {n}, tol {tol:e}, maxrank {maxrank}");
            check_rounding(&what, &a, &sigma, tol, maxrank);

            // [B B]: duplicated columns.
            let dup = Matrix::from_fn(m, 2 * n, |i, j| a.get(i, j % n));
            let mut s2: Vec<f64> = sigma.iter().map(|s| s * 2f64.sqrt()).collect();
            s2.resize(m.min(2 * n), 0.0);
            check_rounding(&format!("{what}, [B B]"), &dup, &s2, tol, maxrank);
            // B with a zero column inserted at `z`, and its transpose.
            let z = rng.gen_usize(0..n + 1);
            let holed = Matrix::from_fn(m, n + 1, |i, j| match j.cmp(&z) {
                std::cmp::Ordering::Less => a.get(i, j),
                std::cmp::Ordering::Equal => 0.0,
                std::cmp::Ordering::Greater => a.get(i, j - 1),
            });
            let mut s0 = sigma.clone();
            s0.resize(m.min(n + 1), 0.0);
            check_rounding(
                &format!("{what}, zero column {z}"),
                &holed,
                &s0,
                tol,
                maxrank,
            );
            check_rounding(
                &format!("{what}, zero row {z}"),
                &holed.transpose(),
                &s0,
                tol,
                maxrank,
            );
            // The zero matrix: a forced rank-1 pair with a zero product.
            let zero = Matrix::zeros(m, n);
            assert_eq!(
                check_rounding(&format!("{what}, zero"), &zero, &vec![0.0; k], tol, maxrank),
                1
            );
            let (x, y) = qr_truncate(zero, tol, maxrank);
            let mut xy = Matrix::zeros(m, n);
            gemm(1.0, &x, Trans::No, &y, Trans::Yes, 0.0, &mut xy);
            assert!(xy.data().iter().all(|&v| v == 0.0), "{what}: zero");
        }
    }
}

/// Rounded addition against the dense sum, with the stacked rank
/// `k1 + k2` below the tile size (the QR of `[V Z]` tall, the core
/// `[U W]·Rvᵀ` of `ts × (k1 + k2)`) and above it (the QR wide, the core
/// `ts × ts`): the error is at most `√ts·tol` plus rounding, the rank at
/// most `min(ts, k1 + k2)`, and `U` has orthonormal columns (the rounding's
/// `Q_k`, from a pivoted QR of the core's tall orientation; the left stack
/// needs no QR for it, since `Qu·Q_k` is orthonormal whenever `Q_k` is).
#[test]
fn tlr_addition_matches_dense_below_and_above_the_tile_size() {
    const TS: usize = 16;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xadd_1000 + case);
        for (k1, k2) in [
            (rng.gen_usize(1..6), rng.gen_usize(1..6)),
            (rng.gen_usize(9..17), rng.gen_usize(9..17)),
        ] {
            // Graded columns give the sum a decaying spectrum to cut.
            let mut graded = |k: usize| {
                Matrix::from_fn(TS, k, |_, j| (rng.gen_f64() - 0.5) * 0.5f64.powi(j as i32))
            };
            let (u, v, w, z) = (graded(k1), graded(k1), graded(k2), graded(k2));
            let mut dense = Matrix::zeros(TS, TS);
            gemm(1.0, &u, Trans::No, &v, Trans::Yes, 0.0, &mut dense);
            gemm(1.0, &w, Trans::No, &z, Trans::Yes, 1.0, &mut dense);
            let tol = 1e-8;
            let sum = LrTile { u, v }.add_truncate(&w, &z, tol, usize::MAX);
            assert!(
                sum.rank() <= TS.min(k1 + k2),
                "case {case}: rank {} for {k1} + {k2}",
                sum.rank()
            );
            let got = sum.to_dense();
            let err = got
                .data()
                .iter()
                .zip(dense.data())
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
            let bound = (TS as f64).sqrt() * tol + 1e-12 * dense.norm_fro();
            assert!(
                err <= bound,
                "case {case}: {k1} + {k2}: error {err} above {bound}"
            );
            let k = sum.rank();
            let mut gram = Matrix::zeros(k, k);
            gemm(1.0, &sum.u, Trans::Yes, &sum.u, Trans::No, 0.0, &mut gram);
            let off = gram.max_diff(&Matrix::identity(k));
            assert!(off <= 1e-12, "case {case}: {k1} + {k2}: UᵀU off I by {off}");
        }
    }
}

/// `Bytes` is one value type over three representations — inline, shared,
/// static: the same random sequence of window operations over each, for
/// every length an inline handle can hold, agrees step by step with a
/// `Vec<u8>` model, and `Eq` / `Ord` / `Hash` cannot tell them apart.
#[test]
fn bytes_representations_agree_with_a_vec_model() {
    use std::hash::{Hash, Hasher};

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }
    /// Apply `op` to every representation; all three must return `want`.
    fn all<R: PartialEq + std::fmt::Debug>(
        reprs: &mut [Bytes; 3],
        want: R,
        op: impl Fn(&mut Bytes) -> R,
    ) {
        for (i, b) in reprs.iter_mut().enumerate() {
            assert_eq!(op(b), want, "representation {i}");
        }
    }

    for len in 0..=Bytes::INLINE_CAP {
        for round in 0..8u64 {
            let mut rng = DetRng::seed_from_u64(0xb17e_0000 + 64 * len as u64 + round);
            let mut model: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut reprs = [
                Bytes::inline(&model).expect("fits the handle"),
                Bytes::from(model.clone()),
                Bytes::from_static(Box::leak(model.clone().into_boxed_slice())),
            ];
            for _ in 0..12 {
                let at = rng.gen_usize(0..model.len() + 1);
                let keep_piece = rng.gen_bool(0.5);
                match rng.gen_usize(0..6) {
                    0 => {
                        let rest = model.split_off(at);
                        all(&mut reprs, model.clone(), |b| {
                            let piece = b.slice(0..at);
                            let out = piece.to_vec();
                            *b = if keep_piece {
                                piece
                            } else {
                                b.slice(at..b.len())
                            };
                            out
                        });
                        if !keep_piece {
                            model = rest;
                        }
                    }
                    1 => {
                        let tail = model.split_off(at);
                        all(&mut reprs, tail.clone(), |b| {
                            let piece = b.slice(at..b.len());
                            let out = piece.to_vec();
                            *b = if keep_piece { piece } else { b.slice(0..at) };
                            out
                        });
                        if keep_piece {
                            model = tail;
                        }
                    }
                    2 => {
                        let from = rng.gen_usize(0..at + 1);
                        model = model[from..at].to_vec();
                        all(&mut reprs, (), |b| *b = b.slice(from..at));
                    }
                    3 if model.len() >= 8 => {
                        let want = u64::from_le_bytes(model[..8].try_into().unwrap());
                        model.drain(..8);
                        all(&mut reprs, want, |b| {
                            let v = u64::from_le_bytes(b[..8].try_into().unwrap());
                            *b = b.slice(8..b.len());
                            v
                        });
                    }
                    4 if model.len() >= 3 => {
                        let want = (model[0], u16::from_le_bytes([model[1], model[2]]));
                        model.drain(..3);
                        all(&mut reprs, want, |b| {
                            let v = (b[0], u16::from_le_bytes([b[1], b[2]]));
                            *b = b.slice(3..b.len());
                            v
                        });
                    }
                    _ => all(&mut reprs, (), |b| *b = b.clone()),
                }
                // A neighbour in the order: the model with one byte nudged.
                let mut probe = model.clone();
                if let Some(x) = probe.get_mut(at.min(model.len().saturating_sub(1))) {
                    *x = x.wrapping_add(rng.gen_range(0..3) as u8);
                }
                let want = (
                    model.clone(),
                    model.as_slice().cmp(&probe),
                    hash_of(&Bytes::from(model.clone())),
                );
                let probe = Bytes::from(probe);
                all(&mut reprs, want, |b| {
                    (b.to_vec(), (*b).cmp(&probe), hash_of(b))
                });
                let [a, b, c] = &reprs;
                assert!(a == b && b == c && a.len() == model.len());
            }
        }
    }
}
