//! Randomized property tests for MiniMPI matching semantics, driven by the
//! in-tree deterministic generator (the workspace builds offline, so no
//! external `proptest`).

use amt_minimpi::{Mpi, MpiCosts, MpiWorld, SrcSel};
use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::{DetRng, Sim};
use bytes::{Bytes, Frames};

const CASES: u64 = 32;

fn setup(nodes: usize) -> (Sim, Vec<Mpi>) {
    let sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(nodes));
    let ranks = MpiWorld::create(&fabric, MpiCosts::default());
    (sim, ranks)
}

/// Posting receives before or after the sends arrive must pair the
/// same (src, tag) multisets — matching is order-insensitive at the
/// level of what gets received.
#[test]
fn posted_and_unexpected_matching_agree() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x3a3a_0000 + case);
        let n = rng.gen_usize(1..20);
        let msgs: Vec<(u64, usize)> = (0..n)
            .map(|_| (rng.gen_range(0..4), rng.gen_usize(0..3)))
            .collect();
        let post_first = rng.gen_bool(0.5);

        let (mut sim, ranks) = setup(4);
        let mut reqs = Vec::new();
        let post = |sim: &mut Sim, reqs: &mut Vec<_>| {
            for &(tag, _src) in &msgs {
                let (r, _) = ranks[3].irecv(sim, SrcSel::Any, tag);
                reqs.push(r);
            }
        };
        if post_first {
            post(&mut sim, &mut reqs);
        }
        for (i, &(tag, src)) in msgs.iter().enumerate() {
            ranks[src].send(
                &mut sim,
                3,
                tag,
                8,
                Frames::from(Bytes::from(vec![i as u8; 8])),
            );
        }
        sim.run();
        if !post_first {
            post(&mut sim, &mut reqs);
        }
        // Drive completion.
        let mut done = Vec::new();
        loop {
            let (c, _) = ranks[3].testsome(&mut sim, &reqs);
            for comp in c {
                done.push((comp.status.tag, comp.status.src));
                reqs.retain(|r| *r != comp.req);
            }
            if reqs.is_empty() {
                break;
            }
            if !sim.step() {
                break;
            }
        }
        assert_eq!(
            done.len(),
            msgs.len(),
            "every message must match (case {case})"
        );
        let mut got: Vec<(u64, usize)> = done;
        let mut want: Vec<(u64, usize)> = msgs.iter().map(|&(t, s)| (t, s)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

/// Payload integrity for arbitrary sizes across the eager/rendezvous
/// boundary.
#[test]
fn payloads_survive_any_size() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x9b9b_0000 + case);
        let size = rng.gen_usize(1..200_000);

        let (mut sim, ranks) = setup(2);
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let (rreq, _) = ranks[1].irecv(&mut sim, SrcSel::Rank(0), 1);
        ranks[0].isend(
            &mut sim,
            1,
            1,
            size,
            Frames::from(Bytes::from(data.clone())),
        );
        let status = loop {
            let (st, _) = ranks[1].test(&mut sim, rreq);
            if let Some(st) = st {
                break st;
            }
            let _ = ranks[0].testsome(&mut sim, &[]);
            if !sim.step() {
                panic!("deadlock (case {case})");
            }
        };
        assert_eq!(status.size, size, "case {case}");
        assert_eq!(status.data.to_vec(), data, "case {case}");
    }
}
