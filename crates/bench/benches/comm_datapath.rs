//! Comm-datapath budget benchmark → `BENCH_comm.json`.
//!
//! Two *deterministic* metric families (no wall-clock noise — the simulator
//! is single-threaded, so both repeat exactly):
//!
//! * **match_churn_{64,256,1024,4096}** — a match-table churn workload
//!   (mixed wildcard/specific receives, occasional cancels) driven through
//!   the hash-bucketed [`PostTable`]. Reports comparisons-per-match, which
//!   must stay flat as the outstanding-receive count grows. (Equivalence
//!   with the seed's linear scan is a unit test of `amt_minimpi::matcher`.)
//!
//! * **am_flood / put_rendezvous** — full engine simulations per backend
//!   under a counting `#[global_allocator]`, reporting heap
//!   allocations-per-delivered-message in steady state (pools and slabs
//!   warmed by an identical untimed burst). verify.sh diffs these columns
//!   against the committed `BENCH_comm.json` to catch allocation
//!   regressions.
//!
//! Flags: `--quick` (smoke sizes for CI), `--out <path>`.

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amt_bench::harness_args;
use amt_comm::{BackendKind, CommWorld, EngineConfig, PutRequest};
use amt_minimpi::matcher::PostTable;
use amt_minimpi::SrcSel;
use amt_netmodel::{Fabric, FabricConfig};
use amt_simnet::rng::DetRng;
use amt_simnet::{Sim, SimTime};
use bytes::Bytes;
use std::rc::Rc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Comparisons-per-match of the hash matcher over one churn run.
struct ChurnResult {
    outstanding: usize,
    matches: u64,
    hash_cmp_per_match: f64,
}

/// Keep `outstanding` receives posted (one per tag; ~25% wildcard), then
/// churn: arrivals match a uniform-random tag and the consumed receive is
/// reposted; 5% of rounds cancel + repost instead (a tombstone in the hash
/// table).
fn match_churn(outstanding: usize, rounds: usize) -> ChurnResult {
    let mut hash = PostTable::new();
    let mut rng = DetRng::seed_from_u64(0xc0ffee ^ outstanding as u64);
    let mut posted = Vec::with_capacity(outstanding);
    for i in 0..outstanding {
        let src = if rng.gen_bool(0.25) {
            SrcSel::Any
        } else {
            SrcSel::Rank(i % 8)
        };
        posted.push((hash.post(i, src, i as u64), src));
    }
    for _ in 0..rounds {
        let tag = rng.gen_usize(0..outstanding);
        if rng.gen_bool(0.05) {
            let (tok, src) = posted[tag];
            assert!(hash.cancel(tok), "posted receive was not live");
            posted[tag] = (hash.post(tag, src, tag as u64), src);
            continue;
        }
        let src = tag % 8; // matches both Rank(tag % 8) and Any posts
        if hash.match_arrival(src, tag as u64).found.is_some() {
            let (_, src_sel) = posted[tag];
            posted[tag] = (hash.post(tag, src_sel, tag as u64), src_sel);
        }
    }
    ChurnResult {
        outstanding,
        matches: hash.match_calls(),
        hash_cmp_per_match: hash.comparisons() as f64 / hash.match_calls() as f64,
    }
}

fn backend_slug(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Mpi => "mpi",
        BackendKind::Lci => "lci",
        BackendKind::LciDirect => "lci_direct",
    }
}

/// Flood `msgs` 64-byte payload-carrying AMs through a 2-node engine and
/// report steady-state heap allocations per delivered message. Sends are
/// paced in virtual time (one per 5 µs) so each message traverses the full
/// per-message datapath — submission, wire framing, fabric chunking,
/// progress rounds, delivery — instead of collapsing into one aggregate.
/// The handler recycles each arrival frame into the engine pool, as a
/// caller owning its payload buffers may; the runtime recycles nothing, as
/// its records travel as slab ids in immediate frames.
fn am_flood(cfg: &EngineConfig, msgs: usize) -> f64 {
    let mut sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(2));
    let engines = CommWorld::create(&mut sim, &fabric, cfg.clone());
    engines[1].register_am(
        &mut sim,
        1,
        Rc::new(|_sim, eng, ev| {
            eng.buf_pool().recycle_frames(ev.data);
            SimTime::ZERO
        }),
    );
    let src = engines[0].clone();
    let burst = move |sim: &mut Sim, n: usize| {
        for i in 0..n {
            let src = src.clone();
            sim.schedule_in(SimTime::from_ns(5_000 * i as u64), move |sim| {
                let payload = Bytes::from(vec![i as u8; 64]);
                src.send_am(sim, 1, 1, 64, Some(payload));
            });
        }
        sim.run();
    };
    // Warm-up: grow the event queues and the buffer pool once.
    burst(&mut sim, msgs);
    let received0 = engines[1].stats().am_received.get();
    let snap = AllocSnapshot::now();
    burst(&mut sim, msgs);
    let d = snap.since();
    let received = engines[1].stats().am_received.get() - received0;
    assert!(received >= msgs as u64 / 2, "flood mostly aggregated away");
    d.allocs as f64 / msgs as f64
}

/// Issue `puts` rendezvous-sized (256 KiB, cost-only) puts and report
/// steady-state heap allocations per remotely-completed put. Paced one per
/// 100 µs so the transfer window stays shallow — this measures the
/// per-put datapath, not back-pressure retry storms.
fn put_rendezvous(cfg: &EngineConfig, puts: usize) -> f64 {
    const SIZE: usize = 256 << 10;
    let mut sim = Sim::new();
    let fabric = Fabric::new(FabricConfig::expanse(2));
    let engines = CommWorld::create(&mut sim, &fabric, cfg.clone());
    engines[1].register_onesided(1, Rc::new(|_sim, _eng, _ev| SimTime::ZERO));
    let src = engines[0].clone();
    let burst = move |sim: &mut Sim, n: usize| {
        for i in 0..n {
            let src = src.clone();
            sim.schedule_in(SimTime::from_ns(100_000 * i as u64), move |sim| {
                src.put(
                    sim,
                    PutRequest {
                        dst: 1,
                        size: SIZE,
                        data: None,
                        r_tag: 1,
                        cb_data: Bytes::new(),
                        on_local: Box::new(|_s, _e| SimTime::ZERO),
                    },
                );
            });
        }
        sim.run();
    };
    burst(&mut sim, puts);
    let done0 = engines[1].stats().puts_remote_done.get();
    let snap = AllocSnapshot::now();
    burst(&mut sim, puts);
    let d = snap.since();
    let done = engines[1].stats().puts_remote_done.get() - done0;
    assert!(done > 0, "no puts completed");
    d.allocs as f64 / done as f64
}

fn main() {
    let args = harness_args();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = {
        let mut it = args.iter();
        let mut path = String::from("BENCH_comm.json");
        while let Some(a) = it.next() {
            if a == "--out" {
                path = it.next().expect("--out requires a value").clone();
            } else if let Some(v) = a.strip_prefix("--out=") {
                path = v.to_string();
            }
        }
        path
    };

    let churn_rounds = if quick { 2_000 } else { 20_000 };
    let flood_msgs = if quick { 1_024 } else { 8_192 };
    let put_count = if quick { 256 } else { 1_024 };

    println!("== match-table churn: hash comparisons/match ==");
    let mut churn = Vec::new();
    for outstanding in [64usize, 256, 1024, 4096] {
        let r = match_churn(outstanding, churn_rounds);
        println!(
            "match_churn_{:<5} hash {:>8.2} cmp/match   ({} matches)",
            r.outstanding, r.hash_cmp_per_match, r.matches
        );
        churn.push(r);
    }

    println!("== allocations per delivered message (steady state) ==");
    let backends = EngineConfig::all_backends();
    let mut flood = Vec::new();
    let mut rdv = Vec::new();
    for cfg in &backends {
        let f = am_flood(cfg, flood_msgs);
        let p = put_rendezvous(cfg, put_count);
        println!(
            "{:<12} am_flood {:>7.2} allocs/msg   put_rendezvous {:>7.2} allocs/put",
            backend_slug(cfg.backend),
            f,
            p
        );
        flood.push((backend_slug(cfg.backend), f));
        rdv.push((backend_slug(cfg.backend), p));
    }

    let mut json = String::from("{\n  \"schema\": \"amtlc-bench-comm-v1\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"match_churn\": {\n");
    for (i, r) in churn.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"hash_cmp_per_match\": {:.3}, \"matches\": {}}}{}\n",
            r.outstanding,
            r.hash_cmp_per_match,
            r.matches,
            if i + 1 == churn.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n  \"alloc_per_msg\": {\n");
    for (si, (name, series)) in [("am_flood", &flood), ("put_rendezvous", &rdv)]
        .into_iter()
        .enumerate()
    {
        json.push_str(&format!("    \"{name}\": {{"));
        for (i, (slug, v)) in series.iter().enumerate() {
            json.push_str(&format!(
                "\"{slug}\": {v:.3}{}",
                if i + 1 == series.len() { "" } else { ", " }
            ));
        }
        json.push_str(&format!("}}{}\n", if si == 0 { "," } else { "" }));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_comm.json");
    println!("wrote {out_path}");
}
