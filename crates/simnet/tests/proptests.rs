//! Randomized property tests for the DES engine primitives.
//!
//! These were originally `proptest` properties; the workspace now builds
//! offline, so each property is exercised over many seeded cases drawn from
//! the in-tree deterministic generator instead.

use amt_simnet::{shared, CoreResource, DetRng, Sim, SimTime, TokenPool};

const CASES: u64 = 64;

/// A core serves charges FIFO: completion times are the prefix sums of
/// the durations, regardless of the duration mix.
#[test]
fn core_charges_complete_at_prefix_sums() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x5151_0000 + case);
        let n = rng.gen_usize(1..50);
        let durs: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10_000)).collect();

        let mut sim = Sim::new();
        let core = CoreResource::new_shared("c");
        let log = shared(Vec::new());
        for &d in &durs {
            let log = log.clone();
            core.borrow_mut()
                .charge(&mut sim, SimTime::from_ns(d), move |sim| {
                    log.borrow_mut().push(sim.now().as_ns());
                });
        }
        sim.run();
        let mut acc = 0u64;
        let want: Vec<u64> = durs
            .iter()
            .map(|d| {
                acc += d;
                acc
            })
            .collect();
        assert_eq!(&*log.borrow(), &want, "case {case}");
        assert_eq!(core.borrow().busy_time().as_ns(), acc, "case {case}");
    }
}

/// Token pools conserve tokens: grants ≤ capacity at any time, and
/// after all releases the pool is full again.
#[test]
fn token_pool_conservation() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x7070_0000 + case);
        let capacity = rng.gen_usize(1..8);
        let requests = rng.gen_usize(1..40);

        let mut sim = Sim::new();
        let pool = TokenPool::new_shared("p", capacity);
        let in_use = shared(0usize);
        let peak = shared(0usize);
        for i in 0..requests {
            let pool2 = pool.clone();
            let in_use = in_use.clone();
            let peak = peak.clone();
            let p2 = pool.clone();
            p2.borrow_mut().acquire(&mut sim, move |sim| {
                {
                    let mut u = in_use.borrow_mut();
                    *u += 1;
                    let mut p = peak.borrow_mut();
                    *p = (*p).max(*u);
                }
                let in_use2 = in_use.clone();
                let pool3 = pool2.clone();
                sim.schedule_in(SimTime::from_ns(10 + i as u64), move |sim| {
                    *in_use2.borrow_mut() -= 1;
                    pool3.borrow_mut().release(sim);
                });
            });
        }
        sim.run();
        assert!(*peak.borrow() <= capacity, "case {case}");
        assert_eq!(*in_use.borrow(), 0, "case {case}");
        assert_eq!(pool.borrow().available(), capacity, "case {case}");
        assert_eq!(
            pool.borrow().acquired_total(),
            requests as u64,
            "case {case}"
        );
    }
}
