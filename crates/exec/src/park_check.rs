//! The pool's park protocol (`pool.rs` module docs) as step machines, and a
//! checker that runs every interleaving of them.
//!
//! Two workers and one external thread share the protocol's state:
//! `sleepers`, `pending`, the `sync` mutex with its wake tokens and its two
//! condvars, the worker queues and the injector. The external thread spawns
//! root jobs on the injector, then calls `run_until_idle`; a root defers
//! children on its worker's queue. A pop, a steal or a rescan of one queue
//! is one step under that queue's lock. Atomics are sequentially consistent
//! here: every pair of accesses the protocol relies on is ordered by
//! `SeqCst`, and the mutexes order the rest. A step that takes `sync`, acts
//! under it and lets go is one step: nobody sees its inside. Each step
//! quotes the `pool.rs` line it models, and a test holds the quotes true.
//!
//! The checker explores every interleaving depth first, CHESS-style
//! (Musuvathi et al., OSDI 2008), merging states it has seen, and checks:
//!
//! * no lost wakeup: every state where no thread can step (spurious condvar
//!   wakeups aside) has run every job and returned from `run_until_idle`;
//! * idle is idle: when `run_until_idle` returns, every job has run, and
//!   after it no worker runs a job or parks again.
//!
//! It also transcribes the protocol before the pool's, and each one without
//! the parker's re-check ([`Model`]); the tests pin what each one yields.

use std::collections::HashSet;

/// Workers in the model; the external thread is thread `W`.
const W: usize = 2;
/// Longest interleaving explored; reaching it is reported, not ignored.
const MAX_DEPTH: usize = 400;

/// A thread's next step. `Push(k)`, `Notify(k)`, `Load(k)` and `Wake(k)`
/// carry the pushes still to make after this one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
enum Pc {
    // A worker: `worker_loop` and `find_job`.
    #[default]
    Top,
    Pop,
    Inject,
    Steal,
    /// Running a job: a root (from the injector) or a child.
    Run(bool),
    Done,
    // A push: a root's `WorkerCtx::push` of each child, or the external
    // thread's `spawn_injected` of each root after `Spawn`.
    Spawn(u8),
    Push(u8),
    Notify(u8),
    Load(u8),
    Wake(u8),
    // A worker parking: the rest of `worker_loop`.
    Lock,
    Rescan(u8),
    Check,
    Park,
    Waiting,
    Woken,
    Lower,
    // The external thread in `Pool::run_until_idle`.
    Idle,
    IdleWaiting,
    Returned,
}

#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Thread {
    pc: Pc,
    /// The epoch a parker snapshotted (the epoch protocol only).
    snap: u8,
}

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct State {
    queues: [u8; W],
    injector: u8,
    pending: u8,
    sleepers: u8,
    epoch: u8,
    wakes: u8,
    /// The thread holding `sync`, if any.
    sync: Option<u8>,
    threads: [Thread; W + 1],
    /// Jobs finished.
    done: u8,
    /// `run_until_idle` has returned.
    idle: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Violation {
    LostWakeup,
    IdleWithWork,
    MovedAfterIdle,
    DepthBound,
}

struct Model {
    /// The pool's protocol: a pusher fences, loads `sleepers` and claims a
    /// sleeper; a parker rescans after its raise and takes a wake token.
    /// Otherwise the one before it: every push bumps `epoch`; a parker
    /// compares it with its pre-scan snapshot after the raise and waits for
    /// it to move; a woken worker lowers `sleepers` itself.
    claim: bool,
    /// Whether a parker re-checks after its raise: the rescan, or the epoch
    /// re-read (without it the snapshot is taken after the raise, so the
    /// re-read sees nothing the scan missed).
    recheck: bool,
    roots: u8,
    children: u8,
}

impl Model {
    /// Where a push leaves its thread once its notify path is done.
    fn after_push(&self, t: usize, left: u8) -> Pc {
        match (t == W, left) {
            (true, 0) => Pc::Idle,
            (true, k) => Pc::Spawn(k - 1),
            (false, 0) => Pc::Done,
            (false, k) => Pc::Push(k - 1),
        }
    }

    /// `notify_one` on `wake`: one waiting worker, whichever, is woken.
    fn notify_one(&self, s: State) -> Vec<State> {
        let mut out = vec![];
        for w in (0..W).filter(|&w| s.threads[w].pc == Pc::Waiting) {
            out.push(s.clone());
            out.last_mut().expect("pushed").threads[w].pc = Pc::Woken;
        }
        if out.is_empty() {
            out.push(s);
        }
        out
    }

    /// A parker holding `sync` checks its wait condition: waits, releasing
    /// `sync`, or leaves.
    fn wait_check(&self, n: &mut State, t: usize) {
        // pool.rs:587 `while s.wakes == 0 && !s.shutdown {`; the epoch
        // protocol waited while the epoch was its snapshot.
        if !self.claim && n.epoch != n.threads[t].snap {
            n.threads[t].pc = Pc::Lower;
            return;
        }
        n.sync = None;
        n.threads[t].pc = if self.claim && n.wakes > 0 {
            // pool.rs:594 `s.wakes -= 1;`
            n.wakes -= 1;
            Pc::Top
        } else {
            Pc::Waiting
        };
    }

    /// Every state thread `t` can step to from `s`; `Err` if the step
    /// breaks an invariant. No successor: `t` is blocked.
    fn step(&self, s: &State, t: usize) -> Result<Vec<State>, Violation> {
        let (mut n, me, free) = (s.clone(), t as u8, s.sync.is_none());
        let th = &mut n.threads[t];
        match th.pc {
            // The epoch protocol's snapshot before the scan.
            Pc::Top => (th.snap, th.pc) = (s.epoch, Pc::Pop),
            // pool.rs:605 `q.pop_back().map(|job| (job, q.len()))`
            Pc::Pop if s.queues[t] > 0 => (th.pc, n.queues[t]) = (Pc::Run(false), s.queues[t] - 1),
            Pc::Pop => th.pc = Pc::Inject,
            // pool.rs:616 `if let Some(job) = inj.pop_front() {`, and
            // pool.rs:617 `shared.parking.pending.fetch_sub(1, SeqCst);`
            Pc::Inject if s.injector > 0 => {
                (th.pc, n.injector, n.pending) = (Pc::Run(true), s.injector - 1, s.pending - 1);
            }
            Pc::Inject => th.pc = Pc::Steal,
            // pool.rs:642 `.try_lock()`, then `pop_front`.
            Pc::Steal if s.queues[1 - t] > 0 => {
                (th.pc, n.queues[1 - t]) = (Pc::Run(false), s.queues[1 - t] - 1);
            }
            Pc::Steal => th.pc = Pc::Lock,
            // pool.rs:556 `Job::Task(id) => (shared.runner)(&mut ctx, id),`
            Pc::Run(_) if s.idle => return Err(Violation::MovedAfterIdle),
            Pc::Run(true) if self.children > 0 => th.pc = Pc::Push(self.children - 1),
            Pc::Run(_) => th.pc = Pc::Done,
            // pool.rs:567 `bump(&shared.counters[index].executed);`
            Pc::Done => (n.done, th.pc) = (s.done + 1, Pc::Top),
            // pool.rs:208 `self.parking.pending.fetch_add(1, SeqCst);`
            Pc::Spawn(k) => (n.pending, th.pc) = (s.pending + 1, Pc::Push(k)),
            // A worker's pool.rs:359 `q.push_back(job);`, or the external
            // thread's pool.rs:209 `.push_back(job);`
            Pc::Push(k) => {
                th.pc = Pc::Notify(k);
                match t {
                    W => n.injector += 1,
                    _ => n.queues[t] += 1,
                }
            }
            // The epoch protocol bumped `epoch` here, then loaded `sleepers`.
            Pc::Notify(k) if !self.claim => {
                (n.epoch, th.pc) = (s.epoch.wrapping_add(1), Pc::Load(k));
            }
            // pool.rs:185 `fence(SeqCst);`, then
            // pool.rs:186 `if p.sleepers.load(Relaxed) > 0 {`
            Pc::Notify(k) | Pc::Load(k) if s.sleepers > 0 => th.pc = Pc::Wake(k),
            Pc::Notify(k) | Pc::Load(k) => th.pc = self.after_push(t, k),
            // Under `sync`: pool.rs:189 `if p.sleepers.load(Relaxed) > 0 {`
            // pool.rs:190 `p.sleepers.fetch_sub(1, SeqCst);`
            // pool.rs:191 `s.wakes += 1;`
            // pool.rs:192 `self.wake.notify_one();` (both protocols).
            Pc::Wake(k) if free => {
                th.pc = self.after_push(t, k);
                if self.claim {
                    if s.sleepers == 0 {
                        return Ok(vec![n]);
                    }
                    (n.sleepers, n.wakes) = (s.sleepers - 1, s.wakes + 1);
                }
                return Ok(self.notify_one(n));
            }
            // pool.rs:570 `let mut s = shared.sync.lock().expect("pool sync");`
            // pool.rs:574 `p.sleepers.fetch_add(1, SeqCst);`
            Pc::Lock if free => {
                th.pc = match (self.claim, self.recheck) {
                    (true, true) => Pc::Rescan(0),
                    (true, false) => Pc::Park,
                    (false, _) => Pc::Check,
                };
                (n.sync, n.sleepers) = (Some(me), s.sleepers + 1);
            }
            // pool.rs:577 `fence(SeqCst);`, then
            // pool.rs:578 `if shared.has_work() {`: each queue under its
            // lock, then the injector.
            Pc::Rescan(i) => {
                let found = match i as usize {
                    W => s.injector > 0,
                    q => s.queues[q] > 0,
                };
                th.pc = match (found, i as usize) {
                    (true, _) => Pc::Lower,
                    (false, W) => Pc::Park,
                    (false, _) => Pc::Rescan(i + 1),
                };
            }
            // The epoch protocol's re-read after the raise.
            Pc::Check => {
                if !self.recheck {
                    th.snap = s.epoch;
                }
                th.pc = if s.epoch == th.snap {
                    Pc::Park
                } else {
                    Pc::Lower
                };
            }
            // pool.rs:582 `bump(&shared.counters[index].parks);`
            // pool.rs:584 `if p.sleepers.load(SeqCst) == shared.queues.len() {`
            // pool.rs:585 `shared.quiet.notify_all();`
            Pc::Park if s.idle => return Err(Violation::MovedAfterIdle),
            Pc::Park => {
                if s.sleepers as usize == W && s.threads[W].pc == Pc::IdleWaiting {
                    n.threads[W].pc = Pc::Idle;
                }
                self.wait_check(&mut n, t);
            }
            // pool.rs:588 `s = shared.wake.wait(s).expect("pool wake wait");`
            // returns, spuriously or notified, holding `sync` again.
            Pc::Waiting => th.pc = Pc::Woken,
            Pc::Woken if free => {
                n.sync = Some(me);
                self.wait_check(&mut n, t);
            }
            // pool.rs:579 `p.sleepers.fetch_sub(1, SeqCst);`, unlock.
            Pc::Lower => {
                (n.sleepers, n.sync) = (s.sleepers - 1, None);
                th.pc = Pc::Top;
            }
            // Under `sync`, pool.rs:496 `while p.pending.load(SeqCst) > 0 ||`
            // pool.rs:497 `s = self.shared.quiet.wait(s).expect("pool quiet wait");`
            Pc::Idle if free => {
                let work = s.injector > 0 || s.queues.iter().any(|&q| q > 0);
                if s.pending > 0 || (s.sleepers as usize) < W {
                    th.pc = Pc::IdleWaiting;
                } else if work || s.done < self.roots * (1 + self.children) {
                    return Err(Violation::IdleWithWork);
                } else {
                    (th.pc, n.idle) = (Pc::Returned, true);
                }
            }
            Pc::IdleWaiting => th.pc = Pc::Idle,
            _ => return Ok(vec![]),
        }
        Ok(vec![n])
    }

    /// Explore every interleaving from the start state: the kinds of
    /// violation found.
    fn check(&self) -> HashSet<Violation> {
        let mut start = State::default();
        start.threads[W].pc = Pc::Spawn(self.roots - 1);
        let (mut seen, mut found) = (HashSet::from([start.clone()]), HashSet::new());
        let mut stack = vec![(start, 0)];
        while let Some((s, depth)) = stack.pop() {
            let mut stuck = true;
            for t in 0..=W {
                let next = match self.step(&s, t) {
                    Ok(next) => next,
                    Err(v) => {
                        (stuck, _) = (false, found.insert(v));
                        continue;
                    }
                };
                // A spurious wakeup alone does not unblock a state.
                let waiting = matches!(s.threads[t].pc, Pc::Waiting | Pc::IdleWaiting);
                stuck &= next.is_empty() || waiting;
                for n in next {
                    if depth == MAX_DEPTH {
                        found.insert(Violation::DepthBound);
                    } else if seen.insert(n.clone()) {
                        stack.push((n, depth + 1));
                    }
                }
            }
            let finished =
                s.threads[W].pc == Pc::Returned && (0..W).all(|w| s.threads[w].pc == Pc::Waiting);
            if stuck && !finished {
                found.insert(Violation::LostWakeup);
            }
        }
        found
    }
}

/// The kinds of violation a protocol shows over every scenario: one or
/// two roots, one or two children each.
fn check(claim: bool, recheck: bool) -> HashSet<Violation> {
    let scenarios = [(1, 1), (1, 2), (2, 1)].into_iter();
    scenarios
        .flat_map(|(roots, children)| {
            let model = Model {
                claim,
                recheck,
                roots,
                children,
            };
            model.check()
        })
        .collect()
}

#[test]
fn the_pools_protocol_loses_no_wakeup_and_idles_for_good() {
    assert_eq!(check(true, true), HashSet::new());
}

/// The protocol before the pool's: a worker woken by a push whose job
/// another worker took still counts as a sleeper, so `run_until_idle` can
/// return before it parks again. It loses no wakeup.
#[test]
fn the_epoch_protocol_parks_a_woken_worker_after_idle() {
    assert_eq!(
        check(false, true),
        HashSet::from([Violation::MovedAfterIdle])
    );
}

/// Without the parker's re-check after its raise, a push between its scan
/// and its raise sees no sleeper, and the job is stranded.
#[test]
fn without_the_parkers_recheck_a_wakeup_is_lost() {
    for claim in [true, false] {
        let found = check(claim, false);
        assert!(
            found.contains(&Violation::LostWakeup),
            "claim {claim}: {found:?}"
        );
        assert!(!found.contains(&Violation::DepthBound), "claim {claim}");
    }
}

/// Every `pool.rs:N` above quotes line `N` of `pool.rs`.
#[test]
fn the_transcription_quotes_the_lines_it_models() {
    let (me, pool) = (include_str!("park_check.rs"), include_str!("pool.rs"));
    let lines: Vec<&str> = pool.lines().collect();
    let mut quotes = 0;
    for at in me.match_indices("pool.rs:").map(|(i, _)| i + 8) {
        let rest = &me[at..];
        let Some((n, rest)) = rest.split_once(' ') else {
            continue;
        };
        let (Ok(n), Some(code)) = (n.parse::<usize>(), rest.split('`').nth(1)) else {
            continue;
        };
        let code = code.trim_end_matches("…");
        assert!(
            lines[n - 1].contains(code),
            "pool.rs:{n} does not hold `{code}`"
        );
        quotes += 1;
    }
    assert!(quotes > 20, "only {quotes} quotes");
}
