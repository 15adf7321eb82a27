//! PaRSEC-style bounded task discovery (windowed execution).
//!
//! [`crate::Cluster::execute_windowed`] drives a [`GraphSource`] instead of
//! a fully unrolled [`crate::TaskGraph`]: at most `window` tasks are
//! unrolled ahead of the completion frontier, and completed tasks (plus
//! versions that can never be read again) are *retired* — their consumer
//! links and payloads freed, and whole graph-storage chunks (with their
//! tasks' edges and kernels) returned to the allocator once every entry
//! in them has retired. Peak memory is O(window) instead of O(total
//! tasks), which for tile Cholesky means O(window) instead of O(nt³/6).
//!
//! Discovery-order bookkeeping mirrors what full-unroll `init` computes up
//! front:
//!
//! * a newly admitted local task gets its unsatisfied-input count from the
//!   node's data store;
//! * a remote input that is already present at its home node (the
//!   producer-side announce predates this consumer's discovery) triggers a
//!   *late* direct ACTIVATE from the home node, deduplicated per
//!   (version, node) through the version's holder list;
//! * a remote input whose producer is still pending needs nothing — the
//!   consumer is registered in the version's consumer list, so the
//!   producer's completion announce covers it.
//!
//! A version retires when it is superseded (a later write to its key
//! exists, so no future task can read it — reads bind at insertion), its
//! producer and every discovered consumer have completed. Retirement only
//! releases memory; it never touches the simulator, so a window at least
//! as large as the full graph is byte-identical to full unrolling.
//! Every step touches only the nodes a version lives on (its home plus its
//! holder list), never the whole cluster: host work per task does not grow
//! with the simulated node count.

use std::cell::RefCell;
use std::rc::Rc;

use amt_simnet::{FastMap, Sim};

use crate::graph::{
    GraphBuilder, GraphHandle, GraphSource, TaskGraph, TaskId, VersionId, GRAPH_CHUNK,
};
use crate::node::{NodeRt, RtHandle};

/// Longest superseded-version list the window keeps between refills.
const SUPERSEDED_KEEP: usize = 1024;

/// The windowed-discovery driver, shared by every node runtime of one
/// execution (each completion notifies it; it refills the window from the
/// source and retires what the frontier has passed).
pub(crate) struct WindowCtl {
    inner: RefCell<WindowInner>,
}

struct WindowInner {
    builder: GraphBuilder,
    source: Box<dyn GraphSource>,
    window: usize,
    /// False during prefill (before `NodeRt::init` — init does the runtime
    /// bookkeeping for everything prefilled); true once running.
    live: bool,
    exhausted: bool,
    completed: usize,
    rts: Vec<RtHandle>,
    /// Per task: completed?
    done: Vec<bool>,
    /// Per version: open consumers and the superseded / retired flags.
    versions: Vec<VerState>,
    /// Per graph-storage chunk: retired entries (chunk freed at
    /// [`GRAPH_CHUNK`]).
    task_chunk_retired: Vec<u32>,
    version_chunk_retired: Vec<u32>,
    /// Per version chunk: freed (all entries retired, or the stragglers
    /// evacuated to the graph's side table).
    version_chunk_freed: Vec<bool>,
    /// Per version: the remote nodes an ACTIVATE has been sent to (or will
    /// be, by the init announce), ascending. Dedups late activations, and —
    /// with the home node — is everywhere the version's payload can live.
    holders: FastMap<usize, Vec<usize>>,
    admitted_tasks: usize,
    seeded_versions: usize,
    /// Scratch: versions touched by the current completion.
    retire_scratch: Vec<usize>,
    /// Scratch: late activations collected under the graph borrow.
    late_scratch: Vec<(usize, usize, usize, usize, i64)>,
    /// Scratch: the versions the builder logged as superseded, swapped
    /// with its log so neither list regrows per refill (kept only up to
    /// [`SUPERSEDED_KEEP`] entries).
    superseded_scratch: Vec<VersionId>,
    /// Scratch, one use at a time: the remote consumer nodes of a version
    /// being announced, or the finals surviving a chunk evacuation.
    ids_scratch: Vec<usize>,
}

/// One version's retirement state in a word: its discovered consumers not
/// yet completed, and two flags.
#[derive(Clone, Copy, Default)]
struct VerState(u32);

impl VerState {
    /// A later write to the same key exists: the consumer set is final.
    const SUPERSEDED: u32 = 1 << 31;
    const RETIRED: u32 = 1 << 30;
    const OPEN: u32 = Self::RETIRED - 1;

    fn open(self) -> u32 {
        self.0 & Self::OPEN
    }

    fn superseded(self) -> bool {
        self.0 & Self::SUPERSEDED != 0
    }

    fn retired(self) -> bool {
        self.0 & Self::RETIRED != 0
    }
}

impl WindowCtl {
    pub fn new(
        nodes: usize,
        handle: GraphHandle,
        source: Box<dyn GraphSource>,
        window: usize,
    ) -> Rc<WindowCtl> {
        assert!(window >= 1, "discovery window must be at least 1");
        let mut builder = GraphBuilder::over(nodes, handle);
        builder.set_track_superseded();
        Rc::new(WindowCtl {
            inner: RefCell::new(WindowInner {
                builder,
                source,
                window,
                live: false,
                exhausted: false,
                completed: 0,
                rts: Vec::new(),
                done: Vec::new(),
                versions: Vec::new(),
                task_chunk_retired: Vec::new(),
                version_chunk_retired: Vec::new(),
                version_chunk_freed: Vec::new(),
                holders: FastMap::default(),
                admitted_tasks: 0,
                seeded_versions: 0,
                retire_scratch: Vec::new(),
                late_scratch: Vec::new(),
                superseded_scratch: Vec::new(),
                ids_scratch: Vec::new(),
            }),
        })
    }

    pub fn attach(&self, rts: &[RtHandle]) {
        self.inner.borrow_mut().rts = rts.to_vec();
    }

    /// Unroll the first `window` tasks before `NodeRt::init` runs. Init
    /// then computes stores / dependence counts / announces for the whole
    /// prefilled graph exactly as full unrolling would.
    pub fn prefill(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        assert!(!inner.rts.is_empty(), "attach() before prefill()");
        let handle = inner.builder.handle().clone();
        while !inner.exhausted && handle.get().task_count() < inner.window {
            let before = handle.get().task_count();
            if !inner.source.next_task(&mut inner.builder) {
                inner.exhausted = true;
                break;
            }
            assert!(
                handle.get().task_count() > before,
                "GraphSource returned true without inserting a task"
            );
        }
        inner.absorb_new(sim);
        inner.live = true;
        // The init announce will cover every producer-less version's
        // currently known remote consumer nodes.
        let g = handle.get();
        for i in 0..g.version_count() {
            if g.version(i).producer().is_none() {
                inner.cover_consumers(&g, i);
            }
        }
    }

    /// A task completed (its outputs are stored and announced): retire what
    /// the frontier passed and refill the discovery window.
    pub fn on_complete(ctl: &Rc<WindowCtl>, sim: &mut Sim, task: TaskId) {
        let mut inner = ctl.inner.borrow_mut();
        let inner = &mut *inner;
        inner.completed += 1;
        inner.done[task] = true;
        let handle = inner.builder.handle().clone();
        let mut candidates = std::mem::take(&mut inner.retire_scratch);
        candidates.clear();
        {
            let g = handle.get();
            for v in g.inputs(task) {
                debug_assert!(inner.versions[v.0].open() > 0);
                inner.versions[v.0].0 -= 1;
                candidates.push(v.0);
            }
            for v in g.outputs(task) {
                // The completion announce (already sent by task_done)
                // covered every currently known remote consumer node.
                inner.cover_consumers(&g, v.0);
                candidates.push(v.0);
            }
        }
        for &v in &candidates {
            inner.maybe_retire_version(&handle, v);
        }
        // This completion may have made *final* versions (its outputs, or
        // inputs whose last discovered consumer this was) permanently
        // unretirable: give their chunks an evacuation chance.
        for v in candidates.drain(..) {
            inner.maybe_evacuate_version_chunk(&handle, v / GRAPH_CHUNK);
        }
        inner.retire_scratch = candidates;
        let chunk = task / GRAPH_CHUNK;
        inner.task_chunk_retired[chunk] += 1;
        if inner.task_chunk_retired[chunk] as usize == GRAPH_CHUNK {
            handle.get_mut().free_task_chunk(chunk);
        }
        // Refill: keep `window` discovered-but-incomplete tasks unrolled.
        while !inner.exhausted && handle.get().task_count() - inner.completed < inner.window {
            let before = handle.get().task_count();
            if !inner.source.next_task(&mut inner.builder) {
                inner.exhausted = true;
                break;
            }
            assert!(
                handle.get().task_count() > before,
                "GraphSource returned true without inserting a task"
            );
            inner.absorb_new(sim);
        }
    }
}

impl WindowInner {
    /// Sync bookkeeping (and, once live, runtime state) with everything
    /// the source inserted since the last call.
    fn absorb_new(&mut self, sim: &mut Sim) {
        let handle = self.builder.handle().clone();
        let (ntasks, nversions) = {
            let g = handle.get();
            (g.task_count(), g.version_count())
        };
        self.done.resize(ntasks, false);
        self.versions.resize(nversions, VerState::default());
        self.task_chunk_retired
            .resize(ntasks.div_ceil(GRAPH_CHUNK), 0);
        self.version_chunk_retired
            .resize(nversions.div_ceil(GRAPH_CHUNK), 0);
        self.version_chunk_freed
            .resize(nversions.div_ceil(GRAPH_CHUNK), false);
        if self.live {
            // Seed newly declared producer-less versions at their home.
            for i in self.seeded_versions..nversions {
                let (producer_less, home, initial) = {
                    let g = handle.get();
                    let v = g.version(i);
                    (v.producer().is_none(), v.home(), g.initial(i).cloned())
                };
                if producer_less {
                    self.rts[home].window_seed_initial(i, initial);
                }
            }
        }
        self.seeded_versions = nversions;

        let mut late = std::mem::take(&mut self.late_scratch);
        for t in self.admitted_tasks..ntasks {
            late.clear();
            let (node, local_ix, priority, missing) = {
                let g = handle.get();
                let task = g.task(t);
                let node = task.node();
                let mut missing = 0u32;
                for v in g.inputs(t) {
                    debug_assert!(self.versions[v.0].open() < VerState::OPEN);
                    self.versions[v.0].0 += 1;
                    if !self.live {
                        continue;
                    }
                    let rt = &self.rts[node];
                    if rt.store_is_present(v.0) {
                        continue;
                    }
                    missing += 1;
                    if rt.store_has(v.0) {
                        continue; // requested: the arrival releases it
                    }
                    let ver = g.version(v.0);
                    let home = ver.home();
                    if home == node {
                        continue; // local producer pending
                    }
                    if !self.rts[home].store_is_present(v.0) {
                        continue; // remote producer pending: its announce covers us
                    }
                    let held = self.holders.entry(v.0).or_default();
                    if let Err(at) = held.binary_search(&node) {
                        // Producer-side announce predates this consumer's
                        // discovery: late direct ACTIVATE from the home.
                        held.insert(at, node);
                        let size = self.rts[home].announce_size(v.0, ver.size);
                        late.push((home, node, v.0, size, task.priority));
                    }
                }
                (node, task.local_ix, task.priority, missing)
            };
            for &(home, dst, version, size, prio) in &late {
                NodeRt::send_late_activate(&self.rts[home], sim, dst, version, size, prio);
            }
            if self.live && self.rts[node].admit_local(t, local_ix, priority, missing) {
                let rt = self.rts[node].clone();
                sim.schedule_now(move |sim| NodeRt::dispatch(&rt, sim));
            }
        }
        late.clear();
        self.late_scratch = late;
        self.admitted_tasks = ntasks;

        // Versions whose `current` slot was overwritten: consumer sets are
        // final, so they become retirement candidates.
        let mut superseded = std::mem::take(&mut self.superseded_scratch);
        self.builder.swap_superseded(&mut superseded);
        for &vid in &superseded {
            self.versions[vid.0].0 |= VerState::SUPERSEDED;
            if self.live {
                self.maybe_retire_version(&handle, vid.0);
            }
        }
        // The prefill supersedes up to a window of versions at once, a
        // refill a few: keep only a refill-sized list, so the prefill's
        // does not stay live for the whole run.
        if superseded.capacity() <= SUPERSEDED_KEEP {
            superseded.clear();
            self.superseded_scratch = superseded;
        }
    }

    /// An announce from `v`'s home (the init announce of a producer-less
    /// version, or its producer's completion announce) reaches every
    /// currently known remote consumer node: they become `v`'s holders.
    fn cover_consumers(&mut self, g: &TaskGraph, v: usize) {
        let home = g.version(v).home();
        let mut nodes = std::mem::take(&mut self.ids_scratch);
        nodes.clear();
        nodes.extend(g.consumers(v).map(|c| c.node).filter(|&n| n != home));
        nodes.sort_unstable();
        nodes.dedup();
        if !nodes.is_empty() {
            // Kept sorted and duplicate-free for the late-activation binary
            // search (a no-op pass unless an earlier announce listed some).
            let held = self.holders.entry(v).or_default();
            held.extend_from_slice(&nodes);
            held.sort_unstable();
            held.dedup();
        }
        self.ids_scratch = nodes;
    }

    /// Retire `v` if nothing can ever read it again: superseded, producer
    /// completed, every discovered consumer completed. Drops payload bytes
    /// at its home and its holders — O(fan-out), not O(nodes) — and frees
    /// the version's graph chunk once its whole chunk has retired.
    fn maybe_retire_version(&mut self, handle: &GraphHandle, v: usize) {
        let state = self.versions[v];
        if state.retired() || state.open() != 0 {
            return;
        }
        let home = {
            let g = handle.get();
            let ver = g.version(v);
            if ver.producer().is_some_and(|p| !self.done[p]) {
                return;
            }
            ver.home()
        };
        if !state.superseded() {
            // Final and drained: producer done, every discovered consumer
            // completed (so its data already arrived — no in-flight
            // release will scan the list), and no later write exists.
            // The consumer list has no remaining readers; free it. A
            // consumer discovered later re-grows the list and is found by
            // `release_local` as usual.
            handle.get_mut().prune_consumers(v);
            return;
        }
        // The version can never be announced again: its holder list goes
        // with the payload copies it names.
        self.rts[home].window_drop_payload(v);
        for n in self.holders.remove(&v).unwrap_or_default() {
            self.rts[n].window_drop_payload(v);
        }
        // Debug oracle for the holder invariant: the old all-node sweep.
        #[cfg(debug_assertions)]
        for (n, rt) in self.rts.iter().enumerate() {
            let stray = rt.data(crate::graph::VersionId(v)).is_some();
            assert!(!stray, "retired version {v} kept payload bytes on node {n}");
        }
        handle.get_mut().retire_version(v);
        self.versions[v].0 |= VerState::RETIRED;
        let chunk = v / GRAPH_CHUNK;
        if self.version_chunk_freed[chunk] {
            // The chunk was already evacuated; this version lived on in
            // the side table until a later write superseded it.
            handle.get_mut().drop_evacuated_version(v);
        } else {
            self.version_chunk_retired[chunk] += 1;
            self.maybe_evacuate_version_chunk(handle, chunk);
        }
    }

    /// Free a version chunk once every entry is either retired or *final*
    /// — producer completed, all discovered consumers completed, and not
    /// superseded, so only a future write could ever retire it. Finals
    /// relocate to the graph's side table; the chunk memory (dominated by
    /// dead intermediates) is returned. Without this, tile Cholesky's
    /// final factor tiles — interspersed through discovery order — pin
    /// every chunk forever.
    fn maybe_evacuate_version_chunk(&mut self, handle: &GraphHandle, chunk: usize) {
        let lo = chunk * GRAPH_CHUNK;
        let hi = lo + GRAPH_CHUNK;
        if self.version_chunk_freed[chunk] || hi > self.versions.len() {
            return; // already freed, or the tail chunk is still filling
        }
        let mut keep = std::mem::take(&mut self.ids_scratch);
        keep.clear();
        let settled = 'scan: {
            let g = handle.get();
            for v in lo..hi {
                let state = self.versions[v];
                if state.retired() {
                    continue;
                }
                // Superseded, consumers still open or producer pending: it
                // will retire (or come back here) through the normal path.
                if state.superseded()
                    || state.open() != 0
                    || g.version(v).producer().is_some_and(|p| !self.done[p])
                {
                    break 'scan false;
                }
                keep.push(v);
            }
            true
        };
        // A chunk of nothing but finals has nothing to reclaim; the side
        // table would only add overhead.
        if settled && keep.len() < GRAPH_CHUNK {
            if keep.is_empty() {
                handle.get_mut().free_version_chunk(chunk);
            } else {
                handle.get_mut().evacuate_version_chunk(chunk, &keep);
            }
            self.version_chunk_freed[chunk] = true;
        }
        self.ids_scratch = keep;
    }
}
