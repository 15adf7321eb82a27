//! Dynamic task-graph insertion with automatic dependence analysis.
//!
//! Writes create new immutable *versions* of a datum (data renaming, like
//! PaRSEC's data copies), so the only true dependencies are
//! read-after-write: a task depends on the producer of every version it
//! reads. Insertion order defines which version a `read_key` refers to,
//! exactly like PaRSEC's dynamic task discovery interface.
//!
//! Storage holds O(chunks) heap blocks, not O(tasks):
//!
//! * Tasks and versions are fixed-size records in chunked storage
//!   ([`ChunkVec`]): contiguous indices, O(1) access, and — in windowed
//!   execution — whole 256-entry chunks of *retired* tasks/versions are
//!   freed once the completion frontier passes them, so peak memory tracks
//!   the discovery window instead of the full unrolled graph (PaRSEC-style
//!   bounded task discovery).
//! * A task's inputs and outputs are `u32` version ids in its chunk's edge
//!   arena, read through [`TaskGraph::inputs`] / [`TaskGraph::outputs`];
//!   the arena (and the chunk's kernels, Numeric mode only) is freed with
//!   the chunk.
//! * A version's consumers are `{task, node, next}` links in one
//!   graph-owned arena, threaded per version in insertion order and read
//!   through [`TaskGraph::consumers`]. The link carries the consumer's
//!   node, so a walk skips remote consumers without loading their task.
//!   Pruned and retired lists go to a free list, so windowed runs reuse
//!   the links of the versions they retire.
//! * Initial payloads (producer-less versions, Numeric mode) live in a
//!   side table, which a real run empties into its node stores.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use amt_netmodel::NodeId;
use amt_simnet::FastMap;
use bytes::Bytes;

/// User-level datum identifier (e.g. a tile index).
pub type DataKey = u64;

/// Task index within a graph.
pub type TaskId = usize;

/// An immutable version of a datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionId(pub usize);

/// A real compute kernel: consumes input payloads, produces one payload per
/// declared output. Shared so the same graph can be executed repeatedly
/// (e.g. once per backend) and verified against a sequential oracle.
/// `Send + Sync` so the same graph can also run on the real thread-pool
/// substrate ([`crate::Cluster::execute_real`]), where workers on different
/// OS threads invoke kernels concurrently.
pub type Kernel = Arc<dyn Fn(&[Bytes]) -> Vec<Bytes> + Send + Sync>;

/// Items per [`ChunkVec`] chunk (must be a power of two).
const CHUNK: usize = 256;
const CHUNK_SHIFT: usize = CHUNK.trailing_zeros() as usize;

/// "None" in the graph's 32-bit task, version and link fields.
const NIL: u32 = u32::MAX;

/// `i` as a 32-bit graph field (never [`NIL`]).
fn id32(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&i| i != NIL)
        .expect("graph ids fit in 32 bits")
}

/// Chunked growable storage with freeable chunks.
///
/// Semantically a `Vec<T>` whose backing memory is split into
/// [`CHUNK`]-item chunks, each with side storage `S` that lives and dies
/// with it; [`ChunkVec::free_chunk`] returns one chunk's memory to the
/// allocator once every item in it has been retired. Accessing an index
/// inside a freed chunk panics.
pub(crate) struct ChunkVec<T, S = ()> {
    chunks: Vec<Option<Chunk<T, S>>>,
    /// Long-lived survivors relocated out of freed chunks by
    /// [`ChunkVec::free_chunk_keeping`]; resolved transparently by
    /// [`ChunkVec::get`] / [`ChunkVec::get_mut`].
    evacuated: FastMap<usize, T>,
    len: usize,
}

struct Chunk<T, S> {
    items: Vec<T>,
    side: S,
}

impl<T, S> ChunkVec<T, S> {
    pub fn new() -> Self {
        ChunkVec {
            chunks: Vec::new(),
            evacuated: FastMap::default(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The side storage of the chunk the next [`ChunkVec::push`] lands in;
    /// `open` makes it when that push starts a new chunk.
    pub fn tail_side(&mut self, open: impl FnOnce() -> S) -> &mut S {
        let c = self.len >> CHUNK_SHIFT;
        if c == self.chunks.len() {
            self.chunks.push(Some(Chunk {
                items: Vec::with_capacity(CHUNK),
                side: open(),
            }));
        }
        &mut self.chunks[c]
            .as_mut()
            .expect("push past a freed chunk")
            .side
    }

    pub fn push(&mut self, item: T)
    where
        S: Default,
    {
        self.tail_side(S::default);
        self.chunks[self.len >> CHUNK_SHIFT]
            .as_mut()
            .expect("push past a freed chunk")
            .items
            .push(item);
        self.len += 1;
    }

    pub fn get(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &self.chunks[i >> CHUNK_SHIFT] {
            Some(c) => &c.items[i & (CHUNK - 1)],
            None => self
                .evacuated
                .get(&i)
                .expect("access to a retired (freed) graph chunk"),
        }
    }

    /// Item `i` with its chunk's side storage. Panics on a freed chunk
    /// (an evacuated item has no side storage).
    pub fn get_with_side(&self, i: usize) -> (&T, &S) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let c = self.chunks[i >> CHUNK_SHIFT]
            .as_ref()
            .expect("access to a retired (freed) graph chunk");
        (&c.items[i & (CHUNK - 1)], &c.side)
    }

    /// Like [`ChunkVec::get`], but `None` for an item whose chunk has been
    /// freed (and that was not evacuated) instead of panicking.
    pub fn try_get(&self, i: usize) -> Option<&T> {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &self.chunks[i >> CHUNK_SHIFT] {
            Some(c) => Some(&c.items[i & (CHUNK - 1)]),
            None => self.evacuated.get(&i),
        }
    }

    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &mut self.chunks[i >> CHUNK_SHIFT] {
            Some(c) => &mut c.items[i & (CHUNK - 1)],
            None => self
                .evacuated
                .get_mut(&i)
                .expect("access to a retired (freed) graph chunk"),
        }
    }

    /// Free chunk `c` (indices `c*CHUNK .. (c+1)*CHUNK`) and its side
    /// storage. The caller guarantees no item in it is accessed again.
    pub fn free_chunk(&mut self, c: usize) {
        self.chunks[c] = None;
    }

    /// Free chunk `c`, relocating the listed still-live indices (sorted
    /// ascending) into the evacuation table; everything else in the chunk
    /// is dropped. The listed indices stay accessible through
    /// [`ChunkVec::get`] until [`ChunkVec::drop_evacuated`].
    pub fn free_chunk_keeping(&mut self, c: usize, keep: &[usize]) {
        let Some(chunk) = self.chunks[c].take() else {
            return;
        };
        let base = c << CHUNK_SHIFT;
        for (off, item) in chunk.items.into_iter().enumerate() {
            if keep.binary_search(&(base + off)).is_ok() {
                self.evacuated.insert(base + off, item);
            }
        }
    }

    /// Drop an entry previously preserved by
    /// [`ChunkVec::free_chunk_keeping`].
    pub fn drop_evacuated(&mut self, i: usize) {
        self.evacuated.remove(&i);
    }

    /// Iterate all live items in index order. Panics on freed chunks — use
    /// only on graphs that retired nothing (analysis, oracle, init).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| {
            c.as_ref()
                .expect("iteration over a partially retired graph")
                .items
                .iter()
        })
    }
}

/// Items per freeable graph-storage chunk (see [`ChunkVec`]).
pub(crate) const GRAPH_CHUNK: usize = CHUNK;

/// Builder-style description of one task.
pub struct TaskDesc {
    pub(crate) name: &'static str,
    pub(crate) node: Option<NodeId>,
    pub(crate) flops: f64,
    pub(crate) efficiency: f64,
    pub(crate) priority: i64,
    /// Reads and writes in declaration order.
    pub(crate) edges: Vec<Edge>,
    pub(crate) kernel: Option<Kernel>,
}

#[derive(Clone, Copy)]
pub(crate) enum Edge {
    Read(ReadRef),
    /// A new version of `key` of the declared size.
    Write(DataKey, usize),
}

#[derive(Clone, Copy)]
pub(crate) enum ReadRef {
    Version(VersionId),
    Current(DataKey),
}

/// Edges a fresh descriptor reserves: a stencil task's five reads and one
/// write fit without a grow.
const DESC_EDGES: usize = 8;
/// Longest spent edge list kept for the next descriptor: one wide task
/// must not pin its list for the rest of the thread.
const SPARE_EDGES_CAP: usize = 64;

thread_local! {
    /// The cleared edge list of the last descriptor this thread inserted;
    /// [`TaskDesc::new`] takes it, so build-and-insert loops reuse one list.
    static SPARE_EDGES: Cell<Vec<Edge>> = const { Cell::new(Vec::new()) };
}

impl TaskDesc {
    pub fn new(name: &'static str) -> Self {
        let mut edges = SPARE_EDGES.try_with(Cell::take).unwrap_or_default();
        if edges.capacity() == 0 {
            edges.reserve_exact(DESC_EDGES);
        }
        TaskDesc {
            name,
            node: None,
            flops: 0.0,
            efficiency: 1.0,
            priority: 0,
            edges,
            kernel: None,
        }
    }

    /// Pin execution to a node. Defaults to the home node of the first
    /// read, else node 0.
    pub fn on_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Floating-point operations this task performs (drives the virtual
    /// duration).
    pub fn flops(mut self, flops: f64) -> Self {
        self.flops = flops;
        self
    }

    /// Fraction of peak FLOP rate this task class achieves, in (0, 1].
    pub fn efficiency(mut self, e: f64) -> Self {
        assert!(e > 0.0 && e <= 1.0, "efficiency must be in (0,1]");
        self.efficiency = e;
        self
    }

    /// Scheduling priority (higher runs first; also prioritizes its input
    /// communication, §4.1).
    pub fn priority(mut self, p: i64) -> Self {
        self.priority = p;
        self
    }

    /// Read a specific version.
    pub fn read(mut self, v: VersionId) -> Self {
        self.edges.push(Edge::Read(ReadRef::Version(v)));
        self
    }

    /// Read the current (insertion-time) version of `key`.
    pub fn read_key(mut self, key: DataKey) -> Self {
        self.edges.push(Edge::Read(ReadRef::Current(key)));
        self
    }

    /// Write `key`, producing a new version of declared `size` bytes.
    pub fn write(mut self, key: DataKey, size: usize) -> Self {
        self.edges.push(Edge::Write(key, size));
        self
    }

    /// Attach a real kernel (Numeric mode). It receives the read payloads
    /// in declaration order and must return one payload per write.
    /// `Send + Sync` so the graph stays executable on the real-thread
    /// substrate; kernels normally capture only `Copy` parameters.
    pub fn kernel(mut self, k: impl Fn(&[Bytes]) -> Vec<Bytes> + Send + Sync + 'static) -> Self {
        self.kernel = Some(Arc::new(k));
        self
    }
}

/// One inserted task: a fixed-size record (its id is its index). Its
/// edges and kernel live in its chunk ([`TaskGraph::inputs`],
/// [`TaskGraph::outputs`], [`TaskGraph::kernel`]).
pub struct Task {
    pub name: &'static str,
    pub flops: f64,
    pub efficiency: f64,
    pub priority: i64,
    node: u32,
    /// Index of this task among the tasks assigned to its node (insertion
    /// order). Per-node runtime tables (dependence counters) are indexed by
    /// this instead of the global id, so each node's table is
    /// O(tasks-on-node), not O(total tasks) — the difference between 4 GB
    /// and 4 MB of counters at a million tasks on 1024 nodes.
    pub local_ix: u32,
    /// Offset of the task's edges (inputs, then outputs) in its chunk's
    /// edge arena.
    edges: u32,
    n_in: u16,
    n_out: u16,
}

impl Task {
    /// The node the task runs on.
    pub fn node(&self) -> NodeId {
        self.node as NodeId
    }
}

/// One version of a datum: a fixed-size record. Its consumers are links
/// in the graph's arena ([`TaskGraph::consumers`]); an initial payload
/// lives in a side table ([`TaskGraph::initial`]).
pub struct Version {
    pub key: DataKey,
    pub size: usize,
    home: u32,
    producer: u32,
    /// First and last consumer link ([`NIL`]: none).
    head: u32,
    tail: u32,
}

impl Version {
    /// Node where this version is produced / initially resides.
    pub fn home(&self) -> NodeId {
        self.home as NodeId
    }

    pub fn producer(&self) -> Option<TaskId> {
        (self.producer != NIL).then_some(self.producer as TaskId)
    }
}

/// One consumer of a version: the reading task and the node it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Consumer {
    pub task: TaskId,
    pub node: NodeId,
}

/// What a task chunk owns besides its records: its tasks' edges (each
/// task's input then output version ids) and, in Numeric graphs, their
/// kernels by offset in the chunk.
#[derive(Default)]
struct TaskSide {
    edges: Vec<u32>,
    kernels: Vec<Option<Kernel>>,
}

#[derive(Clone, Copy)]
struct Link {
    task: u32,
    node: u32,
    next: u32,
}

/// Every version's consumer list: one arena of links, threaded per
/// version from [`Version`]'s head to its tail in insertion order. A freed
/// list is spliced onto `free` whole and its links reused.
struct ConsumerLinks {
    links: Vec<Link>,
    free: u32,
}

impl ConsumerLinks {
    fn push(&mut self, ver: &mut Version, task: u32, node: u32) {
        let link = Link {
            task,
            node,
            next: NIL,
        };
        let at = if self.free == NIL {
            self.links.push(link);
            id32(self.links.len() - 1)
        } else {
            let at = self.free;
            self.free = self.links[at as usize].next;
            self.links[at as usize] = link;
            at
        };
        match ver.tail {
            NIL => ver.head = at,
            tail => self.links[tail as usize].next = at,
        }
        ver.tail = at;
    }

    fn free(&mut self, ver: &mut Version) {
        if ver.head != NIL {
            self.links[ver.tail as usize].next = self.free;
            self.free = ver.head;
            (ver.head, ver.tail) = (NIL, NIL);
        }
    }
}

/// Iterator over a version's consumers, in insertion order.
pub struct Consumers<'a> {
    links: &'a [Link],
    at: u32,
    #[cfg(test)]
    probe: &'a WalkProbe,
}

/// Deterministic walk counters (tests only), per graph so that tests
/// running side by side keep their counts apart, and atomic so that a
/// real run's pool workers can count too.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct WalkProbe {
    /// Consumer links visited, by any walk.
    pub(crate) links: std::sync::atomic::AtomicU64,
    /// Consumer priorities an announce loaded.
    pub(crate) priorities: std::sync::atomic::AtomicU64,
}

impl Iterator for Consumers<'_> {
    type Item = Consumer;

    fn next(&mut self) -> Option<Consumer> {
        if self.at == NIL {
            return None;
        }
        let link = self.links[self.at as usize];
        self.at = link.next;
        #[cfg(test)]
        self.probe
            .links
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(Consumer {
            task: link.task as TaskId,
            node: link.node as NodeId,
        })
    }
}

/// The task graph executed by [`crate::Cluster::execute`]. Fully built up
/// front by [`GraphBuilder::build`], or grown incrementally during a
/// windowed execution (see [`GraphSource`]).
pub struct TaskGraph {
    tasks: ChunkVec<Task, TaskSide>,
    versions: ChunkVec<Version>,
    consumers: ConsumerLinks,
    /// Initial payloads of producer-less versions (Numeric mode).
    initial: FastMap<usize, Bytes>,
    /// Whether any version was declared with a payload or any task with a
    /// kernel ([`TaskGraph::carries_payloads`]).
    payloads: bool,
    /// Capacity of a new chunk's edge arena: the longest arena so far.
    edge_hint: usize,
    /// Tasks assigned to each node so far (source of [`Task::local_ix`];
    /// survives windowed growth because the windowed driver appends through
    /// the same shared graph).
    local_counts: Vec<u32>,
    #[cfg(test)]
    pub(crate) probe: Arc<WalkProbe>,
}

impl TaskGraph {
    pub(crate) fn empty() -> TaskGraph {
        TaskGraph {
            tasks: ChunkVec::new(),
            versions: ChunkVec::new(),
            consumers: ConsumerLinks {
                links: Vec::new(),
                free: NIL,
            },
            initial: FastMap::default(),
            payloads: false,
            edge_hint: 0,
            local_counts: Vec::new(),
            #[cfg(test)]
            probe: Arc::default(),
        }
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks assigned to `node` (so far, under windowed growth).
    pub fn local_task_count(&self, node: NodeId) -> usize {
        self.local_counts.get(node).copied().unwrap_or(0) as usize
    }

    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    pub fn task(&self, id: TaskId) -> &Task {
        self.tasks.get(id)
    }

    /// `None` once `id`'s storage chunk has been freed by windowed
    /// retirement — which can only happen after the task completed.
    pub fn task_if_live(&self, id: TaskId) -> Option<&Task> {
        self.tasks.try_get(id)
    }

    /// The versions task `id` reads, in declaration order.
    pub fn inputs(&self, id: TaskId) -> impl ExactSizeIterator<Item = VersionId> + '_ {
        let (t, side) = self.tasks.get_with_side(id);
        let lo = t.edges as usize;
        side.edges[lo..lo + t.n_in as usize]
            .iter()
            .map(|&v| VersionId(v as usize))
    }

    /// The versions task `id` writes, in declaration order.
    pub fn outputs(&self, id: TaskId) -> impl ExactSizeIterator<Item = VersionId> + '_ {
        let (t, side) = self.tasks.get_with_side(id);
        let lo = t.edges as usize + t.n_in as usize;
        side.edges[lo..lo + t.n_out as usize]
            .iter()
            .map(|&v| VersionId(v as usize))
    }

    /// Task `id`'s kernel, if it has one (Numeric mode).
    pub fn kernel(&self, id: TaskId) -> Option<&Kernel> {
        let (_, side) = self.tasks.get_with_side(id);
        side.kernels.get(id & (CHUNK - 1))?.as_ref()
    }

    pub fn version(&self, id: usize) -> &Version {
        self.versions.get(id)
    }

    /// The tasks that read version `id`, in insertion order.
    pub fn consumers(&self, id: usize) -> Consumers<'_> {
        Consumers {
            links: &self.consumers.links,
            at: self.versions.get(id).head,
            #[cfg(test)]
            probe: &self.probe,
        }
    }

    /// Count one consumer priority an announce loads (tests only).
    #[inline]
    pub(crate) fn priority_probe(&self) {
        #[cfg(test)]
        self.probe
            .priorities
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The consumers of version `id` placed on `node` whose task is still
    /// stored, in insertion order. Consumers elsewhere are skipped on
    /// their link alone. A consumer whose chunk windowed retirement freed
    /// has completed already, so there is nothing left to release.
    pub(crate) fn live_local_consumers(
        &self,
        id: usize,
        node: NodeId,
    ) -> impl Iterator<Item = (TaskId, &Task)> + '_ {
        self.consumers(id)
            .filter(move |c| c.node == node)
            .filter_map(|c| Some((c.task, self.task_if_live(c.task)?)))
    }

    /// The initial payload of producer-less version `id` (Numeric mode).
    pub fn initial(&self, id: usize) -> Option<&Bytes> {
        self.initial.get(&id)
    }

    /// Move the initial payload of version `id` out of the graph.
    pub(crate) fn take_initial(&mut self, id: usize) -> Option<Bytes> {
        self.initial.remove(&id)
    }

    /// Whether any payload can exist in a run of this graph: some version
    /// was declared with initial bytes or some task has a kernel. O(1),
    /// recorded as the graph is built.
    pub(crate) fn carries_payloads(&self) -> bool {
        self.payloads
    }

    /// All tasks in insertion order (panics on graphs with retired chunks).
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// All versions in creation order (panics on graphs with retired
    /// chunks).
    pub fn versions(&self) -> impl Iterator<Item = &Version> {
        self.versions.iter()
    }

    /// The state both substrates start a run from, in one pass over the
    /// versions and one over the tasks. Returns, per node of `nodes`, the
    /// producer-less versions homed there, ascending; hands `missing` each
    /// task, in task order, with the number of its inputs that are not
    /// such a version homed on the task's node — what it waits for.
    pub(crate) fn start_state(
        &self,
        nodes: usize,
        mut missing: impl FnMut(TaskId, &Task, u32),
    ) -> Vec<Vec<usize>> {
        let mut sources = vec![Vec::new(); nodes];
        for (i, v) in self.versions.iter().enumerate() {
            if v.producer == NIL {
                sources[v.home()].push(i);
            }
        }
        for (t, task) in self.tasks.iter().enumerate() {
            let n = self
                .inputs(t)
                .filter(|v| {
                    let v = self.versions.get(v.0);
                    v.producer != NIL || v.home() != task.node()
                })
                .count();
            missing(t, task, n as u32);
        }
        sources
    }

    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Versions that cross nodes (each remote consumer node counts once).
    pub fn remote_flows(&self) -> usize {
        // One scratch buffer across the whole sweep instead of a fresh
        // `Vec<NodeId>` per version.
        let mut scratch: Vec<NodeId> = Vec::new();
        let mut total = 0;
        for (i, v) in self.versions.iter().enumerate() {
            scratch.clear();
            let home = v.home();
            scratch.extend(self.consumers(i).map(|c| c.node).filter(|&n| n != home));
            scratch.sort_unstable();
            scratch.dedup();
            total += scratch.len();
        }
        total
    }

    /// Execute every kernel sequentially in insertion order — the
    /// correctness oracle for Numeric-mode runs.
    pub fn sequential_oracle(&self) -> HashMap<VersionId, Bytes> {
        let mut store: HashMap<VersionId, Bytes> = self
            .initial
            .iter()
            .map(|(&i, b)| (VersionId(i), b.clone()))
            .collect();
        for t in 0..self.task_count() {
            let Some(kernel) = self.kernel(t) else {
                continue;
            };
            let inputs: Vec<Bytes> = self
                .inputs(t)
                .filter(|v| self.versions.get(v.0).size > 0) // CTL flows carry no payload
                .map(|v| store.get(&v).expect("oracle: input missing").clone())
                .collect();
            let outs = kernel(&inputs);
            assert_eq!(outs.len(), self.outputs(t).len(), "kernel output arity");
            for (vid, b) in self.outputs(t).zip(outs) {
                store.insert(vid, b);
            }
        }
        store
    }

    /// Drop a dead version's consumer links and initial bytes.
    pub(crate) fn retire_version(&mut self, id: usize) {
        self.consumers.free(self.versions.get_mut(id));
        self.initial.remove(&id);
    }

    /// Drop a version's consumer list without retiring it. Windowed-mode
    /// only, once the producer's completion announce has been sent and its
    /// holders recorded: every later-discovered consumer is handled
    /// through the store-presence check and the holder list, never this
    /// list. For tile Cholesky the never-superseded final tiles otherwise
    /// keep O(nt³) consumer entries live to the end of the run.
    pub(crate) fn prune_consumers(&mut self, id: usize) {
        self.consumers.free(self.versions.get_mut(id));
    }

    /// Free a task chunk: its records, edge arena and kernels.
    pub(crate) fn free_task_chunk(&mut self, c: usize) {
        self.tasks.free_chunk(c);
    }

    pub(crate) fn free_version_chunk(&mut self, c: usize) {
        self.versions.free_chunk(c);
    }

    /// Free a version chunk whose only unretired entries are *final*
    /// versions (never superseded): the finals move to a side table and
    /// the chunk's memory — dominated by dead intermediates — is
    /// returned.
    pub(crate) fn evacuate_version_chunk(&mut self, c: usize, keep: &[usize]) {
        self.versions.free_chunk_keeping(c, keep);
    }

    /// A previously evacuated version got superseded after all and
    /// retired: drop its side-table entry.
    pub(crate) fn drop_evacuated_version(&mut self, id: usize) {
        self.versions.drop_evacuated(id);
    }
}

/// Shared, interiorly-mutable handle to a [`TaskGraph`]. The per-node
/// runtimes hold one; in windowed execution the discovery driver appends
/// tasks and retires completed ones through the same handle.
#[derive(Clone)]
pub struct GraphHandle {
    inner: Rc<RefCell<TaskGraph>>,
}

impl GraphHandle {
    pub fn new(graph: TaskGraph) -> GraphHandle {
        GraphHandle {
            inner: Rc::new(RefCell::new(graph)),
        }
    }

    pub fn get(&self) -> Ref<'_, TaskGraph> {
        self.inner.borrow()
    }

    pub(crate) fn get_mut(&self) -> RefMut<'_, TaskGraph> {
        self.inner.borrow_mut()
    }

    fn try_unwrap(self) -> Option<TaskGraph> {
        Rc::try_unwrap(self.inner).ok().map(RefCell::into_inner)
    }
}

/// Produces a task graph incrementally, for windowed execution
/// ([`crate::Cluster::execute_windowed`]): the runtime pulls one task at a
/// time so at most `window` tasks are unrolled ahead of the completion
/// frontier.
pub trait GraphSource {
    /// Insert the next task into `g` (declaring any initial data it needs
    /// first) and return `true`; return `false` — without inserting —
    /// when the graph is complete. Must insert at least one task per
    /// `true` return.
    fn next_task(&mut self, g: &mut GraphBuilder) -> bool;
}

/// Incremental graph builder.
pub struct GraphBuilder {
    nodes: usize,
    graph: GraphHandle,
    current: FastMap<DataKey, VersionId>,
    /// When enabled, versions whose `current` slot was overwritten by a
    /// later write are logged here (windowed-mode retirement feed).
    track_superseded: bool,
    superseded: Vec<VersionId>,
}

impl GraphBuilder {
    pub fn new(nodes: usize) -> Self {
        Self::over(nodes, GraphHandle::new(TaskGraph::empty()))
    }

    /// Build into an existing (shared) graph handle — the windowed driver
    /// appends to the graph the runtimes are already executing.
    pub(crate) fn over(nodes: usize, graph: GraphHandle) -> Self {
        assert!(nodes > 0);
        GraphBuilder {
            nodes,
            graph,
            current: FastMap::default(),
            track_superseded: false,
            superseded: Vec::new(),
        }
    }

    pub(crate) fn set_track_superseded(&mut self) {
        self.track_superseded = true;
    }

    /// Hand the versions superseded since the last call over in `spent`
    /// (which must be empty) and keep its buffer for the next ones, so
    /// neither side regrows a list per call.
    pub(crate) fn swap_superseded(&mut self, spent: &mut Vec<VersionId>) {
        debug_assert!(spent.is_empty());
        std::mem::swap(&mut self.superseded, spent);
    }

    pub(crate) fn handle(&self) -> &GraphHandle {
        &self.graph
    }

    pub fn task_count(&self) -> usize {
        self.graph.get().task_count()
    }

    /// Declare an initial datum residing on `node`. Returns its version.
    pub fn data(
        &mut self,
        key: DataKey,
        size: usize,
        node: NodeId,
        bytes: Option<Bytes>,
    ) -> VersionId {
        assert!(node < self.nodes, "node {node} out of range");
        if let Some(b) = &bytes {
            assert_eq!(b.len(), size, "declared size must match payload");
        }
        let mut g = self.graph.get_mut();
        let vid = VersionId(g.versions.len());
        g.versions.push(Version {
            key,
            size,
            home: id32(node),
            producer: NIL,
            head: NIL,
            tail: NIL,
        });
        if let Some(b) = bytes {
            g.initial.insert(vid.0, b);
            g.payloads = true;
        }
        let prev = self.current.insert(key, vid);
        assert!(prev.is_none(), "initial data for key {key} declared twice");
        vid
    }

    /// Current version of `key`, if any.
    pub fn current(&self, key: DataKey) -> Option<VersionId> {
        self.current.get(&key).copied()
    }

    /// Insert a task; returns its id. Every read binds before any write
    /// applies, so a task that reads and writes one key reads the version
    /// before its own, whatever the declaration order.
    pub fn insert(&mut self, desc: TaskDesc) -> TaskId {
        let mut guard = self.graph.get_mut();
        let g = &mut *guard;
        let id = g.tasks.len();
        let current = &self.current;
        let resolve = |r: ReadRef| match r {
            ReadRef::Version(v) => v,
            ReadRef::Current(k) => *current
                .get(&k)
                .unwrap_or_else(|| panic!("read of key {k} with no version")),
        };
        let node = desc.node.unwrap_or_else(|| {
            desc.edges
                .iter()
                .find_map(|e| match *e {
                    Edge::Read(r) => Some(g.versions.get(resolve(r).0).home()),
                    Edge::Write(..) => None,
                })
                .unwrap_or(0)
        });
        assert!(node < self.nodes, "node {node} out of range");
        let (task32, node32) = (id32(id), id32(node));
        let hint = g.edge_hint;
        let side = g.tasks.tail_side(|| TaskSide {
            edges: Vec::with_capacity(hint),
            kernels: Vec::new(),
        });
        let edges = id32(side.edges.len());
        for e in &desc.edges {
            if let Edge::Read(r) = *e {
                let v = resolve(r);
                side.edges.push(id32(v.0));
                g.consumers.push(g.versions.get_mut(v.0), task32, node32);
            }
        }
        let n_in = side.edges.len() - edges as usize;
        for e in &desc.edges {
            let Edge::Write(key, size) = *e else { continue };
            let vid = VersionId(g.versions.len());
            g.versions.push(Version {
                key,
                size,
                home: node32,
                producer: task32,
                head: NIL,
                tail: NIL,
            });
            side.edges.push(id32(vid.0));
            if let Some(old) = self.current.insert(key, vid) {
                if self.track_superseded {
                    self.superseded.push(old);
                }
            }
        }
        let n_out = desc.edges.len() - n_in;
        let n_in = u16::try_from(n_in).expect("at most 65 535 reads per task");
        let n_out = u16::try_from(n_out).expect("at most 65 535 writes per task");
        g.edge_hint = g.edge_hint.max(side.edges.len());
        if let Some(k) = desc.kernel {
            if side.kernels.is_empty() {
                side.kernels.resize(CHUNK, None);
            }
            side.kernels[id & (CHUNK - 1)] = Some(k);
            g.payloads = true;
        }
        if g.local_counts.len() <= node {
            g.local_counts.resize(node + 1, 0);
        }
        let local_ix = g.local_counts[node];
        g.local_counts[node] += 1;
        g.tasks.push(Task {
            name: desc.name,
            flops: desc.flops,
            efficiency: desc.efficiency,
            priority: desc.priority,
            node: node32,
            local_ix,
            edges,
            n_in,
            n_out,
        });
        let mut spent = desc.edges;
        if spent.capacity() <= SPARE_EDGES_CAP {
            spent.clear();
            let _ = SPARE_EDGES.try_with(|s| s.set(spent));
        }
        id
    }

    pub fn build(self) -> TaskGraph {
        self.graph
            .try_unwrap()
            .expect("build() on a builder whose graph handle is shared")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consumer_tasks(graph: &TaskGraph, v: usize) -> Vec<TaskId> {
        graph.consumers(v).map(|c| c.task).collect()
    }

    #[test]
    fn records_are_compact() {
        assert!(
            std::mem::size_of::<Task>() <= 72,
            "{}",
            std::mem::size_of::<Task>()
        );
        assert!(
            std::mem::size_of::<Version>() <= 48,
            "{}",
            std::mem::size_of::<Version>()
        );
    }

    #[test]
    fn edges_keep_declaration_order_across_chunks() {
        let mut g = GraphBuilder::new(2);
        for k in 0..4 {
            g.data(k, 8, 1, None);
        }
        // Three chunks of tasks with 1–4 reads and 1–2 writes each.
        for i in 0..700u64 {
            let mut d = TaskDesc::new("t").write(i % 4, 8);
            for k in 0..=i % 4 {
                d = d.read_key((i + k) % 4);
            }
            if i.is_multiple_of(3) {
                d = d.write(100 + i, 8);
            }
            g.insert(d);
        }
        let graph = g.build();
        for t in [0, 255, 256, 511, 699] {
            let i = t as u64;
            let reads: Vec<DataKey> = graph.inputs(t).map(|v| graph.version(v.0).key).collect();
            let want: Vec<DataKey> = (0..=i % 4).map(|k| (i + k) % 4).collect();
            assert_eq!(reads, want, "task {t}");
            let outs: Vec<VersionId> = graph.outputs(t).collect();
            assert_eq!(
                outs.len(),
                if i.is_multiple_of(3) { 2 } else { 1 },
                "task {t}"
            );
            for v in outs {
                assert_eq!(graph.version(v.0).producer(), Some(t));
                assert_eq!(graph.version(v.0).home(), 1);
            }
        }
    }

    #[test]
    fn consumer_order_survives_link_reuse() {
        let mut b = GraphBuilder::new(3);
        let (a, c) = (b.data(0, 8, 0, None), b.data(1, 8, 0, None));
        for n in 0..3 {
            b.insert(TaskDesc::new("r").on_node(n).read(a).read(c));
        }
        let mut graph = b.build();
        assert_eq!(graph.consumers.links.len(), 6);
        // Free `a`'s three links, then grow `c`'s list and a new version's
        // interleaved: they take the freed links, yet every walk keeps
        // insertion order.
        graph.prune_consumers(a.0);
        assert_eq!(consumer_tasks(&graph, a.0), vec![]);
        let mut b = GraphBuilder::over(3, GraphHandle::new(graph));
        let d = b.data(2, 8, 1, None);
        let mut added = Vec::new();
        for n in [2, 0, 1, 2] {
            added.push(b.insert(TaskDesc::new("r").on_node(n).read(c).read(d)));
        }
        let graph = b.build();
        assert_eq!(graph.consumers.links.len(), 6 + 5, "three links reused");
        let mut want_c = vec![0, 1, 2];
        want_c.extend(&added);
        assert_eq!(consumer_tasks(&graph, c.0), want_c);
        assert_eq!(consumer_tasks(&graph, d.0), added);
        let nodes: Vec<NodeId> = graph.consumers(d.0).map(|c| c.node).collect();
        assert_eq!(nodes, vec![2, 0, 1, 2]);
        // A retired list is reusable too.
        let mut graph = graph;
        graph.retire_version(d.0);
        assert_eq!(consumer_tasks(&graph, d.0), vec![]);
        assert_eq!(consumer_tasks(&graph, c.0), want_c);
    }

    #[test]
    fn walks_skip_consumers_whose_chunk_was_freed() {
        // 300 consumers of one version on alternating nodes: the first 256
        // fill task chunk 0.
        let mut b = GraphBuilder::new(2);
        let v = b.data(0, 8, 0, None);
        for t in 0..300 {
            b.insert(TaskDesc::new("r").on_node(t % 2).read(v));
        }
        let mut graph = b.build();
        let local = |g: &TaskGraph, n| -> Vec<TaskId> {
            g.live_local_consumers(v.0, n).map(|(t, _)| t).collect()
        };
        assert_eq!(local(&graph, 1).len(), 150);
        // Windowed retirement frees chunk 0 once its tasks completed; the
        // version's list still names them.
        graph.free_task_chunk(0);
        assert_eq!(graph.consumers(v.0).count(), 300);
        let want: Vec<TaskId> = (256..300).filter(|t| t % 2 == 1).collect();
        assert_eq!(local(&graph, 1), want);
        for (t, task) in graph.live_local_consumers(v.0, 0) {
            assert_eq!((t % 2, task.node()), (0, 0));
            assert!(t >= 256);
        }
    }

    #[test]
    fn the_builder_records_whether_payloads_exist() {
        let mut g = GraphBuilder::new(1);
        g.data(0, 1, 0, None);
        g.insert(TaskDesc::new("cost").read_key(0).write(0, 1));
        assert!(!g.handle().get().carries_payloads());
        g.insert(TaskDesc::new("numeric").write(1, 1).kernel(|_| vec![]));
        assert!(g.build().carries_payloads());
        let mut g = GraphBuilder::new(1);
        g.data(0, 1, 0, Some(Bytes::from_static(&[7])));
        assert!(g.build().carries_payloads());
    }

    #[test]
    fn kernels_and_initial_payloads_live_in_side_tables() {
        let mut g = GraphBuilder::new(1);
        let v = g.data(0, 1, 0, Some(Bytes::from_static(&[7])));
        let w = g.data(1, 1, 0, None);
        let plain = g.insert(TaskDesc::new("plain").read(v).write(2, 1));
        let with = g.insert(
            TaskDesc::new("with")
                .read(w)
                .write(3, 1)
                .kernel(|_| vec![Bytes::from_static(&[1])]),
        );
        let mut graph = g.build();
        assert!(graph.kernel(plain).is_none());
        assert!(graph.kernel(with).is_some());
        assert_eq!(graph.initial(v.0).map(|b| b[0]), Some(7));
        assert!(graph.initial(w.0).is_none());
        graph.retire_version(v.0);
        assert!(graph.initial(v.0).is_none());
    }

    #[test]
    fn read_after_write_chains() {
        let mut g = GraphBuilder::new(1);
        g.data(0, 8, 0, None);
        let t1 = g.insert(TaskDesc::new("w1").read_key(0).write(0, 8));
        let t2 = g.insert(TaskDesc::new("w2").read_key(0).write(0, 8));
        let graph = g.build();
        // t2 reads the version produced by t1, not the initial one.
        let read = graph.inputs(t2).next().expect("t2 reads");
        assert_eq!(graph.version(read.0).producer(), Some(t1));
        // The initial version's only consumer is t1.
        assert_eq!(consumer_tasks(&graph, 0), vec![t1]);
    }

    #[test]
    fn renaming_removes_anti_dependencies() {
        let mut g = GraphBuilder::new(1);
        let v0 = g.data(0, 8, 0, None);
        let r1 = g.insert(TaskDesc::new("reader1").read(v0));
        let r2 = g.insert(TaskDesc::new("reader2").read(v0));
        let w = g.insert(TaskDesc::new("writer").write(0, 8));
        let graph = g.build();
        // The writer has no inputs at all: no write-after-read edges.
        assert_eq!(graph.inputs(w).len(), 0);
        assert_eq!(consumer_tasks(&graph, v0.0), vec![r1, r2]);
    }

    #[test]
    fn default_node_follows_first_input() {
        let mut g = GraphBuilder::new(4);
        let v = g.data(0, 8, 3, None);
        let t = g.insert(TaskDesc::new("t").read(v));
        let graph = g.build();
        assert_eq!(graph.task(t).node(), 3);
    }

    #[test]
    fn remote_flow_count() {
        let mut g = GraphBuilder::new(3);
        let v = g.data(0, 8, 0, None);
        g.insert(TaskDesc::new("a").on_node(1).read(v));
        g.insert(TaskDesc::new("b").on_node(1).read(v));
        g.insert(TaskDesc::new("c").on_node(2).read(v));
        g.insert(TaskDesc::new("d").on_node(0).read(v));
        let graph = g.build();
        // Nodes 1 and 2 each need one flow; node 0 is local.
        assert_eq!(graph.remote_flows(), 2);
    }

    #[test]
    fn sequential_oracle_runs_kernels() {
        let mut g = GraphBuilder::new(1);
        g.data(0, 1, 0, Some(Bytes::from_static(&[1])));
        g.insert(
            TaskDesc::new("inc")
                .read_key(0)
                .write(0, 1)
                .kernel(|ins| vec![Bytes::from(vec![ins[0][0] + 1])]),
        );
        g.insert(
            TaskDesc::new("double")
                .read_key(0)
                .write(0, 1)
                .kernel(|ins| vec![Bytes::from(vec![ins[0][0] * 2])]),
        );
        let last = g.current(0).expect("current version");
        let graph = g.build();
        let store = graph.sequential_oracle();
        assert_eq!(store[&last][0], 4); // (1+1)*2
    }

    #[test]
    #[should_panic(expected = "read of key 5 with no version")]
    fn reading_unknown_key_panics() {
        let mut g = GraphBuilder::new(1);
        g.insert(TaskDesc::new("bad").read_key(5));
    }

    #[test]
    fn chunk_vec_push_get_free() {
        let mut c: ChunkVec<usize> = ChunkVec::new();
        for i in 0..600 {
            c.push(i);
        }
        assert_eq!(c.len(), 600);
        assert_eq!(*c.get(0), 0);
        assert_eq!(*c.get(255), 255);
        assert_eq!(*c.get(256), 256);
        assert_eq!(*c.get(599), 599);
        assert_eq!(c.iter().sum::<usize>(), 600 * 599 / 2);
        c.free_chunk(0);
        assert_eq!(*c.get(300), 300); // later chunks unaffected
        assert_eq!(c.len(), 600);
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn chunk_vec_freed_access_panics() {
        let mut c: ChunkVec<usize> = ChunkVec::new();
        for i in 0..600 {
            c.push(i);
        }
        c.free_chunk(1);
        let _ = c.get(256);
    }

    /// Reads bind before writes apply, whatever the declaration order.
    #[test]
    fn a_write_declared_before_its_read_still_reads_the_previous_version() {
        let mut g = GraphBuilder::new(1);
        let v0 = g.data(0, 8, 0, None);
        let t = g.insert(TaskDesc::new("t").write(0, 8).read_key(0));
        let v1 = g.current(0).expect("written");
        let graph = g.build();
        assert_eq!(graph.inputs(t).collect::<Vec<_>>(), vec![v0]);
        assert_eq!(graph.outputs(t).collect::<Vec<_>>(), vec![v1]);
        assert_ne!(v0, v1);
    }

    #[test]
    fn an_unpinned_task_runs_at_its_first_reads_home_even_after_a_write() {
        let mut g = GraphBuilder::new(3);
        g.data(5, 8, 2, None);
        g.data(6, 8, 1, None);
        let t = g.insert(TaskDesc::new("t").write(9, 8).read_key(5).read_key(6));
        let graph = g.build();
        assert_eq!(graph.task(t).node(), 2);
        let out = graph.outputs(t).next().expect("one output");
        assert_eq!(graph.version(out.0).home(), 2);
    }

    /// Past the eight reserved entries the list grows, and the edges keep
    /// declaration order: inputs first, then outputs.
    #[test]
    fn a_wide_descriptor_keeps_every_edge_in_order() {
        let mut g = GraphBuilder::new(1);
        let initial: Vec<VersionId> = (0..40).map(|k| g.data(k, 8, 0, None)).collect();
        let mut d = TaskDesc::new("wide").write(100, 8);
        for k in (0..40).rev() {
            d = d.read_key(k);
        }
        let t = g.insert(d.write(101, 8));
        let outs = [g.current(100).expect("w"), g.current(101).expect("w")];
        let graph = g.build();
        let want: Vec<VersionId> = initial.iter().rev().copied().collect();
        assert_eq!(graph.inputs(t).collect::<Vec<_>>(), want);
        assert_eq!(graph.outputs(t).collect::<Vec<_>>(), outs);
        for (k, v) in initial.iter().enumerate() {
            assert_eq!(consumer_tasks(&graph, v.0), vec![t], "key {k}");
        }
    }

    #[test]
    fn a_descriptor_dropped_without_insert_is_harmless() {
        let mut g = GraphBuilder::new(1);
        g.data(0, 8, 0, None);
        drop(TaskDesc::new("unused").read_key(0).write(0, 8));
        let d = TaskDesc::new("used");
        assert!(d.edges.is_empty() && d.edges.capacity() >= DESC_EDGES);
        let t = g.insert(d.read_key(0).write(0, 8));
        let graph = g.build();
        assert_eq!((graph.inputs(t).len(), graph.outputs(t).len()), (1, 1));
    }

    /// An inserted descriptor's list is the next one's, cleared; a list
    /// grown past the cap is dropped instead.
    #[test]
    fn the_spent_edge_list_is_recycled_up_to_the_cap() {
        let mut g = GraphBuilder::new(1);
        g.data(0, 8, 0, None);
        let d = TaskDesc::new("a").read_key(0).write(0, 8);
        let list = d.edges.as_ptr();
        g.insert(d);
        let d = TaskDesc::new("b");
        assert_eq!(d.edges.as_ptr(), list, "the spare is reused");
        assert!(d.edges.is_empty());

        let mut wide = d;
        for _ in 0..=SPARE_EDGES_CAP {
            wide = wide.read_key(0);
        }
        assert!(wide.edges.capacity() > SPARE_EDGES_CAP);
        g.insert(wide);
        let d = TaskDesc::new("c");
        assert_eq!(
            d.edges.capacity(),
            DESC_EDGES,
            "an over-cap list is not kept"
        );
    }

    #[test]
    fn builder_logs_superseded_versions() {
        let mut g = GraphBuilder::new(1);
        let v0 = g.data(0, 8, 0, None);
        g.set_track_superseded();
        g.insert(TaskDesc::new("w1").read_key(0).write(0, 8));
        let v1 = g.current(0).expect("current");
        g.insert(TaskDesc::new("w2").read_key(0).write(0, 8));
        let mut spent = Vec::new();
        g.swap_superseded(&mut spent);
        assert_eq!(spent, vec![v0, v1]);
        spent.clear();
        g.swap_superseded(&mut spent);
        assert!(spent.is_empty());
    }
}
