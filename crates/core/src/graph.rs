//! Dynamic task-graph insertion with automatic dependence analysis.
//!
//! Writes create new immutable *versions* of a datum (data renaming, like
//! PaRSEC's data copies), so the only true dependencies are
//! read-after-write: a task depends on the producer of every version it
//! reads. Insertion order defines which version a `read_key` refers to,
//! exactly like PaRSEC's dynamic task discovery interface.
//!
//! Tasks and versions live in chunked storage ([`ChunkVec`]): contiguous
//! indices, O(1) access, and — in windowed execution — whole 256-entry
//! chunks of *retired* tasks/versions are freed once the completion
//! frontier passes them, so peak memory tracks the discovery window
//! instead of the full unrolled graph (PaRSEC-style bounded task
//! discovery).

use std::cell::{Ref, RefCell, RefMut};
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

/// Chunked growable storage with freeable chunks.
///
/// Semantically a `Vec<T>` whose backing memory is split into
/// [`CHUNK`]-item chunks; [`ChunkVec::free_chunk`] returns one chunk's
/// memory to the allocator once every item in it has been retired.
/// Accessing an index inside a freed chunk panics.
pub(crate) struct ChunkVec<T> {
    chunks: Vec<Option<Vec<T>>>,
    /// Long-lived survivors relocated out of freed chunks by
    /// [`ChunkVec::free_chunk_keeping`]; resolved transparently by
    /// [`ChunkVec::get`] / [`ChunkVec::get_mut`].
    evacuated: FastMap<usize, T>,
    len: usize,
}

impl<T> ChunkVec<T> {
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

    pub fn push(&mut self, item: T) {
        if self.len >> CHUNK_SHIFT == self.chunks.len() {
            self.chunks.push(Some(Vec::with_capacity(CHUNK)));
        }
        self.chunks[self.len >> CHUNK_SHIFT]
            .as_mut()
            .expect("push past a freed chunk")
            .push(item);
        self.len += 1;
    }

    pub fn get(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &self.chunks[i >> CHUNK_SHIFT] {
            Some(c) => &c[i & (CHUNK - 1)],
            None => self
                .evacuated
                .get(&i)
                .expect("access to a retired (freed) graph chunk"),
        }
    }

    /// Like [`ChunkVec::get`], but `None` for an item whose chunk has been
    /// freed (and that was not evacuated) instead of panicking.
    pub fn try_get(&self, i: usize) -> Option<&T> {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &self.chunks[i >> CHUNK_SHIFT] {
            Some(c) => Some(&c[i & (CHUNK - 1)]),
            None => self.evacuated.get(&i),
        }
    }

    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &mut self.chunks[i >> CHUNK_SHIFT] {
            Some(c) => &mut c[i & (CHUNK - 1)],
            None => self
                .evacuated
                .get_mut(&i)
                .expect("access to a retired (freed) graph chunk"),
        }
    }

    /// Free chunk `c` (indices `c*CHUNK .. (c+1)*CHUNK`). The caller
    /// guarantees no item in it is accessed again.
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
        for (off, item) in chunk.into_iter().enumerate() {
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
    pub(crate) reads: Vec<ReadRef>,
    pub(crate) writes: Vec<(DataKey, usize)>,
    pub(crate) kernel: Option<Kernel>,
}

pub(crate) enum ReadRef {
    Version(VersionId),
    Current(DataKey),
}

impl TaskDesc {
    pub fn new(name: &'static str) -> Self {
        TaskDesc {
            name,
            node: None,
            flops: 0.0,
            efficiency: 1.0,
            priority: 0,
            reads: Vec::new(),
            writes: Vec::new(),
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
        self.reads.push(ReadRef::Version(v));
        self
    }

    /// Read the current (insertion-time) version of `key`.
    pub fn read_key(mut self, key: DataKey) -> Self {
        self.reads.push(ReadRef::Current(key));
        self
    }

    /// Write `key`, producing a new version of declared `size` bytes.
    pub fn write(mut self, key: DataKey, size: usize) -> Self {
        self.writes.push((key, size));
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

/// One inserted task.
pub struct Task {
    pub id: TaskId,
    pub name: &'static str,
    pub node: NodeId,
    /// Index of this task among the tasks assigned to its node (insertion
    /// order). Per-node runtime tables (dependence counters) are indexed by
    /// this instead of the global id, so each node's table is
    /// O(tasks-on-node), not O(total tasks) — the difference between 4 GB
    /// and 4 MB of counters at a million tasks on 1024 nodes.
    pub local_ix: u32,
    pub flops: f64,
    pub efficiency: f64,
    pub priority: i64,
    pub inputs: Vec<VersionId>,
    pub outputs: Vec<VersionId>,
    pub kernel: Option<Kernel>,
}

/// One version of a datum.
pub struct Version {
    pub key: DataKey,
    pub size: usize,
    /// Node where this version is produced / initially resides.
    pub home: NodeId,
    pub producer: Option<TaskId>,
    pub consumers: Vec<TaskId>,
    /// Initial payload for producer-less versions (Numeric mode).
    pub initial: Option<Bytes>,
}

/// The task graph executed by [`crate::Cluster::execute`]. Fully built up
/// front by [`GraphBuilder::build`], or grown incrementally during a
/// windowed execution (see [`GraphSource`]).
pub struct TaskGraph {
    tasks: ChunkVec<Task>,
    versions: ChunkVec<Version>,
    /// Tasks assigned to each node so far (source of [`Task::local_ix`];
    /// survives windowed growth because the windowed driver appends through
    /// the same shared graph).
    local_counts: Vec<u32>,
}

impl TaskGraph {
    pub(crate) fn empty() -> TaskGraph {
        TaskGraph {
            tasks: ChunkVec::new(),
            versions: ChunkVec::new(),
            local_counts: Vec::new(),
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

    pub fn version(&self, id: usize) -> &Version {
        self.versions.get(id)
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

    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Versions that cross nodes (each remote consumer node counts once).
    pub fn remote_flows(&self) -> usize {
        // One scratch buffer across the whole sweep instead of a fresh
        // `Vec<NodeId>` per version.
        let mut scratch: Vec<NodeId> = Vec::new();
        let mut total = 0;
        for v in self.versions.iter() {
            scratch.clear();
            scratch.extend(
                v.consumers
                    .iter()
                    .map(|&t| self.tasks.get(t).node)
                    .filter(|&n| n != v.home),
            );
            scratch.sort_unstable();
            scratch.dedup();
            total += scratch.len();
        }
        total
    }

    /// Execute every kernel sequentially in insertion order — the
    /// correctness oracle for Numeric-mode runs.
    pub fn sequential_oracle(&self) -> HashMap<VersionId, Bytes> {
        let mut store: HashMap<VersionId, Bytes> = HashMap::new();
        for (i, v) in self.versions.iter().enumerate() {
            if let Some(b) = &v.initial {
                store.insert(VersionId(i), b.clone());
            }
        }
        for t in self.tasks.iter() {
            let Some(kernel) = &t.kernel else { continue };
            let inputs: Vec<Bytes> = t
                .inputs
                .iter()
                .filter(|v| self.versions.get(v.0).size > 0) // CTL flows carry no payload
                .map(|v| store.get(v).expect("oracle: input missing").clone())
                .collect();
            let outs = kernel(&inputs);
            assert_eq!(outs.len(), t.outputs.len(), "kernel output arity");
            for (vid, b) in t.outputs.iter().zip(outs) {
                store.insert(*vid, b);
            }
        }
        store
    }

    /// Drop a completed task's heap payload (dependence lists and kernel).
    /// Windowed-mode retirement; the inline struct stays until its whole
    /// chunk retires.
    pub(crate) fn retire_task(&mut self, id: TaskId) {
        let t = self.tasks.get_mut(id);
        t.inputs = Vec::new();
        t.outputs = Vec::new();
        t.kernel = None;
    }

    /// Drop a dead version's heap payload (consumer list and initial
    /// bytes).
    pub(crate) fn retire_version(&mut self, id: usize) {
        let v = self.versions.get_mut(id);
        v.consumers = Vec::new();
        v.initial = None;
    }

    /// Drop a version's consumer list without retiring it. Windowed-mode
    /// only, once the producer's completion announce has been sent and its
    /// holders recorded: every later-discovered consumer is handled
    /// through the store-presence check and the holder list, never this
    /// list. For tile Cholesky the never-superseded final tiles otherwise
    /// keep O(nt³) consumer entries live to the end of the run.
    pub(crate) fn prune_consumers(&mut self, id: usize) {
        self.versions.get_mut(id).consumers = Vec::new();
    }

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

    pub(crate) fn take_superseded(&mut self) -> Vec<VersionId> {
        std::mem::take(&mut self.superseded)
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
            home: node,
            producer: None,
            consumers: Vec::new(),
            initial: bytes,
        });
        let prev = self.current.insert(key, vid);
        assert!(prev.is_none(), "initial data for key {key} declared twice");
        vid
    }

    /// Current version of `key`, if any.
    pub fn current(&self, key: DataKey) -> Option<VersionId> {
        self.current.get(&key).copied()
    }

    /// Insert a task; returns its id.
    pub fn insert(&mut self, desc: TaskDesc) -> TaskId {
        let mut g = self.graph.get_mut();
        let id = g.tasks.len();
        let inputs: Vec<VersionId> = desc
            .reads
            .iter()
            .map(|r| match r {
                ReadRef::Version(v) => *v,
                ReadRef::Current(k) => *self
                    .current
                    .get(k)
                    .unwrap_or_else(|| panic!("read of key {k} with no version")),
            })
            .collect();
        let node = desc.node.unwrap_or_else(|| {
            inputs
                .first()
                .map(|v| g.versions.get(v.0).home)
                .unwrap_or(0)
        });
        assert!(node < self.nodes, "node {node} out of range");
        for &v in &inputs {
            g.versions.get_mut(v.0).consumers.push(id);
        }
        let outputs: Vec<VersionId> = desc
            .writes
            .iter()
            .map(|&(key, size)| {
                let vid = VersionId(g.versions.len());
                g.versions.push(Version {
                    key,
                    size,
                    home: node,
                    producer: Some(id),
                    consumers: Vec::new(),
                    initial: None,
                });
                if let Some(old) = self.current.insert(key, vid) {
                    if self.track_superseded {
                        self.superseded.push(old);
                    }
                }
                vid
            })
            .collect();
        if g.local_counts.len() <= node {
            g.local_counts.resize(node + 1, 0);
        }
        let local_ix = g.local_counts[node];
        g.local_counts[node] += 1;
        g.tasks.push(Task {
            id,
            name: desc.name,
            node,
            local_ix,
            flops: desc.flops,
            efficiency: desc.efficiency,
            priority: desc.priority,
            inputs,
            outputs,
            kernel: desc.kernel,
        });
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

    #[test]
    fn read_after_write_chains() {
        let mut g = GraphBuilder::new(1);
        g.data(0, 8, 0, None);
        let t1 = g.insert(TaskDesc::new("w1").read_key(0).write(0, 8));
        let t2 = g.insert(TaskDesc::new("w2").read_key(0).write(0, 8));
        let graph = g.build();
        // t2 reads the version produced by t1, not the initial one.
        assert_eq!(graph.version(graph.task(t2).inputs[0].0).producer, Some(t1));
        // The initial version's only consumer is t1.
        assert_eq!(graph.version(0).consumers, vec![t1]);
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
        assert!(graph.task(w).inputs.is_empty());
        assert_eq!(graph.version(v0.0).consumers, vec![r1, r2]);
    }

    #[test]
    fn default_node_follows_first_input() {
        let mut g = GraphBuilder::new(4);
        let v = g.data(0, 8, 3, None);
        let t = g.insert(TaskDesc::new("t").read(v));
        let graph = g.build();
        assert_eq!(graph.task(t).node, 3);
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

    #[test]
    fn builder_logs_superseded_versions() {
        let mut g = GraphBuilder::new(1);
        let v0 = g.data(0, 8, 0, None);
        g.set_track_superseded();
        g.insert(TaskDesc::new("w1").read_key(0).write(0, 8));
        let v1 = g.current(0).expect("current");
        g.insert(TaskDesc::new("w2").read_key(0).write(0, 8));
        assert_eq!(g.take_superseded(), vec![v0, v1]);
        assert!(g.take_superseded().is_empty());
    }
}
