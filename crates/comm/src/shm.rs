//! In-process shared-memory transport for the **real substrate**
//! (`amt_core::Cluster::execute_real`): multi-"node" runs on the
//! work-stealing thread pool exchange the same wire artifacts as the
//! simulated backends — framed active messages ([`Frames`]), one-sided
//! puts with callback descriptors, pooled receive buffers
//! ([`SharedBufPool`]) — across real OS threads.
//!
//! Each node owns a thread-safe buffer pool, lifecycle counters and a
//! mutex-guarded FIFO inbox. [`ShmWorld::send`] is the progress path: it
//! counts the send and runs the handler *as the destination node*, at
//! once, on the sending thread — no inbox, no lock, no per-node owner.
//! Handlers at one node may therefore run on several threads at once;
//! the layer above keeps every piece of state a handler touches
//! thread-safe on its own. A thread handles the messages it sends in the
//! order it sends them, so per-sender FIFO holds trivially. The inbox is
//! the push-only path for single-threaded callers (tests, probes):
//! [`ShmWorld::send_am`] pushes and [`ShmNode::pop`] takes; `send` never
//! reads it. Records of at most `Bytes::INLINE_CAP` bytes travel inside
//! their `Bytes` handle and never touch the buffer pool; only longer ones
//! are pooled. Lifecycle counters are lock-free atomics, one cell per
//! thread, summed into an [`EngineStats`] at the end of a run so
//! real-mode `RunReport`s carry the same engine counter vocabulary as
//! virtual ones.
//!
//! With metrics enabled ([`ShmWorld::new_observed`]) each message also
//! carries its wall-clock send instant, and the world records per-stage
//! lifecycle histograms into a per-node [`MetricsRegistry`] under the
//! *same names and buckets* as the simulated backends (`am.queue_ns`,
//! `am.inject_ns`, `am.wire_ns`, `am.deliver_ns`, `am.callback_ns`, and
//! the `put.*` equivalents). A send is a handler call (or one push) here,
//! so the queue and inject stages are structurally zero and the deliver
//! stage is folded into the wire stage (hand-off == delivery); recording
//! the zeros keeps the histogram *counts* comparable across substrates.
//!
//! This transport deliberately has no flow control or aggregation: those
//! are properties of the *simulated* engines under study. What it
//! preserves is the protocol shape (ACTIVATE / GET DATA / put) and the
//! datapath mechanics (frame boundaries, buffer recycling) so the layers
//! above run unchanged.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use amt_netmodel::NodeId;
use amt_simnet::MetricsRegistry;
use bytes::{Bytes, Frames, SharedBufPool};

use crate::stats::EngineStats;

/// One message to a node: handed to its handler, or in its inbox.
#[derive(Debug)]
pub enum ShmMsg {
    /// An active message: tag dispatch at the receiver.
    Am {
        /// Sending node.
        src: NodeId,
        /// AM tag (e.g. ACTIVATE or GET DATA).
        tag: u64,
        /// Payload frames, submission boundaries preserved.
        frames: Frames,
        /// Wall-clock send instant (ns since pool start; 0 unobserved).
        sent_at_ns: u64,
    },
    /// A one-sided put landing at this node.
    Put {
        /// Sending node.
        src: NodeId,
        /// Remote tag namespace of the transfer.
        r_tag: u64,
        /// The payload, if the graph carries real data (`None` in
        /// cost-only graphs — the declared size still counts below).
        data: Option<Bytes>,
        /// Declared transfer size in bytes (counted whether or not a
        /// payload travels).
        size: usize,
        /// Callback descriptor echoed to the target's completion handler.
        cb: Bytes,
        /// Wall-clock send instant (ns since pool start; 0 unobserved).
        sent_at_ns: u64,
    },
}

/// Cells of each node's counters. The `i`-th thread to count anything
/// counts in cell `i % CELLS`, so the workers of a pool, which start
/// counting together, each write cells — and cache lines — of their own.
const CELLS: usize = 16;

thread_local! {
    static CELL: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Relaxed) % CELLS
    };
}

/// One cell of a node's atomic lifecycle counters (see
/// [`ShmNode::engine_stats`]), on a cache line pair of its own.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShmCounters {
    am_sent: AtomicU64,
    am_received: AtomicU64,
    puts_started: AtomicU64,
    put_bytes_in: AtomicU64,
    puts_remote_done: AtomicU64,
}

/// One node endpoint: inbox + buffer pool + counters, on cache lines of
/// its own (two, for the adjacent-line prefetcher) so that traffic to one
/// node does not slow traffic to its neighbour.
#[derive(Debug)]
#[repr(align(128))]
pub struct ShmNode {
    inbox: Mutex<VecDeque<ShmMsg>>,
    pool: SharedBufPool,
    counters: [ShmCounters; CELLS],
    /// Per-stage lifecycle histograms (empty when metrics are off).
    metrics: Mutex<MetricsRegistry>,
}

impl ShmNode {
    fn new(pool_bufs: usize, metrics: bool) -> ShmNode {
        ShmNode {
            inbox: Mutex::new(VecDeque::new()),
            pool: SharedBufPool::new(pool_bufs),
            counters: Default::default(),
            metrics: Mutex::new(MetricsRegistry::new(metrics)),
        }
    }

    /// This node's thread-safe buffer pool (encode records into it;
    /// recycle drained frames back).
    pub fn pool(&self) -> &SharedBufPool {
        &self.pool
    }

    /// Pop the oldest message [`ShmWorld::send_am`] pushed here, if any:
    /// the push-only path for single-threaded callers (tests, probes).
    pub fn pop(&self) -> Option<ShmMsg> {
        self.inbox.lock().expect("shm inbox").pop_front()
    }

    /// Snapshot this node's counters in the engine-stats vocabulary used
    /// by virtual-mode reports (`am_submitted` mirrors `am_sent`: the shm
    /// transport never aggregates).
    pub fn engine_stats(&self) -> EngineStats {
        let mut s = EngineStats::default();
        for c in &self.counters {
            s.am_sent.add(c.am_sent.load(Relaxed));
            s.am_submitted.add(c.am_sent.load(Relaxed));
            s.am_received.add(c.am_received.load(Relaxed));
            s.puts_started.add(c.puts_started.load(Relaxed));
            s.put_bytes_in.add(c.put_bytes_in.load(Relaxed));
            s.puts_remote_done.add(c.puts_remote_done.load(Relaxed));
        }
        s
    }

    /// The calling thread's cell of this node's counters.
    fn counters(&self) -> &ShmCounters {
        &self.counters[CELL.with(|c| *c)]
    }

    /// `(pool hits, pool misses)` of this node's receive-buffer pool.
    pub fn pool_reuse(&self) -> (u64, u64) {
        self.pool.reuse_stats()
    }

    /// Clone of this node's lifecycle-stage registry (empty when the
    /// world was built without metrics).
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.lock().expect("shm metrics").clone()
    }
}

/// The world: one [`ShmNode`] per simulated node, shareable across the
/// pool's worker threads.
#[derive(Clone, Debug)]
pub struct ShmWorld {
    nodes: Arc<Vec<ShmNode>>,
    /// AM-tag → per-class counter names (`msg.<label>.msgs_on_wire`,
    /// `msg.<label>.records_per_msg`), formatted once at
    /// [`ShmWorld::label_tag`]; unlabeled tags count under `msg.am.*`.
    labels: Arc<Mutex<HashMap<u64, [String; 2]>>>,
    /// With it `false` no send, delivery or stage record takes a lock.
    metrics_on: bool,
}

impl ShmWorld {
    /// Create `nodes` endpoints, each pooling at most `pool_bufs` free
    /// receive buffers. Metrics are off (zero recording cost).
    pub fn new(nodes: usize, pool_bufs: usize) -> ShmWorld {
        ShmWorld::new_observed(nodes, pool_bufs, false)
    }

    /// [`ShmWorld::new`] with per-stage lifecycle metrics recording
    /// toggled by `metrics`.
    pub fn new_observed(nodes: usize, pool_bufs: usize, metrics: bool) -> ShmWorld {
        ShmWorld {
            nodes: Arc::new(
                (0..nodes)
                    .map(|_| ShmNode::new(pool_bufs, metrics))
                    .collect(),
            ),
            labels: Arc::new(Mutex::new(HashMap::new())),
            metrics_on: metrics,
        }
    }

    /// Name the message class of AM tag `tag` for the per-class wire
    /// counters (mirrors `CommEngine::label_tag` on the virtual path).
    pub fn label_tag(&self, tag: u64, label: &'static str) {
        let names = [
            format!("msg.{label}.msgs_on_wire"),
            format!("msg.{label}.records_per_msg"),
        ];
        self.labels.lock().expect("shm labels").insert(tag, names);
    }

    /// Record a lifecycle-stage duration into `node`'s registry (no-op
    /// when metrics are off). Handlers above the transport use this for
    /// the `*.callback_ns` stages the transport cannot see.
    pub fn record_stage(&self, node: NodeId, name: &str, ns: u64) {
        if self.metrics_on {
            self.nodes[node]
                .metrics
                .lock()
                .expect("shm metrics")
                .record(name, ns);
        }
    }

    /// Send `msg` to `dst` and handle it there: count the send, then run
    /// `handle(dst, msg)` on this thread (module docs).
    pub fn send(&self, dst: NodeId, msg: ShmMsg, handle: impl FnOnce(NodeId, ShmMsg)) {
        self.count_send(&msg);
        handle(dst, msg);
    }

    /// Every node's stage registry merged into one (cross-node report),
    /// plus the buffer pools' `shm.pool_hits` / `shm.pool_misses` (takes
    /// served from a pool / takes that had to allocate). Empty when
    /// metrics are off.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut all = MetricsRegistry::new(self.metrics_on);
        for n in self.nodes.iter() {
            all.merge(&n.metrics.lock().expect("shm metrics"));
            let (hits, misses) = n.pool_reuse();
            all.count("shm.pool_hits", hits);
            all.count("shm.pool_misses", misses);
        }
        all
    }

    /// Number of node endpoints.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the world has no nodes (it never does in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node endpoint `n`.
    pub fn node(&self, n: NodeId) -> &ShmNode {
        &self.nodes[n]
    }

    /// Push an active message from `src` into `dst`'s inbox, stamped with
    /// wall-clock instant `now_ns` (ns since pool start), for
    /// [`ShmNode::pop`] to take.
    pub fn send_am(&self, src: NodeId, dst: NodeId, tag: u64, frames: Frames, now_ns: u64) {
        let msg = ShmMsg::Am {
            src,
            tag,
            frames,
            sent_at_ns: now_ns,
        };
        self.count_send(&msg);
        self.nodes[dst]
            .inbox
            .lock()
            .expect("shm inbox")
            .push_back(msg);
    }

    /// Sender-side bookkeeping of `msg` at its source, the same for a
    /// send as for a push: the lifecycle counter and, in metrics mode,
    /// zero queue and inject stages (no command queue, no injection delay
    /// here; the zeros keep stage counts aligned with the virtual
    /// backends) and the per-class wire counts.
    fn count_send(&self, msg: &ShmMsg) {
        let (ShmMsg::Am { src, .. } | ShmMsg::Put { src, .. }) = *msg;
        let c = self.nodes[src].counters();
        match msg {
            ShmMsg::Am { .. } => c.am_sent.fetch_add(1, Relaxed),
            ShmMsg::Put { .. } => c.puts_started.fetch_add(1, Relaxed),
        };
        if !self.metrics_on {
            return;
        }
        let mut m = self.nodes[src].metrics.lock().expect("shm metrics");
        match msg {
            ShmMsg::Am { tag, frames, .. } => {
                m.record("am.queue_ns", 0);
                m.record("am.inject_ns", 0);
                let records = frames.frame_count() as u64;
                match self.labels.lock().expect("shm labels").get(tag) {
                    Some([on_wire, per_msg]) => {
                        m.count(on_wire, 1);
                        m.record(per_msg, records);
                    }
                    None => {
                        m.count("msg.am.msgs_on_wire", 1);
                        m.record("msg.am.records_per_msg", records);
                    }
                }
            }
            ShmMsg::Put { .. } => {
                m.record("put.queue_ns", 0);
                m.record("put.inject_ns", 0);
                m.count("msg.data.msgs_on_wire", 1);
            }
        }
    }

    /// Record delivery bookkeeping for a message that reached its handler
    /// (the caller invokes this once per handled or popped [`ShmMsg`]).
    /// `now_ns` is the arrival instant and `sent_at_ns` the message's send
    /// stamp; their difference is the wire stage (the wait before the
    /// handler ran, or in the inbox).
    pub fn delivered(
        &self,
        at: NodeId,
        msg_was_put: bool,
        size: usize,
        now_ns: u64,
        sent_at_ns: u64,
    ) {
        let c = self.nodes[at].counters();
        if msg_was_put {
            c.put_bytes_in.fetch_add(size as u64, Relaxed);
            c.puts_remote_done.fetch_add(1, Relaxed);
        } else {
            c.am_received.fetch_add(1, Relaxed);
        }
        if self.metrics_on {
            let (wire, deliver) = if msg_was_put {
                ("put.wire_ns", "put.deliver_ns")
            } else {
                ("am.wire_ns", "am.deliver_ns")
            };
            let mut m = self.nodes[at].metrics.lock().expect("shm metrics");
            m.record(wire, now_ns.saturating_sub(sent_at_ns));
            // Hand-off == delivery: a message's handler runs as it arrives.
            m.record(deliver, 0);
        }
    }
}

#[cfg(test)]
mod shm_tests {
    use super::*;

    /// The push-only path: `send_am` queues, `pop` takes in FIFO order,
    /// `delivered` accounts at the receiver.
    #[test]
    fn messages_flow_and_counters_track() {
        let w = ShmWorld::new(3, 8);
        assert_eq!(w.len(), 3);
        let mut f = Frames::new();
        f.push(Bytes::from_static(b"rec0"));
        f.push(Bytes::from_static(b"rec1"));
        w.send_am(0, 2, 1, f, 10);
        w.send_am(1, 2, 7, Frames::One(Bytes::from(vec![7u8; 64])), 20);

        match w.node(2).pop().expect("first AM (FIFO)") {
            ShmMsg::Am {
                src,
                tag,
                frames,
                sent_at_ns,
            } => {
                assert_eq!((src, tag, sent_at_ns), (0, 1, 10));
                assert_eq!(frames.frame_count(), 2);
            }
            other => panic!("expected Am, got {other:?}"),
        }
        w.delivered(2, false, 0, 15, 10);
        match w.node(2).pop().expect("second AM") {
            ShmMsg::Am {
                src, tag, frames, ..
            } => {
                assert_eq!((src, tag), (1, 7));
                assert_eq!(frames.iter().map(|b| b.len()).sum::<usize>(), 64);
            }
            other => panic!("expected Am, got {other:?}"),
        }
        w.delivered(2, false, 0, 30, 20);
        assert!(w.node(2).pop().is_none());

        assert_eq!(w.node(0).engine_stats().am_sent.get(), 1);
        assert_eq!(w.node(1).engine_stats().am_sent.get(), 1);
        let s2 = w.node(2).engine_stats();
        assert_eq!((s2.am_received.get(), s2.am_sent.get()), (2, 0));
    }

    #[test]
    fn observed_world_records_lifecycle_stages() {
        let w = ShmWorld::new_observed(2, 8, true);
        let mut f = Frames::new();
        f.push(Bytes::from_static(b"rec"));
        w.send_am(0, 1, 1, f, 100);
        let Some(ShmMsg::Am {
            frames, sent_at_ns, ..
        }) = w.node(1).pop()
        else {
            panic!("message lost")
        };
        w.node(1).pool().recycle_frames(frames);
        w.delivered(1, false, 0, 350, sent_at_ns);
        w.record_stage(1, "am.callback_ns", 40);
        let m = w.merged_metrics();
        assert_eq!(m.hist("am.queue_ns").unwrap().count(), 1);
        assert_eq!(m.hist("am.inject_ns").unwrap().count(), 1);
        assert_eq!(m.hist("am.wire_ns").unwrap().count(), 1);
        assert_eq!(m.hist("am.wire_ns").unwrap().sum() as u64, 250);
        assert_eq!(m.hist("am.deliver_ns").unwrap().count(), 1);
        assert_eq!(m.hist("am.callback_ns").unwrap().count(), 1);

        // A world built without metrics records nothing anywhere.
        let w2 = ShmWorld::new(2, 8);
        w2.send_am(0, 1, 1, Frames::new(), 5);
        w2.record_stage(1, "am.callback_ns", 40);
        assert!(w2.merged_metrics().is_empty());
    }

    /// `send` runs the handler once per message, on the calling thread,
    /// as the destination, in send order — nested or not, nothing queues
    /// — and records the sender samples for every message.
    #[test]
    fn send_runs_the_handler_on_the_calling_thread_in_order() {
        let w = ShmWorld::new_observed(2, 8, true);
        let am = |tag| ShmMsg::Am {
            src: 0,
            tag,
            frames: Frames::new(),
            sent_at_ns: 0,
        };
        let put = ShmMsg::Put {
            src: 0,
            r_tag: 1,
            data: Some(Bytes::from(vec![7u8; 64])),
            size: 64,
            cb: Bytes::inline(&42u64.to_le_bytes()).expect("fits the handle"),
            sent_at_ns: 0,
        };
        let me = std::thread::current().id();
        let mut got = Vec::new();
        let mut handler = |dst, msg: ShmMsg| {
            assert_eq!((dst, std::thread::current().id()), (1, me));
            got.push(match msg {
                ShmMsg::Am { tag, .. } => tag,
                ShmMsg::Put { size, .. } => size as u64,
            });
        };
        w.send(1, am(1), &mut handler);
        w.send(1, put, &mut handler);
        w.send(1, am(2), |dst, msg| {
            handler(dst, msg);
            // A handler that sends runs the next handler inside itself.
            w.send(1, am(3), &mut handler);
            handler(dst, am(99));
        });
        assert_eq!(got, [1, 64, 2, 3, 99]);
        assert!(w.node(1).pop().is_none(), "send never queues");
        let m = w.merged_metrics();
        assert_eq!(m.hist("am.queue_ns").unwrap().count(), 3);
        assert_eq!(m.hist("am.inject_ns").unwrap().count(), 3);
        assert_eq!(m.counter("msg.am.msgs_on_wire"), 3);
        assert_eq!(m.hist("put.queue_ns").unwrap().count(), 1);
        assert_eq!(m.counter("msg.data.msgs_on_wire"), 1);
        let s0 = w.node(0).engine_stats();
        assert_eq!((s0.am_sent.get(), s0.puts_started.get()), (3, 1));
    }

    #[test]
    fn pool_recycles_across_send_receive() {
        let w = ShmWorld::new(2, 8);
        // Simulate steady-state record traffic: encode from the pool,
        // ship, decode, recycle at the receiver's pool.
        for round in 0..10 {
            let mut b = w.node(0).pool().take(32);
            use bytes::BufMut;
            b.put_u64_le(round);
            w.send_am(0, 1, 1, Frames::One(b.freeze()), 0);
            let Some(ShmMsg::Am { frames, .. }) = w.node(1).pop() else {
                panic!("message lost");
            };
            w.delivered(1, false, 0, 0, 0);
            w.node(1).pool().recycle_frames(frames);
        }
        let (hits, misses) = w.node(1).pool_reuse();
        assert_eq!(hits + misses, 0, "node 1 never takes; it only recycles");
        assert!(w.node(1).pool().free_len() > 0, "frames were reclaimed");
    }
}
