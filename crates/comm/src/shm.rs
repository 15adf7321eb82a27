//! In-process shared-memory transport for the **real substrate**
//! (`amt_core::Cluster::execute_real`): multi-"node" runs on the
//! work-stealing thread pool exchange the same wire artifacts as the
//! simulated backends — framed active messages ([`Frames`]), one-sided
//! puts with callback descriptors, pooled receive buffers
//! ([`SharedBufPool`]) — across real OS threads.
//!
//! Each node owns a mutex-guarded FIFO mailbox, a thread-safe buffer
//! pool and a **progress-owner flag**. Senders push and then call
//! [`ShmWorld::progress`] on the destination: whoever wins the flag drains
//! the mailbox in line, on the sending thread, as the node's one progress
//! owner — it takes the whole mailbox as one batch (a swap under the
//! lock) and handles it outside the lock, then the flag is released and
//! the mailbox *re-checked*, which closes the lost-wakeup race against a
//! sender that pushed while the flag was still held. The loser returns at
//! once: it pushed before it saw the flag taken, so the owner's re-check
//! comes after the push and finds the message. Records of at most
//! `Bytes::INLINE_CAP` bytes travel inside their `Bytes` handle and never
//! touch the buffer pool; only longer ones are pooled. Lifecycle
//! counters are lock-free atomics snapshotted into an [`EngineStats`] at
//! the end of a run so real-mode `RunReport`s carry the same engine
//! counter vocabulary as virtual ones.
//!
//! With metrics enabled ([`ShmWorld::new_observed`]) each message also
//! carries its wall-clock send instant, and the world records per-stage
//! lifecycle histograms into a per-node [`MetricsRegistry`] under the
//! *same names and buckets* as the simulated backends (`am.queue_ns`,
//! `am.inject_ns`, `am.wire_ns`, `am.deliver_ns`, `am.callback_ns`, and
//! the `put.*` equivalents). Senders push/pop in one step here, so the
//! queue and inject stages are structurally zero and the deliver stage is
//! folded into the wire stage (pop == delivery); recording the zeros
//! keeps the histogram *counts* comparable across substrates.
//!
//! This transport deliberately has no flow control or aggregation: those
//! are properties of the *simulated* engines under study. What it
//! preserves is the protocol shape (ACTIVATE / GET DATA / put) and the
//! datapath mechanics (frame boundaries, buffer recycling) so the layers
//! above run unchanged.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, Mutex};

use amt_netmodel::NodeId;
use amt_simnet::MetricsRegistry;
use bytes::{Bytes, Frames, SharedBufPool};

use crate::stats::EngineStats;

/// One message in a node's mailbox.
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

/// Per-node atomic lifecycle counters (see [`ShmNode::engine_stats`]).
#[derive(Debug, Default)]
struct ShmCounters {
    am_sent: AtomicU64,
    am_received: AtomicU64,
    puts_started: AtomicU64,
    put_bytes_in: AtomicU64,
    puts_remote_done: AtomicU64,
}

/// One node endpoint: mailbox + owner flag + buffer pool + counters, on
/// cache lines of its own (two, for the adjacent-line prefetcher) so that
/// traffic to one node does not slow traffic to its neighbour.
#[derive(Debug)]
#[repr(align(128))]
pub struct ShmNode {
    inbox: Mutex<VecDeque<ShmMsg>>,
    /// Held by the thread draining `inbox` ([`ShmWorld::progress`]).
    owned: AtomicBool,
    /// The owner's batch: swapped with `inbox`, worked off outside the
    /// inbox lock, and empty again (capacity kept) before `owned` clears.
    /// Only the flag holder locks it, so it is never contended.
    batch: Mutex<VecDeque<ShmMsg>>,
    pool: SharedBufPool,
    counters: ShmCounters,
    /// Per-stage lifecycle histograms (empty when metrics are off).
    metrics: Mutex<MetricsRegistry>,
}

impl ShmNode {
    fn new(pool_bufs: usize, metrics: bool) -> ShmNode {
        ShmNode {
            inbox: Mutex::new(VecDeque::new()),
            owned: AtomicBool::new(false),
            batch: Mutex::new(VecDeque::new()),
            pool: SharedBufPool::new(pool_bufs),
            counters: ShmCounters::default(),
            metrics: Mutex::new(MetricsRegistry::new(metrics)),
        }
    }

    /// This node's thread-safe buffer pool (encode records into it;
    /// recycle drained frames back).
    pub fn pool(&self) -> &SharedBufPool {
        &self.pool
    }

    /// Pop the oldest undelivered message, if any. Concurrent senders go
    /// through [`ShmWorld::progress`]; a bare `pop` is for single-threaded
    /// callers (tests, probes).
    pub fn pop(&self) -> Option<ShmMsg> {
        self.inbox.lock().expect("shm inbox").pop_front()
    }

    /// Snapshot this node's counters in the engine-stats vocabulary used
    /// by virtual-mode reports (`am_submitted` mirrors `am_sent`: the shm
    /// transport never aggregates).
    pub fn engine_stats(&self) -> EngineStats {
        let mut s = EngineStats::default();
        s.am_sent.add(self.counters.am_sent.load(Relaxed));
        s.am_submitted.add(self.counters.am_sent.load(Relaxed));
        s.am_received.add(self.counters.am_received.load(Relaxed));
        s.puts_started.add(self.counters.puts_started.load(Relaxed));
        s.put_bytes_in.add(self.counters.put_bytes_in.load(Relaxed));
        s.puts_remote_done
            .add(self.counters.puts_remote_done.load(Relaxed));
        s
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

    /// Drain `node`'s mailbox through `handle` as the node's progress
    /// owner, unless another thread already is (module docs: flag, one
    /// swapped-out batch, release, re-check). Call after every push to
    /// `node`. `handle` runs with the flag held, so it must not call
    /// `progress` on a second node: a thread that owned several nodes
    /// would serialize all their traffic behind itself.
    pub fn progress(&self, node: NodeId, mut handle: impl FnMut(ShmMsg)) {
        let n = &self.nodes[node];
        while !n.owned.swap(true, SeqCst) {
            {
                let mut batch = n.batch.lock().expect("shm batch");
                std::mem::swap(&mut *n.inbox.lock().expect("shm inbox"), &mut *batch);
                batch.drain(..).for_each(&mut handle);
            }
            n.owned.store(false, SeqCst);
            if n.inbox.lock().expect("shm inbox").is_empty() {
                return;
            }
        }
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

    /// Send an active message from `src` to `dst` at wall-clock instant
    /// `now_ns` (ns since pool start). The caller is responsible for
    /// calling [`ShmWorld::progress`] on `dst` afterwards.
    pub fn send_am(&self, src: NodeId, dst: NodeId, tag: u64, frames: Frames, now_ns: u64) {
        self.nodes[src].counters.am_sent.fetch_add(1, Relaxed);
        if self.metrics_on {
            let mut m = self.nodes[src].metrics.lock().expect("shm metrics");
            // Push == send on this transport: no command queue, no
            // injection delay. Zero-valued samples keep stage counts
            // aligned with the virtual backends.
            m.record("am.queue_ns", 0);
            m.record("am.inject_ns", 0);
            let records = frames.frame_count() as u64;
            match self.labels.lock().expect("shm labels").get(&tag) {
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
        self.nodes[dst]
            .inbox
            .lock()
            .expect("shm inbox")
            .push_back(ShmMsg::Am {
                src,
                tag,
                frames,
                sent_at_ns: now_ns,
            });
    }

    /// Issue a one-sided put of `size` declared bytes (payload optional)
    /// from `src` landing at `dst` at wall-clock instant `now_ns`, with
    /// callback descriptor `cb`.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &self,
        src: NodeId,
        dst: NodeId,
        r_tag: u64,
        data: Option<Bytes>,
        size: usize,
        cb: Bytes,
        now_ns: u64,
    ) {
        self.nodes[src].counters.puts_started.fetch_add(1, Relaxed);
        if self.metrics_on {
            let mut m = self.nodes[src].metrics.lock().expect("shm metrics");
            m.record("put.queue_ns", 0);
            m.record("put.inject_ns", 0);
            m.count("msg.data.msgs_on_wire", 1);
        }
        self.nodes[dst]
            .inbox
            .lock()
            .expect("shm inbox")
            .push_back(ShmMsg::Put {
                src,
                r_tag,
                data,
                size,
                cb,
                sent_at_ns: now_ns,
            });
    }

    /// Record delivery bookkeeping for a drained message (the caller
    /// invokes this once per popped [`ShmMsg`], after handling it).
    /// `now_ns` is the pop instant and `sent_at_ns` the message's send
    /// stamp; their difference is the wire stage (mailbox dwell time).
    pub fn delivered(
        &self,
        at: NodeId,
        msg_was_put: bool,
        size: usize,
        now_ns: u64,
        sent_at_ns: u64,
    ) {
        let c = &self.nodes[at].counters;
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
            // Pop == delivery: handlers run straight off the mailbox.
            m.record(deliver, 0);
        }
    }
}

#[cfg(test)]
mod shm_tests {
    use super::*;

    #[test]
    fn messages_flow_and_counters_track() {
        let w = ShmWorld::new(3, 8);
        assert_eq!(w.len(), 3);
        let mut f = Frames::new();
        f.push(Bytes::from_static(b"rec0"));
        f.push(Bytes::from_static(b"rec1"));
        w.send_am(0, 2, 1, f, 10);
        w.put(
            1,
            2,
            1,
            Some(Bytes::from(vec![7u8; 64])),
            64,
            {
                let mut b = w.node(1).pool().take(16);
                use bytes::BufMut;
                b.put_u64_le(42);
                b.put_u64_le(9);
                b.freeze()
            },
            20,
        );

        let m1 = w.node(2).pop().expect("am first (FIFO)");
        match &m1 {
            ShmMsg::Am {
                src,
                tag,
                frames,
                sent_at_ns,
            } => {
                assert_eq!((*src, *tag), (0, 1));
                assert_eq!(frames.frame_count(), 2);
                assert_eq!(*sent_at_ns, 10);
            }
            other => panic!("expected Am, got {other:?}"),
        }
        w.delivered(2, false, 0, 15, 10);
        let m2 = w.node(2).pop().expect("put second");
        match m2 {
            ShmMsg::Put { size, data, cb, .. } => {
                assert_eq!(size, 64);
                assert_eq!(data.expect("payload").len(), 64);
                assert_eq!(cb.len(), 16);
            }
            other => panic!("expected Put, got {other:?}"),
        }
        w.delivered(2, true, 64, 30, 20);
        assert!(w.node(2).pop().is_none());

        let s0 = w.node(0).engine_stats();
        let s2 = w.node(2).engine_stats();
        assert_eq!(s0.am_sent.get(), 1);
        assert_eq!(s2.am_received.get(), 1);
        assert_eq!(s2.put_bytes_in.get(), 64);
        assert_eq!(s2.puts_remote_done.get(), 1);
        assert_eq!(w.node(1).engine_stats().puts_started.get(), 1);
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

    /// The owner hammer: in every round all senders push one tagged
    /// message to the same node at once (barrier) and call `progress`, so
    /// flag winners and losers change from round to round. No two threads
    /// may ever be inside the handler together, every message is handled
    /// exactly once and in its sender's order, and when the round's last
    /// `progress` has returned the mailbox is empty with the flag clear —
    /// a loser whose message the owner missed (lost wakeup) strands it
    /// there. Violations are noted and asserted after the join: a panic
    /// inside a round would leave the other senders waiting on the barrier.
    #[test]
    fn hammer_one_owner_at_a_time_handles_every_message_once() {
        const SENDERS: u64 = 4;
        const ROUNDS: u64 = 20_000;
        let w = ShmWorld::new(1, 0);
        // Next expected round per sender; `try_lock` doubles as the
        // mutual-exclusion probe.
        let next = Mutex::new(vec![0u64; SENDERS as usize]);
        let violations = Mutex::new(Vec::new());
        let note = |what: String| violations.lock().unwrap().push(what);
        let sync = std::sync::Barrier::new(SENDERS as usize);
        std::thread::scope(|s| {
            for sender in 0..SENDERS {
                let (w, next, note, sync) = (&w, &next, &note, &sync);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        sync.wait();
                        w.send_am(0, 0, sender << 32 | round, Frames::new(), 0);
                        w.progress(0, |msg| {
                            let Ok(mut next) = next.try_lock() else {
                                return note("two owners in the handler at once".into());
                            };
                            let ShmMsg::Am { tag, .. } = msg else {
                                return note(format!("not the message sent: {msg:?}"));
                            };
                            let (from, got) = ((tag >> 32) as usize, tag & 0xffff_ffff);
                            if got != next[from] {
                                note(format!("sender {from}: {got} lost, repeated or reordered"));
                            }
                            next[from] = got + 1;
                        });
                        sync.wait();
                        let n = w.node(0);
                        if n.owned.load(SeqCst) || !n.inbox.lock().unwrap().is_empty() {
                            note(format!("round {round}: message stranded or flag left set"));
                        }
                    }
                });
            }
        });
        let violations = violations.into_inner().unwrap();
        assert!(
            violations.is_empty(),
            "{:?}",
            &violations[..violations.len().min(5)]
        );
        assert_eq!(next.into_inner().unwrap(), vec![ROUNDS; SENDERS as usize]);
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
