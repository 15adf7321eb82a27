//! In-process shared-memory transport for the **real substrate**
//! (`amt_core::Cluster::execute_real`): multi-"node" runs on the
//! work-stealing thread pool exchange the same wire artifacts as the
//! simulated backends — framed active messages ([`Frames`]), one-sided
//! puts with callback descriptors, pooled receive buffers
//! ([`SharedBufPool`]) — across real OS threads.
//!
//! Each node owns a mutex-guarded FIFO inbox, a thread-safe buffer pool
//! and one **state word** with two bits: `OWNED` (a thread is handling
//! the node's messages — its one progress owner) and `MAIL` (the inbox may
//! hold messages no owner has taken yet). [`ShmWorld::send`] is the
//! progress path, run in line on the sending thread:
//!
//! * *Direct hand-off.* `CAS(0 → OWNED)`; on success the sender handles
//!   the message itself — no inbox, no lock — and releases.
//! * *Queued.* Otherwise it pushes under the inbox lock, sets `MAIL`
//!   before unlocking, and calls `progress`, which takes ownership only
//!   by `CAS(MAIL → OWNED)` and returns at once if `OWNED` is set: that
//!   owner's release will see `MAIL`.
//! * *Release.* `CAS(OWNED → 0)`. If it fails, `MAIL` is set: the owner
//!   clears it, swaps the whole inbox out under the lock, handles that
//!   batch outside the lock, and tries again.
//!
//! No lost wakeup: a pusher sets `MAIL` after its push, both under the
//! inbox lock, and an owner clears `MAIL` before it takes that lock to
//! swap — so either the swap holds the push, or `MAIL` is still set when
//! the owner tries to release (its CAS fails and it swaps again), or there
//! was no owner and the pusher's own `progress` takes the bit. Hence
//! `state == 0` means the inbox is empty, or a pusher holding the lock is
//! about to set `MAIL` and call `progress`. FIFO per sender: a thread's
//! earlier message to a node is handled, or it keeps `MAIL` or `OWNED` set
//! until it is, and a direct hand-off needs both clear, so a later message
//! of the same thread cannot overtake it. Records of at most
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
//! the `put.*` equivalents). A send is a hand-off or one push here, so
//! the queue and inject stages are structurally zero and the deliver
//! stage is folded into the wire stage (hand-off == delivery); recording
//! the zeros keeps the histogram *counts* comparable across substrates.
//! The counters `shm.direct` / `shm.queued` say how many messages were
//! handed off in line and how many went through an inbox.
//!
//! This transport deliberately has no flow control or aggregation: those
//! are properties of the *simulated* engines under study. What it
//! preserves is the protocol shape (ACTIVATE / GET DATA / put) and the
//! datapath mechanics (frame boundaries, buffer recycling) so the layers
//! above run unchanged.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{
    AtomicU64, AtomicU8,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, Mutex};

use amt_netmodel::NodeId;
use amt_simnet::MetricsRegistry;
use bytes::{Bytes, Frames, SharedBufPool};

use crate::stats::EngineStats;

/// One message to a node: handed off to its owner, or in its inbox.
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

/// [`ShmNode::state`] bit: a thread owns the node (handles its messages).
const OWNED: u8 = 1;
/// [`ShmNode::state`] bit: the inbox may hold messages no owner has taken.
const MAIL: u8 = 2;

/// One node endpoint: inbox + state word + buffer pool + counters, on
/// cache lines of its own (two, for the adjacent-line prefetcher) so that
/// traffic to one node does not slow traffic to its neighbour. Fields are
/// laid out in order: the state word shares the first line with the
/// inbox lock every pusher takes anyway, not with the counters.
#[derive(Debug)]
#[repr(C, align(128))]
pub struct ShmNode {
    inbox: Mutex<VecDeque<ShmMsg>>,
    /// `OWNED` | `MAIL` (module docs).
    state: AtomicU8,
    /// The owner's batch: swapped with `inbox`, worked off outside the
    /// inbox lock, and empty again (capacity kept) before `OWNED` clears.
    /// Only the owner locks it, so it is never contended.
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
            state: AtomicU8::new(0),
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
    /// through [`ShmWorld::send`]; a bare `pop` after
    /// [`ShmWorld::send_am`] is for single-threaded callers (tests,
    /// probes).
    pub fn pop(&self) -> Option<ShmMsg> {
        self.inbox.lock().expect("shm inbox").pop_front()
    }

    /// Push `msg` and set `MAIL` before the inbox lock drops.
    fn enqueue(&self, msg: ShmMsg) {
        let mut inbox = self.inbox.lock().expect("shm inbox");
        inbox.push_back(msg);
        self.state.fetch_or(MAIL, SeqCst);
    }

    /// As the owner: swap the inbox out under its lock, handle it outside.
    fn drain(&self, handle: &mut impl FnMut(ShmMsg)) {
        let mut batch = self.batch.lock().expect("shm batch");
        std::mem::swap(&mut *self.inbox.lock().expect("shm inbox"), &mut *batch);
        batch.drain(..).for_each(handle);
    }

    /// Give up ownership by `CAS(OWNED → 0)`; while that fails, `MAIL`
    /// was set meanwhile: clear it and drain.
    fn release(&self, handle: &mut impl FnMut(ShmMsg)) {
        while self
            .state
            .compare_exchange(OWNED, 0, SeqCst, SeqCst)
            .is_err()
        {
            self.state.swap(OWNED, SeqCst);
            self.drain(handle);
        }
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

    /// Send `msg` to `dst` and see that it is handled: by `handle` on this
    /// thread at once when `dst` has no owner and no mail, through the
    /// inbox otherwise (module docs). `handle` runs as `dst`'s owner, so
    /// it must not send through this world to another node: a thread that
    /// owned several nodes would serialize all their traffic behind
    /// itself.
    pub fn send(&self, dst: NodeId, msg: ShmMsg, mut handle: impl FnMut(ShmMsg)) {
        let n = &self.nodes[dst];
        if n.state.compare_exchange(0, OWNED, SeqCst, SeqCst).is_ok() {
            self.count_send(&msg, "shm.direct");
            handle(msg);
            n.release(&mut handle);
        } else {
            self.count_send(&msg, "shm.queued");
            n.enqueue(msg);
            self.progress(dst, handle);
        }
    }

    /// Drain `node`'s inbox through `handle` as its owner, unless a thread
    /// already owns it (module docs); `handle` is bound as in
    /// [`ShmWorld::send`].
    fn progress(&self, node: NodeId, mut handle: impl FnMut(ShmMsg)) {
        let n = &self.nodes[node];
        if n.state
            .compare_exchange(MAIL, OWNED, SeqCst, SeqCst)
            .is_ok()
        {
            n.drain(&mut handle);
            n.release(&mut handle);
        }
    }

    /// Every node's stage registry merged into one (cross-node report,
    /// with the `shm.direct` / `shm.queued` hand-off counts), plus the
    /// buffer pools' `shm.pool_hits` / `shm.pool_misses` (takes served
    /// from a pool / takes that had to allocate). Empty when metrics are
    /// off.
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
    /// wall-clock instant `now_ns` (ns since pool start). Nothing handles
    /// it until [`ShmNode::pop`] takes it or the next [`ShmWorld::send`]
    /// to `dst` drains the inbox.
    pub fn send_am(&self, src: NodeId, dst: NodeId, tag: u64, frames: Frames, now_ns: u64) {
        let msg = ShmMsg::Am {
            src,
            tag,
            frames,
            sent_at_ns: now_ns,
        };
        self.count_send(&msg, "shm.queued");
        self.nodes[dst].enqueue(msg);
    }

    /// Sender-side bookkeeping of `msg` at its source, the same for a
    /// hand-off as for a push: the lifecycle counter and, in metrics mode,
    /// the `path` it took (`shm.direct` / `shm.queued`), zero queue and
    /// inject stages (a send is one hand-off or one push here: no command
    /// queue, no injection delay; the zeros keep stage counts aligned with
    /// the virtual backends) and the per-class wire counts.
    fn count_send(&self, msg: &ShmMsg, path: &str) {
        let (ShmMsg::Am { src, .. } | ShmMsg::Put { src, .. }) = *msg;
        let c = &self.nodes[src].counters;
        match msg {
            ShmMsg::Am { .. } => c.am_sent.fetch_add(1, Relaxed),
            ShmMsg::Put { .. } => c.puts_started.fetch_add(1, Relaxed),
        };
        if !self.metrics_on {
            return;
        }
        let mut m = self.nodes[src].metrics.lock().expect("shm metrics");
        m.count(path, 1);
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
    /// hand-off or in the inbox).
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
            // Hand-off == delivery: handlers run as soon as they own it.
            m.record(deliver, 0);
        }
    }
}

#[cfg(test)]
mod shm_tests {
    use super::*;

    /// A pushed AM leaves `MAIL` set, so a later `send` of a put to the
    /// same node queues behind it and drains both, in order.
    #[test]
    fn messages_flow_and_counters_track() {
        let w = ShmWorld::new(3, 8);
        assert_eq!(w.len(), 3);
        let mut f = Frames::new();
        f.push(Bytes::from_static(b"rec0"));
        f.push(Bytes::from_static(b"rec1"));
        w.send_am(0, 2, 1, f, 10);
        let put = ShmMsg::Put {
            src: 1,
            r_tag: 1,
            data: Some(Bytes::from(vec![7u8; 64])),
            size: 64,
            cb: {
                let mut b = w.node(1).pool().take(16);
                use bytes::BufMut;
                b.put_u64_le(42);
                b.put_u64_le(9);
                b.freeze()
            },
            sent_at_ns: 20,
        };
        let mut got = Vec::new();
        w.send(2, put, |msg| got.push(msg));
        assert_eq!(w.node(2).state.load(SeqCst), 0);
        assert!(w.node(2).pop().is_none());
        let mut got = got.into_iter();

        let m1 = got.next().expect("am first (FIFO)");
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
        let m2 = got.next().expect("put second");
        match m2 {
            ShmMsg::Put { size, data, cb, .. } => {
                assert_eq!(size, 64);
                assert_eq!(data.expect("payload").len(), 64);
                assert_eq!(cb.len(), 16);
            }
            other => panic!("expected Put, got {other:?}"),
        }
        w.delivered(2, true, 64, 30, 20);
        assert!(got.next().is_none());

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

    /// Every sender CASes the destination's state word; the counters are
    /// written by whoever sends from or handles at the node. Keep them on
    /// different cache lines of the node's aligned pair.
    #[test]
    fn state_word_does_not_share_a_line_with_the_counters() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<ShmNode>(), 128);
        let state = offset_of!(ShmNode, state) / 64;
        let counters = offset_of!(ShmNode, counters);
        let lines = counters / 64..=(counters + size_of::<ShmCounters>() - 1) / 64;
        assert!(
            !lines.contains(&state),
            "state on line {state}, counters on {lines:?}"
        );
    }

    /// One thread: a send to a free node is handled in line; a send from
    /// inside that handler to the same node queues (its owner is busy) and
    /// the owner's release picks it up. Both record the sender samples.
    #[test]
    fn send_hands_off_to_a_free_node_and_queues_behind_its_owner() {
        let w = ShmWorld::new_observed(2, 8, true);
        let am = |tag| ShmMsg::Am {
            src: 0,
            tag,
            frames: Frames::new(),
            sent_at_ns: 0,
        };
        let mut tags = Vec::new();
        w.send(1, am(1), |msg| {
            let ShmMsg::Am { tag, .. } = msg else {
                panic!("not the message sent: {msg:?}")
            };
            if tag == 1 {
                w.send(1, am(2), |_| panic!("a second owner of node 1"));
            }
            tags.push(tag);
        });
        assert_eq!(tags, [1, 2]);
        assert_eq!(w.node(1).state.load(SeqCst), 0);
        assert!(w.node(1).pop().is_none());
        let m = w.merged_metrics();
        assert_eq!((m.counter("shm.direct"), m.counter("shm.queued")), (1, 1));
        assert_eq!(m.hist("am.queue_ns").unwrap().count(), 2);
        assert_eq!(m.hist("am.inject_ns").unwrap().count(), 2);
        assert_eq!(m.counter("msg.am.msgs_on_wire"), 2);
        assert_eq!(w.node(0).engine_stats().am_sent.get(), 2);
    }

    /// Drive `SENDERS` threads through `ROUNDS` barrier-started rounds
    /// against node 0 of a fresh world: in each round every sender sends
    /// `per_round` tagged messages through `send(world, sender, tag,
    /// handler)`. No two threads may ever be inside the handler together
    /// (`try_lock` is the probe), every message is handled exactly once
    /// and in its sender's order, and when the round's last send has
    /// returned the inbox is empty and the state word clear — a message
    /// the owner missed (lost wakeup) is stranded there. Violations are
    /// noted and asserted after the join: a panic inside a round would
    /// leave the other senders waiting on the barrier.
    fn hammer(per_round: u64, send: impl Fn(&ShmWorld, u64, u64, &dyn Fn(ShmMsg)) + Sync) {
        const SENDERS: u64 = 4;
        const ROUNDS: u64 = 20_000;
        let w = ShmWorld::new(1, 0);
        // Next expected sequence number per sender.
        let next = Mutex::new(vec![0u64; SENDERS as usize]);
        let violations = Mutex::new(Vec::new());
        let note = |what: String| violations.lock().unwrap().push(what);
        let handler = |msg: ShmMsg| {
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
        };
        let sync = std::sync::Barrier::new(SENDERS as usize);
        std::thread::scope(|s| {
            for sender in 0..SENDERS {
                let (w, note, handler, sync, send) = (&w, &note, &handler, &sync, &send);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        sync.wait();
                        for seq in round * per_round..(round + 1) * per_round {
                            send(w, sender, sender << 32 | seq, handler);
                        }
                        sync.wait();
                        let n = w.node(0);
                        if n.state.load(SeqCst) != 0 || !n.inbox.lock().unwrap().is_empty() {
                            note(format!("round {round}: message stranded or state left set"));
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
        assert_eq!(
            next.into_inner().unwrap(),
            vec![ROUNDS * per_round; SENDERS as usize]
        );
    }

    /// The owner hammer: every sender pushes one message a round and calls
    /// `progress`, so owners and losers change from round to round.
    #[test]
    fn hammer_one_owner_at_a_time_handles_every_message_once() {
        hammer(1, |w, _, tag, handler| {
            w.send_am(0, 0, tag, Frames::new(), 0);
            w.progress(0, handler);
        });
    }

    /// The direct-path hammer: two messages per sender a round, half the
    /// senders through `send` (a direct hand-off whenever node 0 is free,
    /// queued otherwise) and half through `send_am` + `progress`, so
    /// direct hand-offs race queued messages, owners and releases.
    #[test]
    fn hammer_direct_hand_offs_keep_one_owner_and_sender_order() {
        hammer(2, |w, sender, tag, handler| {
            if sender % 2 == 0 {
                let msg = ShmMsg::Am {
                    src: 0,
                    tag,
                    frames: Frames::new(),
                    sent_at_ns: 0,
                };
                w.send(0, msg, handler);
            } else {
                w.send_am(0, 0, tag, Frames::new(), 0);
                w.progress(0, handler);
            }
        });
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
