//! A push-only in-process message queue: framed active messages
//! ([`Frames`]) in pooled buffers ([`SharedBufPool`]), pushed into a
//! node's mutex-guarded FIFO inbox ([`ShmWorld::send_am`]) and taken out
//! by [`ShmNode::pop`], with per-node lifecycle counters.
//!
//! No workload runs on it: the real substrate (`amt_core`'s `real.rs`)
//! hands each protocol record to its handler as a typed value, with no
//! frames, buffers or shared counters. What is left here is the surface
//! the benchmark's shared-memory message probe measures; it goes when that
//! probe is pointed at a live path (ROADMAP item 7(c)).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use amt_netmodel::NodeId;
use bytes::{Frames, SharedBufPool};

/// One message in a node's inbox.
#[derive(Debug)]
pub enum ShmMsg {
    /// An active message: tag dispatch at the receiver.
    Am {
        /// Sending node.
        src: NodeId,
        /// AM tag.
        tag: u64,
        /// Payload frames, submission boundaries preserved.
        frames: Frames,
        /// Send instant as the caller stamped it.
        sent_at_ns: u64,
    },
}

/// One node endpoint: inbox, buffer pool and lifecycle counters.
#[derive(Debug)]
pub struct ShmNode {
    inbox: Mutex<VecDeque<ShmMsg>>,
    pool: SharedBufPool,
    am_sent: AtomicU64,
    am_received: AtomicU64,
    puts_remote_done: AtomicU64,
    put_bytes_in: AtomicU64,
}

impl ShmNode {
    fn new(pool_bufs: usize) -> ShmNode {
        ShmNode {
            inbox: Mutex::new(VecDeque::new()),
            pool: SharedBufPool::new(pool_bufs),
            am_sent: AtomicU64::new(0),
            am_received: AtomicU64::new(0),
            puts_remote_done: AtomicU64::new(0),
            put_bytes_in: AtomicU64::new(0),
        }
    }

    /// This node's thread-safe buffer pool (fill message buffers from it;
    /// recycle drained frames back).
    pub fn pool(&self) -> &SharedBufPool {
        &self.pool
    }

    /// Pop the oldest message [`ShmWorld::send_am`] pushed here, if any.
    pub fn pop(&self) -> Option<ShmMsg> {
        self.inbox.lock().expect("shm inbox").pop_front()
    }
}

/// The world: one [`ShmNode`] per node, shareable across threads.
#[derive(Clone, Debug)]
pub struct ShmWorld {
    nodes: Arc<Vec<ShmNode>>,
}

impl ShmWorld {
    /// Create `nodes` endpoints, each pooling at most `pool_bufs` free
    /// receive buffers.
    pub fn new(nodes: usize, pool_bufs: usize) -> ShmWorld {
        ShmWorld {
            nodes: Arc::new((0..nodes).map(|_| ShmNode::new(pool_bufs)).collect()),
        }
    }

    /// Node endpoint `n`.
    pub fn node(&self, n: NodeId) -> &ShmNode {
        &self.nodes[n]
    }

    /// Push an active message from `src` into `dst`'s inbox, stamped with
    /// `now_ns`, for [`ShmNode::pop`] to take, and count it sent at `src`.
    pub fn send_am(&self, src: NodeId, dst: NodeId, tag: u64, frames: Frames, now_ns: u64) {
        self.nodes[src].am_sent.fetch_add(1, Relaxed);
        let msg = ShmMsg::Am {
            src,
            tag,
            frames,
            sent_at_ns: now_ns,
        };
        self.nodes[dst]
            .inbox
            .lock()
            .expect("shm inbox")
            .push_back(msg);
    }

    /// Count a message taken at `at` as delivered: an AM received, or a
    /// put of `size` bytes completed. The instants are the caller's: this
    /// queue keeps no stage timings.
    pub fn delivered(
        &self,
        at: NodeId,
        msg_was_put: bool,
        size: usize,
        _now_ns: u64,
        _sent_at_ns: u64,
    ) {
        let n = &self.nodes[at];
        if msg_was_put {
            n.put_bytes_in.fetch_add(size as u64, Relaxed);
            n.puts_remote_done.fetch_add(1, Relaxed);
        } else {
            n.am_received.fetch_add(1, Relaxed);
        }
    }
}

#[cfg(test)]
mod shm_tests {
    use super::*;
    use bytes::Bytes;

    fn count(c: &AtomicU64) -> u64 {
        c.load(Relaxed)
    }

    /// `send_am` queues, `pop` takes in FIFO order, `delivered` accounts
    /// at the receiver.
    #[test]
    fn messages_flow_and_counters_track() {
        let w = ShmWorld::new(3, 8);
        let mut f = Frames::new();
        f.push(Bytes::from_static(b"rec0"));
        f.push(Bytes::from_static(b"rec1"));
        w.send_am(0, 2, 1, f, 10);
        w.send_am(1, 2, 7, Frames::One(Bytes::from(vec![7u8; 64])), 20);

        let ShmMsg::Am {
            src,
            tag,
            frames,
            sent_at_ns,
        } = w.node(2).pop().expect("first AM (FIFO)");
        assert_eq!((src, tag, sent_at_ns), (0, 1, 10));
        assert_eq!(frames.frame_count(), 2);
        w.delivered(2, false, 0, 15, 10);
        let ShmMsg::Am {
            src, tag, frames, ..
        } = w.node(2).pop().expect("second AM");
        assert_eq!((src, tag), (1, 7));
        assert_eq!(frames.iter().map(|b| b.len()).sum::<usize>(), 64);
        w.delivered(2, true, 64, 30, 20);
        assert!(w.node(2).pop().is_none());

        assert_eq!(count(&w.node(0).am_sent), 1);
        assert_eq!(count(&w.node(1).am_sent), 1);
        let n2 = w.node(2);
        assert_eq!((count(&n2.am_received), count(&n2.am_sent)), (1, 0));
        assert_eq!(
            (count(&n2.puts_remote_done), count(&n2.put_bytes_in)),
            (1, 64)
        );
    }

    #[test]
    fn pool_recycles_across_send_receive() {
        let w = ShmWorld::new(2, 8);
        // Steady-state buffer traffic: fill from the pool, ship, take,
        // recycle at the receiver's pool.
        for round in 0..10u64 {
            let mut b = w.node(0).pool().take(32);
            b.extend_from_slice(&round.to_le_bytes());
            w.send_am(0, 1, 1, Frames::One(b.freeze()), 0);
            let Some(ShmMsg::Am { frames, .. }) = w.node(1).pop() else {
                panic!("message lost");
            };
            w.delivered(1, false, 0, 0, 0);
            w.node(1).pool().recycle_frames(frames);
        }
        let (hits, misses) = w.node(1).pool().reuse_stats();
        assert_eq!(hits + misses, 0, "node 1 never takes; it only recycles");
        assert!(w.node(1).pool().free_len() > 0, "frames were reclaimed");
    }
}
