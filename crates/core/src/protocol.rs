//! The remote-dependency protocol (paper Figure 1), written once for both
//! substrates: a producer announces a version to every remote node that
//! consumes it (ACTIVATE, unicast or down a multicast tree), each such
//! node asks the owner for the payload (GET DATA), and the owner answers
//! with a one-sided put whose arrival releases the consumers.
//!
//! The handlers are generic over a [`Port`], the few services of one node
//! the protocol needs: a clock, three sends (ACTIVATE, GET DATA, put),
//! four store transitions, a consumer release and a latency sample. Two
//! ports implement it, statically dispatched: the virtual node runtime
//! (`node.rs`, over a `CommEngine` on the simulator) and the real run
//! (`real.rs`, typed messages on one pool worker). What differs by substrate
//! stays in each one's per-message dispatch, around these handlers: trace
//! flow arrows, modelled costs or measured handler times, the GET
//! window (virtual) and the outbox (real).
//!
//! The handlers and the real port's methods are `#[inline]`: left to
//! itself, LLVM kept every port call out of line, and the real path's
//! end-to-end latency read 10–15 % above the hand-written handlers this
//! module replaced (`real_tlr`, 2 threads).

use amt_netmodel::NodeId;
use amt_simnet::{OnlineStats, SimTime};
use bytes::Bytes;

use crate::config::ClusterConfig;
use crate::graph::{TaskGraph, TaskId};
use crate::records::{split_subtree, ActivateRec, GetRec, PutCb};

/// AM tag for task-activation messages.
pub(crate) const AM_ACTIVATE: u64 = 1;
/// AM tag for data requests.
pub(crate) const AM_GETDATA: u64 = 2;
/// One-sided callback tag for data arrival.
pub(crate) const RTAG_DATA: u64 = 1;

/// The three message-lifecycle latencies a flow samples (§6.1.3), each
/// from the ACTIVATE's send instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lat {
    /// To the ACTIVATE's arrival (§6.4.3).
    Msg,
    /// To the GET DATA's arrival at the owner.
    Request,
    /// To the data's arrival (§6.4.2); data flows only.
    E2e,
}

/// One latency series as integer nanosecond moments: count, Σx, Σx², min
/// and max. Recording a sample is integer adds, one multiply and two
/// compares, with no float divide; both substrates keep their series in
/// these and convert them once, at the end of the run
/// ([`LatMoments::stats_us`]).
#[derive(Clone, Copy)]
pub(crate) struct NsMoments {
    count: u64,
    sum: u64,
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl Default for NsMoments {
    fn default() -> Self {
        NsMoments {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl NsMoments {
    #[inline]
    pub(crate) fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum += ns;
        self.sum_sq += ns as u128 * ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    pub(crate) fn merge(&mut self, other: &NsMoments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The series in microseconds, as the report reads it.
    pub(crate) fn to_stats_us(self) -> OnlineStats {
        OnlineStats::from_moments(self.count, self.sum, self.sum_sq, self.min, self.max)
    }
}

/// A thread's latency samples as integer moments, a series per [`Lat`] in
/// declaration order.
#[derive(Default)]
pub(crate) struct LatMoments([NsMoments; 3]);

impl LatMoments {
    #[inline]
    pub(crate) fn record(&mut self, lat: Lat, t: SimTime) {
        self.0[lat as usize].record(t.as_ns());
    }

    pub(crate) fn merge(&mut self, other: &LatMoments) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.merge(b);
        }
    }

    pub(crate) fn stats_us(&self) -> [OnlineStats; 3] {
        self.0.map(NsMoments::to_stats_us)
    }
}

/// A multicast subtree a node relays once the version's data is local,
/// and the priority it was announced with.
pub(crate) type Forward = (Vec<u32>, i64);

/// One node's services, as the protocol sees them (module docs).
pub(crate) trait Port {
    /// Whether this port orders its GET DATA requests by the priority an
    /// ACTIVATE carries. The simulated node's GET window does; the real
    /// port posts each request at once, so its announces carry priority 0
    /// and load no consumer's task record for one.
    const ORDERS_GETS: bool;
    /// The current instant, in ns: the virtual clock, or wall time since
    /// the pool started.
    fn now(&mut self) -> u64;
    /// Send one ACTIVATE record from this node to `dst`; the record, with
    /// its forward list, moves into the message.
    fn send_activate(&mut self, dst: NodeId, rec: ActivateRec);
    /// Ask `owner` for the version of the data flow `rec` announced.
    fn request(&mut self, owner: NodeId, rec: &ActivateRec);
    /// Put `size` bytes of a version (its payload `data`, if any) to
    /// `dst`, completing there with `cb`.
    fn put(&mut self, dst: NodeId, cb: PutCb, size: usize, data: Option<Bytes>);
    /// Mark version `v` present here — it was `requested`, or it arrives
    /// with its announce — and release its local consumers.
    fn present(&mut self, v: usize, data: Option<Bytes>, requested: bool);
    /// Count down the inputs of `task`, a consumer at this node of a
    /// version this node has just produced, and queue the task if that
    /// was its last.
    fn release(&mut self, g: &TaskGraph, task: TaskId);
    /// Mark version `v` requested, keeping `forward` for its arrival.
    fn requested(&mut self, v: usize, forward: Option<Forward>);
    /// The forward kept for version `v`, if any.
    fn take_forward(&mut self, v: usize) -> Option<Forward>;
    /// Payload of version `v`, which this node holds (`None` when it is
    /// cost-only).
    fn payload(&mut self, v: usize) -> Option<Bytes>;
    /// Record one latency sample.
    fn sample(&mut self, lat: Lat, t: SimTime);
}

/// Multicast policy (§3.9): announce down a tree once a version has at
/// least `min` remote consumer nodes, split `k`-ary or, with `k` unset,
/// by binomial halving.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tree {
    pub min: Option<usize>,
    pub k: Option<usize>,
}

impl Tree {
    pub(crate) fn of(cfg: &ClusterConfig) -> Tree {
        Tree {
            min: cfg.bcast_tree_min,
            k: cfg.multicast_k,
        }
    }
}

/// Announce grouping scratch: remote consumer nodes in first-appearance
/// order, and per node the best consumer priority, stamped with the epoch
/// of the announce that wrote it — one pass, no clearing, no quadratic
/// rescans. One per thread: one per simulated run, one per real worker.
#[derive(Default)]
pub(crate) struct Fanout {
    dests: Vec<NodeId>,
    best: Vec<(u64, i64)>,
    epoch: u64,
}

impl Fanout {
    /// Start grouping the consumers of another version.
    #[inline]
    fn start(&mut self) {
        self.epoch += 1;
        self.dests.clear();
    }

    /// Count a consumer at `node` with `priority`: the node's first one
    /// adds it to `dests`, later ones raise its best priority.
    #[inline]
    fn add(&mut self, node: NodeId, priority: i64) {
        if self.best.len() <= node {
            self.best.resize(node + 1, (0, 0));
        }
        let e = &mut self.best[node];
        if e.0 != self.epoch {
            *e = (self.epoch, priority);
            self.dests.push(node);
        } else {
            e.1 = e.1.max(priority);
        }
    }

    /// The distinct nodes other than `home` with a consumer of version
    /// `v`, in first-appearance order: one walk, and no allocation once
    /// the scratch has grown to the cluster.
    pub(crate) fn remote_nodes(&mut self, g: &TaskGraph, v: usize, home: NodeId) -> &[NodeId] {
        self.start();
        for c in g.consumers(v) {
            if c.node != home {
                self.add(c.node, 0);
            }
        }
        &self.dests
    }
}

fn since(now: u64, sent_at_ns: u64) -> SimTime {
    SimTime::from_ns(now.saturating_sub(sent_at_ns))
}

/// Announce each version `(v, size)`, held at its home with `size` bytes
/// (the held payload's length, or the declared size without one): one
/// ACTIVATE per remote consumer node, in first-appearance order, carrying
/// the best consumer priority there — or, from `tree.min` nodes on, one
/// per multicast subtree, carrying the best priority of them all. The
/// priorities are read only for a port that orders its GETs by them
/// ([`Port::ORDERS_GETS`]).
///
/// The one walk over each version's consumers also releases the ones at
/// home when the version was `produced` here ([`Port::release`]), so a
/// finishing task walks each output's list once. Initial versions are not
/// `produced`: the start state already counts them present at home.
#[inline]
pub(crate) fn announce<P: Port>(
    p: &mut P,
    g: &TaskGraph,
    fan: &mut Fanout,
    tree: Tree,
    produced: bool,
    versions: impl IntoIterator<Item = (usize, usize)>,
) {
    for (v, size) in versions {
        let home = g.version(v).home();
        fan.start();
        for c in g.consumers(v) {
            if c.node == home {
                if produced {
                    p.release(g, c.task);
                }
                continue;
            }
            let priority = if P::ORDERS_GETS {
                g.priority_probe();
                g.task(c.task).priority
            } else {
                0
            };
            fan.add(c.node, priority);
        }
        if !fan.dests.is_empty() && tree.min.is_some_and(|m| fan.dests.len() >= m) {
            let best = fan.dests.iter().map(|&n| fan.best[n].1).max();
            let mut ids: Vec<u32> = fan.dests.iter().map(|&n| n as u32).collect();
            ids.sort_unstable();
            let now = p.now();
            relay(p, tree.k, v, &ids, best.expect("non-empty"), now, size);
        } else {
            for &dst in &fan.dests {
                let priority = fan.best[dst].1;
                let rec = ActivateRec::direct(v as u64, size as u64, priority, p.now());
                p.send_activate(dst, rec);
            }
        }
    }
}

/// Send ACTIVATEs for `v` to the tree children of `subtree`, each with its
/// forward list. `sent_at_ns` is the original announce instant, so
/// downstream latencies span the whole multicast path.
#[inline]
fn relay<P: Port>(
    p: &mut P,
    k: Option<usize>,
    v: usize,
    subtree: &[u32],
    priority: i64,
    sent_at_ns: u64,
    size: usize,
) {
    for (child, forward) in split_subtree(subtree, k) {
        let rec = ActivateRec {
            version: v as u64,
            size: size as u64,
            priority,
            sent_at_ns,
            forward,
        };
        p.send_activate(child as NodeId, rec);
    }
}

/// ACTIVATE from `src` (the producer or a tree parent). A control flow
/// (size 0) completes on arrival: present, released, relayed at once. A
/// data flow is requested from `src`, its forward kept until the data
/// lands, so tree children always GET from a parent that holds it.
#[inline]
pub(crate) fn on_activate<P: Port>(p: &mut P, k: Option<usize>, src: NodeId, mut rec: ActivateRec) {
    let now = p.now();
    p.sample(Lat::Msg, since(now, rec.sent_at_ns));
    let v = rec.version as usize;
    if rec.size == 0 {
        p.present(v, None, false);
        relay(p, k, v, &rec.forward, rec.priority, rec.sent_at_ns, 0);
    } else {
        let forward =
            (!rec.forward.is_empty()).then(|| (std::mem::take(&mut rec.forward), rec.priority));
        p.requested(v, forward);
        p.request(src, &rec);
    }
}

/// GET DATA from `src` at the owner: put the held payload, or the
/// declared size of a cost-only version.
#[inline]
pub(crate) fn on_get<P: Port>(p: &mut P, g: &TaskGraph, src: NodeId, rec: GetRec) {
    let now = p.now();
    p.sample(Lat::Request, since(now, rec.activate_sent_at_ns));
    let v = rec.version as usize;
    let data = p.payload(v);
    let size = data.as_ref().map_or(g.version(v).size, Bytes::len);
    let cb = PutCb {
        version: rec.version,
        activate_sent_at_ns: rec.activate_sent_at_ns,
    };
    p.put(src, cb, size, data);
}

/// A put of `size` bytes arrived: the flow is complete. Present, release,
/// and relay the kept forward now that the data is local.
#[inline]
pub(crate) fn on_put<P: Port>(
    p: &mut P,
    k: Option<usize>,
    cb: PutCb,
    size: usize,
    data: Option<Bytes>,
) {
    let now = p.now();
    p.sample(Lat::E2e, since(now, cb.activate_sent_at_ns));
    let v = cb.version as usize;
    p.present(v, data, true);
    if let Some((forward, priority)) = p.take_forward(v) {
        relay(p, k, v, &forward, priority, cb.activate_sent_at_ns, size);
    }
}
