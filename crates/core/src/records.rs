//! The runtime's protocol records.
//!
//! ACTIVATE messages carry one record per announced dataflow; the
//! communication engine may aggregate several records to the same
//! destination into one wire message (§4.3), one frame per record.
//! Timestamps ride along so the receiver can measure per-message and
//! end-to-end latency exactly as the paper does (§6.1.3 — our virtual
//! clock is global, so no clock synchronization is required).
//!
//! No record is encoded. On the real substrate a message *is* its record
//! (`real.rs`); on the simulated one a record waits in the run's
//! [`InFlight`] slab from its send to its handling, and its frame is only
//! its 4-byte slot id, an immediate `Bytes` (`amt_comm::slot_frame`), as
//! the engine carries put handshakes. Forward lists move with their
//! record; nothing is copied. What the fabric is *charged* is the wire
//! sizes below, never the frame. The one byte format left is [`PutCb`]:
//! a put's callback data is 16 immediate bytes, because the handshake's
//! charged length counts them.

use amt_comm::{frame_slot, slot_frame};
use amt_simnet::Slab;
use bytes::Bytes;

/// Wire size charged per ACTIVATE record (the real runtime sends remote-deps
/// descriptors of roughly this size).
pub const ACTIVATE_WIRE_BYTES: usize = 48;
/// Wire size charged per GET DATA record.
pub const GET_WIRE_BYTES: usize = 32;

/// One announced dataflow: "task completed; version `v` is available".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivateRec {
    pub version: u64,
    pub size: u64,
    pub priority: i64,
    pub sent_at_ns: u64,
    /// Multicast subtree (Figure 1): nodes this receiver must forward the
    /// announcement to once the data has arrived. Empty for direct sends.
    pub forward: Vec<u32>,
}

impl ActivateRec {
    pub fn direct(version: u64, size: u64, priority: i64, sent_at_ns: u64) -> Self {
        ActivateRec {
            version,
            size,
            priority,
            sent_at_ns,
            forward: Vec::new(),
        }
    }
}

/// A simulated record between its send and its handling.
#[derive(Debug)]
pub(crate) enum Record {
    Activate(ActivateRec),
    Get(GetRec),
}

/// The simulated run's records in flight, named on the wire by slot id
/// (module docs): one per run, shared by every node.
#[derive(Default)]
pub(crate) struct InFlight(Slab<Record>);

impl InFlight {
    /// Store `rec` until its message is handled; returns its frame.
    pub(crate) fn send(&mut self, rec: Record) -> Bytes {
        slot_frame(self.0.insert(rec))
    }

    /// Take out the ACTIVATE record `frame` names.
    pub(crate) fn take_activate(&mut self, frame: &[u8]) -> ActivateRec {
        match self.0.take(frame_slot(frame)) {
            Record::Activate(rec) => rec,
            other => panic!("an ACTIVATE frame named {other:?}"),
        }
    }

    /// Take out the GET DATA record `frame` names.
    pub(crate) fn take_get(&mut self, frame: &[u8]) -> GetRec {
        match self.0.take(frame_slot(frame)) {
            Record::Get(rec) => rec,
            other => panic!("a GET DATA frame named {other:?}"),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Recursive-halving children assignment for a binomial multicast over the
/// (deterministically ordered) destination list: returns `(child, subtree)`
/// pairs; depth is O(log n).
pub fn tree_children(dests: &[u32]) -> Vec<(u32, Vec<u32>)> {
    let mut out = Vec::new();
    let mut rest = dests;
    while !rest.is_empty() {
        let half = rest.len().div_ceil(2);
        let (a, b) = rest.split_at(half);
        out.push((a[0], a[1..].to_vec()));
        rest = b;
    }
    out
}

/// K-way children assignment over the (deterministically ordered)
/// destination list: chunk the list into `k` near-equal runs, each headed
/// by its first destination with the rest as that child's forward subtree.
/// `k = 2` matches the shape (though not the exact splits) of
/// [`tree_children`]; larger `k` trades depth for per-node fan-out.
pub fn tree_children_k(dests: &[u32], k: usize) -> Vec<(u32, Vec<u32>)> {
    assert!(k >= 2, "multicast tree arity must be at least 2 (got {k})");
    let mut out = Vec::new();
    let mut rest = dests;
    let mut ways = k.min(rest.len().max(1));
    while !rest.is_empty() {
        let chunk = rest.len().div_ceil(ways);
        let (a, b) = rest.split_at(chunk);
        out.push((a[0], a[1..].to_vec()));
        rest = b;
        ways = ways.saturating_sub(1).max(1);
    }
    out
}

/// Split a multicast destination list into child subtrees: k-way
/// ([`tree_children_k`]) when `multicast_k` names an arity, binomial
/// recursive halving ([`tree_children`]) otherwise: how the protocol's
/// announce and relay split a multicast on either substrate.
pub(crate) fn split_subtree(ids: &[u32], multicast_k: Option<usize>) -> Vec<(u32, Vec<u32>)> {
    match multicast_k {
        Some(k) => tree_children_k(ids, k),
        None => tree_children(ids),
    }
}

/// A GET DATA request: "send me version `v` now".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetRec {
    pub version: u64,
    pub activate_sent_at_ns: u64,
}

/// Callback data attached to the put, echoed to the target's one-sided
/// callback on data arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutCb {
    pub version: u64,
    pub activate_sent_at_ns: u64,
}

impl PutCb {
    /// Always immediate: 16 bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.version.to_le_bytes());
        b[8..].copy_from_slice(&self.activate_sent_at_ns.to_le_bytes());
        Bytes::inline(&b).expect("16 bytes fit the handle")
    }

    pub fn decode(b: &[u8]) -> Self {
        let (version, sent) = b.split_at(8);
        PutCb {
            version: u64::from_le_bytes(version.try_into().expect("torn put callback")),
            activate_sent_at_ns: u64::from_le_bytes(sent.try_into().expect("torn put callback")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Frames;

    fn multicast() -> ActivateRec {
        ActivateRec {
            version: 2,
            size: 200,
            priority: 7,
            sent_at_ns: 43,
            forward: vec![3, 9, 11],
        }
    }

    #[test]
    fn activate_records_roundtrip_aggregated() {
        let recs = [
            ActivateRec::direct(1, 100, -5, 42),
            multicast(),
            ActivateRec::direct(3, 300, 0, 44),
        ];
        // Engine-level aggregation: one frame per submission, in order.
        let mut slab = InFlight::default();
        let mut frames = Frames::new();
        for r in &recs {
            frames.push(slab.send(Record::Activate(r.clone())));
        }
        let got: Vec<_> = frames.iter().map(|f| slab.take_activate(f)).collect();
        assert_eq!(got, recs.to_vec());
        assert!(slab.is_empty(), "every record taken exactly once");
    }

    #[test]
    fn tree_children_cover_all_nodes_log_depth() {
        let dests: Vec<u32> = (1..=15).collect();
        fn depth(d: &[u32]) -> usize {
            tree_children(d)
                .iter()
                .map(|(_, sub)| 1 + depth(sub))
                .max()
                .unwrap_or(0)
        }
        fn collect(d: &[u32], out: &mut Vec<u32>) {
            for (c, sub) in tree_children(d) {
                out.push(c);
                collect(&sub, out);
            }
        }
        let mut all = Vec::new();
        collect(&dests, &mut all);
        all.sort_unstable();
        assert_eq!(all, dests, "every destination covered exactly once");
        assert!(depth(&dests) <= 4, "15 nodes within log2 depth");
    }

    #[test]
    fn tree_children_k_cover_all_nodes_bounded_fanout() {
        fn collect(d: &[u32], k: usize, out: &mut Vec<u32>) {
            let children = tree_children_k(d, k);
            assert!(children.len() <= k, "fan-out exceeds arity");
            for (c, sub) in children {
                out.push(c);
                collect(&sub, k, out);
            }
        }
        for k in [2, 3, 4, 8] {
            for n in [1u32, 2, 5, 15, 33] {
                let dests: Vec<u32> = (1..=n).collect();
                let mut all = Vec::new();
                collect(&dests, k, &mut all);
                all.sort_unstable();
                assert_eq!(all, dests, "k={k} n={n}: coverage broken");
            }
        }
    }

    #[test]
    fn get_and_putcb_roundtrip() {
        let g = GetRec {
            version: 9,
            activate_sent_at_ns: 1234,
        };
        let mut slab = InFlight::default();
        let frame = slab.send(Record::Get(g));
        assert_eq!(slab.take_get(&frame), g);
        let p = PutCb {
            version: 9,
            activate_sent_at_ns: 1234,
        };
        let b = p.encode();
        assert_eq!((b.len(), PutCb::decode(&b)), (16, p));
    }

    /// Every record travels as its 4-byte slot id, an immediate frame: no
    /// buffer to take or recycle, however long its forward list.
    #[test]
    fn records_that_fit_the_handle_take_no_buffer() {
        let mut slab = InFlight::default();
        let mut rec = multicast();
        rec.forward = (0..1000).collect();
        let frame = slab.send(Record::Activate(rec.clone()));
        assert_eq!(frame.len(), 4);
        assert_eq!(slab.take_activate(&frame), rec);
        assert!(frame.try_reclaim().is_err(), "nothing to recycle");
        assert!(PutCb::decode(
            &PutCb {
                version: 1,
                activate_sent_at_ns: 2
            }
            .encode()
        )
        .encode()
        .try_reclaim()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "torn slot frame")]
    fn torn_payload_detected() {
        InFlight::default().take_activate(&[0u8; 33]);
    }
}
