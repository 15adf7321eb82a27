//! Wire-record encodings for the runtime's protocol messages.
//!
//! ACTIVATE messages carry one record per announced dataflow; the
//! communication engine may aggregate several records to the same
//! destination into one wire message (§4.3), so records are fixed-size and
//! self-delimiting. Timestamps ride along so the receiver can measure
//! per-message and end-to-end latency exactly as the paper does (§6.1.3 —
//! our virtual clock is global, so no clock synchronization is required).
//!
//! Encoders pick the protocol by encoded length, as LCI does (DESIGN.md
//! §3.4): a record of at most [`Bytes::INLINE_CAP`] bytes — every GET DATA
//! and put-callback record, and every ACTIVATE without a forward list — is
//! *immediate*: it travels inside the `Bytes` handle, with no buffer to
//! take, count or recycle. Only multicast ACTIVATEs (≥ 38 B) are buffered.
//! What the fabric is *charged* is the wire sizes below, never the handle.

use bytes::{Buf, BufMut, Bytes, BytesMut, Frames};

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
    /// Fixed header bytes (excluding the forward list).
    pub const HDR_BYTES: usize = 34;

    pub fn direct(version: u64, size: u64, priority: i64, sent_at_ns: u64) -> Self {
        ActivateRec {
            version,
            size,
            priority,
            sent_at_ns,
            forward: Vec::new(),
        }
    }

    pub fn enc_len(&self) -> usize {
        Self::HDR_BYTES + 4 * self.forward.len()
    }

    pub fn encode_into(&self, b: &mut impl BufMut) {
        b.put_u64_le(self.version);
        b.put_u64_le(self.size);
        b.put_i64_le(self.priority);
        b.put_u64_le(self.sent_at_ns);
        b.put_u16_le(self.forward.len() as u16);
        for &n in &self.forward {
            b.put_u32_le(n);
        }
    }

    #[cfg(test)]
    pub fn decode_all(b: Bytes) -> Vec<ActivateRec> {
        Self::iter_frames(&Frames::One(b)).collect()
    }

    /// Decode an aggregated delivery frame by frame, one record at a time
    /// straight off the frames (nothing is allocated for a record without
    /// a forward list). Frames align to submission boundaries, so
    /// per-frame decoding yields exactly the records a decode of the
    /// concatenation would — without materializing the concatenation.
    pub fn iter_frames(f: &Frames) -> impl Iterator<Item = ActivateRec> + '_ {
        f.iter().flat_map(|frame| {
            let mut b: &[u8] = frame;
            std::iter::from_fn(move || b.has_remaining().then(|| Self::decode_one(&mut b)))
        })
    }

    fn decode_one(b: &mut &[u8]) -> ActivateRec {
        assert!(b.remaining() >= Self::HDR_BYTES, "torn ACTIVATE payload");
        let version = b.get_u64_le();
        let size = b.get_u64_le();
        let priority = b.get_i64_le();
        let sent_at_ns = b.get_u64_le();
        let n = b.get_u16_le() as usize;
        assert!(b.remaining() >= 4 * n, "torn ACTIVATE forward list");
        ActivateRec {
            version,
            size,
            priority,
            sent_at_ns,
            forward: (0..n).map(|_| b.get_u32_le()).collect(),
        }
    }

    /// Encode one record: immediate when it fits the handle (module
    /// docs), otherwise into a buffer from `take` — a pool's `take`, so
    /// steady-state multicast traffic reuses recycled arrival buffers.
    pub fn encode_one(&self, take: impl FnOnce(usize) -> BytesMut) -> Bytes {
        let len = self.enc_len();
        if len <= Bytes::INLINE_CAP {
            return immediate(len, |b| self.encode_into(b));
        }
        let mut b = take(len);
        self.encode_into(b.as_mut_vec());
        b.freeze()
    }
}

/// Encode a record of `len <= Bytes::INLINE_CAP` bytes on the stack into
/// an immediate `Bytes`.
fn immediate(len: usize, encode: impl FnOnce(&mut &mut [u8])) -> Bytes {
    let mut buf = [0u8; Bytes::INLINE_CAP];
    encode(&mut &mut buf[..len]);
    Bytes::inline(&buf[..len]).expect("caller checked the length")
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

impl GetRec {
    pub const ENC_BYTES: usize = 16;

    /// Always immediate: 16 bytes.
    pub fn encode(&self) -> Bytes {
        immediate(Self::ENC_BYTES, |b| {
            b.put_u64_le(self.version);
            b.put_u64_le(self.activate_sent_at_ns);
        })
    }

    #[cfg(test)]
    pub fn decode_all(b: Bytes) -> Vec<GetRec> {
        Self::iter_frames(&Frames::One(b)).collect()
    }

    /// Decode an aggregated delivery frame by frame (see
    /// [`ActivateRec::iter_frames`]).
    pub fn iter_frames(f: &Frames) -> impl Iterator<Item = GetRec> + '_ {
        f.iter().flat_map(|frame| {
            assert_eq!(frame.len() % Self::ENC_BYTES, 0, "torn GET DATA payload");
            frame.chunks_exact(Self::ENC_BYTES).map(|mut b| GetRec {
                version: b.get_u64_le(),
                activate_sent_at_ns: b.get_u64_le(),
            })
        })
    }
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
        immediate(16, |b| {
            b.put_u64_le(self.version);
            b.put_u64_le(self.activate_sent_at_ns);
        })
    }

    pub fn decode(mut b: &[u8]) -> Self {
        PutCb {
            version: b.get_u64_le(),
            activate_sent_at_ns: b.get_u64_le(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activate_records_roundtrip_aggregated() {
        let recs = [
            ActivateRec::direct(1, 100, -5, 42),
            ActivateRec {
                version: 2,
                size: 200,
                priority: 7,
                sent_at_ns: 43,
                forward: vec![3, 9, 11],
            },
        ];
        // Simulate engine-level aggregation: concatenated frames.
        let mut b = BytesMut::new();
        for r in &recs {
            r.encode_into(&mut b);
        }
        let dec = ActivateRec::decode_all(b.freeze());
        assert_eq!(dec, recs.to_vec());
    }

    #[test]
    fn frame_decode_matches_concatenated_decode() {
        let recs = [
            ActivateRec::direct(1, 100, -5, 42),
            ActivateRec {
                version: 2,
                size: 200,
                priority: 7,
                sent_at_ns: 43,
                forward: vec![3, 9, 11],
            },
            ActivateRec::direct(3, 300, 0, 44),
        ];
        // Zero-copy aggregation: one frame per submission.
        let mut frames = Frames::new();
        let mut concat = BytesMut::new();
        for r in &recs {
            frames.push(r.encode_one(BytesMut::with_capacity));
            r.encode_into(&mut concat);
        }
        assert_eq!(
            ActivateRec::iter_frames(&frames).collect::<Vec<_>>(),
            ActivateRec::decode_all(concat.freeze())
        );

        let gets = [
            GetRec {
                version: 1,
                activate_sent_at_ns: 10,
            },
            GetRec {
                version: 2,
                activate_sent_at_ns: 20,
            },
        ];
        let mut frames = Frames::new();
        let mut concat = BytesMut::new();
        for g in &gets {
            frames.push(g.encode());
            concat.put_slice(&g.encode());
        }
        assert_eq!(
            GetRec::iter_frames(&frames).collect::<Vec<_>>(),
            GetRec::decode_all(concat.freeze())
        );
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
        assert_eq!(GetRec::decode_all(g.encode()), vec![g]);
        let p = PutCb {
            version: 9,
            activate_sent_at_ns: 1234,
        };
        assert_eq!(PutCb::decode(&p.encode()), p);
    }

    /// The protocol is chosen by encoded length: up to the handle's 37
    /// bytes no buffer is asked for; one forward entry (38 B) is buffered.
    #[test]
    fn records_that_fit_the_handle_take_no_buffer() {
        let mut rec = ActivateRec::direct(7, 2048, -3, 99);
        assert!(rec.enc_len() <= Bytes::INLINE_CAP);
        let b = rec.encode_one(|_| panic!("an immediate record asked for a buffer"));
        assert_eq!(ActivateRec::decode_all(b.clone()), vec![rec.clone()]);
        assert!(b.try_reclaim().is_err(), "nothing to recycle");

        rec.forward.push(5);
        assert_eq!(rec.enc_len(), Bytes::INLINE_CAP + 1);
        let mut asked = None;
        let b = rec.encode_one(|n| {
            asked = Some(n);
            BytesMut::with_capacity(n)
        });
        assert_eq!(asked, Some(38));
        assert_eq!(ActivateRec::decode_all(b.clone()), vec![rec]);
        assert!(b.try_reclaim().is_ok(), "a buffered record recycles");
    }

    #[test]
    #[should_panic(expected = "torn ACTIVATE payload")]
    fn torn_payload_detected() {
        ActivateRec::decode_all(Bytes::from_static(&[0u8; 33]));
    }
}
