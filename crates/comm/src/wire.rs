//! Put handshakes, and slot ids as wire frames.
//!
//! A put's handshake (transfer tag, size, remote callback id, callback data
//! and, for an eager put, its payload) is a typed record. It never becomes
//! bytes: the origin stores it in its world's handshake slab, sends only
//! the slot id as a 4-byte immediate frame ([`slot_frame`]), and the target
//! reads the id back ([`frame_slot`]) and takes the record out, its eager
//! payload and callback data moved, not copied. The runtime's ACTIVATE and
//! GET DATA records travel the same way. What the fabric is *charged* is
//! [`PutHandshake::wire_len`], the size of a real library's serialized
//! header, so virtual time does not depend on how the record travels. The
//! LCI backend can carry the put payload *eagerly* inside the handshake
//! (§5.3.3); in cost-only simulations the payload bytes are absent but
//! still counted on the wire.

use bytes::Bytes;

/// How the put payload travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EagerMode {
    /// Rendezvous: payload follows as a separate direct transfer.
    Rendezvous,
    /// Eager, cost-only: payload bytes simulated, wire size counted.
    EagerCostOnly,
    /// Eager with real payload bytes.
    EagerBytes(Bytes),
}

/// A put handshake in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct PutHandshake {
    /// Transfer tag: MPI data tag or LCI rendezvous tag.
    pub data_tag: u64,
    /// Payload size of the put.
    pub size: u64,
    /// Which registered one-sided callback to run at the target.
    pub r_tag: u64,
    /// Callback data for the remote completion.
    pub cb_data: Bytes,
    /// Payload transport mode.
    pub eager: EagerMode,
}

impl PutHandshake {
    /// Bytes of payload travelling inside the handshake.
    pub fn eager_len(&self) -> usize {
        match &self.eager {
            EagerMode::Rendezvous => 0,
            EagerMode::EagerCostOnly => self.size as usize,
            EagerMode::EagerBytes(b) => b.len(),
        }
    }

    /// Whether the payload rides in the handshake.
    pub fn is_eager(&self) -> bool {
        !matches!(self.eager, EagerMode::Rendezvous)
    }

    /// Charged wire length in bytes: a serialized header (three `u64`s, a
    /// `u32` callback-data length and a mode byte) plus the callback data
    /// and any eager payload.
    pub fn wire_len(&self) -> usize {
        8 + 8 + 8 + 4 + self.cb_data.len() + 1 + self.eager_len()
    }
}

/// A slot id as an immediate frame: 4 bytes inside the `Bytes` handle,
/// nothing allocated.
pub fn slot_frame(id: u32) -> Bytes {
    Bytes::inline(&id.to_le_bytes()).expect("4 bytes fit the handle")
}

/// The slot id a [`slot_frame`] carries.
pub fn frame_slot(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame.try_into().expect("torn slot frame"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_simnet::Slab;

    /// Through a slab by id, as the engine sends it: the same record comes
    /// back, payload and callback data included.
    fn trip(hs: PutHandshake) -> PutHandshake {
        let mut slab = Slab::default();
        let frame = slot_frame(slab.insert(hs));
        assert_eq!(frame.len(), 4);
        let hs = slab.take(frame_slot(&frame));
        assert!(slab.is_empty());
        assert!(frame.try_reclaim().is_err(), "an immediate frame");
        hs
    }

    #[test]
    fn roundtrip_rendezvous() {
        let hs = PutHandshake {
            data_tag: 0xdead_beef,
            size: 1 << 20,
            r_tag: 7,
            cb_data: Bytes::from_static(b"callback-data"),
            eager: EagerMode::Rendezvous,
        };
        // Three u64s, the u32 length, 13 callback bytes, the mode byte.
        assert_eq!(hs.wire_len(), 8 * 3 + 4 + 13 + 1);
        assert_eq!(trip(hs.clone()), hs);
        assert!(!hs.is_eager());
    }

    #[test]
    fn roundtrip_with_eager_payload() {
        let hs = PutHandshake {
            data_tag: 1,
            size: 5,
            r_tag: 2,
            cb_data: Bytes::new(),
            eager: EagerMode::EagerBytes(Bytes::from_static(b"tiny!")),
        };
        assert_eq!(hs.wire_len(), 8 * 3 + 4 + 1 + 5);
        let dec = trip(hs);
        assert!(dec.is_eager());
        assert_eq!(
            dec.eager,
            EagerMode::EagerBytes(Bytes::from_static(b"tiny!"))
        );
    }

    #[test]
    fn cost_only_eager_counts_wire_bytes() {
        let hs = PutHandshake {
            data_tag: 1,
            size: 4096,
            r_tag: 0,
            cb_data: Bytes::new(),
            eager: EagerMode::EagerCostOnly,
        };
        assert!(hs.wire_len() > 4096);
        // The frame is 4 bytes; the wire size is declared, not
        // materialized.
        let dec = trip(hs);
        assert_eq!(dec.eager, EagerMode::EagerCostOnly);
        assert_eq!(dec.eager_len(), 4096);
    }

    #[test]
    fn slot_frames_carry_any_id() {
        for id in [0, 1, 0x0102_0304, u32::MAX] {
            assert_eq!(frame_slot(&slot_frame(id)), id);
        }
    }
}
