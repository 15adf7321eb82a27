//! Handshake encoding for put operations.
//!
//! Real backends serialize a small header (transfer tag, size, remote
//! callback id, callback data) into the handshake message; we do the same so
//! handshake wire sizes are honest. The LCI backend can additionally carry
//! the put payload *eagerly* inside the handshake (§5.3.3); in cost-only
//! simulations the payload bytes are absent but still counted on the wire.

use bytes::{Buf, BufMut, BufPool, Bytes};

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

/// Decoded put handshake.
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

    /// Encoded wire length in bytes (header + cb data + any eager payload).
    pub fn wire_len(&self) -> usize {
        8 + 8 + 8 + 4 + self.cb_data.len() + 1 + self.eager_len()
    }

    /// Encode into a buffer drawn from `pool` — steady-state handshake
    /// traffic then reuses recycled payload storage instead of allocating.
    pub fn encode_with(&self, pool: &BufPool) -> Bytes {
        let mut b = pool.take(self.wire_len().min(64 * 1024));
        self.encode_into(b.as_mut_vec());
        b.freeze()
    }

    fn encode_into(&self, b: &mut Vec<u8>) {
        b.put_u64_le(self.data_tag);
        b.put_u64_le(self.size);
        b.put_u64_le(self.r_tag);
        b.put_u32_le(self.cb_data.len() as u32);
        b.put_slice(&self.cb_data);
        match &self.eager {
            EagerMode::Rendezvous => b.put_u8(0),
            EagerMode::EagerCostOnly => b.put_u8(1),
            EagerMode::EagerBytes(e) => {
                debug_assert_eq!(e.len() as u64, self.size);
                b.put_u8(2);
                b.put_slice(e);
            }
        }
    }

    pub fn decode(mut b: Bytes) -> Self {
        let data_tag = b.get_u64_le();
        let size = b.get_u64_le();
        let r_tag = b.get_u64_le();
        let cb_len = b.get_u32_le() as usize;
        let cb_data = b.split_to(cb_len);
        let eager = match b.get_u8() {
            0 => EagerMode::Rendezvous,
            1 => EagerMode::EagerCostOnly,
            2 => EagerMode::EagerBytes(b.split_to(size as usize)),
            m => panic!("bad eager mode {m}"),
        };
        PutHandshake {
            data_tag,
            size,
            r_tag,
            cb_data,
            eager,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(hs: &PutHandshake) -> Bytes {
        hs.encode_with(&BufPool::new(4))
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
        let enc = encode(&hs);
        assert_eq!(enc.len(), hs.wire_len());
        assert_eq!(PutHandshake::decode(enc), hs);
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
        let enc = encode(&hs);
        assert_eq!(enc.len(), hs.wire_len());
        let dec = PutHandshake::decode(enc);
        assert_eq!(
            dec.eager,
            EagerMode::EagerBytes(Bytes::from_static(b"tiny!"))
        );
        assert!(dec.is_eager());
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
        // The encoded header is small; the wire size is declared, not
        // materialized.
        assert!(encode(&hs).len() < 100);
        let dec = PutHandshake::decode(encode(&hs));
        assert_eq!(dec.eager, EagerMode::EagerCostOnly);
        assert_eq!(dec.eager_len(), 4096);
    }
}
