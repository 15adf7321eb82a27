//! # amt-netmodel
//!
//! A simulated cluster fabric: the hardware envelope over which the
//! communication libraries (`amt-minimpi`, `amt-lci`) run.
//!
//! ## Model
//!
//! Each node has one NIC with independent transmit and receive engines.
//! A message is segmented into chunks (default 64 KiB); the transmit engine
//! serves one chunk at a time at `1/bandwidth`, round-robining across
//! concurrently active transfers so a small control message is delayed by at
//! most one chunk of a bulk transfer (this is what gives the fabric a
//! *message-rate* ceiling distinct from its bandwidth ceiling). Chunks cross
//! the wire with a constant base latency — SDSC Expanse's hybrid fat tree is
//! close to non-blocking at the ≤32-node scale of the paper, so no
//! inter-switch contention is modelled — and are then serialized through the
//! receive engine; the last chunk's receive completion delivers the message
//! to the destination node's registered handler.
//!
//! Per-message and per-chunk fixed overheads model NIC/driver processing and
//! produce realistic small-message behaviour (the NetPIPE-like baseline curve
//! of Fig. 2a falls out of these three parameters).
//!
//! The fabric carries *real payloads* ([`Payload`]): raw bytes, or the
//! `u32` id of a protocol record the sending library keeps in its own slab
//! (`amt_simnet::Slab`) until the receiver processes it. Upper
//! layers exchange genuine data, so distributed computations are
//! numerically verifiable, and no message is a type-erased box.

mod config;
mod fabric;
mod pingpong;

pub use config::{FabricConfig, FatTreeConfig, Hop, Topology};
pub use fabric::{rx_handler, Delivery, Fabric, FabricHandle, MsgId, NodeId, Payload, RxHandler};
pub use pingpong::{raw_pingpong_gbps, raw_roundtrip_latency};

#[cfg(test)]
mod tests;
