//! Fabric configuration, with defaults calibrated to the paper's platform
//! (SDSC Expanse: 2×50 Gb/s HDR InfiniBand per node, hybrid fat tree).

use amt_simnet::SimTime;

/// Switch-level topology of the fabric.
///
/// `Flat` is the seed model: every pair of nodes is one constant-latency
/// wire apart and only the NICs contend (Expanse's hybrid fat tree is close
/// to non-blocking at the paper's ≤32-node scale). `FatTree` adds a
/// two-level hierarchy for wide clusters: nodes are grouped into contiguous
/// pods, intra-pod traffic behaves exactly like `Flat`, and cross-pod
/// traffic is serialized through the source pod's shared up-link, crosses
/// the spine with its own latency, and is serialized through the
/// destination pod's shared down-link before the last intra-pod hop.
#[derive(Debug, Clone)]
pub enum Topology {
    Flat,
    FatTree(FatTreeConfig),
}

/// Parameters of the two-level fat-tree topology.
#[derive(Debug, Clone)]
pub struct FatTreeConfig {
    /// Number of pods; nodes are assigned contiguously
    /// (`pod = node / ceil(nodes / pods)`).
    pub pods: usize,
    /// Shared per-pod up-link / down-link bandwidth in Gbit/s (each
    /// direction is an independent serial resource).
    pub link_bandwidth_gbps: f64,
    /// One-way latency across the spine (up-link exit → down-link entry).
    /// Must be nonzero: a post-spine arrival is always a strictly-future
    /// slot of the down-link calendar.
    pub spine_latency: SimTime,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig {
            pods: 2,
            // A pod shares 4 node-widths of up-link (8:1 oversubscription
            // at 32-node pods) — wide runs see realistic congestion.
            link_bandwidth_gbps: 400.0,
            spine_latency: SimTime::from_ns(600),
        }
    }
}

/// One hop of a routed message (diagnostics / routing proptests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    SrcNic(usize),
    PodUp(usize),
    Spine,
    PodDown(usize),
    DstNic(usize),
}

/// Hardware parameters of the simulated fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-direction NIC injection bandwidth in Gbit/s.
    /// Expanse: 2 × 50 Gb/s HDR links per node.
    pub nic_bandwidth_gbps: f64,
    /// One-way wire/switch latency (constant; the fat tree is treated as
    /// non-blocking at ≤32 nodes).
    pub wire_latency: SimTime,
    /// Segmentation chunk size in bytes. Bounds head-of-line blocking of
    /// control messages behind bulk transfers.
    pub chunk_bytes: usize,
    /// Fixed NIC/driver cost charged once per message on each side
    /// (message-rate ceiling).
    pub per_message_overhead: SimTime,
    /// Fixed cost charged per chunk on each side (DMA descriptor handling).
    pub per_chunk_overhead: SimTime,
    /// Switch-level topology. `Flat` (the default) is byte-identical to the
    /// seed model.
    pub topology: Topology,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            nodes: 2,
            nic_bandwidth_gbps: 100.0,
            wire_latency: SimTime::from_ns(800),
            chunk_bytes: 64 * 1024,
            per_message_overhead: SimTime::from_ns(250),
            per_chunk_overhead: SimTime::from_ns(40),
            topology: Topology::Flat,
        }
    }
}

impl FabricConfig {
    /// Expanse-like fabric with `nodes` nodes.
    pub fn expanse(nodes: usize) -> Self {
        FabricConfig {
            nodes,
            ..Default::default()
        }
    }

    /// Bytes per nanosecond of one NIC direction.
    #[inline]
    pub fn bytes_per_ns(&self) -> f64 {
        // Gbit/s == bits/ns; divide by 8 for bytes/ns.
        self.nic_bandwidth_gbps / 8.0
    }

    /// Pure serialization time of `bytes` through one NIC direction.
    #[inline]
    pub fn serialization_time(&self, bytes: usize) -> SimTime {
        SimTime::from_ns_f64(bytes as f64 / self.bytes_per_ns())
    }

    /// Serialization time of `bytes` through a shared pod link (fat tree).
    #[inline]
    pub fn link_time(&self, bytes: usize, gbps: f64) -> SimTime {
        SimTime::from_ns_f64(bytes as f64 / (gbps / 8.0))
    }

    /// Pod index of `node` under the fat-tree topology (0 under `Flat`).
    #[inline]
    pub fn pod_of(&self, node: usize) -> usize {
        match &self.topology {
            Topology::Flat => 0,
            Topology::FatTree(ft) => node / self.nodes.div_ceil(ft.pods),
        }
    }

    /// The deterministic route of a message, as a hop list. Intra-pod (and
    /// all `Flat`) traffic goes NIC → NIC; cross-pod traffic climbs the
    /// source pod's up-link, crosses the spine, and descends the
    /// destination pod's down-link.
    pub fn route(&self, src: usize, dst: usize) -> Vec<Hop> {
        let (sp, dp) = (self.pod_of(src), self.pod_of(dst));
        if sp == dp {
            vec![Hop::SrcNic(src), Hop::DstNic(dst)]
        } else {
            vec![
                Hop::SrcNic(src),
                Hop::PodUp(sp),
                Hop::Spine,
                Hop::PodDown(dp),
                Hop::DstNic(dst),
            ]
        }
    }

    /// Number of chunks a message of `bytes` occupies (at least 1).
    #[inline]
    pub fn chunks_of(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.chunk_bytes).max(1)
    }

    /// Lower-bound one-way delivery time for an isolated message of `bytes`
    /// (tx service + wire + rx service of the final chunk overlap-pipelined).
    pub fn ideal_one_way(&self, bytes: usize) -> SimTime {
        let chunks = self.chunks_of(bytes);
        let last_chunk = bytes - (chunks - 1) * self.chunk_bytes.min(bytes);
        // tx of whole message, then wire latency, then rx of the final chunk
        // (earlier chunks' rx overlaps with later chunks' tx).
        self.serialization_time(bytes)
            + self.per_message_overhead
            + self.per_chunk_overhead * chunks as u64
            + self.wire_latency
            + self.serialization_time(last_chunk)
            + self.per_message_overhead
            + self.per_chunk_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversion() {
        let cfg = FabricConfig::default();
        assert!((cfg.bytes_per_ns() - 12.5).abs() < 1e-12);
        // 125 KB at 12.5 B/ns = 10 us.
        assert_eq!(cfg.serialization_time(125_000), SimTime::from_us(10));
    }

    #[test]
    fn chunk_count() {
        let cfg = FabricConfig::default();
        assert_eq!(cfg.chunks_of(0), 1);
        assert_eq!(cfg.chunks_of(1), 1);
        assert_eq!(cfg.chunks_of(64 * 1024), 1);
        assert_eq!(cfg.chunks_of(64 * 1024 + 1), 2);
        assert_eq!(cfg.chunks_of(8 * 1024 * 1024), 128);
    }

    #[test]
    fn ideal_one_way_scales_with_size() {
        let cfg = FabricConfig::default();
        let small = cfg.ideal_one_way(64);
        let big = cfg.ideal_one_way(8 * 1024 * 1024);
        assert!(
            small < SimTime::from_us(2),
            "small message too slow: {small}"
        );
        // 8 MiB at 12.5 B/ns is ~671 us one way.
        assert!(
            big > SimTime::from_us(650) && big < SimTime::from_us(700),
            "{big}"
        );
    }
}
