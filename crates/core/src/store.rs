//! The per-node version store both substrates share: one state byte per
//! version (vacant → requested → present, with or without a payload), the
//! payloads, and the multicast forwards waiting for one. Its transitions
//! are the protocol's store transitions (`protocol::Port`), asserted the
//! same way on either substrate.

use amt_netmodel::NodeId;
use amt_simnet::FastMap;
use bytes::Bytes;

use crate::protocol::Forward;

const V_VACANT: u8 = 0;
const V_REQUESTED: u8 = 1;
const V_PRESENT: u8 = 2;
const V_PRESENT_DATA: u8 = 3;

/// Per-version state bytes: a byte per version (VersionIds are contiguous
/// indices), or — [`crate::ClusterConfig::flyweight`] — a hash map over
/// only the versions this node has actually touched, so per-node memory is
/// O(versions-seen-here) instead of O(all versions) × nodes. Both implement
/// the same state machine — scheduling is byte-identical.
enum VersionStates {
    Dense(Vec<u8>),
    Sparse(FastMap<usize, u8>),
}

/// One node's versions: state bytes, plus payload bytes in a side map for
/// the versions that carry them, plus the forwards of requested ones.
pub(crate) struct VersionStore {
    node: NodeId,
    state: VersionStates,
    payloads: FastMap<usize, Bytes>,
    /// Multicast subtrees to relay once the version's data arrives.
    forwards: FastMap<usize, Forward>,
}

impl VersionStore {
    pub(crate) fn new(node: NodeId, flyweight: bool) -> VersionStore {
        VersionStore {
            node,
            state: if flyweight {
                VersionStates::Sparse(FastMap::default())
            } else {
                VersionStates::Dense(Vec::new())
            },
            payloads: FastMap::default(),
            forwards: FastMap::default(),
        }
    }

    fn get(&self, v: usize) -> u8 {
        match &self.state {
            VersionStates::Dense(state) => state.get(v).copied().unwrap_or(V_VACANT),
            VersionStates::Sparse(state) => state.get(&v).copied().unwrap_or(V_VACANT),
        }
    }

    /// Any entry at all (Present *or* Requested)?
    pub(crate) fn exists(&self, v: usize) -> bool {
        self.get(v) != V_VACANT
    }

    pub(crate) fn is_present(&self, v: usize) -> bool {
        self.get(v) >= V_PRESENT
    }

    /// Write state byte `to` for `v`, returning the previous byte. The
    /// dense table grows on write (`get` reads past its end as vacant), so
    /// a node's table covers the versions it touched, not all that exist.
    fn set(&mut self, v: usize, to: u8) -> u8 {
        match &mut self.state {
            VersionStates::Dense(state) => {
                if state.len() <= v {
                    state.resize(v + 1, V_VACANT);
                }
                std::mem::replace(&mut state[v], to)
            }
            VersionStates::Sparse(state) => state.insert(v, to).unwrap_or(V_VACANT),
        }
    }

    /// Mark `v` present: it was `requested` here, or it arrives with its
    /// announce, is produced here or is initial data homed here.
    pub(crate) fn present(&mut self, v: usize, bytes: Option<Bytes>, requested: bool) {
        let prev = match bytes {
            Some(b) => {
                self.payloads.insert(v, b);
                self.set(v, V_PRESENT_DATA)
            }
            None => self.set(v, V_PRESENT),
        };
        let node = self.node;
        assert!(
            prev < V_PRESENT,
            "version {v} delivered twice to node {node}"
        );
        assert_eq!(prev == V_REQUESTED, requested, "version {v} at node {node}");
    }

    /// Mark `v` requested, keeping `forward` for its arrival.
    pub(crate) fn requested(&mut self, v: usize, forward: Option<Forward>) {
        let prev = self.set(v, V_REQUESTED);
        assert_eq!(prev, V_VACANT, "version {v} announced twice to one node");
        if let Some(f) = forward {
            self.keep_forward(v, f);
        }
    }

    /// Keep `forward` for the arrival of `v`, without recording the
    /// request.
    pub(crate) fn keep_forward(&mut self, v: usize, forward: Forward) {
        self.forwards.insert(v, forward);
    }

    /// Keep the payload of `v`, without recording its arrival.
    pub(crate) fn keep_payload(&mut self, v: usize, bytes: Bytes) {
        self.payloads.insert(v, bytes);
    }

    /// The forward kept for `v`, if any.
    pub(crate) fn take_forward(&mut self, v: usize) -> Option<Forward> {
        // Empty for every workload that doesn't use multicast trees.
        if self.forwards.is_empty() {
            return None;
        }
        self.forwards.remove(&v)
    }

    /// Payload bytes held for `v` (None for cost-only entries).
    pub(crate) fn payload(&self, v: usize) -> Option<&Bytes> {
        self.payloads.get(&v)
    }

    /// Payload of `v`, which the owner answering a GET must hold.
    pub(crate) fn held(&self, v: usize) -> Option<Bytes> {
        let held = self.payload(v).cloned();
        let node = self.node;
        assert!(
            held.is_some() || self.is_present(v),
            "GET for version {v} node {node} does not hold"
        );
        held
    }

    /// Take the payload of `v` out of the store, keeping a recorded
    /// arrival Present: a version that nothing here reads again gives its
    /// bytes back (windowed retirement, the real run's last reader).
    pub(crate) fn take_payload(&mut self, v: usize) -> Option<Bytes> {
        let bytes = self.payloads.remove(&v)?;
        if self.get(v) == V_PRESENT_DATA {
            self.set(v, V_PRESENT);
        }
        Some(bytes)
    }

    /// Every payload held here.
    pub(crate) fn into_payloads(self) -> impl Iterator<Item = (usize, Bytes)> {
        self.payloads.into_iter()
    }
}
