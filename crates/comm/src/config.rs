//! Communication-engine configuration.

use amt_simnet::SimTime;

/// Which communication library backs the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// MiniMPI two-sided backend (§4.2).
    Mpi,
    /// LCI backend with a dedicated progress thread (§5.3).
    Lci,
    /// LCI backend using the §7 direct put: a single one-sided RDMA write
    /// with an immediate-data completion descriptor replaces the
    /// handshake + rendezvous emulation for large puts.
    LciDirect,
}

impl BackendKind {
    /// All backends, in presentation order (MPI, LCI, LCI direct-put).
    pub const ALL: [BackendKind; 3] = [BackendKind::Mpi, BackendKind::Lci, BackendKind::LciDirect];

    /// Command-line spelling (`--backend` flags in the bench harnesses).
    pub fn cli_name(&self) -> &'static str {
        match self {
            BackendKind::Mpi => "mpi",
            BackendKind::Lci => "lci",
            BackendKind::LciDirect => "lci-direct",
        }
    }

    /// Parse a command-line spelling. Accepts the `cli_name` forms plus a
    /// couple of common aliases.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "mpi" => Some(BackendKind::Mpi),
            "lci" => Some(BackendKind::Lci),
            "lci-direct" | "lci_direct" | "lcidirect" | "direct" => Some(BackendKind::LciDirect),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Mpi => write!(f, "Open MPI (modelled)"),
            BackendKind::Lci => write!(f, "LCI"),
            BackendKind::LciDirect => write!(f, "LCI direct-put"),
        }
    }
}

/// Persistent receives posted per registered AM tag (MPI backend; the
/// paper's implementation uses five).
pub const AM_RECV_DEPTH: usize = 5;
/// AM completions processed per communication-thread round before the
/// bulk-data queue is drained (LCI backend; the paper uses five).
pub const AM_BATCH: usize = 5;
/// CPU cost of dequeueing/bookkeeping one submitted command on the
/// communication thread.
pub(crate) const CMD_OVERHEAD: SimTime = SimTime::from_ns(100);
/// CPU cost of popping one completion-FIFO entry (LCI backend).
pub(crate) const FIFO_POP: SimTime = SimTime::from_ns(40);
/// Latency for an idle polling thread to notice new work (poll-loop
/// granularity).
pub(crate) const WAKE_LATENCY: SimTime = SimTime::from_ns(100);

/// Engine parameters. Defaults reproduce the paper's configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub backend: BackendKind,
    /// Maximum concurrently polled data transfers, sends plus receives
    /// (MPI backend; the paper's implementation uses 30).
    pub max_concurrent_transfers: usize,
    /// Puts at or below this size ride eagerly inside the LCI handshake
    /// message (§5.3.3 optimization). The direct-put backend uses the same
    /// threshold: payloads under it stay inline in the buffered message.
    pub eager_put_max: usize,
    /// Aggregate funneled AMs to the same (destination, tag) up to this many
    /// payload bytes (§4.3 duty #1). Set to 0 to disable aggregation.
    pub agg_max_bytes: usize,
    /// Engine-level AM batching: coalesce records addressed to the same
    /// `(destination, tag)` into one wire message, rate-limiting each link
    /// to one message per window under sustained traffic. A record to a
    /// link that has been quiet for at least a window flushes at the end
    /// of the current virtual instant (no added latency; a burst issued in
    /// one callback still coalesces); a record to a hot link is held until
    /// a full window has passed since the link's previous flush, or until
    /// it holds `agg_max_bytes` payload bytes. `0` (the default) disables
    /// the batching layer entirely — every submission follows the classic
    /// funnel path and flushes immediately, preserving the pre-batching
    /// schedule byte for byte.
    pub batch_window_ns: u64,
    /// Multithreaded-ACTIVATE mode: workers send AMs directly instead of
    /// funneling through the communication thread (§6.4.3).
    pub multithread_am: bool,
    /// Ablation: run `LCI_progress` on the *communication* thread's core
    /// instead of a dedicated progress thread — undoing the §5.3.1 design
    /// so its benefit can be isolated.
    pub lci_shared_progress: bool,
    /// §7 future work: number of LCI progress threads (cores). More threads
    /// drain completions concurrently under heavy load.
    pub lci_progress_threads: usize,
    /// Record a Chrome-trace timeline of the communication/progress threads
    /// (spans, flow arrows, queue-depth counters). Off by default: when
    /// disabled every trace call is a no-op.
    pub trace: bool,
    /// Record per-stage message-lifecycle latency histograms
    /// (`submit → aggregate → inject → wire → deliver → callback`) into the
    /// engine's [`amt_simnet::MetricsRegistry`]. Off by default.
    pub metrics: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            backend: BackendKind::Lci,
            max_concurrent_transfers: 30,
            eager_put_max: 4096,
            agg_max_bytes: 8192,
            batch_window_ns: 0,
            multithread_am: false,
            lci_shared_progress: false,
            lci_progress_threads: 1,
            trace: false,
            metrics: false,
        }
    }
}

impl EngineConfig {
    pub fn mpi() -> Self {
        EngineConfig {
            backend: BackendKind::Mpi,
            ..Default::default()
        }
    }

    pub fn lci() -> Self {
        EngineConfig {
            backend: BackendKind::Lci,
            ..Default::default()
        }
    }

    /// §7 direct-put configuration: LCI with `putd` replacing the
    /// handshake emulation.
    pub fn lci_direct() -> Self {
        EngineConfig {
            backend: BackendKind::LciDirect,
            ..Default::default()
        }
    }

    /// One default configuration per backend, in `BackendKind::ALL` order.
    pub fn all_backends() -> [EngineConfig; 3] {
        BackendKind::ALL.map(|backend| EngineConfig {
            backend,
            ..Default::default()
        })
    }

    /// Build a configuration for an arbitrary backend kind.
    pub fn for_backend(backend: BackendKind) -> Self {
        EngineConfig {
            backend,
            ..Default::default()
        }
    }

    /// Enable the §6.4.3 multithreaded-ACTIVATE mode.
    pub fn with_multithread_am(mut self, on: bool) -> Self {
        self.multithread_am = on;
        self
    }

    /// Enable trace recording and/or metrics collection.
    pub fn with_observability(mut self, trace: bool, metrics: bool) -> Self {
        self.trace = trace;
        self.metrics = metrics;
        self
    }

    /// Enable the engine-level AM batching layer: hold same-destination
    /// records for up to `window_ns` of virtual time, flushing early once
    /// a buffer holds `agg_max_bytes` payload bytes. A zero window means
    /// flush-immediately, i.e. batching disabled.
    pub fn with_batching(mut self, window_ns: u64) -> Self {
        self.batch_window_ns = window_ns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::mpi();
        assert_eq!(c.max_concurrent_transfers, 30);
        assert!(!c.multithread_am);
        // Batching is off by default: zero window = flush-immediately.
        assert_eq!(c.batch_window_ns, 0);
    }

    #[test]
    fn batching_builder_and_threshold_fallback() {
        let c = EngineConfig::lci().with_batching(5_000);
        assert_eq!(c.batch_window_ns, 5_000);
        assert_eq!(c.with_batching(0).batch_window_ns, 0);
    }

    #[test]
    fn builders() {
        assert_eq!(EngineConfig::lci().backend, BackendKind::Lci);
        assert_eq!(EngineConfig::lci_direct().backend, BackendKind::LciDirect);
        assert!(EngineConfig::mpi().with_multithread_am(true).multithread_am);
        assert_eq!(format!("{}", BackendKind::Lci), "LCI");
        assert_eq!(format!("{}", BackendKind::LciDirect), "LCI direct-put");
    }

    #[test]
    fn cli_names_roundtrip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.cli_name()), Some(b));
        }
        assert_eq!(
            BackendKind::parse("LCI-Direct"),
            Some(BackendKind::LciDirect)
        );
        assert_eq!(BackendKind::parse("nonsense"), None);
    }
}
