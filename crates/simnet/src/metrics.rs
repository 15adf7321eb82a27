//! A mergeable registry of named counters and latency histograms, plus the
//! two-signal time integrator behind the computation/communication overlap
//! metric.
//!
//! [`MetricsRegistry`] is the per-node sink the communication engine records
//! message-lifecycle stages into; registries merge across nodes and
//! serialize to *stable* JSON (BTreeMap ordering, integer nanoseconds) so
//! two identical simulated runs produce byte-identical reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Histogram;
use crate::time::SimTime;
use crate::trace::json_escape;

/// Named counters + histograms, recorded per node and merged for reports.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new(enabled: bool) -> Self {
        MetricsRegistry {
            enabled,
            ..Default::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `n` to the named counter (no-op when disabled). The key is
    /// allocated only when the name is new.
    pub fn count(&mut self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Record a sample into the named histogram (no-op when disabled). The
    /// key is allocated only when the name is new.
    pub fn record(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        match self.hists.get_mut(name) {
            Some(h) => h.record(value),
            None => self
                .hists
                .entry(name.to_string())
                .or_default()
                .record(value),
        }
    }

    /// Record a virtual duration in nanoseconds (no-op when disabled).
    pub fn record_time(&mut self, name: &str, t: SimTime) {
        self.record(name, t.as_ns());
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Fold another registry into this one (cross-node merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Append the stable JSON object body (counters + histograms) to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str(r#"{"counters":{"#);
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, r#""{}":{}"#, json_escape(k), v);
        }
        out.push_str(r#"},"histograms":{"#);
        first = true;
        for (k, h) in &self.hists {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                r#""{}":{{"count":{},"sum":{},"p50":{},"p99":{},"buckets":["#,
                json_escape(k),
                h.count(),
                h.sum() as u64,
                h.quantile_bound(0.5),
                h.quantile_bound(0.99),
            );
            let mut bfirst = true;
            for (bound, count) in h.nonzero_buckets() {
                if !bfirst {
                    out.push(',');
                }
                bfirst = false;
                let _ = write!(out, "[{bound},{count}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }

    /// Stable JSON serialization of this registry alone.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Per-node two-signal time integrator for the Fig. 3 overlap metric:
/// how much of the time a node spends receiving bulk data over the wire is
/// concurrent with at least one busy worker on that node.
///
/// Integration is in integer nanoseconds, so the resulting fractions are
/// bit-reproducible across identical runs.
#[derive(Debug, Default, Clone)]
pub struct OverlapTracker {
    nodes: Vec<NodeOverlap>,
}

#[derive(Debug, Default, Clone)]
struct NodeOverlap {
    last_t: SimTime,
    wire: u32,
    busy: u32,
    wire_time: SimTime,
    overlap_time: SimTime,
    busy_time: SimTime,
}

impl NodeOverlap {
    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last_t);
        self.last_t = now;
        if dt == SimTime::ZERO {
            return;
        }
        if self.wire > 0 {
            self.wire_time += dt;
            if self.busy > 0 {
                self.overlap_time += dt;
            }
        }
        if self.busy > 0 {
            self.busy_time += dt;
        }
    }
}

impl OverlapTracker {
    pub fn new(nodes: usize) -> Self {
        OverlapTracker {
            nodes: vec![NodeOverlap::default(); nodes],
        }
    }

    /// A wire transfer towards `node` started (`delta = 1`) or finished
    /// (`delta = -1`) at `now`.
    pub fn wire_add(&mut self, node: usize, now: SimTime, delta: i32) {
        let n = &mut self.nodes[node];
        n.advance(now);
        n.wire = n.wire.checked_add_signed(delta).expect("wire underflow");
    }

    /// A worker on `node` became busy (`delta = 1`) or idle (`delta = -1`)
    /// at `now`.
    pub fn busy_add(&mut self, node: usize, now: SimTime, delta: i32) {
        let n = &mut self.nodes[node];
        n.advance(now);
        n.busy = n.busy.checked_add_signed(delta).expect("busy underflow");
    }

    /// Total (wire, overlapped) time across all nodes, integrated up to
    /// `now`.
    pub fn totals(&self, now: SimTime) -> (SimTime, SimTime) {
        let mut wire = SimTime::ZERO;
        let mut overlap = SimTime::ZERO;
        for n in &self.nodes {
            let mut n = n.clone();
            n.advance(now);
            wire += n.wire_time;
            overlap += n.overlap_time;
        }
        (wire, overlap)
    }

    /// Fraction of wire-transfer time concurrent with worker compute on the
    /// receiving node, in `[0, 1]`; 0 when no wire time was observed.
    pub fn fraction(&self, now: SimTime) -> f64 {
        let (wire, overlap) = self.totals(now);
        if wire == SimTime::ZERO {
            0.0
        } else {
            overlap.as_ns() as f64 / wire.as_ns() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = MetricsRegistry::new(false);
        r.count("x", 3);
        r.record("h", 10);
        assert!(r.is_empty());
        assert_eq!(r.counter("x"), 0);
    }

    #[test]
    fn registry_merge_and_stable_json() {
        let mut a = MetricsRegistry::new(true);
        a.count("am.sent", 2);
        a.record("am.wire_ns", 100);
        let mut b = MetricsRegistry::new(true);
        b.count("am.sent", 3);
        b.count("put.done", 1);
        b.record("am.wire_ns", 900);
        a.merge(&b);
        assert_eq!(a.counter("am.sent"), 5);
        assert_eq!(a.counter("put.done"), 1);
        assert_eq!(a.hist("am.wire_ns").unwrap().count(), 2);
        let json = a.to_json();
        assert!(json.contains(r#""am.sent":5"#), "{json}");
        assert!(
            json.contains(r#""am.wire_ns":{"count":2,"sum":1000"#),
            "{json}"
        );
        // Stable: serializing twice is byte-identical.
        assert_eq!(json, a.to_json());
    }

    #[test]
    fn overlap_tracker_integrates_concurrency() {
        let mut o = OverlapTracker::new(2);
        let t = SimTime::from_us;
        // Node 0: wire [1, 5), busy [3, 9) → wire 4 us, overlap 2 us.
        o.wire_add(0, t(1), 1);
        o.busy_add(0, t(3), 1);
        o.wire_add(0, t(5), -1);
        o.busy_add(0, t(9), -1);
        // Node 1: wire [2, 4), never busy → wire 2 us, overlap 0.
        o.wire_add(1, t(2), 1);
        o.wire_add(1, t(4), -1);
        let (wire, overlap) = o.totals(t(10));
        assert_eq!(wire, t(6));
        assert_eq!(overlap, t(2));
        let f = o.fraction(t(10));
        assert!((f - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_counts_open_intervals_up_to_now() {
        let mut o = OverlapTracker::new(1);
        o.busy_add(0, SimTime::ZERO, 1);
        o.wire_add(0, SimTime::from_us(1), 1);
        // Neither signal closed: integrate up to `now`.
        let (wire, overlap) = o.totals(SimTime::from_us(3));
        assert_eq!(wire, SimTime::from_us(2));
        assert_eq!(overlap, SimTime::from_us(2));
        assert_eq!(o.fraction(SimTime::from_us(3)), 1.0);
    }
}
