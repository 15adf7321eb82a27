//! Self-tuning comm-engine controller: per-destination AIMD adaptation of
//! the eager-put threshold.
//!
//! The LCI v2 line of work argues the eager/rendezvous threshold must track
//! the workload, not a static config. Rendezvous puts that would have fit
//! under the eager ceiling are *near misses* — each one paid an RTS/RTR
//! round trip a buffered send would have avoided. A near-miss epoch raises
//! the destination's threshold additively; packet-pool back-pressure (send
//! retries, deferred puts) cuts it multiplicatively.
//!
//! Decisions are keyed to `(node, epoch)` where `epoch = now / epoch_ns`
//! in **virtual time**: every signal is node-local and per-node event
//! order is byte-reproducible at any `--jobs` count, so an adaptive run is
//! exactly as deterministic as a static one. Epochs are evaluated lazily
//! on the submission paths — the controller schedules no events of its
//! own, so quiescence detection sees an unchanged simulation.

use std::collections::HashMap;

use amt_netmodel::NodeId;

/// Eager-put threshold floor, bytes.
pub const EAGER_MIN: u64 = 1024;
/// Eager-put threshold ceiling, bytes. `LciCosts::buf_max` is 12 KiB
/// (asserted by `sendb`) and the put handshake adds a ~32-byte header:
/// stay safely inside it.
pub const EAGER_MAX: u64 = 12 * 1024 - 256;
/// Additive raise per near-miss epoch, bytes.
pub const EAGER_STEP: u64 = 2048;

/// Controller parameters. The default keeps the controller **off**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneConfig {
    /// Master switch. Off ⇒ the eager threshold stays at its static
    /// configuration and the engine's behaviour is byte-identical to a
    /// build without the controller.
    pub enabled: bool,
    /// Adaptation cadence: decisions fire on the first submission after
    /// each `epoch_ns` boundary (virtual ns).
    pub epoch_ns: u64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            enabled: false,
            epoch_ns: 200_000,
        }
    }
}

impl TuneConfig {
    /// An enabled controller with the default cadence.
    pub fn enabled() -> Self {
        TuneConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// One additive-increase / multiplicative-decrease step: `cut` halves the
/// value (it wins over `raise`), `raise` adds `step`; the result is clamped
/// to `[min, max]`.
pub fn aimd_step(value: u64, raise: bool, cut: bool, step: u64, min: u64, max: u64) -> u64 {
    let v = if cut {
        value / 2
    } else if raise {
        value.saturating_add(step)
    } else {
        value
    };
    v.clamp(min, max)
}

/// Per-destination adaptive state plus its epoch accumulators.
#[derive(Debug, Clone)]
struct LinkState {
    /// Current eager-put ceiling for this destination, bytes.
    eager: u64,
    /// Epoch accumulators, reset at every decision.
    near_miss: u64,
    pressure: u64,
}

/// Lifetime adaptation-event counts, surfaced as `tune.*` counters in
/// `metrics_report` (all zeros when the controller is off).
#[derive(Debug, Clone, Copy, Default)]
pub struct TuneEvents {
    pub epochs: u64,
    pub eager_raise: u64,
    pub eager_cut: u64,
}

/// The per-engine (per-node) controller. Owned by `CommEngine` behind a
/// `RefCell`; every method is cheap and allocation-free on the hot path.
#[derive(Debug)]
pub struct Tuner {
    epoch_ns: u64,
    /// Static starting point, copied from the engine configuration.
    base_eager: u64,
    /// Index of the last epoch a decision ran for.
    epoch: u64,
    links: HashMap<NodeId, LinkState>,
    pub events: TuneEvents,
}

impl Tuner {
    pub fn new(cfg: &TuneConfig, eager_put_max: usize) -> Self {
        Tuner {
            epoch_ns: cfg.epoch_ns,
            base_eager: (eager_put_max as u64).clamp(EAGER_MIN, EAGER_MAX),
            epoch: 0,
            links: HashMap::new(),
            events: TuneEvents::default(),
        }
    }

    fn link(&mut self, dst: NodeId) -> &mut LinkState {
        let eager = self.base_eager;
        self.links.entry(dst).or_insert_with(|| LinkState {
            eager,
            near_miss: 0,
            pressure: 0,
        })
    }

    /// Current eager-put ceiling towards `dst`, bytes.
    pub fn eager_put_max(&self, dst: NodeId) -> usize {
        self.links.get(&dst).map_or(self.base_eager, |l| l.eager) as usize
    }

    /// Account one put submission towards `dst`. A rendezvous put that
    /// would have fit under the adaptive ceiling is a near miss — the
    /// raise signal for the eager threshold.
    pub fn note_put(&mut self, dst: NodeId, size: usize) {
        let l = self.link(dst);
        if (size as u64) > l.eager && (size as u64) <= EAGER_MAX {
            l.near_miss += 1;
        }
    }

    /// Account back-pressure towards `dst`: a backend send retry or a
    /// deferred transfer. The multiplicative-decrease signal.
    pub fn note_pressure(&mut self, dst: NodeId) {
        self.link(dst).pressure += 1;
    }

    /// Lazily advance to the epoch containing `now_ns`, running one AIMD
    /// decision round if a boundary was crossed. Returns `true` when a
    /// decision round ran.
    pub fn maybe_epoch(&mut self, now_ns: u64) -> bool {
        let e = now_ns / self.epoch_ns;
        if e <= self.epoch {
            return false;
        }
        self.epoch = e;
        self.events.epochs += 1;
        for l in self.links.values_mut() {
            let next = aimd_step(
                l.eager,
                l.near_miss > 0,
                l.pressure > 0,
                EAGER_STEP,
                EAGER_MIN,
                EAGER_MAX,
            );
            match next.cmp(&l.eager) {
                std::cmp::Ordering::Greater => self.events.eager_raise += 1,
                std::cmp::Ordering::Less => self.events.eager_cut += 1,
                std::cmp::Ordering::Equal => {}
            }
            l.eager = next;
            l.near_miss = 0;
            l.pressure = 0;
        }
        true
    }

    /// Aggregate event counters plus the current per-destination
    /// thresholds, named for `metrics_report`. Per-destination entries
    /// carry the owning node in the name so cross-node registry merges stay
    /// meaningful; they are sorted for stable output.
    pub fn report_counters(&self, node: NodeId) -> Vec<(String, u64)> {
        let mut out = vec![
            ("tune.epochs".to_string(), self.events.epochs),
            ("tune.eager_raise".to_string(), self.events.eager_raise),
            ("tune.eager_cut".to_string(), self.events.eager_cut),
        ];
        let mut dsts: Vec<_> = self.links.keys().copied().collect();
        dsts.sort_unstable();
        for d in dsts {
            let l = &self.links[&d];
            out.push((format!("tune.n{node}.d{d}.eager_put_max"), l.eager));
        }
        out
    }

    /// The aggregate counter names, all zero — what `metrics_report` shows
    /// when the controller is off.
    pub fn zero_counters() -> Vec<(String, u64)> {
        ["tune.epochs", "tune.eager_raise", "tune.eager_cut"]
            .iter()
            .map(|n| (n.to_string(), 0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_cut_wins_and_clamps() {
        assert_eq!(aimd_step(100, true, false, 10, 0, 1000), 110);
        assert_eq!(aimd_step(100, true, true, 10, 0, 1000), 50);
        assert_eq!(aimd_step(100, false, true, 10, 80, 1000), 80);
        assert_eq!(aimd_step(995, true, false, 10, 0, 1000), 1000);
        assert_eq!(aimd_step(0, false, false, 10, 0, 1000), 0);
    }

    #[test]
    fn near_misses_raise_eager_until_pressure_cuts() {
        let cfg = TuneConfig::enabled();
        let mut t = Tuner::new(&cfg, 4096);
        // Epoch 1: 6 KiB rendezvous puts are near misses → raise.
        t.note_put(1, 6 * 1024);
        assert!(t.maybe_epoch(cfg.epoch_ns + 1));
        assert_eq!(t.eager_put_max(1), 4096 + EAGER_STEP as usize);
        // Same epoch index: no second decision.
        assert!(!t.maybe_epoch(cfg.epoch_ns + 2));
        // Back-pressure halves, clamped to the floor.
        t.note_pressure(1);
        t.maybe_epoch(2 * cfg.epoch_ns + 1);
        assert_eq!(t.eager_put_max(1), (4096 + EAGER_STEP as usize) / 2);
        assert_eq!(t.events.eager_raise, 1);
        assert_eq!(t.events.eager_cut, 1);
        // Untouched destinations stay at the static base.
        assert_eq!(t.eager_put_max(9), 4096);
    }

    #[test]
    fn eager_converges_just_past_the_observed_mode() {
        let cfg = TuneConfig::enabled();
        let mut t = Tuner::new(&cfg, 4096);
        for e in 1..=16 {
            t.note_put(2, 8 * 1024);
            t.maybe_epoch(e * cfg.epoch_ns + 1);
        }
        // 4096 → 6144 → 8192; at 8192 an 8 KiB put is no longer a near
        // miss, so the threshold settles exactly where it covers the mode
        // instead of running to the ceiling.
        assert_eq!(t.eager_put_max(2), 8 * 1024);
        t.note_put(2, 8 * 1024);
        t.maybe_epoch(20 * cfg.epoch_ns + 1);
        assert_eq!(t.eager_put_max(2), 8 * 1024);
    }

    #[test]
    fn oversize_puts_are_not_near_misses() {
        let cfg = TuneConfig::enabled();
        let mut t = Tuner::new(&cfg, 4096);
        // A put beyond any eager ceiling can never go eager: no raise.
        t.note_put(1, 1 << 20);
        t.maybe_epoch(cfg.epoch_ns + 1);
        assert_eq!(t.eager_put_max(1), 4096);
    }

    #[test]
    fn report_counters_are_stable_and_node_scoped() {
        let cfg = TuneConfig::enabled();
        let mut t = Tuner::new(&cfg, 4096);
        t.note_put(2, 6 * 1024);
        t.note_put(1, 6 * 1024);
        t.maybe_epoch(cfg.epoch_ns + 1);
        let c = t.report_counters(7);
        let names: Vec<&str> = c.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"tune.epochs"));
        // Destinations sorted regardless of observation order.
        let d1 = names.iter().position(|n| *n == "tune.n7.d1.eager_put_max");
        let d2 = names.iter().position(|n| *n == "tune.n7.d2.eager_put_max");
        assert!(d1.unwrap() < d2.unwrap());
        assert_eq!(c, t.report_counters(7));
        // The off-state shape: aggregate names, all zero.
        assert!(Tuner::zero_counters().iter().all(|(_, v)| *v == 0));
    }
}
