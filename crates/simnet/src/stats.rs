//! Lightweight statistics collectors used across the workspace to measure
//! simulated quantities: message latencies, queue depths, utilizations.

use crate::time::SimTime;

/// A plain monotonically-increasing counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter(pub u64);

impl Counter {
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Roll back one increment (used by speculative-issue retry paths).
    #[inline]
    pub fn dec(&mut self) {
        debug_assert!(self.0 > 0, "counter underflow");
        self.0 -= 1;
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Streaming mean/variance/min/max over `f64` samples (Welford's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The statistics, in microseconds, of integer nanosecond samples given
    /// by their raw moments: `count`, `sum` = Σx, `sum_sq` = Σx², `min`
    /// and `max`. The spread is taken from the exact integer n·Σx² − (Σx)²
    /// while that fits in a `u128`, so it keeps the precision a float sum
    /// of squares would cancel away.
    pub fn from_moments(count: u64, sum: u64, sum_sq: u128, min: u64, max: u64) -> OnlineStats {
        if count == 0 {
            return OnlineStats::new();
        }
        let n = count as f64;
        // n·Σx² ≥ (Σx)² (Cauchy–Schwarz), so the square fits when this does.
        let m2 = match (count as u128).checked_mul(sum_sq) {
            Some(nq) => (nq - sum as u128 * sum as u128) as f64 / n,
            None => (sum_sq as f64 - sum as f64 * sum as f64 / n).max(0.0),
        };
        // ns → µs exactly as `SimTime::as_us_f64` does, so min and max
        // match a Welford series over the same samples bit for bit.
        OnlineStats {
            count,
            mean: sum as f64 / n * 1e-3,
            m2: m2 * 1e-6,
            min: min as f64 * 1e-3,
            max: max as f64 * 1e-3,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another collector into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. queue depth).
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    start: SimTime,
    peak: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new(SimTime::ZERO, 0.0)
    }
}

impl TimeWeighted {
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_t: start,
            last_v: initial,
            integral: 0.0,
            start,
            peak: initial,
        }
    }

    /// Record that the signal changed to `v` at time `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t, "time-weighted signal went backwards");
        self.integral += self.last_v * (t.saturating_sub(self.last_t)).as_secs_f64();
        self.last_t = t;
        self.last_v = v;
        self.peak = self.peak.max(v);
    }

    /// Adjust the signal by `dv` at time `t`.
    pub fn add(&mut self, t: SimTime, dv: f64) {
        let v = self.last_v + dv;
        self.set(t, v);
    }

    pub fn value(&self) -> f64 {
        self.last_v
    }

    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let span = now.saturating_sub(self.start).as_secs_f64();
        if span == 0.0 {
            self.last_v
        } else {
            let tail = self.last_v * now.saturating_sub(self.last_t).as_secs_f64();
            (self.integral + tail) / span
        }
    }
}

/// A power-of-two-bucket histogram for positive quantities (latency in ns,
/// message sizes in bytes).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0.0,
        }
    }

    fn bucket_of(x: u64) -> usize {
        if x == 0 {
            0
        } else {
            (64 - x.leading_zeros()) as usize
        }
    }

    pub fn record(&mut self, x: u64) {
        self.buckets[Self::bucket_of(x)] += 1;
        self.count += 1;
        self.sum += x as f64;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold another histogram into this one (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper bound of the bucket containing the q-quantile (0 ≤ q ≤ 1).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn online_stats_match_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn online_stats_merge_matches_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            all.record(x);
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn time_weighted_mean() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
        g.set(SimTime::from_s(1), 10.0); // 0 for 1s
        g.set(SimTime::from_s(3), 0.0); // 10 for 2s
                                        // mean over [0, 4s] = (0*1 + 10*2 + 0*1) / 4 = 5
        assert!((g.mean(SimTime::from_s(4)) - 5.0).abs() < 1e-12);
        assert_eq!(g.peak(), 10.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for x in 1..=1000u64 {
            h.record(x);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Median of 1..=1000 is ~500, bucket bound 512.
        assert_eq!(h.quantile_bound(0.5), 512);
        assert_eq!(h.quantile_bound(1.0), 1024);
    }

    #[test]
    fn histogram_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        let b = h.nonzero_buckets();
        assert_eq!(b, vec![(0, 1), (2, 1)]);
    }
}
