//! Measurement primitives shared by the experiment harnesses.
//!
//! Nothing here is fancy: a running mean/variance (Welford) and a
//! power-of-two bucket histogram for latency tails.

/// Running scalar summary using Welford's algorithm; O(1) memory.
#[derive(Clone, Debug)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

/// `Default` must agree with [`Summary::new`]: a zeroed `min`/`max` would
/// silently corrupt the extrema of whatever is recorded first (and of any
/// `merge` into a default-constructed summary).
impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }
    pub fn sum(&self) -> f64 {
        self.sum
    }
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Histogram with power-of-two buckets: bucket `i` holds values in
/// `[2^i, 2^(i+1))`, bucket 0 holds `[0, 2)`. Cheap, fixed-size, good enough
/// for latency tails in the provisioning and monitoring experiments.
#[derive(Clone, Debug)]
pub struct Log2Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0.0,
        }
    }

    fn bucket_for(value: f64) -> usize {
        if value < 2.0 {
            0
        } else {
            (value as u64).ilog2() as usize
        }
    }

    pub fn record(&mut self, value: f64) {
        debug_assert!(value >= 0.0);
        self.buckets[Self::bucket_for(value).min(63)] += 1;
        self.count += 1;
        self.sum += value;
    }

    pub fn count(&self) -> u64 {
        self.count
    }
    pub fn sum(&self) -> f64 {
        self.sum
    }
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Raw bucket counts; bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 is
    /// `[0, 2)`). Exposed for exporters and merge-invariant tests.
    pub fn bucket_counts(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Fold `other` into `self`. Bucket counts, totals and sums add
    /// exactly, so merging shards is equivalent to recording the
    /// concatenated observations (merging an empty histogram, in either
    /// direction, is a no-op on the other operand).
    pub fn merge(&mut self, other: &Log2Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper bound of the bucket containing the q-quantile (q in \[0,1\]).
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 2f64.powi(i as i32 + 1);
            }
        }
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Median of 1..1000 is ~500, bucket [256,512) → upper bound 512.
        assert_eq!(h.quantile_upper_bound(0.5), 512.0);
        assert!(h.quantile_upper_bound(1.0) >= 1000.0);
    }

    #[test]
    fn histogram_small_values() {
        let mut h = Log2Histogram::new();
        h.record(0.0);
        h.record(1.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_upper_bound(1.0), 2.0);
    }

    #[test]
    fn default_summary_matches_new() {
        // Regression: the derived Default used min = max = 0.0, so the
        // first recorded value never registered as the minimum.
        let mut s = Summary::default();
        s.record(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut a = Summary::new();
        for x in [3.0, 9.0] {
            a.record(x);
        }
        let before = (a.count(), a.mean(), a.min(), a.max());
        a.merge(&Summary::new());
        assert_eq!((a.count(), a.mean(), a.min(), a.max()), before);
        let mut empty = Summary::default();
        empty.merge(&a);
        assert_eq!(empty.min(), 3.0);
        assert_eq!(empty.max(), 9.0);
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn histogram_merge_equals_concat() {
        let mut whole = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in 0..500 {
            let x = (v * 13 % 997) as f64;
            whole.record(x);
            if v % 3 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.bucket_counts(), whole.bucket_counts());
        assert!((a.sum() - whole.sum()).abs() < 1e-9);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile_upper_bound(q), whole.quantile_upper_bound(q));
        }
    }

    #[test]
    fn histogram_merge_empty_edge_cases() {
        let mut empty = Log2Histogram::new();
        let mut other = Log2Histogram::new();
        other.record(17.0);
        empty.merge(&other); // empty ← non-empty
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 17.0);
        other.merge(&Log2Histogram::new()); // non-empty ← empty
        assert_eq!(other.count(), 1);
        let mut e1 = Log2Histogram::new();
        e1.merge(&Log2Histogram::new()); // empty ← empty
        assert_eq!(e1.count(), 0);
        assert_eq!(e1.quantile_upper_bound(0.5), 0.0);
    }
}
