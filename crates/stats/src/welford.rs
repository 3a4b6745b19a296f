//! Online mean/variance via Welford's algorithm.

/// Numerically stable online accumulator for mean, variance and extrema.
///
/// Proteus computes the RTT deviation `σ(RTT)` of every monitor interval
/// (Eq. 2 of the paper); doing so with a naive sum-of-squares is unstable
/// when RTTs are tens of milliseconds expressed in seconds, so the transport
/// layer feeds its samples through this accumulator instead.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples seen so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`, matching the paper's `σ(RTT)`
    /// definition); 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Resets the accumulator to its empty state.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n_total as f64;
        self.mean += delta * other.n as f64 / n_total as f64;
        self.n = n_total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_stats(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn single_sample() {
        let mut w = Welford::new();
        w.add(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), Some(3.5));
        assert_eq!(w.max(), Some(3.5));
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [0.030, 0.0312, 0.0351, 0.0298, 0.0334, 0.0366, 0.0307];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let (mean, var) = naive_stats(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn variance_divides_by_n() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0] {
            w.add(x);
        }
        assert!((w.variance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 30.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        b.add(1.0);
        b.add(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let empty = Welford::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut w = Welford::new();
        w.add(5.0);
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.min(), None);
    }

    #[test]
    fn stable_for_large_offsets() {
        // RTTs around 1e9 ns with tiny jitter: naive sum-of-squares would
        // lose all precision here.
        let mut w = Welford::new();
        for i in 0..1000 {
            w.add(1e9 + (i % 10) as f64);
        }
        assert!(w.variance() > 0.0);
        assert!(w.variance() < 100.0);
    }
}
