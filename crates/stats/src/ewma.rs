//! Exponentially weighted moving averages and mean-deviation tracking.

/// A classic exponentially weighted moving average with smoothing factor
/// `alpha` (weight of the new sample).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with the given smoothing factor in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Feeds a sample; the first sample initializes the average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any sample has been observed.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Clears the average.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Tracks a smoothed mean and smoothed mean absolute deviation of a signal,
/// in the style of the Linux kernel's `srtt`/`rttvar` estimator.
///
/// The trending-tolerance mechanism of §5 keeps exactly this state for the
/// *trending gradient* and *trending deviation* signals: each fresh sample is
/// compared against `avg ± G·dev` to decide whether it is statistically
/// distinguishable from noise.
#[derive(Debug, Clone, Copy)]
pub struct MeanDeviationTracker {
    avg: Ewma,
    dev: Ewma,
}

impl MeanDeviationTracker {
    /// Creates a tracker with separate smoothing factors for the mean and the
    /// deviation (the kernel uses 1/8 and 1/4).
    pub fn new(alpha_avg: f64, alpha_dev: f64) -> Self {
        Self {
            avg: Ewma::new(alpha_avg),
            dev: Ewma::new(alpha_dev),
        }
    }

    /// Creates a tracker with the Linux kernel's 1/8, 1/4 gains.
    pub fn kernel_style() -> Self {
        Self::new(1.0 / 8.0, 1.0 / 4.0)
    }

    /// Feeds a sample, updating both the smoothed mean and deviation.
    pub fn update(&mut self, x: f64) {
        let prev_avg = self.avg.get();
        self.avg.update(x);
        match prev_avg {
            None => {
                // First sample: deviation starts at half the magnitude, like
                // the kernel initializes rttvar to rtt/2.
                self.dev.update(x.abs() / 2.0);
            }
            Some(avg) => {
                self.dev.update((x - avg).abs());
            }
        }
    }

    /// Smoothed mean, if initialized.
    pub fn avg(&self) -> Option<f64> {
        self.avg.get()
    }

    /// Smoothed mean absolute deviation, if initialized.
    pub fn dev(&self) -> Option<f64> {
        self.dev.get()
    }

    /// Whether `x` lies within `avg ± gain·dev`. Returns `false` before any
    /// sample has been observed (nothing to compare against), so the first
    /// samples are treated as significant.
    pub fn within_band(&self, x: f64, gain: f64) -> bool {
        match (self.avg.get(), self.dev.get()) {
            (Some(avg), Some(dev)) => (x - avg).abs() < gain * dev,
            _ => false,
        }
    }

    /// One-sided variant: whether `x - avg < gain·dev` (used for the
    /// trending-deviation gate, which only ignores *small* deviations).
    pub fn below_band(&self, x: f64, gain: f64) -> bool {
        match (self.avg.get(), self.dev.get()) {
            (Some(avg), Some(dev)) => x - avg < gain * dev,
            _ => false,
        }
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.avg.reset();
        self.dev.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.get(), Some(10.0));
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut e = Ewma::new(0.25);
        for _ in 0..100 {
            e.update(5.0);
        }
        assert!((e.get().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.update(1.0);
        e.update(9.0);
        assert_eq!(e.get(), Some(9.0));
    }

    #[test]
    #[should_panic]
    fn zero_alpha_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn tracker_constant_signal_dev_decays() {
        let mut t = MeanDeviationTracker::kernel_style();
        for _ in 0..200 {
            t.update(30.0);
        }
        assert!((t.avg().unwrap() - 30.0).abs() < 1e-6);
        assert!(t.dev().unwrap() < 0.1);
    }

    #[test]
    fn tracker_noisy_signal_has_positive_dev() {
        let mut t = MeanDeviationTracker::kernel_style();
        for i in 0..200 {
            t.update(if i % 2 == 0 { 28.0 } else { 32.0 });
        }
        let dev = t.dev().unwrap();
        assert!(dev > 1.0 && dev < 5.0, "dev = {dev}");
    }

    #[test]
    fn within_band_logic() {
        let mut t = MeanDeviationTracker::kernel_style();
        assert!(!t.within_band(1.0, 2.0));
        for i in 0..100 {
            t.update(10.0 + if i % 2 == 0 { 0.5 } else { -0.5 });
        }
        assert!(t.within_band(10.2, 2.0));
        assert!(!t.within_band(20.0, 2.0));
    }

    #[test]
    fn below_band_is_one_sided() {
        let mut t = MeanDeviationTracker::kernel_style();
        for _ in 0..50 {
            t.update(10.0);
        }
        // Far below the mean is "below band" even though |x-avg| is large.
        assert!(t.below_band(0.0, 1.0));
        assert!(!t.below_band(100.0, 1.0));
    }

    #[test]
    fn reset_clears() {
        let mut t = MeanDeviationTracker::kernel_style();
        t.update(5.0);
        t.reset();
        assert_eq!(t.avg(), None);
        assert_eq!(t.dev(), None);
    }
}
