//! RTT estimation: smoothed RTT/variation (RFC 6298 style), a windowed
//! minimum and RFC 6817's per-minute base-delay history.

use std::collections::VecDeque;

use crate::time::{Dur, Time};

/// Kernel-style smoothed RTT estimator (`srtt`, `rttvar`) plus running
/// minimum and latest sample.
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt: Option<Dur>,
    rttvar: Dur,
    min_rtt: Option<Dur>,
    latest: Option<Dur>,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// Creates an estimator with no samples.
    pub fn new() -> Self {
        Self {
            srtt: None,
            rttvar: Dur::ZERO,
            min_rtt: None,
            latest: None,
        }
    }

    /// Feeds one RTT sample (RFC 6298 update with α=1/8, β=1/4).
    pub fn update(&mut self, rtt: Dur) {
        self.latest = Some(rtt);
        self.min_rtt = Some(match self.min_rtt {
            Some(m) if m <= rtt => m,
            _ => rtt,
        });
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = Dur::from_nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                let diff = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                // rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                self.rttvar = Dur::from_nanos((3 * self.rttvar.as_nanos() + diff.as_nanos()) / 4);
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some(Dur::from_nanos((7 * srtt.as_nanos() + rtt.as_nanos()) / 8));
            }
        }
    }

    /// Smoothed RTT, if any sample seen.
    pub fn srtt(&self) -> Option<Dur> {
        self.srtt
    }

    /// Smoothed RTT or a default.
    pub fn srtt_or(&self, default: Dur) -> Dur {
        self.srtt.unwrap_or(default)
    }

    /// RTT variation.
    pub fn rttvar(&self) -> Dur {
        self.rttvar
    }

    /// Minimum RTT observed over the flow's lifetime.
    pub fn min_rtt(&self) -> Option<Dur> {
        self.min_rtt
    }

    /// Most recent sample.
    pub fn latest(&self) -> Option<Dur> {
        self.latest
    }

    /// RFC 6298 retransmission timeout: `srtt + 4·rttvar`, floored at
    /// `min_rto`.
    pub fn rto(&self, min_rto: Dur) -> Dur {
        match self.srtt {
            None => min_rto,
            Some(srtt) => {
                let rto = srtt + Dur::from_nanos(4 * self.rttvar.as_nanos());
                if rto < min_rto {
                    min_rto
                } else {
                    rto
                }
            }
        }
    }
}

/// A windowed minimum filter: tracks the min of samples observed in the
/// trailing `window` of time (COPA's minimum and standing RTT).
#[derive(Debug, Clone, Copy)]
pub struct WindowedMin {
    window: Dur,
    estimate: Option<(Time, f64)>,
}

impl WindowedMin {
    /// Creates a filter with the given trailing window.
    pub fn new(window: Dur) -> Self {
        Self {
            window,
            estimate: None,
        }
    }

    /// Feeds a sample at `now`, returning the current windowed minimum.
    ///
    /// A sample replaces the estimate when it is lower *or* when the
    /// existing estimate has aged out of the window.
    pub fn update(&mut self, now: Time, sample: f64) -> f64 {
        match self.estimate {
            Some((at, best)) if best <= sample && now.since(at) <= self.window => best,
            _ => {
                self.estimate = Some((now, sample));
                sample
            }
        }
    }

    /// Current estimate; one that has aged out of the window is still
    /// returned until the next sample replaces it.
    pub fn get(&self) -> Option<f64> {
        self.estimate.map(|(_, best)| best)
    }

    /// Changes the window length.
    pub fn set_window(&mut self, window: Dur) {
        self.window = window;
    }
}

/// RFC 6817's base-delay history, as LEDBAT and Cross keep it: the minimum
/// delay sample of each of the last [`BUCKETS`](Self::BUCKETS) buckets of
/// [`BUCKET`](Self::BUCKET) length, so an estimate inflated by a route
/// change ages out after ten minutes.
#[derive(Debug, Clone, Default)]
pub struct BaseDelay {
    /// Per-bucket minima, seconds; the front is the current bucket.
    minima: VecDeque<f64>,
    /// When the current bucket started.
    bucket_started: Option<Time>,
}

impl BaseDelay {
    /// Length of one history bucket.
    pub const BUCKET: Dur = Dur::from_secs(60);
    /// Number of buckets kept (RFC 6817's base-history length).
    pub const BUCKETS: usize = 10;

    /// Feeds a delay sample (seconds) taken at `now`. A sample
    /// [`BUCKET`](Self::BUCKET) or more after the current bucket started
    /// opens a new bucket and drops the oldest beyond
    /// [`BUCKETS`](Self::BUCKETS).
    pub fn update(&mut self, now: Time, sample: f64) {
        match (self.bucket_started, self.minima.front_mut()) {
            (Some(started), Some(min)) if now.since(started) < Self::BUCKET => {
                if sample < *min {
                    *min = sample;
                }
            }
            _ => {
                self.bucket_started = Some(now);
                self.minima.push_front(sample);
                self.minima.truncate(Self::BUCKETS);
            }
        }
    }

    /// The base delay, seconds: the minimum over the kept buckets, `None`
    /// before the first sample.
    pub fn get(&self) -> Option<f64> {
        self.minima.iter().copied().reduce(f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srtt_initializes_and_smooths() {
        let mut e = RttEstimator::new();
        assert_eq!(e.srtt(), None);
        e.update(Dur::from_millis(100));
        assert_eq!(e.srtt(), Some(Dur::from_millis(100)));
        assert_eq!(e.rttvar(), Dur::from_millis(50));
        e.update(Dur::from_millis(50));
        // srtt = 7/8*100 + 1/8*50 = 93.75 ms
        assert_eq!(e.srtt().unwrap().as_nanos(), 93_750_000);
        assert_eq!(e.min_rtt(), Some(Dur::from_millis(50)));
        assert_eq!(e.latest(), Some(Dur::from_millis(50)));
    }

    #[test]
    fn min_rtt_is_monotone_decreasing() {
        let mut e = RttEstimator::new();
        for ms in [40, 30, 50, 35] {
            e.update(Dur::from_millis(ms));
        }
        assert_eq!(e.min_rtt(), Some(Dur::from_millis(30)));
    }

    #[test]
    fn rto_floor() {
        let mut e = RttEstimator::new();
        let floor = Dur::from_millis(200);
        assert_eq!(e.rto(floor), floor);
        e.update(Dur::from_millis(10));
        assert_eq!(e.rto(floor), floor); // 10 + 4*5 = 30ms < floor
        let mut big = RttEstimator::new();
        big.update(Dur::from_millis(300));
        // 300 + 4*150 = 900 ms
        assert_eq!(big.rto(floor), Dur::from_millis(900));
    }

    #[test]
    fn windowed_min_expires() {
        let mut f = WindowedMin::new(Dur::from_secs(10));
        assert_eq!(f.update(Time::from_secs_f64(0.0), 30.0), 30.0);
        assert_eq!(f.update(Time::from_secs_f64(1.0), 40.0), 30.0);
        assert_eq!(f.update(Time::from_secs_f64(2.0), 25.0), 25.0);
        // 11s later the 25.0 estimate has aged out; the new sample wins even
        // though it is larger.
        assert_eq!(f.update(Time::from_secs_f64(13.5), 60.0), 60.0);
    }

    #[test]
    fn get_and_reset() {
        let mut f = WindowedMin::new(Dur::from_secs(1));
        assert_eq!(f.get(), None);
        f.update(Time::ZERO, 3.0);
        assert_eq!(f.get(), Some(3.0));
        // Aged out but not yet replaced: still the estimate.
        assert_eq!(f.update(Time::from_millis(500), 4.0), 3.0);
        assert_eq!(f.get(), Some(3.0));
        // The first sample past the window resets it, even a higher one.
        assert_eq!(f.update(Time::from_millis(1_001), 5.0), 5.0);
        assert_eq!(f.get(), Some(5.0));
    }

    #[test]
    fn base_delay_keeps_ten_one_minute_minima() {
        let at = |ms: u64| Time::from_millis(ms);
        let mut b = BaseDelay::default();
        assert_eq!(b.get(), None);
        // The first bucket keeps its minimum up to 59.999 s.
        b.update(at(0), 5.0);
        b.update(at(30_000), 7.0);
        b.update(at(59_999), 3.0);
        assert_eq!(b.get(), Some(3.0));
        // A sample at exactly 60 s opens the second bucket; eight more
        // make ten, and the first bucket's 3.0 still rules.
        for k in 1..=9u64 {
            b.update(at(60_000 * k), 8.0 + k as f64);
            assert_eq!(b.get(), Some(3.0), "bucket {k}");
        }
        // The 11th bucket drops the first: the 60 s bucket's 9.0 is the
        // minimum now, and the next rollover drops it in turn.
        b.update(at(600_000), 20.0);
        assert_eq!(b.get(), Some(9.0));
        b.update(at(660_000), 20.0);
        assert_eq!(b.get(), Some(10.0));
    }
}
