//! Integer nanosecond time for deterministic simulation.
//!
//! All timestamps in the reproduction are integer nanoseconds since the start
//! of a simulation. Using integers (rather than `f64` seconds) keeps event
//! ordering exact and makes every experiment bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// `x.round() as u64` — half away from zero, saturating, negative and NaN
/// to 0 — in integer steps the compiler inlines: `f64::round` is an
/// out-of-line libm call on x86-64 without SSE4.1, and these conversions
/// run once or more per packet. The fraction `x - t` is exact (Sterbenz for
/// `x < 2^53`, zero above), so the comparison decides exactly as `round`.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Constructs from (possibly fractional) seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        Time(round_to_u64(s * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64` (for utility computations and reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`; saturates to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);
    /// The longest representable duration.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Constructs from fractional seconds (non-negative).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        Dur(round_to_u64(s * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Dur {
        debug_assert!(k >= 0.0 && k.is_finite());
        Dur(round_to_u64(self.0 as f64 * k))
    }

    /// Integer division of durations, as a float ratio.
    pub fn ratio(self, other: Dur) -> f64 {
        debug_assert!(other.0 > 0);
        self.0 as f64 / other.0 as f64
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, d: Dur) -> Time {
        Time(self.0.saturating_sub(d.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, d: Dur) -> Dur {
        Dur(self.0.saturating_add(d.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, d: Dur) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, d: Dur) -> Dur {
        Dur(self.0.saturating_sub(d.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, d: Dur) {
        self.0 = self.0.saturating_sub(d.0);
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Converts a transmission of `bytes` at `rate_bps` bits/sec into the
/// serialization delay.
#[inline]
pub fn serialization_delay(bytes: u64, rate_bps: f64) -> Dur {
    debug_assert!(rate_bps > 0.0);
    Dur::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_millis(30).as_nanos(), 30_000_000);
        assert_eq!(Dur::from_secs(2).as_millis_f64(), 2000.0);
        assert!((Time::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Dur::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Time::from_micros(7).as_nanos(), 7_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Dur::from_millis(5);
        assert_eq!(t, Time::from_millis(15));
        assert_eq!(t.since(Time::from_millis(10)), Dur::from_millis(5));
        // Saturating: asking for time "since the future" gives zero.
        assert_eq!(Time::from_millis(1).since(Time::from_millis(2)), Dur::ZERO);
        assert_eq!(t - Dur::from_millis(20), Time::ZERO);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(Dur::from_millis(30).mul_f64(1.5), Dur::from_millis(45));
        assert!((Dur::from_millis(15).ratio(Dur::from_millis(30)) - 0.5).abs() < 1e-12);
    }

    /// `round_to_u64` is `f64::round` followed by the saturating cast, for
    /// every class of input the conversions can see.
    #[test]
    fn inline_rounding_equals_libm_round() {
        #[track_caller]
        fn check(x: f64) {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        for x in [0.0, -0.0, 0.49999999999999994, 0.5, 1.0 - f64::EPSILON] {
            check(x);
        }
        // k + 0.5 and its two neighbours, up to where halves stop existing.
        for e in 0..=52 {
            for k in [1u64 << e, (1 << e) + 1, (1u64 << e).wrapping_sub(1)] {
                let half = k as f64 + 0.5;
                check(half);
                check(f64::from_bits(half.to_bits() - 1));
                check(f64::from_bits(half.to_bits() + 1));
            }
        }
        let (p53, p64) = ((1u64 << 53) as f64, 18_446_744_073_709_551_616.0);
        for x in [p53 - 1.0, p53, p53 + 2.0, p64 / 2.0, p64 - 2048.0] {
            check(x);
        }
        // At and beyond 2^64: saturates (no overflow panic in debug).
        for x in [p64, p64 * 2.0, f64::MAX, f64::INFINITY] {
            check(x);
            assert_eq!(round_to_u64(x), u64::MAX);
        }
        // Negative and NaN: 0, as the cast gives.
        for x in [-0.4, -0.5, -0.7, -1e30, f64::NEG_INFINITY, f64::NAN] {
            check(x);
            assert_eq!(round_to_u64(x), 0);
        }
        // 10 k draws spread over every binade from 2^-10 to 2^70.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64 + 1.0;
            let exponent = ((state >> 3) % 81) as i32 - 10;
            check(mantissa * 2f64.powi(exponent));
        }
        assert_eq!(Dur::from_secs_f64(1.5e-9), Dur::from_nanos(2));
        assert_eq!(Time::from_secs_f64(2.4e-9), Time::from_nanos(2));
        assert_eq!(Dur::from_nanos(3).mul_f64(0.5), Dur::from_nanos(2));
    }

    #[test]
    fn serialization_delay_math() {
        // 1500 bytes at 12 Mbps = 1 ms.
        assert_eq!(serialization_delay(1500, 12_000_000.0), Dur::from_millis(1));
        // 1500 bytes at 100 Mbps = 120 us.
        assert_eq!(
            serialization_delay(1500, 100_000_000.0),
            Dur::from_micros(120)
        );
    }

    #[test]
    fn ordering() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
        assert!(Dur::from_micros(999) < Dur::from_millis(1));
        assert_eq!(Time::ZERO, Time::default());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Dur::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Dur::from_nanos(42)), "42ns");
    }
}
