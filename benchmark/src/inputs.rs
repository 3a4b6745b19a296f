//! Seeded input generation.
//!
//! Workload inputs come from `--seed` through this module's own SplitMix64,
//! so a change to `vendor/rand` (which the simulator draws from) can never
//! shift which scenarios the benchmark runs.

/// Default workload seed (the paper's SIGCOMM presentation date).
pub const DEFAULT_SEED: u64 = 20_200_810;

/// Relative half-width of the range each cell parameter is drawn from.
pub const JITTER: f64 = 0.20;

/// SplitMix64 (Steele, Lea & Flood 2014): one 64-bit state word, full
/// period, passes BigCrush — more than enough to pick cell parameters.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `nominal` scaled by a uniform factor in `[1 - JITTER, 1 + JITTER)`.
    pub fn around(&mut self, nominal: f64) -> f64 {
        nominal * (1.0 - JITTER + 2.0 * JITTER * self.unit())
    }
}

/// The drawn parameters of one simulation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellInputs {
    /// Bottleneck bandwidth, Mbit/s.
    pub bw_mbps: f64,
    /// Base RTT, milliseconds.
    pub rtt_ms: f64,
    /// Buffer, in multiples of the drawn bandwidth-delay product.
    pub buffer_bdp: f64,
    /// Simulated seconds.
    pub secs: f64,
    /// Scenario seed (`workload seed + cell index`).
    pub seed: u64,
}

/// How a cell's link parameters follow the seed. Whatever the seed does,
/// every seed must offer the same work: otherwise seed-to-seed variation in
/// `wall_s` and `peak_rss_mib` is input variation, not measurement noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hold {
    /// Few flows, many packets: work grows with the packets the link can
    /// carry. Bandwidth, RTT and buffer are each drawn from a ±20 % range
    /// and the duration is scaled by the inverse of the bandwidth draw,
    /// which holds bandwidth × duration — the packets offered — constant.
    LinkBits,
    /// Thousands of thin flows: events and memory move almost twice as fast
    /// as the RTT does (−1.9 log-log, measured on `churn-2k`), so a ±20 %
    /// draw would be ±37 % of `peak_rss_mib`, and no scaling of the other
    /// parameters cancels it. The link stays nominal; the seed moves the
    /// arrival process, the class mix and the controllers' seeds.
    Link,
}

/// Nominal parameters of a cell, before the seeded draw.
#[derive(Debug, Clone, Copy)]
pub struct Nominal {
    /// What the draw holds constant.
    pub hold: Hold,
    /// Bottleneck bandwidth, Mbit/s.
    pub bw_mbps: f64,
    /// Base RTT, milliseconds.
    pub rtt_ms: f64,
    /// Buffer, in bandwidth-delay products.
    pub buffer_bdp: f64,
    /// Simulated seconds at the nominal bandwidth and full scale.
    pub secs: f64,
}

impl Nominal {
    /// Draws this cell's inputs as [`Hold`] describes; `scale` shortens the
    /// run for tests. Every cell consumes the same three draws, so changing
    /// one cell's `hold` leaves the cells after it where they were.
    pub fn draw(&self, rng: &mut SplitMix64, seed: u64, scale: f64) -> CellInputs {
        let bw_mbps = rng.around(self.bw_mbps);
        let rtt_ms = rng.around(self.rtt_ms);
        let buffer_bdp = rng.around(self.buffer_bdp);
        match self.hold {
            Hold::LinkBits => CellInputs {
                bw_mbps,
                rtt_ms,
                buffer_bdp,
                secs: self.secs * scale * self.bw_mbps / bw_mbps,
                seed,
            },
            Hold::Link => CellInputs {
                bw_mbps: self.bw_mbps,
                rtt_ms: self.rtt_ms,
                buffer_bdp: self.buffer_bdp,
                secs: self.secs * scale,
                seed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 0 from the reference implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn draws_stay_in_range_and_hold_the_work_constant() {
        let mut nominal = Nominal {
            hold: Hold::LinkBits,
            bw_mbps: 100.0,
            rtt_ms: 30.0,
            buffer_bdp: 2.0,
            secs: 10.0,
        };
        let mut rng = SplitMix64::new(DEFAULT_SEED);
        for i in 0..1000 {
            let c = nominal.draw(&mut rng, i, 1.0);
            assert!((80.0..120.0).contains(&c.bw_mbps));
            assert!((24.0..36.0).contains(&c.rtt_ms));
            assert!((1.6..2.4).contains(&c.buffer_bdp));
            assert!((c.bw_mbps * c.secs - 1000.0).abs() < 1e-6);
        }
        nominal.hold = Hold::Link;
        let c = nominal.draw(&mut rng, 9, 0.5);
        let nominal_link = (c.bw_mbps, c.rtt_ms, c.buffer_bdp) == (100.0, 30.0, 2.0);
        assert!(nominal_link && c.secs == 5.0 && c.seed == 9, "{c:?}");
    }

    #[test]
    fn same_seed_same_inputs() {
        let nominal = Nominal {
            hold: Hold::LinkBits,
            bw_mbps: 50.0,
            rtt_ms: 30.0,
            buffer_bdp: 2.0,
            secs: 4.0,
        };
        let a = nominal.draw(&mut SplitMix64::new(7), 7, 1.0);
        let b = nominal.draw(&mut SplitMix64::new(7), 7, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, nominal.draw(&mut SplitMix64::new(8), 8, 1.0));
    }
}
