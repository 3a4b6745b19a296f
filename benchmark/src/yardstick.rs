//! The yardstick: a fixed kernel timed between operations, which tells how
//! much slower than its quiet self the host was running while a pass ran.
//!
//! The hosts this benchmark runs on share physical cores with other
//! tenants. Identical work takes 1.0×, 1.3× or 1.6× as long depending on
//! what a neighbour is doing, in states that last from under a second to
//! minutes; the process's CPU time moves with its wall time, so neither
//! clock sees through it, and the VM exposes no instruction counter. Ten
//! runs of one workload spread by 5–13 % of their median on raw wall time.
//! Divided by the slowdown the yardstick saw during the same pass, they
//! spread by 2.5–5.6 % (README, "Measured").
//!
//! The kernel is the benchmark's own code and never changes with the
//! repository, so both sides of a comparison are corrected by the same
//! ruler. It mixes what the simulator mixes: a toy event loop over a binary
//! heap with float arithmetic and scattered reads and writes over a 512 KiB
//! table, then a pure integer loop. Neither half alone tracks all four
//! workloads; their sum does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::inputs::SplitMix64;

/// Seconds one sample takes on the sizing host (2 vCPUs of a Xeon at
/// 2.1 GHz under KVM) at its quietest: the minimum over 4 900 samples in
/// three sittings was 11.9 ms. Corrected times are therefore wall-clock seconds
/// *on that host, undisturbed*; on another host they are off by one constant
/// factor, which no comparison between two commits sees.
pub const REFERENCE_S: f64 = 0.012;

const EVENT_STEPS: u64 = 200_000;
const INTEGER_STEPS: u64 = 6_000_000;
const TABLE_WORDS: usize = 1 << 16;

/// The kernel and its table.
pub struct Yardstick {
    table: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self {
            table: vec![0; TABLE_WORDS],
        }
    }
}

impl Yardstick {
    /// Runs the kernel once and returns the seconds it took.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.event_loop());
        black_box(integer_loop());
        t0.elapsed().as_secs_f64()
    }

    fn event_loop(&mut self) -> u64 {
        let mut rng = SplitMix64::new(1);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..64)
            .map(|id| Reverse((rng.next_u64() >> 40, id)))
            .collect();
        let (mut smoothed, mut sum) = (0.0f64, 0u64);
        let mask = TABLE_WORDS - 1;
        for _ in 0..EVENT_STEPS {
            let Reverse((at, id)) = heap.pop().expect("the heap never empties");
            let r = rng.next_u64();
            let slot = r as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(at);
            smoothed = smoothed * 0.999 + (at as f64).sqrt();
            sum = sum.wrapping_add(self.table[(slot * 7 + 13) & mask]);
            heap.push(Reverse((at + (r >> 44) + 1, id)));
        }
        sum ^ smoothed.to_bits()
    }
}

fn integer_loop() -> u64 {
    let mut rng = SplitMix64::new(2);
    (0..INTEGER_STEPS).fold(0, |acc, _| acc ^ rng.next_u64())
}

/// How many times slower than [`REFERENCE_S`] the host ran over a pass whose
/// operations took `op_secs`, given the `op_secs.len() + 1` yardstick samples
/// taken before each operation and after the last. Each operation is
/// bracketed by two samples; their mean, weighted by the operation's
/// duration, is the yardstick's time-weighted mean over the pass, so a
/// two-second experiment counts for more than twelve cached ones.
pub fn slowdown(op_secs: &[f64], yard_secs: &[f64]) -> f64 {
    assert_eq!(
        yard_secs.len(),
        op_secs.len() + 1,
        "one sample around each operation"
    );
    let total: f64 = op_secs.iter().sum();
    let weighted: f64 = op_secs
        .iter()
        .zip(yard_secs.windows(2))
        .map(|(op, around)| op * (around[0] + around[1]) / 2.0)
        .sum();
    weighted / total / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_weights_samples_by_the_time_they_cover() {
        let r = REFERENCE_S;
        // Undisturbed throughout.
        assert!((slowdown(&[1.0, 2.0], &[r, r, r]) - 1.0).abs() < 1e-12);
        // Twice as slow throughout.
        assert!((slowdown(&[1.0, 2.0], &[2.0 * r, 2.0 * r, 2.0 * r]) - 2.0).abs() < 1e-12);
        // A disturbed sample counts half towards each operation next to it,
        assert!((slowdown(&[1.0, 0.0, 1.0], &[r, r, 9.0 * r, r]) - 3.0).abs() < 1e-12);
        // and not at all between two operations that took no time.
        assert!((slowdown(&[1.0, 0.0, 0.0, 1.0], &[r, r, 9.0 * r, r, r]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_is_deterministic_and_takes_measurable_time() {
        let mut y = Yardstick::default();
        let first = y.event_loop();
        // The table carries over, so the second result differs from the
        // first — but two fresh yardsticks agree.
        assert_eq!(Yardstick::default().event_loop(), first);
        assert_eq!(integer_loop(), integer_loop());
        let secs = y.sample();
        assert!(
            secs > REFERENCE_S / 10.0 && secs < REFERENCE_S * 100.0,
            "{secs}"
        );
    }
}
