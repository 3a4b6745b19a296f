//! Nearest-rank percentiles over unsorted slices.

/// Returns the `p`-th percentile (0–100) of `xs` by the nearest-rank method,
/// or `None` if `xs` is empty after dropping non-finite values.
///
/// The paper reports 95th-percentile RTT and inflation ratios throughout
/// §6.1–6.2; this helper is what the harness uses for those columns.
///
/// Selection-based (`select_nth_unstable_by`): O(n) expected rather than the
/// O(n log n) of a full sort, which matters when the harness sweeps
/// percentiles over every flow of a large campaign.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    let idx = nearest_rank_index(v.len(), p);
    let (_, val, _) = v.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("finite"));
    Some(*val)
}

/// The nearest-rank `p`-th percentile of totally ordered values, by the same
/// selection; reorders `v`. For samples kept as integers (per-flow RTTs in
/// nanoseconds): a monotone map of the result is the percentile of the
/// mapped values, so nothing needs sorting, converting or caching first.
pub fn percentile_select<T: Ord + Copy>(v: &mut [T], p: f64) -> Option<T> {
    if v.is_empty() {
        return None;
    }
    let idx = nearest_rank_index(v.len(), p);
    Some(*v.select_nth_unstable(idx).1)
}

/// Nearest-rank index for the `p`-th percentile of `len` samples.
fn nearest_rank_index(len: usize, p: f64) -> usize {
    let p = p.clamp(0.0, 100.0);
    if p == 0.0 {
        return 0;
    }
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    rank.saturating_sub(1).min(len - 1)
}

/// Median shorthand.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 95.0), Some(95.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
    }

    #[test]
    fn unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), Some(3.0));
    }

    #[test]
    fn empty_and_nan() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
        assert_eq!(percentile(&[f64::NAN, 7.0], 50.0), Some(7.0));
    }

    #[test]
    fn all_non_finite_is_none() {
        assert_eq!(
            percentile(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY], 95.0),
            None
        );
    }

    #[test]
    fn infinities_are_dropped_like_nan() {
        // Non-finite values must not poison selection ordering.
        let xs = [f64::INFINITY, 2.0, f64::NEG_INFINITY, 1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&xs, 50.0), Some(2.0));
        assert_eq!(percentile(&xs, 100.0), Some(3.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[42.0], 95.0), Some(42.0));
    }

    #[test]
    fn out_of_range_p_is_clamped() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, -5.0), Some(1.0));
        assert_eq!(percentile(&xs, 150.0), Some(3.0));
        assert_eq!(percentile(&xs, f64::NAN), Some(1.0), "NaN p clamps to 0");
    }

    #[test]
    fn selection_matches_full_sort() {
        // Pseudo-random fixture: selection must agree with the sort-based
        // definition at every percentile.
        let mut xs = Vec::new();
        let mut x = 1u64;
        for _ in 0..257 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            xs.push((x >> 11) as f64 / (1u64 << 53) as f64);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut bits: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        for p in 0..=100 {
            let p = p as f64;
            let want = sorted[nearest_rank_index(sorted.len(), p)];
            assert_eq!(percentile(&xs, p), Some(want), "p={p}");
            // Positive floats order like their bit patterns.
            assert_eq!(percentile_select(&mut bits, p), Some(want.to_bits()));
        }
    }

    #[test]
    fn percentile_select_edges() {
        assert_eq!(percentile_select::<u32>(&mut [], 50.0), None);
        assert_eq!(percentile_select(&mut [4], 0.0), Some(4));
        let mut xs = [3, 1, 4, 2];
        assert_eq!(percentile_select(&mut xs, 0.0), Some(1));
        assert_eq!(percentile_select(&mut xs, 25.0), Some(1));
        assert_eq!(percentile_select(&mut xs, 26.0), Some(2));
        assert_eq!(percentile_select(&mut xs, 100.0), Some(4));
    }
}
