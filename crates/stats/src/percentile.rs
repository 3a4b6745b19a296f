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
    let idx = nearest_rank_index(v.len(), p)?;
    let (_, val, _) = v.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("finite"));
    Some(*val)
}

/// The nearest-rank rule: the index, in ascending order, of the `p`-th
/// percentile (0–100) of `len` values, or `None` when there are none.
///
/// The rank is `⌈p/100 · len⌉`, at least 1; `p` is clamped to [0, 100] and
/// NaN reads as 0. This is the one definition in the tree: [`percentile`]
/// selects this index, and an integer store (per-flow RTTs in nanoseconds)
/// can find the same order statistic any way it likes — a monotone map of
/// the result is the percentile of the mapped values.
pub fn nearest_rank_index(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    if p == 0.0 {
        return Some(0);
    }
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    Some(rank.saturating_sub(1).min(len - 1))
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
            let idx = nearest_rank_index(sorted.len(), p).expect("non-empty");
            let want = sorted[idx];
            assert_eq!(percentile(&xs, p), Some(want), "p={p}");
            // Positive floats order like their bit patterns.
            assert_eq!(*bits.select_nth_unstable(idx).1, want.to_bits());
        }
    }

    #[test]
    fn percentile_select_edges() {
        assert_eq!(nearest_rank_index(0, 50.0), None);
        assert_eq!(nearest_rank_index(1, 0.0), Some(0));
        assert_eq!(nearest_rank_index(1, 100.0), Some(0));
        // Of four values: the first at p ≤ 25, the second from just above.
        assert_eq!(nearest_rank_index(4, 0.0), Some(0));
        assert_eq!(nearest_rank_index(4, 25.0), Some(0));
        assert_eq!(nearest_rank_index(4, 26.0), Some(1));
        assert_eq!(nearest_rank_index(4, 100.0), Some(3));
        assert_eq!(nearest_rank_index(4, 1e-9), Some(0));
        assert_eq!(nearest_rank_index(4, -1.0), Some(0));
        assert_eq!(nearest_rank_index(4, 150.0), Some(3));
        assert_eq!(nearest_rank_index(4, f64::NAN), Some(0));
    }

    /// A value from a multiset that repeats itself and holds the extremes.
    fn element() -> impl proptest::Strategy<Value = u64> {
        use proptest::prelude::*;
        prop_oneof![Just(0), Just(u64::MAX), 0..4u64, any::<u64>()]
    }

    /// The edge cases of `p` half the time, any `p` around [0, 100] else.
    fn p_value() -> impl proptest::Strategy<Value = f64> {
        use proptest::prelude::*;
        let edges = [0.0, 1e-9, 50.0, 95.0, 99.999, 100.0, -1.0, 150.0, f64::NAN];
        let edge = (0..edges.len()).prop_map(move |i| edges[i]);
        prop_oneof![edge, -10.0..110.0f64]
    }

    proptest::proptest! {
        /// The value at the rule's index of a sorted multiset is the
        /// nearest-rank percentile by definition: the smallest value with at
        /// least `rank` values at or below it, the rank being the least
        /// integer ≥ p/100 · n and at least 1.
        #[test]
        fn nearest_rank_rule_picks_the_defined_order_statistic(
            xs in proptest::collection::vec(element(), 1..300),
            all_equal in 0..5u32,
            p in p_value(),
        ) {
            let mut xs = xs;
            if all_equal == 0 {
                let x = xs[0];
                xs.iter_mut().for_each(|v| *v = x);
            }
            xs.sort_unstable();
            let n = xs.len();
            let q = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
            let rank = (1..=n).find(|&r| r as f64 >= q / 100.0 * n as f64).unwrap_or(n);
            let v = xs[nearest_rank_index(n, p).expect("non-empty")];
            let at_or_below = xs.iter().filter(|&&x| x <= v).count();
            let below = xs.iter().filter(|&&x| x < v).count();
            proptest::prop_assert!(at_or_below >= rank && below < rank, "p={} n={}", p, n);
            proptest::prop_assert_eq!(nearest_rank_index(0, p), None);
        }
    }
}
