//! The order statistics the reports use.

/// Median of unsorted samples (mean of the middle pair for even counts);
/// NaN for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(samples, n=4)` gives them (the exclusive method),
/// so spreads computed here match the ones the acceptance check computes.
/// One sample yields that sample three times.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 45, 50], n=4)
        assert_eq!(quartiles(&[10., 20., 30., 45., 50.]), [15.0, 30.0, 47.5]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }
}
