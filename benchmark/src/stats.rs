//! Percentiles and spreads.

/// Fewest samples a reported tail percentile must leave beyond it.
pub(crate) const TAIL_SAMPLES: usize = 10;

/// Nearest-rank `p`-th percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile below 100 that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when `n` is too small.
pub(crate) fn tail_percentile(n: usize) -> Option<u32> {
    (1..100).rev().find(|&p| n - rank(n, p) >= TAIL_SAMPLES)
}

/// First quartile, median and third quartile, interpolated as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so that spreads printed here match the ones computed from
/// the printed values.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len() as i64;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = i * (len + 1) - j * 4;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *q = (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0;
    }
    out
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_leaves_ten_samples_beyond_from_a_hundred_samples() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(89));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(10), None);
        for n in [100, 101, 150, 1000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(p >= 90);
            assert!(n - rank(n, p) >= TAIL_SAMPLES);
            assert!(n - rank(n, p + 1) < TAIL_SAMPLES || p == 99);
        }
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 90), 90.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3, 9, 7], n=4) == [2.0, 4.0, 7.0]
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0];
        assert_eq!(quartiles(&v), [2.0, 4.0, 7.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
