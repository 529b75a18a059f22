//! Order statistics for repeated timings.

/// Median of `xs` (mean of the two middle values for even counts).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `xs`: the fastest of a run's repeated timings.
///
/// On a shared host, interference only ever slows a pass down, and it
/// comes in bursts of seconds to minutes. The fastest pass of a run
/// lands in a quiet spell almost every time, so it moves far less from
/// run to run than the median does.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "min of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method),
/// so spreads printed here match those computed in Python from the
/// JSON lines. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let n = 4i64;
    let m = v.len() as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, v.len() as i64 - 1);
        // Negative or > n once clamped, exactly as in Python.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's regression bound is compared against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn min_is_the_fastest_sample() {
        assert_eq!(min(&[3.0]), 3.0);
        assert_eq!(min(&[5.0, 1.5, 3.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // Two samples clamp to the ends: quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
