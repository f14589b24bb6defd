//! Order statistics shared by the measuring loop and `compare`.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads printed here match the acceptance arithmetic.
/// With a single value (which Python refuses) both quartiles are that
/// value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        // Python clamps j into 1..n-1 so the interpolation stays inside
        // the data for tiny samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile with ten samples beyond it: the (n−10)-th
/// order statistic (1-based) of `values`, returned with its rank. With
/// ten samples or fewer no such rank exists and the maximum is used, so
/// the rank then equals `n`.
pub fn tail(values: &[f64]) -> (f64, usize) {
    assert!(!values.is_empty(), "tail of no samples");
    let s = sorted(values);
    let n = s.len();
    let rank = if n > 10 { n - 10 } else { n };
    (s[rank - 1], rank)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: with two
        // points the exclusive method extrapolates past the data.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        // 40th of 50 ascending samples: ten (41..=50) lie beyond it.
        assert_eq!(tail(&values), (40.0, 40));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), (1.0, 1));
    }

    #[test]
    fn tail_of_short_runs_is_the_maximum() {
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (9.0, 3));
        assert_eq!(tail(&[5.0; 10]), (5.0, 10));
    }
}
