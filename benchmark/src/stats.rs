//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the two nearest ranks. Zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of nanosecond durations, in microseconds.
pub fn us_quantile(ns: &[u64], q: f64) -> f64 {
    quantile(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>(), q)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so spreads computed here and by Python analysis scripts agree.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |m: f64| -> f64 {
        // Position m·(n+1)/4 on 1-based ranks. Like Python, the rank is
        // clamped to the data but the fraction is not, so tiny samples
        // extrapolate.
        let pos = m * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1.0), at(3.0))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.99), 49.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
