//! Order statistics for reporting timings: medians, quartiles, and the
//! tail percentile rule.
//!
//! A tail is reported at the highest percentile of a fixed ladder that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, together with
//! the sample count, so a "p99" is never read off a handful of samples.

/// Percentile ladder a tail is chosen from, lowest to highest.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`);
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |j: usize| -> f64 {
        // m = n + 1; position j*m/4, 1-based, interpolated and clamped.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; `None` below two
/// samples or for a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, for `n` samples; `None` when even the median lacks them.
pub fn tail_rank(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
}

/// A tail percentile reading: which percentile, its value, and the sample
/// count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (from [`LADDER`]).
    pub percentile: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Samples it was read from.
    pub n: usize,
}

/// The tail of `values` by the [`tail_rank`] rule; `None` when there are
/// too few samples for any ladder percentile.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let p = tail_rank(values.len())?;
    Some(Tail {
        percentile: p,
        value: percentile(&sorted(values), p),
        n: values.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
