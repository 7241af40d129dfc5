//! Order statistics over raw samples: medians, quartiles, and exact
//! percentiles that are reported only when the tail behind them is
//! populated.
//!
//! Every function works on the raw values, never on histogram buckets,
//! so a percentile is one of the recorded samples and carries no
//! bucket-width error.

/// Minimum number of samples that must lie beyond a percentile before
/// it is reported: with fewer, the figure is one or two outliers, not a
/// tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = 4usize;
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        // Clamped like the reference implementation, so tiny samples
        // interpolate against the nearest end point.
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// An exact percentile read off the raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank `ceil(q · n)`.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank percentile `q` of `values`, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it (or `q` is outside
/// `(0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    // Nearest rank; the epsilon keeps 0.99 · 1000 on rank 990 when
    // the product rounds up past the integer.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    let beyond = n - rank;
    (beyond >= MIN_TAIL_SAMPLES).then_some(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_an_exact_sample_at_the_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, 0.99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 1000);
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.beyond, 500);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 999 samples: p99 sits at rank 990, leaving only 9 beyond.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        // p90 of the same samples has 99 beyond and is reported.
        assert_eq!(percentile(&v, 0.90).unwrap().beyond, 99);
        // Exactly ten beyond is enough.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).unwrap().beyond, 10);
        assert_eq!(percentile(&v, 0.55), None);
    }

    #[test]
    fn percentile_rejects_out_of_range_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 1.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
