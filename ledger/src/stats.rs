//! Order statistics over the benchmark's timing samples.

/// Median of a sample (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller times at least one operation.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` (and therefore the driver) uses.
/// `None` below two samples, where that method is undefined.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Rank i*(n+1)/4, with the neighbouring pair clamped to the sample
        // and the weight left free to extrapolate, exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest nearest-rank percentile, at most `cap`, that still has at
/// least ten samples beyond it; `None` when the sample is too small for
/// any percentile above the median to qualify. Returns `(p, value)`.
pub fn tail_percentile(values: &[f64], cap: f64) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let n = values.len();
    // The sample at 1-based rank r has n - r samples beyond it.
    let rank = ((cap * n as f64).ceil() as usize).min(n.checked_sub(BEYOND)?);
    if rank * 2 <= n {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((rank as f64 / n as f64, v[rank - 1]))
}

/// One-line summary of a timing sample for the human-readable report.
pub fn describe(values: &[f64]) -> String {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let q = match quartiles(values) {
        Some((q1, q3)) => format!("q1 {q1:.6} q3 {q3:.6}"),
        None => "q1 - q3 -".to_string(),
    };
    format!(
        "n {} median {:.6} {q} min {lo:.6} max {hi:.6}",
        values.len(),
        median(values)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond a two-point sample.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=600).map(f64::from).collect();
        // p95 of 600 is rank 570: 30 samples beyond it.
        assert_eq!(tail_percentile(&v, 0.95), Some((0.95, 570.0)));
        // 100 samples: p95 would leave 5 beyond, so the rank drops to 90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some((0.9, 90.0)));
        // 20 samples: rank 10 is the median itself, nothing above qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None);
        assert_eq!(tail_percentile(&[1.0, 2.0], 0.95), None);
    }
}
