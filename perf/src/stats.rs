//! Order statistics used by the recorder and the `repeat` report.

/// Sorts ascending; NaNs (none are ever produced) would sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// `q`-quantile (0..=1) of an ascending slice, nearest-rank with linear
/// interpolation; 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `q`-quantile of unsorted values (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the acceptance check uses. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = i(n+1) div 4 clamped into [1, n-1]; delta is taken after
        // the clamp, so the ends extrapolate exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median (the acceptance
/// check's "spread"); 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
