//! Order statistics for the benchmark's reports.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs`, interpolating linearly between
/// the closest ranks (NumPy's default estimator). NaN on empty input.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs` (NaN on empty input).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// A work rate robust to bursts of outside load: the median, over
/// `windows` equal windows of `[0, wall]`, of the work done per second in
/// the window. `items` are `(start, end, work)` with times in seconds
/// from the start of the measurement; an item's work is spread evenly
/// over its interval.
pub fn windowed_rate(items: &[(f64, f64, f64)], wall: f64, windows: usize) -> f64 {
    let width = wall / windows as f64;
    let mut done = vec![0.0; windows];
    for &(start, end, work) in items {
        let span = end - start;
        for (w, slot) in done.iter_mut().enumerate() {
            let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
            let overlap = end.min(hi) - start.max(lo);
            if span <= 0.0 {
                if (lo..hi).contains(&start) {
                    *slot += work;
                }
            } else if overlap > 0.0 {
                *slot += work * overlap / span;
            }
        }
    }
    let rates: Vec<f64> = done.iter().map(|d| d / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        // numpy.percentile([1, 2, 3, 4], 90) == 3.7
        assert!((percentile(&xs, 0.9) - 3.7).abs() < 1e-12);
        // numpy.percentile(range(1, 11), [50, 90]) == [5.5, 9.1]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((median(&ten) - 5.5).abs() < 1e-12);
        assert!((percentile(&ten, 0.9) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // Ten one-second items, one per second, except a stalled window 3
        // that gets none: the median window still does one item/s.
        let mut items: Vec<(f64, f64, f64)> = (0..10)
            .filter(|&i| i != 3)
            .map(|i| (f64::from(i), f64::from(i) + 1.0, 1.0))
            .collect();
        assert_eq!(windowed_rate(&items, 10.0, 10), 1.0);
        // An item straddling two windows is split between them.
        items = vec![(0.5, 1.5, 2.0)];
        assert_eq!(windowed_rate(&items, 2.0, 2), 1.0);
        // Instant items count where they happen.
        items = vec![(0.2, 0.2, 3.0), (1.2, 1.2, 5.0)];
        assert_eq!(windowed_rate(&items, 2.0, 2), 4.0);
    }
}
