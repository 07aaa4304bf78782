//! Order statistics over skew samples.
//!
//! The paper reports `min`, the 5% quantile, the average, the 95% quantile
//! and `max` of skew populations (Section 4.1, experiments (A)). Quantiles
//! use the standard linear-interpolation estimator (R type 7), which is
//! well-defined for every population size ≥ 1.
//!
//! # Integer-domain ordering
//!
//! Skews are [`Duration`]s, whole picoseconds. [`Summary::from_durations`]
//! orders them as `i64`s rather than as nanosecond `f64`s: by a counting
//! sort over `[min, max]` when that span is under eight picoseconds per
//! sample (every real skew population: spans of a few thousand to ~15k ps
//! against 1k–750k samples), else by an unstable comparison sort, which
//! is exact because equal integers are indistinguishable. The ascending
//! integers are then mapped through [`Duration::ns`] and fed to the same
//! quantile, mean and standard-deviation code as [`Summary::from_ns`].
//!
//! The result is bit-identical to `Summary::from_ns` over the mapped
//! values. `ns()` is `ps as f64 / 1e3`: an `i64 → f64` conversion and a
//! division by a positive constant, both correctly rounded and hence
//! monotone non-decreasing, and never `-0.0` or NaN (a nonzero integer
//! maps to a nonzero value, zero to `+0.0`). So mapping the integer order
//! yields exactly the sequence a `total_cmp` sort of the mapped values
//! yields — values that collide after rounding are equal bit patterns —
//! and the sum and variance folds visit the same values in the same
//! order. `from_ns` stays the `f64` entry point and the test oracle.

use hex_des::Duration;
use std::cmp::Ordering;

/// The workspace's documented total order on `f64` (the `float-ord`
/// lint rule's sanctioned comparator).
///
/// `partial_cmp`-based sorts either panic on NaN or — worse, with
/// `unwrap_or` fallbacks — produce an input-order-dependent permutation,
/// which silently breaks run-order-independent reduction. This wrapper
/// is IEEE 754 `totalOrder`: every value, including NaN and signed
/// zeros, has one fixed rank, so a sort is a pure function of the
/// sample multiset. Skew samples are finite by construction; NaN
/// ordering is belt-and-braces, not a semantic choice.
#[inline]
pub fn total_f64(a: &f64, b: &f64) -> Ordering {
    a.total_cmp(b)
}

/// Linear-interpolation quantile (R type 7) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice or `q ∉ [0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// [`Summary::from_durations`] counting-sorts a sample whose picosecond
/// span `max − min` is below this many buckets per sample, and
/// comparison-sorts it otherwise. Around this ratio the two cost the same
/// on 1k-sample runs; real skew populations sit far below it.
const COUNTING_SPAN_PER_SAMPLE: u64 = 8;

/// Whether `n` samples spanning `span` picoseconds take the counting
/// sort (whose `u32` buckets then cannot overflow).
fn counting_sort_applies(span: u64, n: usize) -> bool {
    span < COUNTING_SPAN_PER_SAMPLE.saturating_mul(n as u64) && u32::try_from(n).is_ok()
}

/// A non-empty `values` in nanoseconds, ascending.
fn sorted_ns(values: &[Duration]) -> Vec<f64> {
    let n = values.len();
    let (lo, hi) = values.iter().fold((i64::MAX, i64::MIN), |(lo, hi), d| {
        (lo.min(d.ps()), hi.max(d.ps()))
    });
    let span = hi.abs_diff(lo);
    let mut sorted = Vec::with_capacity(n);
    if counting_sort_applies(span, n) {
        let mut counts = vec![0u32; span as usize + 1];
        for d in values {
            counts[d.ps().abs_diff(lo) as usize] += 1;
        }
        for (offset, &count) in counts.iter().enumerate() {
            if count > 0 {
                let ns = Duration::from_ps(lo + offset as i64).ns();
                sorted.resize(sorted.len() + count as usize, ns);
            }
        }
    } else {
        let mut ps: Vec<i64> = values.iter().map(|d| d.ps()).collect();
        ps.sort_unstable();
        sorted.extend(ps.into_iter().map(|p| Duration::from_ps(p).ns()));
    }
    sorted
}

/// Five-point summary (+ mean, std, count) of a sample, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// 5% quantile.
    pub q05: f64,
    /// Arithmetic mean.
    pub avg: f64,
    /// 95% quantile.
    pub q95: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarize a sample of nanosecond values. Returns `None` on empty
    /// input.
    pub fn from_ns(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(total_f64);
        Some(Summary::from_sorted(&sorted))
    }

    /// Summarize a sample of [`Duration`]s (converted to nanoseconds),
    /// ordered in the integer domain (see the module docs). Bit-identical
    /// to [`Summary::from_ns`] over the converted values.
    pub fn from_durations(values: &[Duration]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        Some(Summary::from_sorted(&sorted_ns(values)))
    }

    /// The summary of a non-empty ascending sample.
    fn from_sorted(sorted: &[f64]) -> Summary {
        let n = sorted.len();
        let avg = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / n as f64;
        Summary {
            min: sorted[0],
            q05: quantile_sorted(sorted, 0.05),
            avg,
            q95: quantile_sorted(sorted, 0.95),
            max: sorted[n - 1],
            std: var.sqrt(),
            n,
        }
    }

    /// The paper's intra-layer row: `avg | q95 | max`.
    pub fn intra_row(&self) -> String {
        format!("{:7.3} {:7.3} {:7.3}", self.avg, self.q95, self.max)
    }

    /// The paper's inter-layer row: `min | q5 | avg | q95 | max`.
    pub fn inter_row(&self) -> String {
        format!(
            "{:7.3} {:7.3} {:7.3} {:7.3} {:7.3}",
            self.min, self.q05, self.avg, self.q95, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantile_endpoints() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile_sorted(&[7.5], 0.3), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_empty_panics() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::from_ns(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.avg, 3.0);
        assert_eq!(s.n, 5);
        assert!((s.std - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_from_durations() {
        let ds = [
            Duration::from_ps(1000),
            Duration::from_ps(2000),
            Duration::from_ps(3000),
        ];
        let s = Summary::from_durations(&ds).unwrap();
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_ns(&[]).is_none());
        assert!(Summary::from_durations(&[]).is_none());
    }

    #[test]
    fn rows_format() {
        let s = Summary::from_ns(&[0.395, 1.0, 3.098]).unwrap();
        assert!(s.intra_row().contains("3.098"));
        assert!(s.inter_row().contains("0.395"));
    }

    /// Every field's bit pattern (`n` last).
    fn bits(s: &Summary) -> [u64; 7] {
        let f = [s.min, s.q05, s.avg, s.q95, s.max, s.std].map(f64::to_bits);
        [f[0], f[1], f[2], f[3], f[4], f[5], s.n as u64]
    }

    /// `from_durations` over picosecond samples is bit-identical to the
    /// `f64` oracle `from_ns` over their nanosecond values; returns
    /// whether the sample took the counting sort.
    fn matches_oracle(ps: &[i64]) -> bool {
        let ds: Vec<Duration> = ps.iter().map(|&p| Duration::from_ps(p)).collect();
        let ns: Vec<f64> = ds.iter().map(|d| d.ns()).collect();
        let got = Summary::from_durations(&ds).unwrap();
        let want = Summary::from_ns(&ns).unwrap();
        assert_eq!(bits(&got), bits(&want), "samples {ps:?}");
        let (lo, hi) = (ps.iter().min().unwrap(), ps.iter().max().unwrap());
        counting_sort_applies(hi.abs_diff(*lo), ps.len())
    }

    #[test]
    fn integer_order_matches_oracle_at_the_extremes() {
        assert!(!matches_oracle(&[
            i64::MAX,
            i64::MIN,
            0,
            -1,
            1,
            i64::MIN,
            i64::MAX
        ]));
        assert!(matches_oracle(&[0]));
        assert!(matches_oracle(&[-1, 0, 1, 0, -1]));
        // The switch point: a span of 8 buckets per sample is the first
        // to take the comparison sort.
        assert!(matches_oracle(&[0, 15]));
        assert!(!matches_oracle(&[0, 16]));
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Narrow spans (below the switch point, any sign): counting sort.
        #[test]
        fn prop_counting_path_matches_oracle(base in -10_000_000i64..10_000_000,
                                             offs in prop::collection::vec(any::<u32>(), 1..600)) {
            let width = 8 * offs.len() as i64;
            let ps: Vec<i64> = offs.iter().map(|&o| base + i64::from(o) % width).collect();
            prop_assert!(matches_oracle(&ps));
        }

        /// Spans past the switch point, over the whole ±2^62 range.
        #[test]
        fn prop_wide_spans_match_oracle(raw in prop::collection::vec(any::<i64>(), 2..600)) {
            let ps: Vec<i64> = raw.iter().map(|&r| r >> 1).collect();
            prop_assert!(!matches_oracle(&ps));
        }

        /// Clusters near ±2^62 with spans past the switch point, where
        /// distinct picosecond values round to the same `f64`.
        #[test]
        fn prop_colliding_values_near_2_62_match_oracle(
            negative in any::<bool>(),
            offs in prop::collection::vec(0i64..100_000, 2..600),
        ) {
            let edge = if negative { -(1i64 << 62) } else { 1i64 << 62 };
            let mut ps: Vec<i64> = offs.iter().map(|&o| edge - o).collect();
            ps.push(edge - 100_000);
            ps.push(edge);
            prop_assert!(!matches_oracle(&ps));
        }

        /// A single sample, anywhere in range.
        #[test]
        fn prop_single_sample_matches_oracle(p in any::<i64>()) {
            prop_assert!(matches_oracle(&[p]));
        }

        /// All-equal samples (span 0).
        #[test]
        fn prop_constant_durations_match_oracle(p in any::<i64>(), n in 1usize..300) {
            prop_assert!(matches_oracle(&vec![p; n]));
        }

        /// min ≤ q05 ≤ avg-compatible ordering ≤ q95 ≤ max and quantiles are
        /// monotone in q.
        #[test]
        fn prop_summary_order(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
            let s = Summary::from_ns(&values).unwrap();
            prop_assert!(s.min <= s.q05 + 1e-9);
            prop_assert!(s.q05 <= s.q95 + 1e-9);
            prop_assert!(s.q95 <= s.max + 1e-9);
            prop_assert!(s.min <= s.avg && s.avg <= s.max);
            prop_assert!(s.std >= 0.0);
        }

        /// Quantile is monotone in q for any sample.
        #[test]
        fn prop_quantile_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..100),
                                  q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let mut sorted = values;
            sorted.sort_by(total_f64);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile_sorted(&sorted, lo) <= quantile_sorted(&sorted, hi) + 1e-9);
        }

        /// Quantiles of a constant sample equal the constant.
        #[test]
        fn prop_constant_sample(c in -1e3f64..1e3, n in 1usize..50, q in 0.0f64..1.0) {
            let s = vec![c; n];
            prop_assert!((quantile_sorted(&s, q) - c).abs() < 1e-12);
        }
    }
}
