//! The statistics every reported timing goes through: medians, the tail
//! order statistic with at least ten samples beyond it, quartiles (the
//! same "exclusive" method as Python's `statistics.quantiles(n=4)`),
//! and ratios that are defined when their base is zero.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the 11th-largest sample, reported with its percentile
/// `(n − 10) / n`. A tail is never reported below the median: with fewer
/// than 21 samples that percentile would fall under p50, so the median
/// is returned (percentile 0.5) and the caller states it.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: median(values),
            percentile: if n == 0 { 0.0 } else { 0.5 },
            samples: n,
        };
    }
    let s = sorted(values);
    Tail {
        value: s[n - 1 - TAIL_BEYOND],
        percentile: (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

/// A tail order statistic and the percentile it stands for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile as a fraction in `[0, 1]`.
    pub percentile: f64,
    /// Sample count it was taken from.
    pub samples: usize,
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values);
    let m = s.len();
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the benchmark's bounds are sized against. 0 when undefined.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => ratio(q3 - q1, median(values)),
        None => 0.0,
    }
}

/// `num / den`, or 0 when the base is 0 (a ratio with nothing to divide
/// is reported as none of it).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
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
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 0.90).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(tail(&rev), t);
    }

    #[test]
    fn tail_with_few_samples_is_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 0.5, 3));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).value, 10.5);
        // From 21 samples on, the 11th-largest sits at or above p50.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 11.0);
        assert!((t.percentile - 11.0 / 21.0).abs() < 1e-12);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn ratios_guard_a_zero_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
