//! Order statistics over small sample sets.

/// Sorted copy of `xs` (NaNs are a bug in the caller and sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The `p`-th percentile (0..=100) of `xs` with linear interpolation
/// between closest ranks. Panics on an empty slice: every caller has at
/// least one sample by construction.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The first percentile by nearest rank, rounded down: the smallest of up
/// to a hundred samples, the 5th smallest of 500, the 80th of 8 000.
///
/// The reference box is a shared host whose neighbours take cycles away
/// in bursts of a fraction of a second to minutes: over 90 s the *median*
/// cost of a fixed 5 ms computation moved by 30 %, its minimum per second
/// by 2 %; over eight runs the median `live` page load moved by 50 %, its
/// first percentile by 4 %. The bottom of many short samples estimates
/// what the program costs when the host leaves it alone, which is the
/// part a change to the program can move; a few samples above the very
/// smallest keep one fluke from deciding the number.
pub fn low_percentile(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    sorted(xs)[(xs.len() - 1) / 100]
}

/// Smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the "exclusive" method) — the rule the acceptance check of
/// `BENCHMARK.json` applies to ten runs.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let n = v.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [q(1), q(2), q(3)]
}

/// Inter-quartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 99.0), 100.0);
        assert_eq!(percentile(&xs, 100.0), 101.0);
        assert_eq!(percentile(&xs, 250.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn low_percentile_is_the_minimum_of_small_sets() {
        assert_eq!(low_percentile(&[5.0]), 5.0);
        assert_eq!(low_percentile(&[3.0, 9.0, 2.0, 7.0]), 2.0);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(low_percentile(&hundred), 1.0);
        let pass: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(low_percentile(&pass), 5.0);
        let lots: Vec<f64> = (1..=8000).map(f64::from).collect();
        assert_eq!(low_percentile(&lots), 80.0);
    }

    #[test]
    fn min_and_max() {
        assert_eq!(min(&[2.0, -1.0, 5.0]), -1.0);
        assert_eq!(max(&[2.0, -1.0, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }
}
