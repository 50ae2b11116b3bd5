//! Exact order statistics over raw samples.
//!
//! The product's `LogHistogram` rounds to ~3 % buckets, which would make
//! two runs report bit-identical latencies; the benchmark keeps every
//! sample and reports nearest-rank percentiles of the raw values.

/// Percentiles the tail rule may pick, lowest first.
const TAIL_LADDER: [f64; 4] = [75.0, 90.0, 95.0, 99.0];

/// A tail needs this many samples beyond it to mean anything.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest rank of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile, no higher than `wanted`, that still has
/// [`MIN_BEYOND`] samples beyond it; the median when even p75 has not.
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= wanted && samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorted samples with the accessors every report needs.
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    pub fn new(mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        Self { sorted: raw }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, 0 when there are no samples.
    pub fn p(&self, p: f64) -> u64 {
        if self.sorted.is_empty() {
            0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// Same, nanoseconds to microseconds.
    pub fn p_us(&self, p: f64) -> f64 {
        self.p(p) as f64 / 1e3
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<u64>() as f64 / self.sorted.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_set() {
        let v: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 91.0), 100);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.1), 10);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(100_000, 99.0), 99.0);
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        assert_eq!(tail_percentile(200, 99.0), 95.0);
        assert_eq!(tail_percentile(199, 99.0), 90.0);
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(99, 99.0), 75.0);
        assert_eq!(tail_percentile(40, 99.0), 75.0);
        assert_eq!(tail_percentile(39, 99.0), 50.0);
        // A workload that asks for less never gets more.
        assert_eq!(tail_percentile(100_000, 75.0), 75.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn samples_sort_and_summarise() {
        let s = Samples::new(vec![3000, 1000, 2000]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.p(50.0), 2000);
        assert_eq!(s.p_us(100.0), 3.0);
        assert_eq!(s.mean(), 2000.0);
        assert_eq!(Samples::new(Vec::new()).p(99.0), 0);
    }
}
