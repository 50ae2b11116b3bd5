//! Property test: `LogHistogram::quantile` agrees with the exact
//! nearest-rank percentile of the sorted samples within one log-bucket of
//! relative error.
//!
//! Both sides use the same nearest-rank semantics (`⌈q·n⌉`, clamped), so
//! the histogram answer must sit in `[exact, exact + exact/32 + 1]`: the
//! 5-sub-bucket layout stores values below 32 exactly and rounds larger
//! values up to a bucket edge at most `value/32` away.

use proptest::prelude::*;
use smq_telemetry::LogHistogram;

/// The reference: the smallest element of a non-empty ascending slice such
/// that at least `q·n` elements are ≤ it (`q` in `[0, 1]`).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

proptest! {
    #[test]
    fn quantile_matches_percentile_within_one_bucket(
        samples in proptest::collection::vec(0u64..(1u64 << 40), 1..200),
        q_permille in 0u64..=1000u64,
    ) {
        let q = q_permille as f64 / 1000.0;
        let mut hist = LogHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = percentile(&sorted, q);
        let approx = hist.quantile(q);
        assert!(
            approx >= exact,
            "quantile({q}) = {approx} fell below the exact nearest-rank {exact}"
        );
        let bound = exact + exact / 32 + 1;
        assert!(
            approx <= bound,
            "quantile({q}) = {approx} above the one-bucket bound {bound} (exact {exact})"
        );
    }

    #[test]
    fn small_values_are_exact(
        samples in proptest::collection::vec(0u64..32, 1..100),
        q_permille in 0u64..=1000u64,
    ) {
        let q = q_permille as f64 / 1000.0;
        let mut hist = LogHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        // The first 32 buckets are unit-width: below 32 the histogram is
        // not an approximation at all.
        assert_eq!(hist.quantile(q), percentile(&sorted, q));
    }
}
