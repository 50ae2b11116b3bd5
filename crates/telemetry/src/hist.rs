//! Mergeable log-bucketed latency/error histograms.
//!
//! The layout is HDR-style: values are binned by their power-of-two group
//! and [`SUB_BITS`] sub-bucket bits inside the group, so the relative error
//! of any reported quantile is bounded by one sub-bucket (`1/32` ≈ 3.1%)
//! while the whole histogram is one fixed-size array — recording is a
//! branch and an increment, and merging after join is element-wise
//! addition.  Storage is two-tier: up to [`INLINE_SAMPLES`] raw samples
//! live inline in the struct (exact and allocation-free — per-job
//! rank-probe histograms rarely grow past this), and only a histogram
//! that outgrows the inline tier promotes to the dense ~15 KiB bucket
//! array.  Per-job telemetry objects therefore cost no allocation, no
//! zeroing, and no 15 KiB clone on the completion path.

/// Sub-bucket resolution: each power-of-two group is split into
/// `2^SUB_BITS` equal-width buckets.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per power-of-two group.
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total bucket count: values `< 32` map to themselves (exact), larger
/// values to `32 + shift·32 + sub` where `shift = floor(log2 v) - 5`.
/// The largest `u64` lands on index `32 + 58·32 + 31 = 1919`.
pub const BUCKETS: usize = 1920;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let shift = top - SUB_BITS;
        (SUB_COUNT + u64::from(shift) * SUB_COUNT + ((v >> shift) - SUB_COUNT)) as usize
    }
}

/// The largest value bucket `index` can hold (its representative value:
/// quantiles report bucket upper bounds, clamped into the exact observed
/// `[min, max]` range).
#[inline]
fn bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        index
    } else {
        let shift = (index - SUB_COUNT) / SUB_COUNT;
        let sub = (index - SUB_COUNT) % SUB_COUNT;
        ((SUB_COUNT + sub) << shift) + ((1u64 << shift) - 1)
    }
}

/// Samples held inline (exact, no heap) before a histogram promotes to
/// the dense bucket array.  Sized so a per-job rank-probe histogram —
/// a handful of samples at the default probe interval — never promotes.
pub const INLINE_SAMPLES: usize = 16;

/// The two storage tiers of a [`LogHistogram`].
#[derive(Debug, Clone)]
enum Repr {
    /// Up to [`INLINE_SAMPLES`] raw samples, in recording order.
    Inline([u64; INLINE_SAMPLES], usize),
    /// The dense log-bucketed array.
    Dense(Box<[u64; BUCKETS]>),
}

/// A fixed-size log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, rank errors in key units).
///
/// Small histograms (≤ [`INLINE_SAMPLES`] samples) never allocate and
/// report exact quantiles; merging (`merge`) is how per-worker histograms
/// combine after join without hot-path atomics.
/// [`quantile`](LogHistogram::quantile) follows nearest-rank semantics, so
/// histogram-reported percentiles replace Vec-sort percentiles without
/// changing meaning.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    repr: Repr,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.  Stays allocation-free until it outgrows the
    /// inline tier ([`INLINE_SAMPLES`] samples); only then is the ~15 KiB
    /// dense bucket array heap-allocated.
    pub fn new() -> Self {
        Self {
            repr: Repr::Inline([0; INLINE_SAMPLES], 0),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        match &mut self.repr {
            Repr::Inline(samples, len) if *len < INLINE_SAMPLES => {
                samples[*len] = v;
                *len += 1;
            }
            Repr::Inline(..) => {
                let mut dense = self.promoted();
                dense[bucket_index(v)] += 1;
                self.repr = Repr::Dense(dense);
            }
            Repr::Dense(buckets) => buckets[bucket_index(v)] += 1,
        }
    }

    /// The dense array equivalent of the current inline samples (the
    /// promotion step; `self.repr` must be the inline tier).
    fn promoted(&self) -> Box<[u64; BUCKETS]> {
        let mut dense = Box::new([0u64; BUCKETS]);
        if let Repr::Inline(samples, len) = &self.repr {
            for &v in &samples[..*len] {
                dense[bucket_index(v)] += 1;
            }
        }
        dense
    }

    /// Adds every sample of `other` into `self` (the lock-free after-join
    /// merge).  An inline `other` replays its raw samples (cheap — this is
    /// the per-job completion path); a dense `other` forces `self` dense
    /// and adds element-wise.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        match &other.repr {
            Repr::Inline(samples, len) => {
                for &v in &samples[..*len] {
                    self.record(v);
                }
            }
            Repr::Dense(theirs) => {
                if let Repr::Inline(..) = self.repr {
                    self.repr = Repr::Dense(self.promoted());
                }
                let Repr::Dense(mine) = &mut self.repr else {
                    unreachable!("self was just promoted to the dense tier")
                };
                for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                    *m += t;
                }
                self.count += other.count;
                self.sum = self.sum.saturating_add(other.sum);
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (exact); 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile: the smallest sample with `⌈q·n⌉` samples at
    /// or below it (`q` clamped to `[0, 1]`, NaN treated as 0).  Histograms still on the
    /// inline tier report the exact sample; dense ones report the
    /// containing bucket's upper bound clamped into the exact `[min, max]`
    /// range — so `quantile` never differs from the exact sorted-Vec
    /// percentile by more than one sub-bucket's relative width
    /// (≤ `value/32`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = (q * self.count as f64).ceil() as u64;
        let target = rank.saturating_sub(1).min(self.count - 1);
        match &self.repr {
            Repr::Inline(samples, len) => {
                let mut sorted = *samples;
                let sorted = &mut sorted[..*len];
                sorted.sort_unstable();
                sorted[target as usize]
            }
            Repr::Dense(buckets) => {
                let mut seen = 0u64;
                for (i, &c) in buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    seen += c;
                    if seen > target {
                        return bucket_high(i).clamp(self.min, self.max);
                    }
                }
                self.max
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(h.quantile(q), v, "exact below the first group");
        }
    }

    #[test]
    fn bucket_index_and_high_are_consistent() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} in range for {v}");
            let high = bucket_high(i);
            assert!(high >= v, "upper bound covers the value: {v} -> {high}");
            // One sub-bucket of relative error at most.
            assert!(high - v <= v / 32 + 1, "{v} -> {high}");
            if i + 1 < BUCKETS {
                assert!(bucket_high(i + 1) > high, "bounds strictly increase");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_matches_nearest_rank_semantics() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(2);
        // Nearest rank on [1, 2]: p50 covers one element, the smaller.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 2);
        assert_eq!(h.quantile(1.0), 2);
        assert_eq!(h.quantile(1.5), 2);
        assert_eq!(h.quantile(-0.5), 1);
        assert_eq!(h.quantile(f64::NAN), 1);
        assert_eq!(LogHistogram::new().quantile(0.99), 0);
    }

    #[test]
    fn quantile_is_clamped_to_observed_range() {
        let mut h = LogHistogram::new();
        h.record(1_000_000);
        // The bucket upper bound exceeds the sample; the report may not.
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.quantile(0.0), 1_000_000);
    }

    #[test]
    fn merge_is_sample_union() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [5u64, 100, 7_000] {
            a.record(v);
        }
        for v in [1u64, 90_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 90_000);
        assert_eq!(a.sum(), 5 + 100 + 7_000 + 1 + 90_000);
        assert_eq!(a.quantile(0.0), 1);
        let p99 = a.quantile(0.99);
        assert!((90_000..=90_000 + 90_000 / 32 + 1).contains(&p99));
    }

    #[test]
    fn promotion_to_the_dense_tier_keeps_every_sample() {
        let mut h = LogHistogram::new();
        let n = INLINE_SAMPLES as u64 * 2;
        for v in 0..n {
            h.record(v * 1_000 + 7);
        }
        assert!(matches!(h.repr, Repr::Dense(_)), "outgrew the inline tier");
        assert_eq!(h.count(), n);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), (n - 1) * 1_000 + 7);
        let p50 = h.quantile(0.5);
        let exact = (n / 2 - 1) * 1_000 + 7;
        assert!((exact..=exact + exact / 32 + 1).contains(&p50));
        // Merging an inline histogram into a dense one replays samples.
        let mut small = LogHistogram::new();
        small.record(3);
        h.merge(&small);
        assert_eq!(h.count(), n + 1);
        assert_eq!(h.min(), 3);
        // Merging a dense histogram into an inline one forces promotion.
        let mut inline = LogHistogram::new();
        inline.record(9);
        inline.merge(&h);
        assert_eq!(inline.count(), n + 2);
        assert_eq!(inline.quantile(0.0), 3);
    }
}
