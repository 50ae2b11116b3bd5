//! A small, fast, seedable PRNG for scheduler hot paths.
//!
//! Every randomized scheduler in the paper (Multi-Queue, SMQ, SprayList)
//! draws random queue indices on *every* operation, so the generator must be
//! a handful of arithmetic instructions with no heap state.  We use the
//! PCG-XSH-RR 64/32 generator (O'Neill, 2014): 64-bit state, 32-bit output,
//! passes PractRand at this size, and is trivially seedable for reproducible
//! tests and experiments.

/// PCG-XSH-RR 64/32 pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;
const PCG_DEFAULT_INC: u64 = 1_442_695_040_888_963_407;

impl Pcg32 {
    /// Creates a generator from a seed.  Two generators created from the same
    /// seed produce identical streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, PCG_DEFAULT_INC >> 1)
    }

    /// Creates a generator on an independent stream, so that per-thread
    /// generators seeded from `(global_seed, thread_id)` do not correlate.
    #[inline]
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        let _ = rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        let _ = rng.next_u32();
        rng
    }

    /// Convenience constructor for per-thread generators.
    #[inline]
    pub fn for_thread(global_seed: u64, thread_id: usize) -> Self {
        Self::with_stream(
            global_seed ^ (thread_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            thread_id as u64 + 1,
        )
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64 random bits (two 32-bit draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses the widening-multiply trick (Lemire, 2019) without the rejection
    /// step: the bias is at most `bound / 2^32`, negligible for the queue
    /// counts (< 10^4) this is used for, and it keeps the hot path to a
    /// single multiply.
    ///
    /// # Panics
    /// Panics in debug builds if `bound == 0`.
    #[inline]
    pub fn next_bounded(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "next_bounded called with bound 0");
        ((u64::from(self.next_u32()) * bound as u64) >> 32) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits scaled into [0, 1).
        let bits = self.next_u64() >> 11;
        bits as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg32::new(123);
        let mut b = Pcg32::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should diverge, {same} collisions");
    }

    #[test]
    fn per_thread_streams_are_independent() {
        let mut a = Pcg32::for_thread(7, 0);
        let mut b = Pcg32::for_thread(7, 1);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn bounded_stays_in_range_and_covers() {
        let mut rng = Pcg32::new(99);
        let bound = 7usize;
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.next_bounded(bound);
            assert!(v < bound);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::new(11);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }
}
