//! Reciprocal probabilities (`1/k`) as swept by the paper.
//!
//! Every randomized knob in the paper — the stealing probability `p_steal`,
//! the temporal-locality queue-change probabilities `p_insert` / `p_delete`,
//! and the NUMA out-of-node sampling weight `1/K` — is expressed as a
//! reciprocal `1/k` with `k` a small power of two.  [`Probability`] stores
//! the denominator and provides a branch-cheap sampling primitive.

use crate::rng::Pcg32;

/// A probability of the form `1/denominator`, with `denominator >= 1`.
///
/// `Probability::new(1)` always fires; `Probability::new(8)` fires with
/// probability 1/8, matching the paper's `p_steal = 1/8` default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Probability {
    denominator: u32,
}

impl Probability {
    /// Probability 1 (always fires).
    pub const ALWAYS: Probability = Probability { denominator: 1 };

    /// Creates `1/denominator`.
    ///
    /// # Panics
    /// Panics if `denominator == 0`.
    #[inline]
    pub const fn new(denominator: u32) -> Self {
        assert!(denominator >= 1, "probability denominator must be >= 1");
        Self { denominator }
    }

    /// The denominator `k` of this `1/k` probability.
    #[inline]
    pub const fn denominator(&self) -> u32 {
        self.denominator
    }

    /// The probability as a floating point value in `(0, 1]`.
    #[inline]
    pub fn as_f64(&self) -> f64 {
        1.0 / f64::from(self.denominator)
    }

    /// Samples the event: returns `true` with probability `1/denominator`.
    ///
    /// For a power-of-two denominator this compiles to a mask; otherwise a
    /// single modulo.  Either way it consumes exactly one PRNG draw, so the
    /// schedulers' random streams stay reproducible across configurations.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg32) -> bool {
        if self.denominator == 1 {
            // Still consume a draw to keep downstream streams aligned when a
            // configuration toggles between "always" and "sometimes".
            let _ = rng.next_u32();
            return true;
        }
        if self.denominator.is_power_of_two() {
            rng.next_u32() & (self.denominator - 1) == 0
        } else {
            rng.next_u32().is_multiple_of(self.denominator)
        }
    }

    /// Parses the paper's notation: `"1"` or `"1/8"` or a bare denominator
    /// such as `"8"`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix("1/") {
            return rest.parse::<u32>().ok().filter(|d| *d >= 1).map(Self::new);
        }
        match s.parse::<u32>() {
            Ok(1) => Some(Self::ALWAYS),
            Ok(d) if d >= 1 => Some(Self::new(d)),
            _ => None,
        }
    }
}

impl Default for Probability {
    fn default() -> Self {
        Self::ALWAYS
    }
}

impl std::fmt::Display for Probability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.denominator == 1 {
            write!(f, "1")
        } else {
            write!(f, "1/{}", self.denominator)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        for d in [1u32, 2, 4, 8, 16, 1024, 3, 7] {
            let p = Probability::new(d);
            let s = p.to_string();
            assert_eq!(Probability::parse(&s), Some(p), "round trip for {s}");
        }
        assert_eq!(Probability::parse("8"), Some(Probability::new(8)));
        assert_eq!(Probability::parse("1"), Some(Probability::ALWAYS));
        assert_eq!(Probability::parse("0"), None);
        assert_eq!(Probability::parse("1/0"), None);
        assert_eq!(Probability::parse("nope"), None);
    }

    #[test]
    fn always_always_fires() {
        let mut rng = Pcg32::new(7);
        for _ in 0..100 {
            assert!(Probability::ALWAYS.sample(&mut rng));
        }
    }

    #[test]
    fn empirical_rate_close_to_expected() {
        // 1/8 should fire roughly 12.5% of the time.
        let mut rng = Pcg32::new(42);
        let p = Probability::new(8);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| p.sample(&mut rng)).count();
        let rate = hits as f64 / trials as f64;
        assert!(
            (rate - 0.125).abs() < 0.01,
            "empirical rate {rate} too far from 0.125"
        );
    }

    #[test]
    fn empirical_rate_non_power_of_two() {
        let mut rng = Pcg32::new(9);
        let p = Probability::new(3);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| p.sample(&mut rng)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Probability::new(0);
    }
}
