//! Offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property tests use: the `proptest!`
//! macro over `pattern in strategy` bindings, `any::<T>()`, integer-range
//! strategies, tuple strategies, `proptest::collection::vec`, and the
//! `prop_assert*` macros.  Unlike the real crate there is no shrinking —
//! a failing case panics with the standard assertion message — and case
//! generation is deterministic (seeded from the test name), so failures
//! are reproducible run to run.
//!
//! Setting the environment variable [`SEED_VAR`] (`PROPTEST_RNG_SEED`) to
//! a `u64` mixes it into every test's seed, so repeated runs can draw fresh
//! cases; unset, the streams are exactly the name-seeded ones.  A failing
//! case prints the test name, the variable's value and the case number, and
//! rerunning the test with the same value replays it.

#![warn(missing_docs)]

/// Number of random cases each `proptest!` test executes.
pub const CASES: u32 = 64;

/// The environment variable whose `u64` value, when set, is mixed into
/// every test's seed (see the crate docs).
pub const SEED_VAR: &str = "PROPTEST_RNG_SEED";

/// A deterministic SplitMix64 generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name and an optional run seed: FNV-1a
    /// over the name's bytes, then over the seed's little-endian bytes.
    pub fn seeded(name: &str, seed: Option<u64>) -> Self {
        let seed_bytes = seed.map(u64::to_le_bytes);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes().chain(seed_bytes.into_iter().flatten()) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: hash }
    }

    /// The run seed from [`SEED_VAR`], `None` when it is unset.
    ///
    /// # Panics
    /// If the variable is set but is not a `u64`.
    pub fn run_seed() -> Option<u64> {
        let value = std::env::var(SEED_VAR).ok()?;
        Some(
            value
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{SEED_VAR}={value:?} is not a u64")),
        )
    }

    /// Re-derives the stream for one numbered case so every case is
    /// independent of how much randomness earlier cases consumed.
    pub fn reseed_case(&mut self, case: u32) {
        let mut seeded = Self {
            state: self
                .state
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(case) + 1)),
        };
        // Decorrelate the seed arithmetic.
        seeded.next_u64();
        *self = seeded;
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategy for the full value space of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {
        $(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }

            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add((rng.next_u64() % span) as $t)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = end.wrapping_sub(start) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start.wrapping_add((rng.next_u64() % (span + 1)) as $t)
                }
            }
        )+
    };
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident : $idx:tt),+))+) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )+
    };
}

impl_strategy_tuple! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with a random length in `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec-size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Value-selection strategies (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy drawing uniformly from a fixed list of values (see
    /// [`select`]).
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        values: Vec<T>,
    }

    /// Generates one of `values`, chosen uniformly per case.
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select { values }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.values[(rng.next_u64() % self.values.len() as u64) as usize].clone()
        }
    }
}

/// Everything a property test file needs in scope.
pub mod prelude {
    pub use crate::collection;
    // The real crate aliases its root as `prop` in the prelude, enabling
    // the idiomatic `prop::sample::select(...)` spelling.
    pub use crate::{self as prop};
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Arbitrary, Strategy, TestRng};
}

/// Names the failing case when a property test unwinds (see
/// [`proptest!`]); dropped without a word when the case passes.
#[doc(hidden)]
pub struct CaseReport {
    /// The test's name.
    pub name: &'static str,
    /// The run seed the cases were drawn with.
    pub seed: Option<u64>,
    /// The case being run.
    pub case: u32,
}

impl Drop for CaseReport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let seed = match self.seed {
                Some(seed) => format!("{SEED_VAR}={seed}"),
                None => format!("{SEED_VAR} unset"),
            };
            eprintln!(
                "proptest: {} failed at case {} of {} with {seed}; the same setting replays it",
                self.name, self.case, CASES
            );
        }
    }
}

/// Declares property tests: each `pattern in strategy` binding is sampled
/// freshly for every case, then the body runs.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let seed = $crate::TestRng::run_seed();
                let mut rng = $crate::TestRng::seeded(stringify!($name), seed);
                for case in 0..$crate::CASES {
                    let _report = $crate::CaseReport { name: stringify!($name), seed, case };
                    rng.reseed_case(case);
                    $( let $arg = $crate::Strategy::sample(&($strat), &mut rng); )+
                    $body
                }
            }
        )+
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::seeded("ranges", None);
        for _ in 0..1_000 {
            let v = Strategy::sample(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::sample(&(2usize..9), &mut rng);
            assert!((2..9).contains(&w));
        }
    }

    #[test]
    fn determinism_per_test_name() {
        let mut a = TestRng::seeded("x", None);
        let mut b = TestRng::seeded("x", None);
        let mut c = TestRng::seeded("y", None);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn a_run_seed_changes_the_stream_and_none_keeps_it() {
        // Without a run seed the stream is the name-only FNV-1a one, pinned
        // here so that `cargo test` keeps drawing the same cases.
        assert_eq!(TestRng::seeded("x", None).next_u64(), 0x3382_62d8_f096_398f);
        let two = TestRng::seeded("x", Some(2)).next_u64();
        assert_eq!(two, TestRng::seeded("x", Some(2)).next_u64());
        assert_ne!(two, TestRng::seeded("x", Some(3)).next_u64());
        assert_ne!(two, TestRng::seeded("x", None).next_u64());
    }

    proptest! {
        #[test]
        fn macro_binds_multiple_strategies(mut values in collection::vec(any::<u32>(), 0..16),
                                           arity in 2usize..9) {
            values.sort_unstable();
            prop_assert!(values.len() < 16);
            prop_assert!((2..9).contains(&arity));
            prop_assert_eq!(values.is_empty(), values.is_empty());
        }

        #[test]
        fn macro_supports_tuple_strategies(ops in collection::vec((any::<bool>(), 0u32..50), 1..20)) {
            prop_assert!(!ops.is_empty());
            for (flag, v) in ops {
                let _ = flag;
                prop_assert!(v < 50);
            }
        }

        #[test]
        fn select_draws_only_listed_values(v in prop::sample::select(vec![3u32, 7, 31])) {
            prop_assert!(v == 3 || v == 7 || v == 31);
        }
    }
}
