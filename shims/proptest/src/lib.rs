//! Minimal offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this shim implements the
//! subset of proptest's API that LIBRA's property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, numeric-range and
//! tuple strategies, [`collection::vec`], [`Just`], [`prop_oneof!`],
//! [`bool::ANY`], [`ProptestConfig`], and the `prop_assert*` macros.
//!
//! Differences from real proptest, by design:
//! * **no shrinking** — a failing case reports its case index and the
//!   deterministic per-test seed instead of a minimized input;
//! * **deterministic runs** — the RNG is seeded from the test's module
//!   path, so failures reproduce exactly across runs and machines.

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything the tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };

    /// The `prop::` path used for `prop::collection::vec`, `prop::bool::ANY`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Per-`proptest!`-block configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases (mirrors proptest's constructor).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the suite fast while still
        // exercising the input space (runs are deterministic anyway).
        ProptestConfig { cases: 64 }
    }
}

/// A failed `prop_assert*` inside a test case.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic per-test RNG: the seed is an FNV-1a hash of the test path.
#[doc(hidden)]
pub fn test_rng(test_path: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h)
}

/// A value generator (the proptest `Strategy` trait, minus shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// Uniform choice among same-typed strategies (backs [`prop_oneof!`]).
#[derive(Debug, Clone)]
pub struct Union<S> {
    options: Vec<S>,
}

impl<S> Union<S> {
    /// Builds a union over `options`.
    ///
    /// # Panics
    /// Panics if `options` is empty.
    pub fn new(options: Vec<S>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<S: Strategy> Strategy for Union<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        let i = rng.gen_index(self.options.len());
        self.options[i].generate(rng)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range_f64(self.start, self.end)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        // Treated as half-open; the boundary point has measure zero anyway.
        rng.gen_range_f64(*self.start(), *self.end())
    }
}

macro_rules! unsigned_int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range_u64(self.start as u64, self.end as u64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range_u64(*self.start() as u64, *self.end() as u64 + 1) as $t
            }
        }
    )*};
}

unsigned_int_strategies!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategies {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, G)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;

    /// A strategy for `Vec`s with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.draw(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// An inclusive length range for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn draw(self, rng: &mut StdRng) -> usize {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range_u64(self.lo as u64, self.hi as u64 + 1) as usize
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

/// Boolean strategies (`prop::bool::ANY`).
pub mod bool {
    use super::Strategy;
    use rand::rngs::StdRng;

    /// A strategy producing `true`/`false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// Either boolean, uniformly.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = core::primitive::bool;

        fn generate(&self, rng: &mut StdRng) -> core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...)` runs
/// `config.cases` times with deterministically generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let test_path = concat!(module_path!(), "::", stringify!($name));
            let mut rng = $crate::test_rng(test_path);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {test_path} failed at case {case}/{}: {e}",
                        config.cases
                    );
                }
            }
        }
    )*};
}

/// `assert!` that fails the current proptest case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that fails the current proptest case with context.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            let msg = format!($($fmt)*);
            $crate::prop_assert!(
                false,
                "{msg}\nassertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                left,
                right
            );
        }
    }};
}

/// `assert_ne!` that fails the current proptest case with context.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            left
        );
    }};
}

/// Uniform choice among strategies of the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($option),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_generation() {
        let s = prop::collection::vec(0.0f64..1.0, 3..=5);
        let mut r1 = crate::test_rng("a");
        let mut r2 = crate::test_rng("a");
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respected(x in 1u64..=9, f in 0.5f64..2.0, b in prop::bool::ANY) {
            prop_assert!((1..=9).contains(&x));
            prop_assert!((0.5..2.0).contains(&f));
            prop_assert_ne!(b, !b);
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec((0u8..3, 2u64..8), 1..=4).prop_map(|p| p.len()),
        ) {
            prop_assert!((1..=4).contains(&v));
        }

        #[test]
        fn oneof_picks_members(x in prop_oneof![Just(1u32), Just(2), Just(3)]) {
            prop_assert!((1..=3).contains(&x), "got {x}");
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_case_panics_with_context() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn inner(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        inner();
    }
}
