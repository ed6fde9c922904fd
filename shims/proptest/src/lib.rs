//! Minimal offline stand-in for the `proptest` crate.
//!
//! The repository builds in environments without a crates.io mirror, so this
//! shim reimplements the slice of proptest the test suites rely on:
//!
//! * the [`Strategy`] trait with `prop_map` and `boxed`;
//! * [`any`] for integers and `bool`, range strategies, tuple strategies,
//!   [`Just`], [`collection::vec`], [`option::of`], and `prop_oneof!`;
//! * the `proptest!` macro (with optional `#![proptest_config(..)]` header)
//!   plus `prop_assert!`, `prop_assert_eq!`, and `prop_assume!`.
//!
//! Semantics differ from real proptest in two deliberate ways: sampling is
//! deterministic per test (seeded from the test's module path and name, so
//! a failure recurs at the same case on every run, and no
//! `proptest-regressions/` file is read or written), and shrinking is a
//! **bounded greedy pass** rather than a full shrink tree — on failure the
//! runner asks each strategy for smaller candidates ([`Strategy::shrink`]:
//! integers halve toward their lower bound, vectors truncate and shrink
//! elementwise, options drop to `None`, tuples shrink one component at a
//! time), keeps any candidate that still fails, and stops after a fixed
//! candidate budget — the panic reports both the original and the
//! minimized inputs.
//! `prop_map` and `prop_oneof!` outputs do not shrink (a map cannot be
//! inverted, a union does not know which arm produced the value).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Deterministic generator used for all sampling (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x5DEE_CE66_D1CE_4E5B }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Derives the per-test seed from the test's fully qualified name, so every
/// test gets an independent but fixed random stream.
pub fn rng_for(test_name: &str) -> TestRng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
    for b in test_name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::new(hash)
}

/// How a `proptest!`-generated case ends.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert*!` failed; carries the rendered message.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; the case is not counted.
    Reject,
}

/// Test-runner configuration (`ProptestConfig` in the prelude).
pub mod test_runner {
    /// Number of cases to run per property.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Successful (non-rejected) cases required.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // Real proptest defaults to 256; the heavy simulator-driven
            // properties make a smaller default the right trade here.
            Config { cases: 48 }
        }
    }
}

/// A generator of values of type `Self::Value`.
///
/// This shim's strategies are sampling functions with an optional
/// one-step shrinker; there is no persistent shrink tree. `sample` takes
/// `&self` so one strategy can generate many values (e.g. inside
/// [`collection::vec`]).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Proposes strictly "smaller" variants of a failing `value`, most
    /// aggressive first. The runner keeps a candidate only if it still
    /// fails, so candidates need not stay inside the strategy's support
    /// in spirit — but every implementation here does. Default: no
    /// candidates (the value is already minimal or cannot be shrunk).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { strategy: self, func: f }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Object-safe mirror of [`Strategy`] backing [`BoxedStrategy`].
trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> T;
    fn shrink_dyn(&self, value: &T) -> Vec<T>;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }

    fn shrink_dyn(&self, value: &S::Value) -> Vec<S::Value> {
        self.shrink(value)
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    strategy: S,
    func: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.func)(self.strategy.sample(rng))
    }
}

/// A type-erased strategy. Boxing preserves the inner shrinker.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_dyn(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        self.0.shrink_dyn(value)
    }
}

/// Uniform choice between type-erased alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

/// Builds a [`Union`]; used by the `prop_oneof!` expansion.
pub fn union<T>(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one alternative");
    Union { arms }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;

    /// Smaller variants of a failing value (see [`Strategy::shrink`]).
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }

            fn shrink(&self) -> Vec<$t> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                // Toward zero: the origin, the halfway point, one step.
                let step = if v > 0 { v - 1 } else { v + 1 };
                let mut out = vec![0, v / 2, step];
                out.dedup();
                out.retain(|c| *c != v);
                out
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }

    fn shrink(&self) -> Vec<bool> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Strategy returned by [`any`].
pub struct Any<A>(PhantomData<A>);

impl<A> std::fmt::Debug for Any<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Any")
    }
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;

    fn sample(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }

    fn shrink(&self, value: &A) -> Vec<A> {
        value.shrink()
    }
}

/// The strategy of all values of `A`.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any(PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let lo = self.start as i128;
                let span = (self.end as i128 - lo) as u64;
                (lo + rng.below(span) as i128) as $t
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(self.start as i128, *value as i128)
                    .into_iter()
                    .map(|c| c as $t)
                    .collect()
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                // Full-width ranges (e.g. 0u64..=u64::MAX) span 2^64, which
                // truncates to 0 in u64 — draw raw bits for those instead.
                let span = (hi - lo + 1) as u128;
                let offset = if span > u64::MAX as u128 {
                    rng.next_u64()
                } else {
                    rng.below(span as u64)
                };
                (lo + offset as i128) as $t
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(*self.start() as i128, *value as i128)
                    .into_iter()
                    .map(|c| c as $t)
                    .collect()
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Candidates between a range's lower bound and a failing value: the
/// bound itself, the halfway point, and one step down — the integer
/// shrink ladder every range strategy shares.
fn shrink_toward(lo: i128, v: i128) -> Vec<i128> {
    if v <= lo {
        return Vec::new();
    }
    let mut out = vec![lo, lo + (v - lo) / 2, v - 1];
    out.dedup();
    out.retain(|c| *c != v);
    out
}

macro_rules! impl_tuple_strategy {
    ($($idx:tt => $name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone),+
        {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }

            // One component at a time, the others held fixed.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut tuple = value.clone();
                        tuple.$idx = cand;
                        out.push(tuple);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!(0 => A);
impl_tuple_strategy!(0 => A, 1 => B);
impl_tuple_strategy!(0 => A, 1 => B, 2 => C);
impl_tuple_strategy!(0 => A, 1 => B, 2 => C, 3 => D);
impl_tuple_strategy!(0 => A, 1 => B, 2 => C, 3 => D, 4 => E);
impl_tuple_strategy!(0 => A, 1 => B, 2 => C, 3 => D, 4 => E, 5 => F);

/// `Option` strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `None` a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }

        // `None` first (the biggest step down), then the inner ladder.
        fn shrink(&self, value: &Option<S::Value>) -> Vec<Option<S::Value>> {
            match value {
                None => Vec::new(),
                Some(inner) => std::iter::once(None)
                    .chain(self.0.shrink(inner).into_iter().map(Some))
                    .collect(),
            }
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length interval for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec length range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Vectors whose length falls in `size`, elementwise drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }

        // Truncations first (never below the length floor), then each
        // element's first shrink candidate in place.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let len = value.len();
            let half = self.size.lo + len.saturating_sub(self.size.lo) / 2;
            for shorter in [self.size.lo, half, len.saturating_sub(1)] {
                let dup = out.iter().any(|c: &Vec<_>| c.len() == shorter);
                if shorter >= self.size.lo && shorter < len && !dup {
                    out.push(value[..shorter].to_vec());
                }
            }
            for (i, elem) in value.iter().enumerate() {
                if let Some(cand) = self.elem.shrink(elem).into_iter().next() {
                    let mut copy = value.clone();
                    copy[i] = cand;
                    out.push(copy);
                }
            }
            out
        }
    }
}

/// The glob-import surface test files use.
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, Strategy,
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::union(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Rejects the current case without failing the test.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Defines property tests.
///
/// Supports the subset of real proptest syntax the suites use: an optional
/// `#![proptest_config(expr)]` header followed by `#[test]` functions whose
/// arguments are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
            let strat = ($(($strat),)+);
            // Rebinds the sampled tuple through the user's patterns and
            // runs the body; shrinking re-invokes it on candidates. The
            // helper pins the closure's argument to the strategy's value
            // type so the body type-checks before the first call.
            fn __typed<V, F>(_: &impl $crate::Strategy<Value = V>, f: F) -> F
            where
                F: Fn(&V) -> ::std::result::Result<(), $crate::TestCaseError>,
            {
                f
            }
            let run = __typed(&strat, |vals| {
                let ($($arg,)+) = ::std::clone::Clone::clone(vals);
                $body
                ::std::result::Result::Ok(())
            });
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            // (failing inputs, failure message)
            let mut failing = ::std::option::Option::None;
            // Give rejection-heavy properties (prop_assume!) room to find
            // enough accepted cases without looping forever.
            let max_attempts = config.cases.saturating_mul(16).max(64);
            while failing.is_none() && accepted < config.cases && attempts < max_attempts {
                attempts += 1;
                let vals = $crate::Strategy::sample(&strat, &mut rng);
                match run(&vals) {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        failing = ::std::option::Option::Some((vals, msg));
                    }
                }
            }
            if let ::std::option::Option::Some((vals, msg)) = failing {
                // Bounded greedy shrink: keep the first candidate that
                // still fails, restart from it, give up once the candidate
                // budget is spent or no candidate reproduces the failure.
                let mut best = ::std::clone::Clone::clone(&vals);
                let mut best_msg = msg;
                let mut budget: u32 = 64;
                'shrinking: loop {
                    let mut improved = false;
                    for cand in $crate::Strategy::shrink(&strat, &best) {
                        if budget == 0 {
                            break 'shrinking;
                        }
                        budget -= 1;
                        if let ::std::result::Result::Err($crate::TestCaseError::Fail(m)) =
                            run(&cand)
                        {
                            best = cand;
                            best_msg = m;
                            improved = true;
                            break;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
                panic!(
                    "property `{}` failed at case {} (attempt {})\n\
                     original input: {:?}\n\
                     minimal failing input: {:?}\n{}",
                    stringify!($name),
                    accepted,
                    attempts,
                    vals,
                    best,
                    best_msg
                );
            }
            // A property that never got past its prop_assume! guards proved
            // nothing; vacuous success must not look green.
            assert!(
                accepted > 0,
                "property `{}`: all {} attempts were rejected by prop_assume!",
                stringify!($name),
                attempts
            );
            if accepted < config.cases {
                eprintln!(
                    "warning: property `{}` accepted only {}/{} cases ({} attempts)",
                    stringify!($name),
                    accepted,
                    config.cases,
                    attempts
                );
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::rng_for("x::y");
        let mut b = crate::rng_for("x::y");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::rng_for("x::z");
        assert_ne!(crate::rng_for("x::y").next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_tuples_and_maps_sample_in_bounds() {
        let mut rng = crate::rng_for("bounds");
        let strat = (1u64..10, 0u8..=3).prop_map(|(a, b)| a + u64::from(b));
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!((1..=12).contains(&v));
        }
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = crate::rng_for("vec");
        let strat = crate::collection::vec(any::<u8>(), 2..5);
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!((2..=4).contains(&v.len()));
        }
        let exact = crate::collection::vec(any::<u8>(), 3..=3);
        assert_eq!(exact.sample(&mut rng).len(), 3);
    }

    #[test]
    fn oneof_covers_all_arms() {
        let mut rng = crate::rng_for("oneof");
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[strat.sample(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The macro itself: args bind, asserts pass, assume rejects.
        #[test]
        fn macro_end_to_end(x in 0u64..100, pair in (any::<bool>(), 1usize..4)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(pair.1, pair.1);
            prop_assert!(pair.1 != 0);
        }
    }

    #[test]
    fn range_shrink_steps_toward_the_lower_bound() {
        let strat = 5u64..100;
        assert_eq!(strat.shrink(&80), vec![5, 42, 79]);
        assert_eq!(strat.shrink(&6), vec![5]);
        assert!(strat.shrink(&5).is_empty(), "the lower bound is minimal");
        let signed = -8i32..=8;
        for cand in signed.shrink(&8) {
            assert!((-8..8).contains(&cand), "{cand} escaped the range");
        }
    }

    #[test]
    fn any_shrinks_toward_zero_and_false() {
        assert_eq!(any::<u64>().shrink(&9), vec![0, 4, 8]);
        assert!(any::<u64>().shrink(&0).is_empty());
        assert_eq!(any::<i32>().shrink(&-7), vec![0, -3, -6]);
        assert_eq!(any::<bool>().shrink(&true), vec![false]);
        assert!(any::<bool>().shrink(&false).is_empty());
    }

    #[test]
    fn vec_shrink_truncates_but_respects_the_length_floor() {
        let strat = crate::collection::vec(0u8..10, 2..=6);
        let failing = vec![7u8, 7, 7, 7, 7, 7];
        let candidates = strat.shrink(&failing);
        assert!(candidates.iter().all(|c| c.len() >= 2), "floor violated: {candidates:?}");
        assert!(candidates.contains(&vec![7u8, 7]), "must try the floor truncation");
        assert!(
            candidates.contains(&vec![0u8, 7, 7, 7, 7, 7]),
            "must try shrinking elements in place"
        );
        assert!(strat.shrink(&vec![0u8, 0]).is_empty(), "floor of zeros is minimal");
    }

    #[test]
    fn option_and_tuple_and_boxed_shrinks_compose() {
        let opt = crate::option::of(1u8..50);
        assert_eq!(opt.shrink(&Some(10)), vec![None, Some(1), Some(5), Some(9)]);
        assert!(opt.shrink(&None).is_empty());
        let tuple = (0u8..10, 0u8..10);
        let cands = tuple.shrink(&(4, 0));
        assert!(cands.iter().all(|&(_, b)| b == 0), "minimal component must stay fixed");
        assert!(cands.contains(&(0, 0)) && cands.contains(&(2, 0)) && cands.contains(&(3, 0)));
        let boxed = (3u64..90).boxed();
        assert_eq!(boxed.shrink(&60), vec![3, 31, 59], "boxing must preserve the shrinker");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // No `#[test]`: this property exists to fail and is driven by
        // `failing_property_reports_the_minimized_input` below.
        fn shrink_probe(x in 0u64..1000) {
            prop_assert!(x < 17, "x = {} reached the forbidden zone", x);
        }
    }

    #[test]
    fn failing_property_reports_the_minimized_input() {
        let report = || {
            let payload = std::panic::catch_unwind(shrink_probe).expect_err("probe must fail");
            payload.downcast_ref::<String>().expect("panic carries a String").clone()
        };
        let msg = report();
        assert!(
            msg.contains("minimal failing input: (17,)"),
            "greedy shrink must land exactly on the threshold:\n{msg}"
        );
        assert!(msg.contains("original input: ("), "the unshrunk case must also be reported");
        assert_eq!(report(), msg, "the test's name fixes its cases: a rerun fails the same way");
    }
}
