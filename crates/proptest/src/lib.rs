//! Vendored minimal property-testing framework for offline builds.
//!
//! A drop-in for the subset of `proptest` used by this workspace: the
//! [`Strategy`] trait with `prop_map`, range and tuple strategies,
//! [`collection::vec`], [`any`], and the [`proptest!`]/[`prop_assert!`]/
//! [`prop_assert_eq!`] macros. Cases are generated from a deterministic
//! splitmix64 stream seeded by the test name, so failures reproduce
//! exactly; there is no shrinking — the failing case index and seed are
//! reported instead.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator from an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed }
    }

    /// A generator whose seed is derived from the test name, so every run
    /// of the same test sees the same case sequence.
    pub fn deterministic(name: &str) -> Self {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Self::from_seed(h)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

// ---------------------------------------------------------------------------
// Failure plumbing
// ---------------------------------------------------------------------------

/// A failed property assertion, carried back to the harness.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Result type property bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value from the strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `map`.
    fn prop_map<U, F>(self, map: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        MapStrategy { inner: self, map }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct MapStrategy<S, F> {
    inner: S,
    map: F,
}

impl<S, U, F> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.map)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $ty
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.next_below(span) as i128) as $ty
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        (self.start as f64..self.end as f64).generate(rng) as f32
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
    (A, B, C, D, E, F, G, H, I)
    (A, B, C, D, E, F, G, H, I, J)
    (A, B, C, D, E, F, G, H, I, J, K)
    (A, B, C, D, E, F, G, H, I, J, K, L)
}

/// A strategy that always yields a clone of one value — the real crate's
/// `Just`, used standalone or as a `prop_oneof!` arm.
#[derive(Debug, Clone, Copy)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted union over strategies sharing one value type; built by
/// [`prop_oneof!`]. Arms are type-erased so heterogeneous strategies (a
/// range, a [`Just`], a nested union) can mix freely.
pub struct UnionStrategy<T> {
    arms: Vec<(u32, Box<dyn Fn(&mut TestRng) -> T>)>,
    total: u64,
}

impl<T> UnionStrategy<T> {
    /// A union from `(weight, generator)` arms; weights must not all be 0.
    pub fn new(arms: Vec<(u32, Box<dyn Fn(&mut TestRng) -> T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof needs a positive total weight");
        Self { arms, total }
    }
}

impl<T> Strategy for UnionStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.next_below(self.total);
        for (weight, arm) in &self.arms {
            if pick < *weight as u64 {
                return arm(rng);
            }
            pick -= *weight as u64;
        }
        unreachable!("pick is bounded by the total weight")
    }
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_f64()
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length bounds for [`vec`]: an exact `usize` or a `Range<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.next_below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The `prop::` namespace from the real crate's prelude.
pub mod prop {
    pub use crate::collection;
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        prop_oneof, proptest, Arbitrary, Just, ProptestConfig, Strategy, TestCaseError,
        TestCaseResult, TestRng, UnionStrategy,
    };
}

/// Declares property tests. Mirrors the real `proptest!` item form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_prop(x in 0u32..10, ys in prop::collection::vec(0f64..1.0, 1..5)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (@with_config ($config:expr)
     $($(#[$meta:meta])* fn $name:ident ($($pat:pat in $strategy:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    let ($($pat,)+) =
                        ($($crate::Strategy::generate(&($strategy), &mut rng),)+);
                    let outcome: $crate::TestCaseResult = (|| { $body Ok(()) })();
                    if let Err(e) = outcome {
                        panic!(
                            "property `{}` failed on case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Weighted (`w => strategy`) or uniform (`strategy, ...`) choice between
/// strategies sharing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::UnionStrategy::new(vec![
            $({
                let s = $strategy;
                (
                    $weight as u32,
                    ::std::boxed::Box::new(move |rng: &mut $crate::TestRng| {
                        $crate::Strategy::generate(&s, rng)
                    }) as ::std::boxed::Box<dyn Fn(&mut $crate::TestRng) -> _>,
                )
            }),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

/// Skips the current case when `cond` is false. The real crate rejects and
/// redraws; this harness simply counts the case as passed, which keeps the
/// deterministic case stream intact.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Fails the enclosing property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property when the operands differ. Operands are
/// borrowed, not consumed.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
}

/// Fails the enclosing property when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(42);
        for _ in 0..1000 {
            let v = (5u32..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let f = (-2.5f64..3.5).generate(&mut rng);
            assert!((-2.5..3.5).contains(&f));
            let i = (-8i64..=-3).generate(&mut rng);
            assert!((-8..=-3).contains(&i));
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("case");
        let mut b = TestRng::deterministic("case");
        let s = collection::vec(0f64..1.0, 3..9);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_wires_strategies(x in 1u32..5, ys in prop::collection::vec(0f64..1.0, 2)) {
            prop_assert!(x >= 1 && x < 5);
            prop_assert_eq!(ys.len(), 2);
            prop_assert_ne!(x, 0);
        }
    }
}
