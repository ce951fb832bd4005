//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset of the proptest API this repository uses: the
//! [`strategy::Strategy`] trait with `prop_map`/`boxed`, range and tuple
//! strategies,
//! [`arbitrary::any`], `prop::collection::vec`, the `proptest!` /
//! `prop_assert*` / `prop_assume!` / `prop_oneof!` macros and
//! [`test_runner::ProptestConfig`].
//!
//! Semantics: each test runs `cases` deterministic random cases (seeded
//! from the test name, so failures reproduce across runs). There is **no
//! shrinking** — a failing case reports its inputs via the panic message
//! of the `prop_assert*` macro that fired.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use rand::{Rng as _, SeedableRng as _};

/// The per-case random source handed to strategies.
pub struct TestRng {
    inner: rand::rngs::StdRng,
}

impl TestRng {
    /// Deterministic per-(test, case) generator.
    pub fn deterministic(name: &str, case: u64) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the name
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            inner: rand::rngs::StdRng::seed_from_u64(
                seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw from `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n.max(1))
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (for heterogeneous collections such as
        /// `prop_oneof!` arms).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(std::rc::Rc::new(self))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(std::rc::Rc<dyn Strategy<Value = V>>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union; panics on an empty arm list.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.arms.len());
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng as _;
                    rng.inner_mut().gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng as _;
                    rng.inner_mut().gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
}

impl TestRng {
    pub(crate) fn inner_mut(&mut self) -> &mut rand::rngs::StdRng {
        &mut self.inner
    }
}

pub mod arbitrary {
    //! `any::<T>()` — whole-domain strategies per type.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng as _;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_via_rand {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.inner_mut().gen()
                }
            }
        )*};
    }
    impl_arbitrary_via_rand!(
        u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, f64, f32
    );

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.inner_mut().gen()
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(core::marker::PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy producing arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng as _;

    /// Vec strategy with a length range.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// Generates `Vec`s of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.inner_mut().gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Runner configuration.

    /// Subset of proptest's config: the number of cases per test.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real proptest defaults to 256; 64 keeps the software-AES
            // test suite fast while still exploring the space.
            ProptestConfig { cases: 64 }
        }
    }
}

/// Drives one property: runs `cfg.cases` deterministic cases, panicking on
/// the first failure with the case index (re-running reproduces it).
pub fn run_cases<F>(name: &str, cfg: &test_runner::ProptestConfig, mut body: F)
where
    F: FnMut(&mut TestRng) -> Result<(), String>,
{
    for case in 0..u64::from(cfg.cases) {
        let mut rng = TestRng::deterministic(name, case);
        if let Err(msg) = body(&mut rng) {
            panic!("proptest '{name}' failed at case {case}/{}: {msg}", cfg.cases);
        }
    }
}

/// Everything a test module needs in scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` module path used by `prop::collection::vec`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($lhs), stringify!($rhs), lhs, rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(lhs == rhs) {
            return ::core::result::Result::Err(::std::format!(
                "{}\n  left: {:?}\n right: {:?}",
                ::std::format!($($fmt)+), lhs, rhs
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            lhs
        );
    }};
}

/// Discards the current case (counts as a pass; no replacement draw).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// The property-test declaration macro. Supports the forms this repository
/// uses: an optional `#![proptest_config(..)]` header and test functions
/// whose parameters are either `name in strategy` or `name: Type`
/// (shorthand for `name in any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    (@fns ($cfg:expr)) => {};
    (@fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_cases(stringify!($name), &config, |__proptest_rng| {
                $crate::proptest!(@bind __proptest_rng $($params)*);
                { $body };
                ::core::result::Result::Ok(())
            });
        }
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    // Parameter binding: `name in strategy` form.
    (@bind $rng:ident $name:ident in $strat:expr) => {
        let $name = $crate::strategy::Strategy::generate(&($strat), $rng);
    };
    (@bind $rng:ident $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::strategy::Strategy::generate(&($strat), $rng);
        $crate::proptest!(@bind $rng $($rest)*);
    };
    // Parameter binding: `name: Type` shorthand for `any::<Type>()`.
    (@bind $rng:ident $name:ident: $ty:ty) => {
        let $name: $ty = $crate::strategy::Strategy::generate(&$crate::arbitrary::any::<$ty>(), $rng);
    };
    (@bind $rng:ident $name:ident: $ty:ty, $($rest:tt)*) => {
        let $name: $ty = $crate::strategy::Strategy::generate(&$crate::arbitrary::any::<$ty>(), $rng);
        $crate::proptest!(@bind $rng $($rest)*);
    };
    (@bind $rng:ident) => {};
    // Entry without a config header.
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(a in 10u64..20, b in 0u8..=3, c: u16) {
            prop_assert!((10..20).contains(&a));
            prop_assert!(b <= 3);
            let _ = c;
        }

        #[test]
        fn maps_and_tuples_compose(
            pair in (0u32..10, 0u32..10).prop_map(|(x, y)| x + y),
            v in prop::collection::vec(any::<u8>(), 1..5),
        ) {
            prop_assert!(pair < 20);
            prop_assert!(!v.is_empty() && v.len() < 5);
        }

        #[test]
        fn oneof_selects_arms(x in prop_oneof![Just(1u8), Just(2u8), (5u8..7).prop_map(|v| v)]) {
            prop_assert!(x == 1 || x == 2 || x == 5 || x == 6);
        }

        #[test]
        fn assume_skips(n in 0u8..10) {
            prop_assume!(n < 5);
            prop_assert!(n < 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn config_header_is_honored(x: bool) {
            let _ = x;
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::deterministic("t", 3);
        let mut b = crate::TestRng::deterministic("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::deterministic("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
