//! Vendored, dependency-free stand-in for the slice of `proptest` this
//! workspace's property tests use.
//!
//! The build environment has no access to crates.io. This shim keeps the
//! `proptest!` test modules compiling and genuinely property-testing: each
//! test draws `ProptestConfig::cases` deterministic pseudo-random inputs
//! from its strategies and runs the body on every one. What it does *not*
//! do is shrink failures — a failing case prints its index and seed
//! instead, which is enough to reproduce deterministically.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude::*`.
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to execute.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate_value(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate_value(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate_value(&self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate_value(&self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.gen::<u64>() % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate_value(&self, rng: &mut StdRng) -> Self::Value {
                ($( self.$idx.generate_value(rng), )+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// A fixed value "strategy" (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec`s with a size drawn from `size` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    /// The [`vec()`] strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.gen::<u64>() % span) as usize;
            (0..len).map(|_| self.element.generate_value(rng)).collect()
        }
    }
}

/// Derives a stable per-test RNG seed from the test path.
pub fn seed_for(test_name: &str) -> u64 {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the deterministic RNG for one case of one test.
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    StdRng::seed_from_u64(seed_for(test_name) ^ ((case as u64) << 32 | 0x5bd1_e995))
}

/// Property-test assertion; identical to `assert!` in this shim.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property-test equality assertion; identical to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: every `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::case_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    let ($($pat,)+) = (
                        $( $crate::Strategy::generate_value(&($strategy), &mut __rng), )+
                    );
                    $body
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name( $($pat in $strategy),+ ) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn arb_small() -> impl Strategy<Value = f64> {
        (0.0f64..1.0).prop_map(|x| x * 0.5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in -2.0f64..3.0, n in 1usize..10) {
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn mapped_strategy_applies(x in arb_small()) {
            prop_assert!((0.0..0.5).contains(&x));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec((0u64..4, 0.0f64..1.0), 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            for (k, f) in v {
                prop_assert!(k < 4);
                prop_assert!((0.0..1.0).contains(&f));
            }
        }
    }

    #[test]
    fn determinism() {
        let a: Vec<u64> = (0..4)
            .map(|c| {
                let mut rng = crate::case_rng("t", c);
                rand::Rng::gen::<u64>(&mut rng)
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|c| {
                let mut rng = crate::case_rng("t", c);
                rand::Rng::gen::<u64>(&mut rng)
            })
            .collect();
        assert_eq!(a, b);
    }
}
