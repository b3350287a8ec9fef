//! Minimal, offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of the proptest 1.x surface used by `tests/properties.rs`:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]` support),
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assume!`,
//! * range strategies (`0u64..10_000`, `0.01f64..0.3`, `0u64..=max`, ...),
//! * `any::<T>()` for primitive `T`,
//! * `proptest::collection::vec(strategy, size_range)`.
//!
//! Unlike real proptest there is no shrinking: failures report the seed and
//! case index instead. Generation is fully deterministic — the RNG is seeded
//! from the test name (plus `PROPTEST_SEED` if set), so failures reproduce.

pub mod strategy;

pub mod collection {
    pub use crate::strategy::vec;
}

pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig};
}

/// Per-test configuration. Only the knobs the workspace uses are modelled.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// SplitMix64 — small, deterministic, good enough for test-input generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Deterministic per-test RNG; `PROPTEST_SEED` perturbs all tests at once.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(extra) = s.parse::<u64>() {
                h ^= extra.rotate_left(17);
            }
        }
        Self::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift; bias is irrelevant for test-input generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Skip the current generated case when its inputs don't satisfy a
/// precondition. Expands to an early return from the per-case closure.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::option::Option::None;
        }
    };
}

/// Subset of proptest's `proptest!` macro: a block of `#[test]` functions
/// whose arguments are drawn from strategies, run for `config.cases` cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            #[test]
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::for_test(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let ran = (move || -> ::core::option::Option<()> {
                        $body
                        ::core::option::Option::Some(())
                    })();
                    // `None` means a prop_assume! rejected this case.
                    let _ = (ran, case);
                }
            }
        )*
    };
    (
        $(
            #[test]
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                #[test]
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::{vec, Strategy};
    use crate::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let a: Vec<u64> = {
            let mut r = TestRng::for_test("x");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::for_test("x");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (5u64..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let f = (0.25f64..0.5).generate(&mut rng);
            assert!((0.25..0.5).contains(&f));
            let i = (3usize..=9).generate(&mut rng);
            assert!((3..=9).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let mut rng = TestRng::new(9);
        for _ in 0..200 {
            let v = vec(0u64..100, 2..6).generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_asserts(x in 1u64..100, data in vec(0u64..10, 0..5)) {
            prop_assert!(x >= 1 && x < 100);
            prop_assert_eq!(data.len(), data.len());
            prop_assume!(x != 1);
            prop_assert!(x > 1);
        }
    }
}
