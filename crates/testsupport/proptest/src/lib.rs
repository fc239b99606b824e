//! A minimal, dependency-free stand-in for the `proptest` property-testing
//! framework.
//!
//! The build environment for this workspace cannot reach crates.io, so the real
//! `proptest` crate is unavailable. This shim implements the subset of its API
//! the workspace's tests use: the [`Strategy`] trait with `prop_map`, numeric
//! range strategies, `any::<T>()`, `prop::collection::vec`,
//! `prop::array::uniform4`, and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!` macros. Inputs are generated from a
//! deterministic per-test RNG (seeded from the test name), so failures are
//! reproducible; shrinking is not implemented — the failing inputs are printed
//! instead.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod array;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use arbitrary::{any, Arbitrary};
pub use strategy::Strategy;
pub use test_runner::{ProptestConfig, TestRng};

/// The `prop` module path used by `prop::collection::vec(..)` etc.
pub mod prop {
    pub use crate::array;
    pub use crate::collection;
}

/// One-stop imports mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests.
///
/// Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(..)]` header followed by `#[test]` functions whose
/// arguments are drawn from strategies with `name in strategy` syntax. Each
/// function becomes a normal `#[test]` that runs the body over `cases`
/// generated inputs and panics with the offending inputs on the first failure.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::from_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&$strategy, &mut rng);)*
                    let inputs = format!("{:?}", ($(&$arg,)*));
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(message) = outcome {
                        panic!(
                            "proptest case {case} of {} failed: {message}\ninputs: {inputs}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body without panicking directly
/// (the harness reports the generated inputs alongside the failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} at {}:{}", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} at {}:{}",
                stringify!($left), stringify!($right), left, right, file!(), line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} != {}`\n  both: {:?} at {}:{}",
                stringify!($left),
                stringify!($right),
                left,
                file!(),
                line!()
            ));
        }
    }};
}

/// Skips the current generated case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            // Rejected case: treat as vacuously passing (no global rejection
            // budget in the shim).
            return ::std::result::Result::Ok(());
        }
    };
}
