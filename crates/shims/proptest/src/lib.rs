//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], [`sample::subsequence`], the
//! [`proptest!`] macro with `#![proptest_config(...)]`, and the
//! `prop_assert*` macros. Unlike real proptest there is **no input
//! shrinking** — a failing case panics with the sampled inputs' debug
//! representation via the ordinary assert message, and cases are drawn
//! from a fixed deterministic seed sequence so failures reproduce.
//!
//! Case `i` of a property draws from the seed `base ^ i`. The base seed
//! is `PROPTEST_SEED` (decimal or `0x` hex) when set, else
//! [`DEFAULT_SEED`]; `PROPTEST_CASES`, when set, overrides every
//! property's case count. A failing case — a `prop_assert` or any other
//! panic inside the body — panics with the property, the case and its
//! seed, and the two variables that replay exactly that case.

use rand::rngs::StdRng;
use std::ops::{Range, RangeInclusive};

pub use rand::SeedableRng;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// The base seed when `PROPTEST_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0x5eed_0000_0000_0000;

/// Parses a seed in decimal or `0x` hex.
fn parse_seed(text: &str) -> Option<u64> {
    let text = text.trim();
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.replace('_', "").parse().ok(),
    }
}

/// The base seed: `PROPTEST_SEED` when set, else [`DEFAULT_SEED`].
///
/// # Panics
/// Panics when `PROPTEST_SEED` is set but is not a number.
pub fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(text) => parse_seed(&text)
            .unwrap_or_else(|| panic!("PROPTEST_SEED={text:?} is not a decimal or 0x-hex u64")),
        Err(_) => DEFAULT_SEED,
    }
}

/// The case count: `PROPTEST_CASES` when set, else `configured`.
///
/// # Panics
/// Panics when `PROPTEST_CASES` is set but is not a number.
pub fn case_count(configured: u32) -> u32 {
    match std::env::var("PROPTEST_CASES") {
        Ok(text) => text
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES={text:?} is not a u32")),
        Err(_) => configured,
    }
}

/// The message a failing case panics with: the property, the case, the
/// case's seed, how to replay it alone, and what went wrong.
pub fn failure_message(property: &str, case: u64, seed: u64, cause: &str) -> String {
    format!(
        "property {property} failed on case {case} (seed {seed:#018x}; replay it alone with \
         PROPTEST_SEED={seed:#018x} PROPTEST_CASES=1): {cause}"
    )
}

/// The text of a panic payload (`panic!` with a literal or a format).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_owned(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-text panic payload".to_owned()),
    }
}

/// Run configuration (subset of proptest's).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A recipe for generating random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { base: self, f }
    }

    /// Generates a value, then samples from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

/// Always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.sample(rng)).sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Size specifications accepted by collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// `Vec` of values from `element`, with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rand::Rng::gen_range(rng, self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::*;

    /// Order-preserving random subsequence of `values` with a size drawn
    /// from `size`.
    pub struct Subsequence<T: Clone> {
        values: Vec<T>,
        size: SizeRange,
    }

    /// Builds a [`Subsequence`] strategy.
    pub fn subsequence<T: Clone>(values: Vec<T>, size: impl Into<SizeRange>) -> Subsequence<T> {
        let size = size.into();
        assert!(
            size.hi <= values.len(),
            "subsequence size {} exceeds {} candidates",
            size.hi,
            values.len()
        );
        Subsequence { values, size }
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;

        fn sample(&self, rng: &mut TestRng) -> Vec<T> {
            let k = rand::Rng::gen_range(rng, self.size.lo..=self.size.hi);
            // Floyd's algorithm for k distinct indices, then sort to
            // preserve the source order.
            let n = self.values.len();
            let mut picked: Vec<usize> = Vec::with_capacity(k);
            for j in n - k..n {
                let t = rand::Rng::gen_range(rng, 0..=j);
                if picked.contains(&t) {
                    picked.push(j);
                } else {
                    picked.push(t);
                }
            }
            picked.sort_unstable();
            picked.into_iter().map(|i| self.values[i].clone()).collect()
        }
    }
}

/// Asserts within a property (proptest-compatible spelling).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality within a property (proptest-compatible spelling).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality within a property (proptest-compatible spelling).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Defines property tests: each `fn name(arg in strategy, ...)` becomes
/// a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let base = $crate::base_seed();
            for case in 0..$crate::case_count(cfg.cases) as u64 {
                // Case `case` of base `b` is case 0 of base `b ^ case`,
                // so the seed in a failure message replays it alone.
                let seed = base ^ case;
                let mut __rng =
                    <$crate::TestRng as $crate::SeedableRng>::seed_from_u64(seed);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                // Real proptest bodies may `return Ok(())` early, so the
                // body runs in a Result-returning closure; a panic in it
                // (every `prop_assert` is one) is caught to name the case.
                let run = || -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                };
                let cause = match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => continue,
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => e,
                    ::std::result::Result::Err(payload) => $crate::panic_text(&*payload),
                };
                panic!("{}", $crate::failure_message(stringify!($name), case, seed, &cause));
            }
        }
    )*};
}

/// One-stop import, as in `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };

    /// The `prop` shorthand module (`prop::collection`, `prop::sample`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_and_tuples_sample_in_bounds() {
        let mut rng = <TestRng as SeedableRng>::seed_from_u64(1);
        let s = (0..5u32, 1..=3usize);
        for _ in 0..100 {
            let (a, b) = s.sample(&mut rng);
            assert!(a < 5 && (1..=3).contains(&b));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = <TestRng as SeedableRng>::seed_from_u64(2);
        let s = (1..4usize)
            .prop_flat_map(|n| collection::vec(0..n as u32, n).prop_map(move |v| (n, v)));
        for _ in 0..50 {
            let (n, v) = s.sample(&mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| (x as usize) < n));
        }
    }

    #[test]
    fn subsequence_preserves_order_and_distinctness() {
        let mut rng = <TestRng as SeedableRng>::seed_from_u64(3);
        let s = sample::subsequence(vec![1, 2, 3, 4, 5], 1..5);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!(!v.is_empty() && v.len() <= 4);
            assert!(v.windows(2).all(|w| w[0] < w[1]), "{v:?}");
        }
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(
            parse_seed(" 0x5eed_0000_0000_0007 "),
            Some(DEFAULT_SEED ^ 7)
        );
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed("seven"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        fn fails_on_its_fourth_case(x in 0..1000u32) {
            let _ = x;
            CALLS.with(|c| c.set(c.get() + 1));
            let n = CALLS.with(|c| c.get());
            if n == 4 {
                return Err(format!("drew {x}"));
            }
            assert!(n != 6, "panicked on call {n}");
        }
    }

    thread_local! {
        static CALLS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A failing case names the property, the case and the seed that
    /// replays it, whether the body returned an error or panicked; the
    /// two variables it names replay the case alone. (The other
    /// properties in this binary hold for any seed and case count, so
    /// setting the variables here cannot fail them.)
    #[test]
    fn failures_name_the_case_and_the_seed_that_replays_it() {
        let caught = |seed: u64, cases: u32, calls_before: u32| {
            std::env::set_var("PROPTEST_SEED", format!("{seed:#x}"));
            std::env::set_var("PROPTEST_CASES", cases.to_string());
            CALLS.with(|c| c.set(calls_before));
            let payload = std::panic::catch_unwind(fails_on_its_fourth_case).unwrap_err();
            panic_text(&*payload)
        };
        let err = caught(DEFAULT_SEED, 8, 0);
        let seed = DEFAULT_SEED ^ 3;
        let head = format!(
            "property fails_on_its_fourth_case failed on case 3 (seed {seed:#018x}; \
             replay it alone with PROPTEST_SEED={seed:#018x} PROPTEST_CASES=1): drew "
        );
        assert!(err.starts_with(&head), "{err}");
        // The replay fails the same way on the same draw.
        let replay = caught(seed, 1, 3);
        let drawn = &err[head.len()..];
        assert!(replay.contains("failed on case 0 "), "{replay}");
        assert!(replay.ends_with(&format!("): drew {drawn}")), "{replay}");
        // A panic inside the body is named the same way.
        let err = caught(DEFAULT_SEED, 8, 4);
        assert!(err.contains(&format!("on case 1 (seed {:#018x}", DEFAULT_SEED ^ 1)));
        assert!(err.ends_with(": panicked on call 6"), "{err}");
        std::env::remove_var("PROPTEST_SEED");
        std::env::remove_var("PROPTEST_CASES");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_runs_and_binds(x in 0..10u32, v in prop::collection::vec(0..3u8, 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 4);
        }
    }
}
