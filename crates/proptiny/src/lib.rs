//! A minimal, dependency-free property-testing harness.
//!
//! Replaces the slice of `proptest` the workspace used: the
//! [`proptiny!`] macro runs a predicate over generated inputs, rejects
//! cases via [`prop_assume!`], checks via [`prop_assert!`] /
//! [`prop_assert_eq!`], and greedily shrinks failures to a small
//! counterexample before panicking with the minimal case and the seed.
//!
//! Design points, per the repo's hermetic-build policy (DESIGN.md):
//!
//! * **Fixed seeds.** Each property derives its base seed from the test
//!   name (FNV-1a), optionally XOR-ed with `PROPTINY_SEED`; runs are
//!   bit-reproducible — the same property explores the same cases on
//!   every machine, so CI failures replay locally by construction.
//! * **Generators are values.** A [`Strategy`] produces a value from a
//!   [`StdRng`] and proposes shrink candidates for a failing value.
//!   Integer ranges (`0u64..100`, `0u8..=7`), tuples of strategies,
//!   [`collection::vec`], [`any`] and `[01]{lo,hi}`-style character
//!   class strings are built in — exactly what the workspace's eleven
//!   property blocks need.
//! * **Greedy shrinking.** On failure the runner walks shrink
//!   candidates depth-first (bounded by
//!   [`Config::max_shrink_steps`]), keeping any candidate that still
//!   fails; panics from the property body count as failures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use detrand::rngs::StdRng;
use detrand::{Rng, RngCore, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod collection;
pub mod schedule;
pub mod strategy;

pub use schedule::{schedule, ScheduleStrategy};
pub use strategy::{any, Arbitrary, Strategy};

/// Module alias so ported `prop::collection::vec(...)` call sites keep
/// their spelling.
pub mod prop {
    pub use crate::collection;
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        proptiny, Config, Strategy,
    };
}

/// Lower-case hex of `raw`, for golden byte vectors in tests.
pub fn hex(raw: &[u8]) -> String {
    raw.iter().map(|b| format!("{b:02x}")).collect()
}

/// Feed a decoder hostile input: every single-byte corruption of each
/// sample, `u32::MAX` written over every 4-byte window of it (so over
/// every length prefix, wherever the format puts them), then 10,000
/// fixed-seed random strings of 0–256 bytes. `decode` only has to
/// return: a panic, or an allocation sized from a forged prefix, fails
/// the calling test.
pub fn hostile_bytes(samples: &[Vec<u8>], mut decode: impl FnMut(&[u8])) {
    for sample in samples {
        let mut raw = sample.clone();
        for i in 0..raw.len() {
            for flip in 1..=u8::MAX {
                raw[i] = sample[i] ^ flip;
                decode(&raw);
            }
            raw[i] = sample[i];
        }
        for i in 0..raw.len().saturating_sub(3) {
            raw[i..i + 4].fill(0xFF);
            decode(&raw);
            raw[i..i + 4].copy_from_slice(&sample[i..i + 4]);
        }
    }
    let mut rng = StdRng::seed_from_u64(0xB17E5);
    for _ in 0..10_000 {
        let mut raw = vec![0u8; rng.gen_range(0..=256)];
        rng.fill_bytes(&mut raw);
        decode(&raw);
    }
}

/// Runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Upper bound on predicate evaluations spent shrinking a failure.
    pub max_shrink_steps: u32,
    /// Upper bound on `prop_assume!` rejections before the property
    /// errors out as vacuous, as a multiple of `cases`.
    pub max_reject_factor: u32,
}

impl Config {
    /// `cases` generated inputs per property, other limits default.
    pub fn with_cases(cases: u32) -> Config {
        Config { cases, ..Config::default() }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config { cases: 64, max_shrink_steps: 1024, max_reject_factor: 20 }
    }
}

/// Outcome of running a property body on one generated case.
#[derive(Debug)]
pub enum CaseResult {
    /// The property held.
    Pass,
    /// `prop_assume!` rejected the case; it counts toward the reject
    /// budget, not toward `cases`.
    Reject,
    /// The property failed with this message.
    Fail(String),
}

impl CaseResult {
    /// Build a failure (used by the `prop_assert*` macros).
    pub fn fail(msg: String) -> CaseResult {
        CaseResult::Fail(msg)
    }
}

/// A shrunk failure, as reported by [`run_collect`].
#[derive(Debug)]
pub struct Failure {
    /// `Debug` rendering of the minimal failing input.
    pub minimal: String,
    /// Failure message of the minimal input.
    pub message: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
}

/// FNV-1a, the per-test seed derivation.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn base_seed(name: &str) -> u64 {
    let env = std::env::var("PROPTINY_SEED").ok().and_then(|v| v.parse::<u64>().ok());
    fnv1a(name) ^ env.unwrap_or(0)
}

/// Run the body, converting panics into failures.
fn eval<V, F>(f: &F, value: V) -> CaseResult
where
    F: Fn(V) -> CaseResult,
{
    match catch_unwind(AssertUnwindSafe(|| f(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic of unknown type".into());
            CaseResult::Fail(format!("panic: {msg}"))
        }
    }
}

/// Run a property, returning the shrunk failure instead of panicking.
///
/// This is the engine behind [`run`]; it is public so the harness can
/// test its own shrinking.
pub fn run_collect<S, F>(name: &str, config: &Config, strategy: &S, f: F) -> Result<(), Failure>
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    let seed = base_seed(name);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut passed = 0u32;
    let mut rejected = 0u64;
    let reject_budget = config.cases as u64 * config.max_reject_factor as u64;

    while passed < config.cases {
        let value = strategy.generate(&mut rng);
        match eval(&f, value.clone()) {
            CaseResult::Pass => passed += 1,
            CaseResult::Reject => {
                rejected += 1;
                if rejected > reject_budget {
                    return Err(Failure {
                        minimal: format!("{value:?}"),
                        message: format!(
                            "property is vacuous: {rejected} cases rejected by prop_assume! \
                             against {passed} passes"
                        ),
                        seed,
                        shrink_steps: 0,
                    });
                }
            }
            CaseResult::Fail(first_msg) => {
                let (minimal, message, shrink_steps) =
                    shrink(config, strategy, &f, value, first_msg);
                return Err(Failure {
                    minimal: format!("{minimal:?}"),
                    message,
                    seed,
                    shrink_steps,
                });
            }
        }
    }
    Ok(())
}

/// Greedy shrink: repeatedly move to the first candidate that still
/// fails, until no candidate fails or the step budget is exhausted.
fn shrink<S, F>(
    config: &Config,
    strategy: &S,
    f: &F,
    mut current: S::Value,
    mut message: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    let mut evals = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for candidate in strategy.shrink(&current) {
            if evals >= config.max_shrink_steps {
                break 'outer;
            }
            evals += 1;
            if let CaseResult::Fail(msg) = eval(f, candidate.clone()) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, steps)
}

/// Run a property and panic with the shrunk counterexample on failure.
pub fn run<S, F>(name: &str, config: &Config, strategy: &S, f: F)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    if let Err(fail) = run_collect(name, config, strategy, f) {
        panic!(
            "[proptiny] property `{name}` failed.\n  minimal case: {}\n  error: {}\n  \
             (base seed {}, {} shrink steps; seeds are fixed — rerunning reproduces this)",
            fail.minimal, fail.message, fail.seed, fail.shrink_steps
        );
    }
}

/// Declare property tests.
///
/// ```
/// use proptiny::prelude::*;
///
/// proptiny! {
///     #![proptiny_config(Config::with_cases(24))]
///
///     fn prop_roundtrip(a in any::<u64>(), n in 1usize..50) {
///         prop_assume!(n % 2 == 1);
///         prop_assert_eq!(a.rotate_left(n as u32).rotate_right(n as u32), a);
///     }
/// }
/// # prop_roundtrip();
/// ```
///
/// In a test module each `fn` would carry `#[test]`; attributes written
/// above a property are forwarded to the generated function.
#[macro_export]
macro_rules! proptiny {
    (
        @internal $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                let strategy = ( $($strat,)+ );
                $crate::run(
                    stringify!($name),
                    &config,
                    &strategy,
                    |( $($arg,)+ )| {
                        $body
                        #[allow(unreachable_code)]
                        $crate::CaseResult::Pass
                    },
                );
            }
        )+
    };
    (#![proptiny_config($cfg:expr)] $($rest:tt)+) => {
        $crate::proptiny!(@internal $cfg; $($rest)+);
    };
    ($($rest:tt)+) => {
        $crate::proptiny!(@internal $crate::Config::default(); $($rest)+);
    };
}

/// Reject the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::CaseResult::Reject;
        }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::CaseResult::fail(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::CaseResult::fail(format!(
                "assertion failed: {} ({}:{})", format!($($fmt)+), file!(), line!()
            ));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return $crate::CaseResult::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left), stringify!($right), l, r, file!(), line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return $crate::CaseResult::fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left), stringify!($right), format!($($fmt)+), l, r,
                file!(), line!()
            ));
        }
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return $crate::CaseResult::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?} ({}:{})",
                stringify!($left), stringify!($right), l, file!(), line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{run_collect, strategy, CaseResult};

    // The harness testing itself: these properties hold.
    proptiny! {
        #[test]
        fn prop_addition_commutes(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(a as u64 + b as u64, b as u64 + a as u64);
        }

        #[test]
        fn prop_ranges_respect_bounds(x in 10u64..20, y in 3u8..=7) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((3..=7).contains(&y));
        }

        #[test]
        fn prop_vec_lengths(v in collection::vec(any::<u8>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
        }

        #[test]
        fn prop_bitstr_alphabet(s in "[01]{0,16}") {
            prop_assert!(s.len() <= 16);
            prop_assert!(s.chars().all(|c| c == '0' || c == '1'));
        }

        #[test]
        fn prop_assume_filters(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptiny! {
        #![proptiny_config(Config::with_cases(7))]

        #[test]
        fn prop_config_applies(_x in any::<u64>()) {
            std::thread_local! {
                static CALLS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
            }
            let calls = CALLS.with(|c| { c.set(c.get() + 1); c.get() });
            prop_assert!(calls <= 7);
        }
    }

    /// Satellite requirement: a deliberately failing property shrinks
    /// to a minimal case.
    #[test]
    fn failing_property_shrinks_to_minimal_int() {
        // "all u64 < 1000" — minimal counterexample is exactly 1000.
        let fail = run_collect(
            "shrink_to_1000",
            &Config::default(),
            &(strategy::any::<u64>(),),
            |(v,)| {
                if v < 1000 {
                    CaseResult::Pass
                } else {
                    CaseResult::Fail("too big".into())
                }
            },
        )
        .expect_err("property must fail");
        assert_eq!(fail.minimal, "(1000,)");
        assert!(fail.shrink_steps > 0, "shrinking must have made progress");
    }

    #[test]
    fn failing_vec_property_shrinks_elements_and_length() {
        // "no vec contains an element ≥ 50" — minimal case is [50].
        let fail = run_collect(
            "shrink_vec",
            &Config { max_shrink_steps: 4096, ..Config::default() },
            &(collection::vec(0u32..1000, 0..40),),
            |(v,): (Vec<u32>,)| {
                if v.iter().any(|&x| x >= 50) {
                    CaseResult::Fail("contains large element".into())
                } else {
                    CaseResult::Pass
                }
            },
        )
        .expect_err("property must fail");
        assert_eq!(fail.minimal, "([50],)");
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let fail = run_collect(
            "shrink_panic",
            &Config::default(),
            &(0u64..=u64::MAX,),
            |(v,)| {
                assert!(v < 12, "boom");
                CaseResult::Pass
            },
        )
        .expect_err("property must fail");
        assert_eq!(fail.minimal, "(12,)");
        assert!(fail.message.contains("panic"));
    }

    #[test]
    fn tuple_shrink_is_componentwise() {
        // Fails whenever a >= 10 (b irrelevant): minimal (10, 0).
        let fail = run_collect(
            "shrink_tuple",
            &Config::default(),
            &(any::<u32>(), any::<u32>()),
            |(a, _b)| {
                if a >= 10 {
                    CaseResult::Fail("a too big".into())
                } else {
                    CaseResult::Pass
                }
            },
        )
        .expect_err("property must fail");
        assert_eq!(fail.minimal, "(10, 0)");
    }

    #[test]
    fn vacuous_property_reports_reject_exhaustion() {
        let fail = run_collect(
            "always_rejected",
            &Config { cases: 4, max_reject_factor: 2, ..Config::default() },
            &(any::<u64>(),),
            |_| CaseResult::Reject,
        )
        .expect_err("must exhaust rejects");
        assert!(fail.message.contains("vacuous"));
    }

    #[test]
    fn fixed_seed_runs_are_reproducible() {
        let observe = || {
            let seen = std::cell::RefCell::new(Vec::new());
            let _ = run_collect(
                "observe_cases",
                &Config::with_cases(16),
                &(any::<u64>(),),
                |(v,)| {
                    seen.borrow_mut().push(v);
                    CaseResult::Pass
                },
            );
            seen.into_inner()
        };
        assert_eq!(observe(), observe());
    }
}
