//! # prop
//!
//! The workspace's property-testing engine, with integrated shrinking.
//!
//! Hypothesis-style choice streams: a generator is any function of
//! [`Choices`], drawing bounded `u64`s that are recorded as they are
//! produced. Shrinking never touches the generated value directly — it
//! mutates the *recorded choice stream* (truncate the tail, delete
//! aligned chunks, zero an element, halve, decrement) and re-runs the
//! generator, so it composes
//! through arbitrary generator code with no per-type shrinker. A shrunk
//! counterexample is therefore always replayable: re-running the same
//! generator over [`Choices::replay`] with the reported stream rebuilds
//! the exact failing value. The chaos suite uses this to make every
//! counterexample a `(seed, fault_plan)` pair.
//!
//! A property fails by returning `false` or by panicking; both shrink
//! alike, and a panic's message travels with the counterexample. So a
//! property body may call helpers that `assert!`, and end with `true`.
//!
//! ```
//! use prop::{assert_holds, CheckConfig, Choices};
//!
//! let gen = |c: &mut Choices| (c.draw(100), c.draw(100));
//! assert_holds(&CheckConfig::default(), gen, |&(a, b)| {
//!     assert_eq!(a + b, b + a, "addition commutes");
//!     true
//! });
//! ```
//!
//! The only dependency is the vendored `rand`, whose `StdRng` draws the
//! fresh choices: a seed names the same stream wherever it is used.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A recorded stream of bounded choices: the single source of randomness
/// for a generator, and the unit shrinking operates on.
#[derive(Debug)]
pub struct Choices {
    recorded: Vec<u64>,
    index: usize,
    rng: Option<StdRng>,
}

impl Choices {
    /// A fresh random stream seeded by `seed`; every draw is recorded.
    pub fn from_seed(seed: u64) -> Self {
        Choices {
            recorded: Vec::new(),
            index: 0,
            rng: Some(StdRng::seed_from_u64(seed)),
        }
    }

    /// Replay a previously recorded stream. Draws beyond the end of the
    /// stream return 0 (the minimal choice), which is what lets a
    /// truncated stream still generate a (smaller) value.
    pub fn replay(recorded: Vec<u64>) -> Self {
        Choices {
            recorded,
            index: 0,
            rng: None,
        }
    }

    /// Draw one choice in `0..=bound`. Replayed values are clamped to the
    /// bound (monotone: a shrunk stream can only shrink the value).
    pub fn draw(&mut self, bound: u64) -> u64 {
        let v = if self.index < self.recorded.len() {
            self.recorded[self.index].min(bound)
        } else {
            match &mut self.rng {
                Some(rng) => {
                    if bound == u64::MAX {
                        rng.random::<u64>()
                    } else {
                        rng.random_range(0..=bound)
                    }
                }
                None => 0,
            }
        };
        if self.index < self.recorded.len() {
            self.recorded[self.index] = v;
        } else {
            self.recorded.push(v);
        }
        self.index += 1;
        v
    }

    /// Draw a weighted boolean: true with probability `per_mille`/1000.
    /// Shrinks toward `false` (choice 0 maps to false).
    pub fn draw_bool(&mut self, per_mille: u64) -> bool {
        // invert so that choice 0 => false for any weight
        self.draw(999) >= 1000 - per_mille.min(1000)
    }

    /// Draw a list of at most `max` elements, each preceded by a
    /// continue flag that is true with probability `per_mille`/1000.
    /// Deleting one element's draws (its flag and what `gen` drew) leaves
    /// every later draw aligned, so the shrinker can remove whole
    /// elements, which a count prefix would not allow.
    pub fn draw_list<T>(
        &mut self,
        max: usize,
        per_mille: u64,
        mut gen: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < max && self.draw_bool(per_mille) {
            out.push(gen(self));
        }
        out
    }

    /// The recorded stream so far, truncated to what was consumed.
    pub(crate) fn into_recorded(mut self) -> Vec<u64> {
        self.recorded.truncate(self.index);
        self.recorded
    }
}

/// A shrunk failing input: the value, the choice stream that rebuilds it,
/// how many successful shrink steps led here, and how the value failed.
#[derive(Debug)]
pub struct CounterExample<T> {
    /// The (shrunk) failing value.
    pub value: T,
    /// The choice stream: `gen(&mut Choices::replay(choices))` == value.
    pub choices: Vec<u64>,
    /// The seed of the iteration that first failed.
    pub seed: u64,
    /// Accepted shrink steps between the original failure and `value`.
    pub shrink_steps: usize,
    /// The property's panic message on `value`; `None` when it returned
    /// `false`.
    pub panic: Option<String>,
}

impl<T: fmt::Debug> fmt::Display for CounterExample<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "property failed (iteration seed {:#x}, shrunk over {} step(s)):",
            self.seed, self.shrink_steps
        )?;
        writeln!(f, "  value: {:?}", self.value)?;
        writeln!(f, "  replay choices: {:?}", self.choices)?;
        match &self.panic {
            Some(message) => write!(f, "  panic: {message}"),
            None => write!(f, "  the property returned false"),
        }
    }
}

/// Property-check configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Master seed; iteration `i` uses a seed derived from it.
    pub seed: u64,
    /// Number of random inputs to try.
    pub iterations: usize,
    /// Total candidate budget for the shrinking loop.
    pub max_shrink_attempts: usize,
}

impl CheckConfig {
    /// `iterations` inputs from master `seed`, with the default shrink
    /// budget of 2000 candidates.
    pub const fn new(seed: u64, iterations: usize) -> Self {
        CheckConfig {
            seed,
            iterations,
            max_shrink_attempts: 2_000,
        }
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig::new(0xC4A05, 64)
    }
}

/// The seed used for iteration `i` of a check — exposed so a failing
/// iteration printed by CI can be replayed directly.
pub fn iteration_seed(master: u64, i: usize) -> u64 {
    master.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run `prop` against `iterations` generated values. A value fails when
/// `prop` returns `false` or panics. On failure, shrink the choice stream
/// to a (locally) minimal failing input and return it.
pub fn check<T, G, P>(config: &CheckConfig, gen: G, prop: P) -> Result<(), CounterExample<T>>
where
    G: Fn(&mut Choices) -> T,
    P: Fn(&T) -> bool,
{
    for i in 0..config.iterations {
        let seed = iteration_seed(config.seed, i);
        let mut c = Choices::from_seed(seed);
        let value = gen(&mut c);
        if let Err(panic) = holds(&prop, &value) {
            let recorded = c.into_recorded();
            return Err(shrink(
                (recorded, panic),
                seed,
                &gen,
                &prop,
                config.max_shrink_attempts,
            ));
        }
    }
    Ok(())
}

/// [`check`], panicking with the shrunk [`CounterExample`] on failure:
/// its seed, shrink steps, value, replay choices and panic message.
#[track_caller]
pub fn assert_holds<T, G, P>(config: &CheckConfig, gen: G, prop: P)
where
    T: fmt::Debug,
    G: Fn(&mut Choices) -> T,
    P: Fn(&T) -> bool,
{
    let failure = check(config, gen, prop).err();
    // an assertion by contract: a counterexample fails the calling test
    assert!(
        failure.is_none(),
        "{}",
        failure
            .as_ref()
            .map(ToString::to_string)
            .unwrap_or_default()
    );
}

/// Run `prop` on one value. `Err` means it failed: `Err(None)` when it
/// returned `false`, `Err(Some(message))` when it panicked. The panic
/// still reaches the installed hook (a test prints it to its captured
/// output); no hook is swapped, as test threads share it.
fn holds<T, P: Fn(&T) -> bool>(prop: &P, value: &T) -> Result<(), Option<String>> {
    match panic::catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(true) => Ok(()),
        Ok(false) => Err(None),
        Err(payload) => Err(Some(
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        )),
    }
}

/// Total order on choice streams: shorter is smaller, ties broken
/// lexicographically. Shrinking only accepts strictly smaller streams,
/// which guarantees termination.
fn stream_less(a: &[u64], b: &[u64]) -> bool {
    a.len() < b.len() || (a.len() == b.len() && a < b)
}

fn shrink<T, G, P>(
    initial: (Vec<u64>, Option<String>),
    seed: u64,
    gen: &G,
    prop: &P,
    budget: usize,
) -> CounterExample<T>
where
    G: Fn(&mut Choices) -> T,
    P: Fn(&T) -> bool,
{
    // Re-run a candidate stream; if it still fails the property, return
    // the (possibly clamped and truncated) stream it actually consumed,
    // with the failure's panic message.
    let try_fail = |candidate: Vec<u64>| -> Option<(Vec<u64>, Option<String>)> {
        let mut c = Choices::replay(candidate);
        let value = gen(&mut c);
        holds(prop, &value)
            .err()
            .map(|panic| (c.into_recorded(), panic))
    };

    let (mut best, mut best_panic) = initial;
    let mut attempts = 0usize;
    let mut steps = 0usize;
    loop {
        let mut improved = false;

        // Pass 1: chop suffixes (large to small) — deletes whole trailing
        // structure at once.
        let mut chop = best.len();
        while chop > 0 && attempts < budget {
            if chop <= best.len() {
                let candidate: Vec<u64> = best[..best.len() - chop].to_vec();
                attempts += 1;
                if let Some((rec, panic)) = try_fail(candidate) {
                    if stream_less(&rec, &best) {
                        best = rec;
                        best_panic = panic;
                        steps += 1;
                        improved = true;
                        chop = best.len();
                        continue;
                    }
                }
            }
            chop /= 2;
        }

        // Pass 2: delete interior chunks (large to small). A chunk that
        // covers one complete generated element — e.g. a continue-flag
        // plus the element's draws — removes it while keeping every
        // later draw aligned, which count-prefix lowering cannot do.
        let mut chunk = 16usize.min(best.len());
        while chunk > 0 && attempts < budget {
            let mut i = 0;
            let mut deleted_any = false;
            while i + chunk <= best.len() && attempts < budget {
                let mut candidate = best.clone();
                candidate.drain(i..i + chunk);
                attempts += 1;
                if let Some((rec, panic)) = try_fail(candidate) {
                    if stream_less(&rec, &best) {
                        best = rec;
                        best_panic = panic;
                        steps += 1;
                        improved = true;
                        deleted_any = true;
                        continue; // same position now holds the next chunk
                    }
                }
                i += 1;
            }
            if !deleted_any {
                chunk /= 2;
            }
        }

        // Pass 3: per-element lowering — zero, then halve, then decrement.
        let mut i = 0;
        while i < best.len() && attempts < budget {
            let original = best[i];
            for lowered in [0, original / 2, original.saturating_sub(1)] {
                if lowered >= original {
                    continue;
                }
                let mut candidate = best.clone();
                candidate[i] = lowered;
                attempts += 1;
                if let Some((rec, panic)) = try_fail(candidate) {
                    if stream_less(&rec, &best) {
                        best = rec;
                        best_panic = panic;
                        steps += 1;
                        improved = true;
                        break;
                    }
                }
            }
            i += 1;
        }

        if !improved || attempts >= budget {
            break;
        }
    }

    let mut c = Choices::replay(best.clone());
    let value = gen(&mut c);
    CounterExample {
        value,
        choices: best,
        seed,
        shrink_steps: steps,
        panic: best_panic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_stream_replays_identically() {
        let gen = |c: &mut Choices| (0..8).map(|_| c.draw(100)).collect::<Vec<u64>>();
        let mut c = Choices::from_seed(7);
        let v = gen(&mut c);
        let rec = c.into_recorded();
        let mut r = Choices::replay(rec);
        assert_eq!(gen(&mut r), v);
    }

    #[test]
    fn draws_beyond_replay_are_minimal() {
        let mut c = Choices::replay(vec![5]);
        assert_eq!(c.draw(10), 5);
        assert_eq!(c.draw(10), 0);
        assert_eq!(c.draw(10), 0);
    }

    #[test]
    fn replay_clamps_to_bound() {
        let mut c = Choices::replay(vec![999]);
        assert_eq!(c.draw(10), 10);
    }

    #[test]
    fn shrinks_scalar_to_boundary() {
        // property: value < 1000. Failing inputs shrink to exactly 1000.
        let result = check(
            &CheckConfig {
                max_shrink_attempts: 10_000,
                ..CheckConfig::new(1, 200)
            },
            |c| c.draw(1_000_000),
            |v| *v < 1000,
        );
        let ce = result.expect_err("large draws must fail the property");
        assert_eq!(ce.value, 1000, "shrinker should find the exact boundary");
    }

    #[test]
    fn panics_shrink_like_false_and_keep_their_message() {
        // property: value < 1000, stated as an assertion
        let gen = |c: &mut Choices| c.draw(1_000_000);
        let result = check(
            &CheckConfig {
                max_shrink_attempts: 10_000,
                ..CheckConfig::new(1, 200)
            },
            gen,
            |v| {
                assert!(*v < 1000, "too big: {v}");
                true
            },
        );
        let ce = result.expect_err("large draws must panic");
        assert_eq!(ce.value, 1000, "a panic shrinks to the exact boundary");
        assert_eq!(ce.panic.as_deref(), Some("too big: 1000"));
        let mut replay = Choices::replay(ce.choices.clone());
        assert_eq!(gen(&mut replay), ce.value);
        // what assert_holds prints
        assert!(ce
            .to_string()
            .ends_with("value: 1000\n  replay choices: [1000]\n  panic: too big: 1000"));
    }

    #[test]
    fn shrinks_vec_by_deleting_structure() {
        // property: the sum of a generated vector stays under 100
        let gen = |c: &mut Choices| {
            let len = c.draw(20) as usize;
            (0..len).map(|_| c.draw(50)).collect::<Vec<u64>>()
        };
        let result = check(
            &CheckConfig {
                max_shrink_attempts: 10_000,
                ..CheckConfig::new(2, 100)
            },
            gen,
            |v| v.iter().sum::<u64>() < 100,
        );
        let ce = result.expect_err("long vectors overflow the bound");
        let sum: u64 = ce.value.iter().sum();
        assert!(sum >= 100, "counterexample must still fail: sum {sum}");
        // minimal failing shape: every element is load-bearing
        for i in 0..ce.value.len() {
            let mut smaller = ce.value.clone();
            smaller.remove(i);
            assert!(
                smaller.iter().sum::<u64>() < 100 || ce.value[i] == 0,
                "element {i} of {:?} is removable — not minimal",
                ce.value
            );
        }
    }

    #[test]
    fn counterexample_is_replayable() {
        let gen = |c: &mut Choices| c.draw(u64::MAX);
        let result = check(
            &CheckConfig {
                max_shrink_attempts: 1_000,
                ..CheckConfig::new(3, 50)
            },
            gen,
            |v| *v < 42,
        );
        let ce = result.expect_err("must fail");
        let mut replay = Choices::replay(ce.choices.clone());
        assert_eq!(gen(&mut replay), ce.value);
    }

    #[test]
    fn passing_property_returns_ok() {
        let result = check(&CheckConfig::default(), |c| c.draw(10), |v| *v <= 10);
        assert!(result.is_ok());
    }

    #[test]
    fn draw_list_stops_on_a_false_flag_or_at_max() {
        let mut c = Choices::replay(vec![999, 7, 999, 8, 0, 999, 9]);
        assert_eq!(c.draw_list(5, 500, |c| c.draw(10)), [7, 8]);
        let mut c = Choices::replay(vec![999, 1, 999, 2, 999, 3]);
        assert_eq!(c.draw_list(2, 500, |c| c.draw(10)), [1, 2]);
    }

    #[test]
    fn draw_bool_shrinks_toward_false() {
        let mut c = Choices::replay(vec![0]);
        assert!(!c.draw_bool(999), "minimal choice must map to false");
        let mut c = Choices::replay(vec![999]);
        assert!(c.draw_bool(1), "maximal choice must map to true");
    }
}
