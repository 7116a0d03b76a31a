//! A minimal property-testing harness: seeded generation, seed reporting
//! and greedy input shrinking.
//!
//! ```
//! use drd_check::{prop, Rng};
//!
//! prop(
//!     64,
//!     |rng: &mut Rng| {
//!         let len = rng.range(0, 16);
//!         rng.bytes(len)
//!     },
//!     |bytes: &Vec<u8>| {
//!         if bytes.iter().all(|&b| usize::from(b) <= bytes.len() * 300) {
//!             Ok(())
//!         } else {
//!             Err("impossible".into())
//!         }
//!     },
//! );
//! ```
//!
//! On failure the harness greedily shrinks the failing input through
//! [`Shrink::shrink`] candidates (a candidate is accepted whenever it still
//! fails the property) and panics with the run seed, the case number, the
//! minimal input and both failure messages. Environment overrides:
//!
//! * `DRD_PROP_SEED` — replay a whole run under a different base seed,
//! * `DRD_PROP_CASES` — override the number of cases,
//! * `DRD_PROP_CASE_SEED` — run exactly one case with the given seed
//!   (printed by a failure report; fastest way to replay a failure).

use crate::rng::Rng;

/// Types that can propose structurally smaller candidates of themselves.
///
/// `shrink` returns candidate replacements, most aggressive first; the
/// harness keeps any candidate that still fails the property and repeats
/// until no candidate fails (greedy descent).
pub trait Shrink: Sized {
    /// Candidate smaller inputs. An empty vector means fully shrunk.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                if *self != 0 {
                    out.push(0);
                    if *self > 1 {
                        out.push(*self / 2);
                    }
                    out.push(*self - 1);
                }
                out
            }
        }
    )*};
}
impl_shrink_uint!(u8, u16, u32, u64, usize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Clone + Shrink> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let n = self.len();
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        out.push(Vec::new());
        if n > 1 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n / 2..].to_vec());
        }
        if n <= 16 {
            for i in 0..n {
                let mut v = self.clone();
                v.remove(i);
                out.push(v);
            }
            for i in 0..n {
                for cand in self[i].shrink().into_iter().take(2) {
                    let mut v = self.clone();
                    v[i] = cand;
                    out.push(v);
                }
            }
        }
        out
    }
}

macro_rules! impl_shrink_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Clone + Shrink),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    };
}
impl_shrink_tuple!(A: 0);
impl_shrink_tuple!(A: 0, B: 1);
impl_shrink_tuple!(A: 0, B: 1, C: 2);
impl_shrink_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed for the run; per-case seeds derive from it.
    pub seed: u64,
    /// Upper bound on shrink *attempts* (candidate evaluations).
    pub max_shrink_steps: u32,
}

impl Config {
    /// A config running `cases` cases under the default seed.
    pub fn new(cases: u32) -> Config {
        Config {
            cases,
            seed: 0xD5C0_DE20_07DA_C007,
            max_shrink_steps: 400,
        }
    }

    /// Overrides the base seed.
    pub fn seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={raw} is not a valid integer"),
    }
}

/// Runs `check` over `cases` inputs drawn from `strategy`.
///
/// # Panics
/// Panics with a seed-reporting, shrunk failure report if any case fails.
pub fn prop<T, G, C>(cases: u32, strategy: G, check: C)
where
    T: Clone + std::fmt::Debug + Shrink,
    G: FnMut(&mut Rng) -> T,
    C: FnMut(&T) -> Result<(), String>,
{
    prop_with(Config::new(cases), strategy, check);
}

/// [`prop`] with an explicit [`Config`].
///
/// # Panics
/// Panics with a seed-reporting, shrunk failure report if any case fails.
pub fn prop_with<T, G, C>(config: Config, mut strategy: G, mut check: C)
where
    T: Clone + std::fmt::Debug + Shrink,
    G: FnMut(&mut Rng) -> T,
    C: FnMut(&T) -> Result<(), String>,
{
    let cases = env_u64("DRD_PROP_CASES").map_or(config.cases, |v| v as u32);
    let base_seed = env_u64("DRD_PROP_SEED").unwrap_or(config.seed);
    let single = env_u64("DRD_PROP_CASE_SEED");

    let mut seed_stream = Rng::new(base_seed);
    for case in 0..cases {
        let case_seed = match single {
            Some(s) => s,
            None => seed_stream.next_u64(),
        };
        let input = strategy(&mut Rng::new(case_seed));
        if let Err(original) = check(&input) {
            let (min, min_err, steps) = shrink_failure(
                input.clone(),
                original.clone(),
                &mut check,
                config.max_shrink_steps,
            );
            panic!(
                "property failed at case {case}/{cases} \
                 (base seed {base_seed:#018x}, case seed {case_seed:#018x})\n\
                 replay just this case with: DRD_PROP_CASE_SEED={case_seed:#x}\n\
                 original input: {input:?}\n\
                 original failure: {original}\n\
                 shrunk input ({steps} shrink attempts): {min:?}\n\
                 shrunk failure: {min_err}"
            );
        }
        if single.is_some() {
            break;
        }
    }
}

/// [`prop_with`] on the work-stealing parallel runner: cases are checked
/// concurrently, yet the failure report is identical to the serial
/// harness — per-case seeds derive from the base seed by case *index*,
/// the **lowest failing case index** is reported (not whichever thread
/// lost the race), and shrinking runs serially on that case. The same
/// `DRD_PROP_SEED` / `DRD_PROP_CASES` / `DRD_PROP_CASE_SEED` overrides
/// apply, so any parallel failure replays with one single-threaded
/// command.
///
/// # Panics
/// Panics with the seed-reporting, shrunk failure report if any case
/// fails.
pub fn prop_par_with<T, G, C>(config: Config, strategy: G, check: C)
where
    T: Clone + std::fmt::Debug + Shrink + Send,
    G: Fn(&mut Rng) -> T + Sync,
    C: Fn(&T) -> Result<(), String> + Sync,
{
    let cases = env_u64("DRD_PROP_CASES").map_or(config.cases, |v| v as u32);
    let base_seed = env_u64("DRD_PROP_SEED").unwrap_or(config.seed);
    let single = env_u64("DRD_PROP_CASE_SEED");

    let mut seed_stream = Rng::new(base_seed);
    let case_seeds: Vec<u64> = match single {
        Some(s) => vec![s],
        None => (0..cases).map(|_| seed_stream.next_u64()).collect(),
    };

    let outcomes: Vec<Option<(T, String)>> =
        crate::runner::run_parallel(case_seeds.len(), |case| {
            let input = strategy(&mut Rng::new(case_seeds[case]));
            match check(&input) {
                Ok(()) => None,
                Err(e) => Some((input, e)),
            }
        });

    if let Some((case, Some((input, original)))) =
        outcomes.into_iter().enumerate().find(|(_, o)| o.is_some())
    {
        let case_seed = case_seeds[case];
        let mut recheck = |t: &T| check(t);
        let (min, min_err, steps) = shrink_failure(
            input.clone(),
            original.clone(),
            &mut recheck,
            config.max_shrink_steps,
        );
        panic!(
            "property failed at case {case}/{cases} \
             (base seed {base_seed:#018x}, case seed {case_seed:#018x})\n\
             replay just this case with: DRD_PROP_CASE_SEED={case_seed:#x}\n\
             original input: {input:?}\n\
             original failure: {original}\n\
             shrunk input ({steps} shrink attempts): {min:?}\n\
             shrunk failure: {min_err}"
        );
    }
}

fn shrink_failure<T, C>(
    mut current: T,
    mut err: String,
    check: &mut C,
    max_steps: u32,
) -> (T, String, u32)
where
    T: Clone + std::fmt::Debug + Shrink,
    C: FnMut(&T) -> Result<(), String>,
{
    let mut steps = 0u32;
    'outer: while steps < max_steps {
        for candidate in current.shrink() {
            if steps >= max_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(e) = check(&candidate) {
                current = candidate;
                err = e;
                continue 'outer;
            }
        }
        break;
    }
    (current, err, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u32;
        prop(
            32,
            |rng: &mut Rng| rng.range(0, 100),
            |_| {
                ran += 1;
                Ok(())
            },
        );
        assert_eq!(ran, 32);
    }

    #[test]
    fn failing_property_panics_with_seed_report() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prop(
                64,
                |rng: &mut Rng| rng.range(0, 1000),
                |&v: &usize| {
                    if v < 500 {
                        Ok(())
                    } else {
                        Err(format!("{v} too big"))
                    }
                },
            );
        }));
        let msg = *caught.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("case seed"), "{msg}");
        assert!(msg.contains("DRD_PROP_CASE_SEED"), "{msg}");
    }

    #[test]
    fn shrinking_finds_a_minimal_vector() {
        // Property: the sum of the bytes stays below 50. The minimal
        // counterexample is a single byte of value 50.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prop(
                200,
                |rng: &mut Rng| {
                    let len = rng.range(0, 12);
                    rng.bytes(len)
                },
                |v: &Vec<u8>| {
                    let sum: u32 = v.iter().map(|&b| u32::from(b)).sum();
                    if sum < 50 {
                        Ok(())
                    } else {
                        Err(format!("sum {sum}"))
                    }
                },
            );
        }));
        let msg = *caught.expect_err("must fail").downcast::<String>().unwrap();
        // The shrunk counterexample is tiny: a one-element vector.
        let shrunk = msg.split("shrunk input").nth(1).unwrap();
        let open = shrunk.find('[').unwrap();
        let close = shrunk.find(']').unwrap();
        let body = &shrunk[open + 1..close];
        assert!(
            body.split(',').count() <= 2,
            "shrunk to at most two bytes: {msg}"
        );
    }

    #[test]
    fn shrink_candidates_are_smaller() {
        let v = vec![3u8, 200, 7];
        for cand in v.shrink() {
            let size: usize = cand.iter().map(|&b| 1 + b as usize).sum();
            let orig: usize = v.iter().map(|&b| 1 + b as usize).sum();
            assert!(size < orig, "{cand:?} not smaller than {v:?}");
        }
        assert!(0u32.shrink().is_empty());
        assert!(false.shrink().is_empty());
        assert_eq!(true.shrink(), vec![false]);
    }

    /// The parallel harness reports byte-for-byte the same failure as the
    /// serial one: same case index, same case seed, same shrunk input.
    #[test]
    fn parallel_failure_report_matches_serial() {
        let strategy = |rng: &mut Rng| rng.range(0, 1000);
        let check = |&v: &usize| {
            if v < 500 {
                Ok(())
            } else {
                Err(format!("{v} too big"))
            }
        };
        let serial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prop(64, strategy, check);
        }));
        let parallel = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prop_par_with(Config::new(64), strategy, check);
        }));
        let serial_msg = *serial.expect_err("fails").downcast::<String>().unwrap();
        let parallel_msg = *parallel.expect_err("fails").downcast::<String>().unwrap();
        assert_eq!(serial_msg, parallel_msg);
    }

    #[test]
    fn parallel_prop_passes_clean_properties() {
        prop_par_with(
            Config::new(128),
            |rng: &mut Rng| rng.range(0, 100),
            |&v: &usize| {
                if v < 100 {
                    Ok(())
                } else {
                    Err("impossible".into())
                }
            },
        );
    }

    #[test]
    fn tuple_shrink_covers_all_slots() {
        let t = (2u8, vec![1u8], true);
        let cands = t.shrink();
        assert!(cands.iter().any(|c| c.0 == 0));
        assert!(cands.iter().any(|c| c.1.is_empty()));
        assert!(cands.iter().any(|c| !c.2));
    }
}
