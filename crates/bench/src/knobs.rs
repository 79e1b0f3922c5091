//! The `PE_*` environment knobs of the bench binaries, parsed in one
//! place.
//!
//! The library crates read no environment (pe-store's `PE_FAULT`
//! injector aside): every value parsed here reaches the flow through a
//! builder field — [`printed_axc::Study`], [`printed_axc::RunManyOptions`]
//! or [`printed_axc::StudyConfig`]. A bad value or an unknown `PE_*`
//! name is an error, never a silent fallback to a default.

use std::path::PathBuf;

use crate::study::BudgetPreset;

/// Every knob value of a run; an unset knob keeps its default.
#[derive(Debug)]
pub struct Knobs {
    /// `PE_BUDGET`: `quick` or `full` (`None`: the binary's default).
    pub budget: Option<BudgetPreset>,
    /// `PE_THREADS`: the worker budget of every pool a binary spins up
    /// (unset or `0`: one per core).
    pub threads: usize,
    /// `PE_CHECKPOINT_EVERY`: search checkpoint cadence in generations
    /// (`0` turns checkpoints off; `None`: the library default).
    pub checkpoint_every: Option<usize>,
    /// `PE_ISLANDS`: island count (`0`/`1`: one population).
    pub islands: Option<usize>,
    /// `PE_MIGRATE_EVERY`: migration cadence of an island search.
    pub migrate_every: Option<usize>,
    /// `PE_CACHE_DIR`: stage-cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `PE_STORE`: design-store file.
    pub store: Option<PathBuf>,
}

impl Knobs {
    /// Parse `(name, value)` pairs, as the process environment holds
    /// them. Names outside `PE_*`, and the fault drill's own
    /// `PE_DRILL_*` child parameters, are ignored. `PE_FAULT` is only
    /// checked: the pe-store injector reads it itself.
    ///
    /// # Errors
    ///
    /// The first bad value, naming the variable and its accepted form,
    /// or the first `PE_*` name that is not a knob.
    pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<Self, String>
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut knobs = Knobs {
            budget: None,
            threads: 0,
            checkpoint_every: None,
            islands: None,
            migrate_every: None,
            cache_dir: None,
            store: None,
        };
        for (name, value) in vars {
            let (name, value) = (name.as_ref(), value.as_ref());
            match name {
                "PE_BUDGET" => knobs.budget = Some(BudgetPreset::parse(value)?),
                "PE_THREADS" => knobs.threads = count(name, value)?,
                "PE_CHECKPOINT_EVERY" => knobs.checkpoint_every = Some(count(name, value)?),
                "PE_ISLANDS" => knobs.islands = Some(count(name, value)?),
                "PE_MIGRATE_EVERY" => knobs.migrate_every = Some(count(name, value)?),
                "PE_CACHE_DIR" => knobs.cache_dir = Some(path(name, value)?),
                "PE_STORE" => knobs.store = Some(path(name, value)?),
                "PE_FAULT" => drop(pe_store::FaultPlan::from_var(value)?),
                _ if !name.starts_with("PE_") || name.starts_with("PE_DRILL_") => {}
                _ => {
                    return Err(format!(
                        "{name} is not a knob; accepted names: PE_BUDGET, PE_THREADS, \
                         PE_CHECKPOINT_EVERY, PE_ISLANDS, PE_MIGRATE_EVERY, PE_CACHE_DIR, \
                         PE_STORE, PE_FAULT"
                    ))
                }
            }
        }
        if knobs.threads == 0 {
            knobs.threads = printed_axc::thread_budget();
        }
        Ok(knobs)
    }

    /// The knobs of this process. A bad knob prints the error and exits
    /// with status 2, so every binary fails the same way before it does
    /// any work.
    #[must_use]
    pub fn from_env() -> Self {
        let vars = std::env::vars_os().map(|(name, value)| {
            (
                name.to_string_lossy().into_owned(),
                value.to_string_lossy().into_owned(),
            )
        });
        Self::parse(vars).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2)
        })
    }
}

fn count(name: &str, value: &str) -> Result<usize, String> {
    value.parse().map_err(|_| {
        format!("{name}={value:?} is not a count; accepted values: a non-negative integer")
    })
}

fn path(name: &str, value: &str) -> Result<PathBuf, String> {
    if value.is_empty() {
        return Err(format!("{name} is empty; accepted values: a path"));
    }
    Ok(PathBuf::from(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, value: &str) -> Result<Knobs, String> {
        Knobs::parse([(name, value)])
    }

    #[test]
    fn every_knob_parses_a_good_value_and_rejects_a_bad_one() {
        let good = |name, value| parse(name, value).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(good("PE_BUDGET", "quick").budget, Some(BudgetPreset::Quick));
        assert_eq!(good("PE_THREADS", "4").threads, 4);
        assert_eq!(
            good("PE_THREADS", "0").threads,
            printed_axc::thread_budget()
        );
        assert_eq!(good("PE_CHECKPOINT_EVERY", "0").checkpoint_every, Some(0));
        assert_eq!(good("PE_ISLANDS", "4").islands, Some(4));
        assert_eq!(good("PE_MIGRATE_EVERY", "5").migrate_every, Some(5));
        assert_eq!(good("PE_CACHE_DIR", "c").cache_dir, Some("c".into()));
        assert_eq!(good("PE_STORE", "s.jsonl").store, Some("s.jsonl".into()));
        good("PE_FAULT", "kill@store_append:3");

        let bad = |name: &str, value: &str| {
            let err = parse(name, value).expect_err(value);
            assert!(err.starts_with(name), "{err}");
            err
        };
        assert!(bad("PE_BUDGET", "fast").contains("quick, full"));
        for name in [
            "PE_THREADS",
            "PE_CHECKPOINT_EVERY",
            "PE_ISLANDS",
            "PE_MIGRATE_EVERY",
        ] {
            for value in ["bogus", "", "-1", "2.5", " 3"] {
                assert!(bad(name, value).contains("a non-negative integer"));
            }
        }
        for name in ["PE_CACHE_DIR", "PE_STORE"] {
            assert!(bad(name, "").contains("a path"));
        }
        assert_eq!(
            bad("PE_FAULT", "garbage"),
            pe_store::FaultPlan::from_var("garbage").unwrap_err()
        );
    }

    #[test]
    fn unknown_pe_names_are_errors_and_others_are_ignored() {
        for name in ["PE_KERNEL", "PE_CACHE_SHARDS", "PE_THREAD"] {
            let err = parse(name, "4").unwrap_err();
            assert!(err.starts_with(&format!("{name} is not a knob")), "{err}");
        }
        let knobs = Knobs::parse([
            ("PE_DRILL_ROLE", "study"),
            ("PATH", "/bin"),
            ("PE_ISLANDS", "2"),
        ]);
        assert_eq!(knobs.map(|k| k.islands), Ok(Some(2)));
    }
}
