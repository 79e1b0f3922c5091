//! Crash-safe search checkpointing for the pipeline's search stage.
//!
//! A GA search is by far the longest stage of a study, and a kill (OOM,
//! SIGKILL, power loss) would otherwise throw the whole stage away. The
//! pieces here wire `pe_nsga`'s generation-level [`SearchCheckpoint`]s
//! into the staged pipeline:
//!
//! * [`CheckpointSpec`] names *where* a search persists its checkpoint
//!   and *how often* (every `every` completed generations, plus a
//!   flush at the end of every island leg and on cancellation).
//! * `island_paths` (crate-internal) is the file layout: one island
//!   saves to the spec's path itself; an archipelago's island `i`
//!   saves to `island_path(spec, i)` and its barriers write the
//!   post-migration [`IslandCheckpoint`] to the spec's path.
//! * `write` (crate-internal) persists one snapshot through
//!   [`pe_store::atomic_write`] — a torn checkpoint write can never
//!   destroy the previous good checkpoint.
//! * `load` (crate-internal) reads a checkpoint back, validating it
//!   against the run's configuration and genome bounds; anything stale,
//!   torn or foreign loads as `None` (with a warning) and the search
//!   starts fresh.
//!
//! The cadence is pure durability policy: it is **not** part of any
//! stage-cache key, and a resumed run reproduces the uninterrupted
//! run's artifacts byte for byte (the RNG stream, population
//! annotations and evaluation counters are all part of the snapshot).
//!
//! [`IslandCheckpoint`]: pe_nsga::IslandCheckpoint

use std::path::{Path, PathBuf};

use pe_nsga::SearchCheckpoint;
use serde::{Deserialize, Serialize};

/// Default checkpoint cadence in completed generations.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 5;

/// The checkpoint cadence a pipeline uses unless
/// [`Study::checkpoint_every`](crate::Study::checkpoint_every) says
/// otherwise: [`DEFAULT_CHECKPOINT_EVERY`].
#[must_use]
pub fn checkpoint_every() -> usize {
    DEFAULT_CHECKPOINT_EVERY
}

/// Where and how often a search persists its generation checkpoint.
///
/// Built by [`Pipeline::search`](crate::Pipeline::search) next to the
/// `Searched` stage-cache entry; direct engine callers can carry their
/// own spec through
/// [`SearchContext::checkpoint`](crate::SearchContext::checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file (written atomically, deleted once the stage's
    /// artifact is safely cached).
    pub path: PathBuf,
    /// Flush cadence in completed generations. `0` turns checkpointing
    /// off entirely (see [`is_active`](Self::is_active)): no flushes
    /// and no resume.
    pub every: usize,
}

impl CheckpointSpec {
    /// Whether this spec asks for checkpointing at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.every > 0
    }
}

/// The per-island checkpoint files of a search over `islands` islands
/// under the spec path `path`: the spec path itself for one island;
/// for an archipelago `foo.ckpt.json` owns `foo.ckpt.island0.json`,
/// `foo.ckpt.island1.json`, … (same stage key, so sibling studies can
/// never collide) and keeps the barrier snapshot itself.
#[must_use]
pub(crate) fn island_paths(path: &Path, islands: usize) -> Vec<PathBuf> {
    if islands == 1 {
        return vec![path.to_path_buf()];
    }
    (0..islands)
        .map(|island| path.with_extension(format!("island{island}.json")))
        .collect()
}

/// Read and parse the JSON file at `path`: `None` when there is no
/// such file, `Err` with the reason when it cannot be read or parsed.
pub(crate) fn read_json<T: Deserialize>(path: &Path) -> Option<Result<T, String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => return Some(Err(format!("unreadable: {e}"))),
    };
    Some(serde_json::from_str(&text).map_err(|e| format!("unparsable: {e}")))
}

/// Load and validate the `what` checkpoint (`"search"`, `"island"`) at
/// `path`.
///
/// Returns `None` — and the caller starts a fresh search — when the
/// file is missing, unreadable, unparsable (torn writes cannot happen
/// thanks to [`pe_store::atomic_write`], but hand-edited or foreign
/// files can), or fails `validate` against this run's configuration
/// and bounds. A present but rejected file is reported to stderr so
/// silently ignored checkpoints are diagnosable.
#[must_use]
pub(crate) fn load<T: Deserialize>(
    path: &Path,
    what: &str,
    validate: impl FnOnce(&T) -> Result<(), String>,
) -> Option<T> {
    read_json(path)?
        .and_then(|checkpoint: T| validate(&checkpoint).map(|()| checkpoint))
        .inspect_err(|reason| {
            eprintln!(
                "warning: ignoring {what} checkpoint {}: {reason}",
                path.display()
            );
        })
        .ok()
}

/// Persist one snapshot at `path` through [`pe_store::atomic_write`].
/// Failures are stderr warnings — a full disk degrades durability, it
/// does not kill the search. Returns whether the snapshot is on disk.
pub(crate) fn write(path: &Path, checkpoint: &impl Serialize) -> bool {
    let json = match serde_json::to_string(checkpoint) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("warning: cannot serialize checkpoint: {e}");
            return false;
        }
    };
    match pe_store::atomic_write(path, json.as_bytes()) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: cannot write checkpoint {}: {e}", path.display());
            false
        }
    }
}

/// Load and validate the single-population checkpoint at `path`
/// against `config` and `bounds` (see [`load`]).
#[must_use]
pub(crate) fn load_search(
    path: &Path,
    config: &pe_nsga::NsgaConfig,
    bounds: &[u32],
) -> Option<SearchCheckpoint> {
    load(path, "search", |cp: &SearchCheckpoint| {
        cp.validate(config, bounds)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{ProgressEvent, RunControl};
    use pe_nsga::{IntProblem, IslandConfig, IslandModel, NsgaConfig, NsgaResult};

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "pe-core-ckpt-{}-{tag}-{unique}.json",
            std::process::id()
        ))
    }

    struct Sphere;
    impl IntProblem for Sphere {
        fn bounds(&self) -> &[u32] {
            &[32, 32, 32]
        }
        fn evaluate(&self, genes: &[u32]) -> pe_nsga::Evaluation {
            let s: f64 = genes.iter().map(|&g| f64::from(g) * f64::from(g)).sum();
            pe_nsga::Evaluation::feasible(vec![s, 96.0 - s])
        }
    }

    fn config() -> NsgaConfig {
        NsgaConfig {
            population: 8,
            generations: 6,
            seed: 11,
            ..NsgaConfig::default()
        }
    }

    /// One population of `config` through the pipeline's GA driver.
    fn run(config: &NsgaConfig, spec: Option<&CheckpointSpec>, ctl: &RunControl<'_>) -> NsgaResult {
        let model = IslandModel::new(IslandConfig::single(config.clone()));
        crate::eval::run_ga(&model, &Sphere, Vec::new(), 1, ctl, &|| None, spec)
            .expect("Sphere never panics")
            .0
    }

    #[test]
    fn file_sink_round_trips_through_load() {
        let path = scratch("roundtrip");
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 2,
        };
        let uninterrupted = run(&config(), None, &RunControl::NONE);
        let _ = run(&config(), Some(&spec), &RunControl::NONE);

        let loaded = load_search(&path, &config(), Sphere.bounds()).expect("checkpoint loads");
        assert_eq!(loaded.generation, 6);
        // Resuming from the final flush reproduces the full run.
        let resumed = run(&config(), Some(&spec), &RunControl::NONE);
        assert_eq!(resumed, uninterrupted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_missing_torn_and_foreign_checkpoints() {
        let missing = scratch("missing");
        assert!(load_search(&missing, &config(), Sphere.bounds()).is_none());

        let torn = scratch("torn");
        std::fs::write(&torn, "{\"generation\": 3, \"trunc").expect("write");
        assert!(load_search(&torn, &config(), Sphere.bounds()).is_none());
        let _ = std::fs::remove_file(&torn);

        // A valid checkpoint from a *different* configuration must not
        // resume this one.
        let path = scratch("foreign");
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 1,
        };
        let _ = run(&config(), Some(&spec), &RunControl::NONE);
        let other = NsgaConfig {
            seed: 999,
            ..config()
        };
        assert!(load_search(&path, &other, Sphere.bounds()).is_none());
        assert!(load_search(&path, &config(), Sphere.bounds()).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn env_cadence_is_a_positive_default() {
        const { assert!(DEFAULT_CHECKPOINT_EVERY > 0) }
        let spec = CheckpointSpec {
            path: scratch("active"),
            every: 0,
        };
        assert!(!spec.is_active());
    }

    #[test]
    fn sink_reports_progress_per_flush() {
        use std::sync::Mutex;
        let path = scratch("events");
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let observer = |e: &ProgressEvent| events.lock().expect("unpoisoned").push(e.clone());
        let ctl = RunControl::new(Some(&observer), None);
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 3,
        };
        let _ = run(&config(), Some(&spec), &ctl);
        let generations: Vec<usize> = events
            .lock()
            .expect("unpoisoned")
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::Checkpoint { generation, .. } => Some(*generation),
                _ => None,
            })
            .collect();
        assert_eq!(generations, [3, 6]);
        let _ = std::fs::remove_file(&path);
    }
}
