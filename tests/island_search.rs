//! Island-model search acceptance contract:
//!
//! * `islands(1)` (or unset) keeps the single population's engine
//!   name and its artifacts byte for byte;
//! * an archipelago's merged front and full `Selected` artifact are
//!   byte-identical at any evaluator worker budget;
//! * resuming an island run from any persisted epoch checkpoint
//!   reproduces the uninterrupted run bit-exactly, across crash/resume
//!   thread-budget and worker-count combinations (the `IslandModel`
//!   property mirror of `checkpoint_resume.rs`).

use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;

use printed_mlps::axc::{AxTrainConfig, CachedEvaluator, Selected, Study, StudyConfig};
use printed_mlps::datasets::Dataset;
use printed_mlps::nsga::{
    Evaluation, IntProblem, IslandCheckpoint, IslandConfig, IslandModel, NsgaConfig, NsgaResult,
    Resume, SearchHooks,
};

/// A small-but-real GA budget: large enough that islands migrate
/// several times (default cadence 5 < 8 generations), small enough
/// for CI.
fn base_config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        ga: AxTrainConfig {
            fitness_subsample: Some(150),
            nsga: NsgaConfig {
                population: 16,
                generations: 8,
                seed,
                ..NsgaConfig::default()
            },
            ..AxTrainConfig::default()
        },
        sgd_epochs_scale: 0.05,
        ..StudyConfig::default()
    }
}

/// The canonical byte-comparison form: the full `Selected` artifact
/// with the search wall clock (the only nondeterministic field)
/// zeroed.
fn zeroed_json(selected: &Selected) -> String {
    let mut clone = selected.clone();
    clone.searched.outcome.ga_wall = Duration::ZERO;
    serde_json::to_string(&clone).expect("selected artifact serializes")
}

fn run(islands: usize, threads: usize) -> (String, Selected) {
    let mut study = Study::for_dataset(Dataset::BreastCancer)
        .config(base_config(11))
        .eval_threads(threads);
    if islands > 0 {
        study = study.islands(islands);
    }
    let pipeline = study.finish().expect("island configs are valid");
    let expected = if islands >= 2 {
        "nsga2-axc-islands"
    } else {
        "nsga2-axc"
    };
    assert_eq!(pipeline.engine_name(), expected);
    let selected = pipeline.run().expect("uncancelled study succeeds");
    (zeroed_json(&selected), selected)
}

/// `islands(1)` must select the plain engine and reproduce the
/// unset-islands artifact byte for byte — the cache keys and outputs
/// of every existing study are untouched by this feature.
#[test]
fn one_island_is_the_single_population_study_bit_for_bit() {
    let (plain, _) = run(0, 2);
    let (one_island, _) = run(1, 2);
    assert_eq!(plain, one_island);
}

/// The worker budget must be invisible in every artifact byte, for
/// every archipelago size; the merged history keeps each island's full
/// generation log (in island order).
#[test]
fn merged_artifacts_are_byte_identical_across_worker_budgets() {
    for islands in [2usize, 4] {
        let (serial, selected) = run(islands, 1);
        let generations = base_config(11).ga.nsga.generations;
        assert_eq!(
            selected.searched.outcome.history.len(),
            islands * generations,
            "merged history holds every island's generation log"
        );
        assert!(!selected.searched.outcome.front.is_empty());
        for threads in [2usize, 8] {
            let (threaded, _) = run(islands, threads);
            assert_eq!(
                serial, threaded,
                "islands={islands}: artifact changed between 1 and {threads} workers"
            );
        }
    }
}

// ---------------------------------------------------------------------
// IslandModel-level property: epoch-checkpoint resume and thread
// determinism over the real batched evaluator.

/// The same deterministic two-objective toy problem
/// `checkpoint_resume.rs` uses (gene sum vs distance from a per-gene
/// target), so fronts hold several mutually non-dominated points.
struct Ridge {
    bounds: Vec<u32>,
}

impl IntProblem for Ridge {
    fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        let sum: f64 = genes.iter().map(|&g| f64::from(g)).sum();
        let miss: f64 = genes
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let target = f64::from(self.bounds[i] - 1) * 0.7 + i as f64;
                (f64::from(g) - target).powi(2)
            })
            .sum();
        Evaluation::feasible(vec![sum, miss.sqrt()])
    }
}

/// Hooks capturing every barrier snapshot in emission order.
#[derive(Default)]
struct Capture(Mutex<Vec<IslandCheckpoint>>);

impl SearchHooks for Capture {
    fn barrier(&self, checkpoint: &IslandCheckpoint, _migrated: bool) {
        self.0.lock().expect("unpoisoned").push(checkpoint.clone());
    }
}

fn island_config(islands: usize, seed: u64, population: usize, generations: usize) -> IslandConfig {
    IslandConfig {
        nsga: NsgaConfig {
            population,
            generations,
            seed,
            ..NsgaConfig::default()
        },
        islands,
        migration_every: 2,
        migrants: 1,
    }
}

/// The driver over one batched evaluator per island, `workers` island
/// legs at a time, each evaluator fanning out over `threads`.
fn run_model(
    config: &IslandConfig,
    resume: Resume,
    workers: usize,
    threads: usize,
    hooks: &dyn SearchHooks,
) -> NsgaResult {
    let problems: Vec<_> = (0..config.islands)
        .map(|_| {
            CachedEvaluator::with_options(
                Ridge {
                    bounds: vec![48; 5],
                },
                256,
                threads,
            )
        })
        .collect();
    IslandModel::new(config.clone())
        .run(&problems, Vec::new(), resume, workers, hooks)
        .expect("no leg panics")
        .0
}

/// One full run, capturing an `IslandCheckpoint` at every epoch
/// barrier.
fn run_capturing(
    config: &IslandConfig,
    workers: usize,
    threads: usize,
) -> (NsgaResult, Vec<IslandCheckpoint>) {
    let hooks = Capture::default();
    let result = run_model(config, Resume::default(), workers, threads, &hooks);
    (result, hooks.0.into_inner().expect("unpoisoned"))
}

/// Resume from `checkpoint` (after a JSON persistence round-trip, like
/// the pipeline's on-disk epoch file).
fn resume(
    config: &IslandConfig,
    checkpoint: &IslandCheckpoint,
    workers: usize,
    threads: usize,
) -> NsgaResult {
    let json = serde_json::to_string(checkpoint).expect("island checkpoint serializes");
    let restored: IslandCheckpoint = serde_json::from_str(&json).expect("island checkpoint parses");
    restored
        .validate(config, &[48; 5])
        .expect("round-tripped island checkpoint is valid");
    run_model(config, restored.into(), workers, threads, &())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every epoch checkpoint of a seeded island run resumes to the
    /// uninterrupted merged result, bit for bit, serially and with
    /// concurrent legs over eight-thread evaluators — in every
    /// crash×resume combination.
    #[test]
    fn resuming_from_every_epoch_checkpoint_is_bit_exact_across_thread_budgets(
        seed in any::<u64>(),
        islands in 2usize..=4,
        generations in 4usize..8,
    ) {
        let config = island_config(islands, seed, 12, generations);

        let (serial, serial_cps) = run_capturing(&config, 1, 1);
        let (threaded, threaded_cps) = run_capturing(&config, islands, 8);
        // Worker and thread counts are invisible to the archipelago:
        // both references and their epoch streams agree.
        prop_assert_eq!(&serial, &threaded);
        prop_assert_eq!(&serial_cps, &threaded_cps);
        prop_assert_eq!(serial_cps.len(), config.epoch_targets().len());

        for checkpoint in &serial_cps {
            for (workers, threads) in [(1, 1), (islands, 8)] {
                let resumed = resume(&config, checkpoint, workers, threads);
                prop_assert_eq!(&resumed.pareto_front, &serial.pareto_front);
                prop_assert_eq!(&resumed.population, &serial.population);
                prop_assert_eq!(resumed.evaluations, serial.evaluations);
                prop_assert_eq!(resumed.generations, serial.generations);
            }
        }
    }
}
