//! The GA driver pinned by golden digests.
//!
//! Every line of `tests/golden/ga_driver.digests` is the
//! `fingerprint_json` digest of one GA outcome, with the search wall
//! clock (the only nondeterministic field) zeroed:
//!
//! * the BreastCancer `Selected` artifact of a small study, at islands
//!   unset / 2 / 4 and one or two evaluation threads;
//! * the same study on the other four datasets (islands unset, one
//!   thread), and a robust search (printed-EGFET variation, 4
//!   Monte-Carlo trials) on BreastCancer and Cardio;
//! * the same study cancelled at generation 3 and resumed from its
//!   checkpoint, at islands unset and 2 (equal to the uninterrupted
//!   digest);
//! * the `PlainGaEngine` outcome (the Table III reference GA);
//! * `Nsga2::run` on a toy problem;
//! * the ordered GA event stream (`GaGeneration`, `EvalCache`,
//!   `Island`, `Migration`) of a run without a cache directory at one
//!   evaluation thread, at islands unset and 2;
//! * `Pipeline::run_many_selected` over all five datasets at one and
//!   two threads (equal digests).
//!
//! A changed line is a changed search: the driver may be rewritten,
//! but only with these digests intact.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use printed_mlps::axc::{
    fingerprint_json, AxTrainConfig, CancelToken, FlowError, Pipeline, PlainGaEngine,
    ProgressEvent, RunControl, RunManyOptions, SearchEngine, Selected, StageKind, Study,
    StudyConfig,
};
use printed_mlps::datasets::Dataset;
use printed_mlps::hw::{CostScenario, ExactCostModel, VariationModel};
use printed_mlps::nsga::{Evaluation, IntProblem, Nsga2, NsgaConfig};

/// The study of `tests/island_search.rs`: islands migrate at the
/// default cadence (5) within the 8 generations.
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

fn study(islands: usize, threads: usize) -> Study {
    dataset_study(Dataset::BreastCancer, islands, threads)
}

fn dataset_study(dataset: Dataset, islands: usize, threads: usize) -> Study {
    let study = Study::for_dataset(dataset)
        .config(base_config(11))
        .eval_threads(threads);
    if islands > 0 {
        study.islands(islands)
    } else {
        study
    }
}

fn islands_label(islands: usize) -> String {
    if islands == 0 {
        "unset".into()
    } else {
        islands.to_string()
    }
}

fn selected_digest(selected: &Selected) -> u64 {
    let mut clone = selected.clone();
    clone.searched.outcome.ga_wall = Duration::ZERO;
    fingerprint_json(&clone)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ga-driver-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn selected_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for islands in [0usize, 2, 4] {
        for threads in [1usize, 2] {
            let selected = study(islands, threads)
                .finish()
                .expect("valid study")
                .run()
                .expect("uncancelled study succeeds");
            lines.push(format!(
                "selected islands={} threads={threads} {:016x}",
                islands_label(islands),
                selected_digest(&selected)
            ));
        }
    }
    lines
}

/// The other four datasets' `Selected` digests (islands unset, one
/// thread), then a robust search under the printed-EGFET variation
/// model with 4 Monte-Carlo trials on BreastCancer and Cardio.
fn dataset_lines() -> Vec<String> {
    let run = |study: Study| {
        let selected = study
            .finish()
            .expect("valid study")
            .run()
            .expect("uncancelled study succeeds");
        selected_digest(&selected)
    };
    let mut lines = Vec::new();
    for dataset in [
        Dataset::Cardio,
        Dataset::Pendigits,
        Dataset::RedWine,
        Dataset::WhiteWine,
    ] {
        let digest = run(dataset_study(dataset, 0, 1));
        lines.push(format!("selected dataset={dataset:?} {digest:016x}"));
    }
    for dataset in [Dataset::BreastCancer, Dataset::Cardio] {
        let digest =
            run(dataset_study(dataset, 0, 1).variation(VariationModel::printed_egfet(), 4));
        lines.push(format!("robust dataset={dataset:?} {digest:016x}"));
    }
    lines
}

/// Whether `event` reports GA generation index `generation` of the
/// single population or of island 0.
fn is_generation(event: &ProgressEvent, generation: usize) -> bool {
    match event {
        ProgressEvent::GaGeneration { generation: g, .. } => *g == generation,
        ProgressEvent::Island { island: 0, event } => is_generation(event, generation),
        _ => false,
    }
}

fn resumed_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for islands in [0usize, 2] {
        let dir = scratch_dir(&format!("resume-{islands}"));
        let token = CancelToken::new();
        let trip = token.clone();
        let cancelled = study(islands, 1)
            .progress(move |e| {
                if is_generation(e, 3) {
                    trip.cancel();
                }
            })
            .cancel_token(token)
            .cache_dir(&dir)
            .checkpoint_every(1)
            .finish()
            .expect("valid study");
        match cancelled.run() {
            Err(FlowError::Cancelled { stage }) => assert_eq!(stage, StageKind::Searched),
            other => panic!("expected cancellation, got {other:?}"),
        }
        let resumed = study(islands, 1)
            .cache_dir(&dir)
            .checkpoint_every(1)
            .finish()
            .expect("valid study")
            .run()
            .expect("resumed study succeeds");
        lines.push(format!(
            "resumed islands={} cancel_at=3 {:016x}",
            islands_label(islands),
            selected_digest(&resumed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    lines
}

fn plain_ga_line() -> String {
    let pipeline = study(0, 1).finish().expect("valid study");
    let prepared = pipeline.prepare().expect("prepare");
    let float = pipeline.train_float(prepared).expect("float training");
    let costed = pipeline.cost_baseline(float).expect("baseline costing");
    let model = ExactCostModel::new(CostScenario::default());
    let mut ctx = costed.search_context(&model, 0.05);
    ctx.eval_threads = 1;
    let engine = PlainGaEngine::new(
        NsgaConfig {
            population: 12,
            generations: 6,
            seed: 5,
            ..NsgaConfig::default()
        },
        Some(200),
    );
    let mut outcome = engine
        .search(&ctx, &RunControl::NONE)
        .expect("uncancelled search succeeds");
    outcome.ga_wall = Duration::ZERO;
    format!("plain_ga {:016x}", fingerprint_json(&outcome))
}

/// Two objectives with a real trade-off (gene sum against the distance
/// from a per-gene target) and a feasibility bound on the sum.
struct Ridge;

impl IntProblem for Ridge {
    fn bounds(&self) -> &[u32] {
        &[48, 48, 48, 48, 48]
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        let sum: f64 = genes.iter().map(|&g| f64::from(g)).sum();
        let miss: f64 = genes
            .iter()
            .enumerate()
            .map(|(i, &g)| (f64::from(g) - (32.9 + i as f64)).powi(2))
            .sum();
        let objectives = vec![sum, miss.sqrt()];
        if sum < 20.0 {
            Evaluation::infeasible(objectives, 20.0 - sum)
        } else {
            Evaluation::feasible(objectives)
        }
    }
}

fn nsga2_line() -> String {
    let result = Nsga2::new(NsgaConfig {
        population: 20,
        generations: 15,
        seed: 3,
        ..NsgaConfig::default()
    })
    .run(&Ridge);
    format!("nsga2_run {:016x}", fingerprint_json(&result))
}

fn is_ga_event(event: &ProgressEvent) -> bool {
    matches!(
        event,
        ProgressEvent::GaGeneration { .. }
            | ProgressEvent::EvalCache { .. }
            | ProgressEvent::Island { .. }
            | ProgressEvent::Migration { .. }
    )
}

fn event_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for islands in [0usize, 2] {
        let events: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&events);
        study(islands, 1)
            .progress(move |e| {
                if is_ga_event(e) {
                    sink.lock().expect("unpoisoned").push(format!("{e:?}"));
                }
            })
            .finish()
            .expect("valid study")
            .run()
            .expect("uncancelled study succeeds");
        let events = events.lock().expect("unpoisoned");
        let generations = base_config(11).ga.nsga.generations;
        if islands == 0 {
            // One GaGeneration then one full EvalCache per generation.
            assert_eq!(events.len(), 2 * generations);
        }
        lines.push(format!(
            "events islands={} {:016x}",
            islands_label(islands),
            fingerprint_json(&*events)
        ));
    }
    lines
}

/// `Pipeline::run_many_selected` over every dataset (each at its
/// derived seed), one digest of the whole ordered result.
fn run_many_lines() -> Vec<String> {
    [1usize, 2]
        .into_iter()
        .map(|threads| {
            let mut selected = Pipeline::run_many_selected(
                &Dataset::ALL,
                &base_config(11),
                &RunManyOptions::with_threads(threads),
            )
            .expect("uncancelled studies succeed");
            for one in &mut selected {
                one.searched.outcome.ga_wall = Duration::ZERO;
            }
            format!(
                "run_many threads={threads} {:016x}",
                fingerprint_json(&selected)
            )
        })
        .collect()
}

#[test]
fn ga_outcomes_reproduce_the_golden_digests() {
    let golden = include_str!("golden/ga_driver.digests");
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let mut computed = selected_lines();
    computed.extend(dataset_lines());
    computed.extend(resumed_lines());
    computed.push(plain_ga_line());
    computed.push(nsga2_line());
    computed.extend(event_lines());
    computed.extend(run_many_lines());
    assert_eq!(
        computed,
        expected,
        "a GA outcome changed; computed digests:\n{}",
        computed.join("\n")
    );
}
