//! The quick preset's paper artifacts pinned by golden digests.
//!
//! Every line of `tests/golden/quick_selected.digests` is the
//! `fingerprint_json` digest (search wall clock zeroed) of the
//! `Selected` artifact of one dataset's study at
//! `StudyConfig::quick(QUICK_SEED)`, run at the dataset's derived seed
//! exactly as `Pipeline::run_many_selected` runs it. Two ways of
//! computing them must both reproduce the file:
//!
//! * each dataset as its own study, with no design store;
//! * one `run_many_selected` pass over all five at one thread, with an
//!   empty design store attached (the store is ingest-only, so it must
//!   not perturb the search).
//!
//! A changed line is a changed paper artifact: the GA, fitness, sort or
//! selection may be rewritten, but only with these digests intact.

use std::sync::Arc;
use std::time::Duration;

use printed_mlps::axc::{
    derive_seed, fingerprint_json, Pipeline, RunManyOptions, Selected, Study, StudyConfig,
};
use printed_mlps::datasets::Dataset;
use printed_mlps::store::{DesignStore, StoreWriter};

const QUICK_SEED: u64 = 7;

fn selected_digest(selected: &Selected) -> u64 {
    let mut clone = selected.clone();
    clone.searched.outcome.ga_wall = Duration::ZERO;
    fingerprint_json(&clone)
}

fn golden_lines() -> Vec<&'static str> {
    include_str!("golden/quick_selected.digests")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect()
}

fn line(dataset: Dataset, selected: &Selected) -> String {
    format!(
        "quick dataset={dataset:?} {:016x}",
        selected_digest(selected)
    )
}

#[test]
fn storeless_quick_studies_reproduce_the_golden_digests() {
    let computed: Vec<String> = Dataset::ALL
        .iter()
        .map(|&dataset| {
            let mut config = StudyConfig::quick(QUICK_SEED);
            let seed = derive_seed(QUICK_SEED, dataset);
            config.seed = seed;
            config.ga.nsga.seed = seed;
            let selected = Study::for_dataset(dataset)
                .config(config)
                .eval_threads(1)
                .finish()
                .expect("valid study")
                .run()
                .expect("uncancelled study succeeds");
            line(dataset, &selected)
        })
        .collect();
    assert_eq!(
        computed,
        golden_lines(),
        "a quick Selected artifact changed; computed digests:\n{}",
        computed.join("\n")
    );
}

#[test]
fn run_many_with_an_empty_store_reproduces_the_golden_digests() {
    let path = std::env::temp_dir().join(format!(
        "printed-mlps-quick-selected-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut opts = RunManyOptions::with_threads(1);
    opts.store = Some(Arc::new(
        StoreWriter::open(&path).expect("fresh store opens"),
    ));
    let selected =
        Pipeline::run_many_selected(&Dataset::ALL, &StudyConfig::quick(QUICK_SEED), &opts)
            .expect("uncancelled studies succeed");
    let store = DesignStore::load(&path).expect("store round-trips");
    assert!(!store.records().is_empty(), "the searches were recorded");
    let _ = std::fs::remove_file(&path);
    let computed: Vec<String> = Dataset::ALL
        .iter()
        .zip(&selected)
        .map(|(&dataset, one)| line(dataset, one))
        .collect();
    assert_eq!(
        computed,
        golden_lines(),
        "a store-attached quick Selected artifact changed; computed digests:\n{}",
        computed.join("\n")
    );
}
