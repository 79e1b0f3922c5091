//! The float-training stage pinned by golden digests.
//!
//! Every line of `tests/golden/float_train.digests` is the
//! `fingerprint_json` digest of one `FloatTrained` artifact (the
//! best-of-3 SGD restarts of `Pipeline::train_float`):
//!
//! * all five datasets at `tests/ga_driver.rs`'s study config
//!   (`sgd_epochs_scale: 0.05`, so 10–30 epochs);
//! * BreastCancer at `StudyConfig::quick`, the production epoch count
//!   of the quick preset.
//!
//! A changed line is a changed float network, and so a changed exact
//! baseline and GA seed: the trainer may be rewritten, but only with
//! these digests intact.

use printed_mlps::axc::{fingerprint_json, Study, StudyConfig};
use printed_mlps::datasets::Dataset;

const DATASETS: [Dataset; 5] = [
    Dataset::BreastCancer,
    Dataset::Cardio,
    Dataset::Pendigits,
    Dataset::RedWine,
    Dataset::WhiteWine,
];

/// The SGD part of `tests/ga_driver.rs`'s study config.
fn base_config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        sgd_epochs_scale: 0.05,
        ..StudyConfig::default()
    }
}

fn float_digest(dataset: Dataset, config: StudyConfig) -> u64 {
    let pipeline = Study::for_dataset(dataset)
        .config(config)
        .finish()
        .expect("valid study");
    let prepared = pipeline.prepare().expect("prepare");
    let float = pipeline.train_float(prepared).expect("float training");
    fingerprint_json(&float)
}

#[test]
fn float_training_reproduces_the_golden_digests() {
    let golden = include_str!("golden/float_train.digests");
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let mut computed: Vec<String> = DATASETS
        .iter()
        .map(|&d| {
            format!(
                "float dataset={d:?} {:016x}",
                float_digest(d, base_config(11))
            )
        })
        .collect();
    computed.push(format!(
        "quick dataset=BreastCancer {:016x}",
        float_digest(Dataset::BreastCancer, StudyConfig::quick(11))
    ));
    assert_eq!(
        computed,
        expected,
        "a float network changed; computed digests:\n{}",
        computed.join("\n")
    );
}
