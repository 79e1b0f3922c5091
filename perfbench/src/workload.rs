//! The benchmark's workloads and one timed repeat of each.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pe_bench::{study_config, BudgetPreset};
use pe_datasets::Dataset;
use pe_hw::ExactCostModel;
use pe_mlp::AxMlp;
use printed_axc::{
    derive_seed, refine_doped, true_pareto_front, Pipeline, Prepared, ProgressEvent,
    RunManyOptions, Selected, Study, StudyConfig,
};

use crate::quality::check_study;
use crate::trace::Recorder;

/// Every workload runs its studies one after another on one thread, so
/// the numbers measure the pipeline rather than the host's scheduler.
pub const THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All five datasets at the quick preset: SGD and the post-GA tail,
    /// next to no GA.
    QuickAll,
    /// Pendigits at the full preset: the production shape, where SGD,
    /// the GA and the tail each carry a real share.
    FullPendigits,
    /// The two small topologies at the full preset: GA evaluation, with
    /// little SGD or polish.
    FullSmall,
    /// The quick studies with a stage cache, a design store and
    /// checkpoints, then a warm re-run that loads every study.
    DurableQuick,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QuickAll,
        Workload::FullPendigits,
        Workload::FullSmall,
        Workload::DurableQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickAll => "quick-all",
            Workload::FullPendigits => "full-pendigits",
            Workload::FullSmall => "full-small",
            Workload::DurableQuick => "durable-quick",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn datasets(self) -> &'static [Dataset] {
        match self {
            Workload::QuickAll | Workload::DurableQuick => &Dataset::ALL,
            Workload::FullPendigits => &[Dataset::Pendigits],
            Workload::FullSmall => &[Dataset::BreastCancer, Dataset::Cardio],
        }
    }

    pub fn budget(self) -> BudgetPreset {
        match self {
            Workload::QuickAll | Workload::DurableQuick => BudgetPreset::Quick,
            Workload::FullPendigits | Workload::FullSmall => BudgetPreset::Full,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableQuick
    }

    /// The studies' shared configuration at [`STUDY_SEED`]; each dataset
    /// runs at the seed `derive_seed(STUDY_SEED, dataset)`.
    pub fn config(self) -> StudyConfig {
        study_config(self.budget(), STUDY_SEED)
    }

    /// The order a run feeds the datasets to the pipeline: a
    /// permutation drawn from the run's seed.
    pub fn order(self, seed: u64) -> Vec<Dataset> {
        let mut order = self.datasets().to_vec();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            state = splitmix64(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// Master seed of every study: the one the paper-table binaries use.
/// The studies are pinned to it because their work depends on it (on a
/// 2-core Xeon, the quick studies take 5.0 s at master seed 1 and 12.3 s
/// at master seed 7), which no bound on wall clock could absorb. The
/// run's own seed permutes the order the studies run in instead.
pub const STUDY_SEED: u64 = 0;

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A directory removed (with everything in it) when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn fresh(path: PathBuf) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every file under `path` (a file counts itself).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if !meta.is_dir() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// The set-up a run pays before its first study call: build every
/// dataset's pipeline through the `Study` builder and make its inputs
/// (the `Prepared` stage: generated data, split, quantized), and for the
/// durable workload create its directory and open its design store.
/// Returns the time taken and the inputs, in [`Workload::datasets`]
/// order; every study must then run on exactly these inputs.
pub fn set_up(
    workload: Workload,
    seed: u64,
    scratch: &Path,
) -> Result<(Duration, Vec<Prepared>), String> {
    let start = Instant::now();
    let base = workload.config();
    let order = workload.order(seed);
    let mut inputs = Vec::with_capacity(order.len());
    for &dataset in &order {
        let mut config = base.clone();
        let seed = derive_seed(base.seed, dataset);
        config.seed = seed;
        config.ga.nsga.seed = seed;
        let prepared = Study::for_dataset(dataset)
            .config(config)
            .eval_threads(THREADS)
            .finish()
            .and_then(|pipeline| pipeline.prepare())
            .map_err(|e| format!("{dataset:?}: {e}"))?;
        inputs.push(prepared);
    }
    if workload.durable() {
        let dir = TempDir::fresh(scratch.join("setup")).map_err(|e| e.to_string())?;
        let store = pe_store::StoreWriter::open(dir.path().join("store.jsonl"))
            .map_err(|e| e.to_string())?;
        std::hint::black_box(&store);
    }
    let elapsed = start.elapsed();
    Ok((elapsed, canonical(workload, &order, inputs)))
}

/// What the durable workload's cold run left behind and how its warm
/// re-run went.
#[derive(Debug, Clone, Copy)]
pub struct Durable {
    pub reload_s: f64,
    pub store_bytes: u64,
    pub cache_bytes: u64,
}

/// One repeat of a workload's studies.
pub struct Repeat {
    /// Wall clock of the studies (cold plus warm run when durable).
    pub wall_s: f64,
    /// The studies' artifacts, in [`Workload::datasets`] order (empty
    /// when the run returned an error).
    pub selected: Vec<Selected>,
    /// Every failed check, with the study it failed.
    pub failures: Vec<(Dataset, String)>,
    pub durable: Option<Durable>,
}

/// Run the workload's studies once, in the seed's order. With a
/// recorder, the cold run's progress stream is timestamped into it;
/// without, no observer is attached to the cold run.
pub fn run_repeat(
    workload: Workload,
    seed: u64,
    recorder: Option<&Arc<Recorder>>,
    scratch: &Path,
) -> Result<Repeat, String> {
    let base = workload.config();
    let order = workload.order(seed);
    let mut opts = RunManyOptions::with_threads(THREADS);
    if let Some(recorder) = recorder {
        opts.progress = Some(observer(recorder));
    }
    let dir = if workload.durable() {
        let dir = TempDir::fresh(scratch.join("durable")).map_err(|e| e.to_string())?;
        opts.cache_dir = Some(dir.path().join("cache"));
        opts.store = Some(Arc::new(
            pe_store::StoreWriter::open(dir.path().join("store.jsonl"))
                .map_err(|e| e.to_string())?,
        ));
        Some(dir)
    } else {
        None
    };

    let start = Instant::now();
    let result = Pipeline::run_many_selected(&order, &base, &opts);
    let mut wall_s = start.elapsed().as_secs_f64();
    drop(opts);

    let datasets = workload.datasets();
    let selected = match result {
        Ok(selected) => canonical(workload, &order, selected),
        Err(e) => {
            return Ok(Repeat {
                wall_s,
                selected: Vec::new(),
                failures: datasets.iter().map(|&d| (d, e.to_string())).collect(),
                durable: None,
            })
        }
    };
    let mut failures: Vec<(Dataset, String)> = selected
        .iter()
        .zip(datasets)
        .filter_map(|(s, &d)| check_study(s, &base.scenario).map(|why| (d, why)))
        .collect();

    let durable = dir.map(|dir| {
        let durable = warm_rerun(workload, &order, dir.path(), &selected, &mut failures);
        wall_s += durable.reload_s;
        durable
    });
    Ok(Repeat {
        wall_s,
        selected,
        failures,
        durable,
    })
}

/// What `RunManyOptions::progress` holds.
type Observer = Arc<dyn Fn(Dataset, &ProgressEvent) + Send + Sync>;

fn observer(recorder: &Arc<Recorder>) -> Observer {
    let recorder = Arc::clone(recorder);
    Arc::new(move |dataset, event| recorder.record(dataset, event))
}

/// Re-run the durable studies on the cold run's directory. Every study
/// must load from the stage cache, computing no stage, and come back
/// byte-identical to the cold run.
fn warm_rerun(
    workload: Workload,
    order: &[Dataset],
    dir: &Path,
    cold: &[Selected],
    failures: &mut Vec<(Dataset, String)>,
) -> Durable {
    let store_bytes = disk_bytes(&dir.join("store.jsonl"));
    let cache_bytes = disk_bytes(&dir.join("cache"));
    let recorder = Arc::new(Recorder::new());
    let mut opts = RunManyOptions::with_threads(THREADS);
    opts.cache_dir = Some(dir.join("cache"));
    opts.progress = Some(observer(&recorder));
    let start = Instant::now();
    let warm = Pipeline::run_many_selected(order, &workload.config(), &opts);
    let reload_s = start.elapsed().as_secs_f64();

    let events = recorder.take();
    for (i, &dataset) in workload.datasets().iter().enumerate() {
        let mine = || events.iter().filter(|e| e.dataset == dataset);
        let computed = mine()
            .filter(|e| matches!(e.event, ProgressEvent::StageStarted { .. }))
            .count();
        let loaded = mine()
            .filter(|e| matches!(e.event, ProgressEvent::StageLoaded { .. }))
            .count();
        let why = match &warm {
            Err(e) => Some(format!("warm re-run: {e}")),
            Ok(_) if computed != 0 || loaded != 1 => Some(format!(
                "warm re-run computed {computed} stages and loaded {loaded}"
            )),
            Ok(warm) => {
                let w = &warm[order.iter().position(|&d| d == dataset).expect("in order")];
                (serde_json::to_string(w).ok() != serde_json::to_string(&cold[i]).ok())
                    .then(|| "warm reload differs from the cold run".to_owned())
            }
        };
        failures.extend(why.map(|why| (dataset, why)));
    }
    Durable {
        reload_s,
        store_bytes,
        cache_bytes,
    }
}

/// Put per-dataset results of a run in `order` back into
/// [`Workload::datasets`] order.
fn canonical<T>(workload: Workload, order: &[Dataset], results: Vec<T>) -> Vec<T> {
    let mut pairs: Vec<(usize, T)> = order
        .iter()
        .map(|d| {
            workload
                .datasets()
                .iter()
                .position(|x| x == d)
                .expect("the order permutes the workload's datasets")
        })
        .zip(results)
        .collect();
    pairs.sort_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Times of the post-GA search tail, replayed on a study's `Searched`
/// artifact through the same public functions the search calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct TailReplay {
    pub polish_s: f64,
    pub test_acc_s: f64,
    pub recost_s: f64,
}

/// Replay the memetic polish, the front's test-accuracy pass and the
/// true-front costing. A replay that does not reproduce the artifact is
/// an error: then it did not time the work the study did.
pub fn replay_tail(selected: &Selected, config: &StudyConfig) -> Result<TailReplay, String> {
    let prepared = &selected.searched.costed.float.prepared;
    let outcome = &selected.searched.outcome;
    let (train, test) = (&prepared.train, &prepared.test);
    let candidates = &outcome.estimated_front;
    // The GA's own front comes first; polished designs are appended.
    let ga_len = outcome
        .history
        .last()
        .map_or(candidates.len(), |h| h.front_size)
        .min(candidates.len());
    let ga_front = &candidates[..ga_len];

    let mut by_acc: Vec<usize> = (0..ga_len).collect();
    by_acc.sort_by(|&a, &b| {
        ga_front[b]
            .train_accuracy
            .total_cmp(&ga_front[a].train_accuracy)
    });
    let rows_n = train.len().min(2500);
    let rows = train.features.head(rows_n);
    let labels = &train.labels[..rows_n];
    let start = Instant::now();
    let polished: Vec<(usize, AxMlp)> = by_acc
        .iter()
        .take(5)
        .map(|&i| {
            let mlp = refine_doped(
                &ga_front[i].mlp,
                &rows,
                labels,
                config.ga.max_shift(),
                config.ga.bias_bits,
                3,
            );
            (i, mlp)
        })
        .collect();
    let polish_s = start.elapsed().as_secs_f64();
    let changed: Vec<&AxMlp> = polished
        .iter()
        .filter(|(i, mlp)| *mlp != ga_front[*i].mlp)
        .map(|(_, mlp)| mlp)
        .collect();
    let appended: Vec<&AxMlp> = candidates[ga_len..].iter().map(|c| &c.mlp).collect();
    if changed != appended {
        return Err("polish replay does not reproduce the polished designs".into());
    }

    let start = Instant::now();
    let accuracies: Vec<f64> = candidates
        .iter()
        .map(|c| c.mlp.accuracy(&test.features, &test.labels))
        .collect();
    let test_acc_s = start.elapsed().as_secs_f64();
    if accuracies
        .iter()
        .zip(candidates)
        .any(|(a, c)| *a != c.test_accuracy)
    {
        return Err("test-accuracy replay differs from the artifact".into());
    }

    let model = ExactCostModel::new(config.scenario.clone());
    let owned = candidates.clone();
    let start = Instant::now();
    let front = true_pareto_front(owned, &model, prepared.dataset.spec().name);
    let recost_s = start.elapsed().as_secs_f64();
    if front != outcome.front {
        return Err("true-front replay differs from the artifact".into());
    }
    Ok(TailReplay {
        polish_s,
        test_acc_s,
        recost_s,
    })
}
