//! Span attribution over the pipeline's public progress stream.
//!
//! The benchmark never instruments the program: a [`Recorder`] attached
//! as the `RunManyOptions::progress` observer timestamps every
//! [`ProgressEvent`], and [`attribute`] turns that stream into spans and
//! layer counters afterwards:
//!
//! * `StageStarted`/`StageFinished` pairs give the five stage spans of
//!   each study, under one `study` span per dataset; the gaps between
//!   them are `stage_cache` spans (the stage-cache store of the finished
//!   stage and the load attempt of the next);
//! * `SgdEpoch` gaps give the SGD epoch times, and restart changes give
//!   one `sgd.restart` span per best-of-N restart;
//! * inside the `Searched` stage, the first `GaGeneration` of a GA run
//!   splits seeding from the GA and its last one splits the GA from the
//!   post-GA tail (memetic polish, front test accuracy, true-front
//!   costing). A `generation == 0` event after an earlier run starts a
//!   new run: the gap before it is that run's seeding, and each run's
//!   cumulative counters are folded into the totals when it ends.
//!
//! Island-tagged events are not attributed: the benchmark runs the
//! single-population engine.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use pe_datasets::Dataset;
use printed_axc::{ProgressEvent, StageKind};

/// One observed event: nanoseconds since the recorder's origin, the
/// dataset whose study emitted it, and the event.
#[derive(Debug)]
pub struct Stamped {
    pub t_ns: u64,
    pub dataset: Dataset,
    pub event: ProgressEvent,
}

/// Timestamps progress events in arrival order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    events: Mutex<Vec<Stamped>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            events: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    /// Nanoseconds since the origin (the clock spans share).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    pub fn record(&self, dataset: Dataset, event: &ProgressEvent) {
        let mut events = self.events.lock().expect("no recorder user panics");
        // Stamped under the lock, so arrival order and time order agree.
        let t_ns = self.now_ns();
        events.push(Stamped {
            t_ns,
            dataset,
            event: event.clone(),
        });
    }

    pub fn take(&self) -> Vec<Stamped> {
        std::mem::take(&mut *self.events.lock().expect("no recorder user panics"))
    }
}

/// One timed interval of a study. `parent` indexes [`Ledger::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub dataset: Dataset,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Cumulative evaluation-cache counters of a GA run (the fields of its
/// latest `EvalCache` event that the benchmark reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub column_hits: u64,
    pub column_misses: u64,
    pub cost_hits: u64,
    pub cost_misses: u64,
    pub store_ingested: u64,
    pub store_deduplicated: u64,
}

impl CacheCounters {
    fn of(event: &ProgressEvent) -> Option<Self> {
        match *event {
            ProgressEvent::EvalCache {
                hits,
                misses,
                column_hits,
                column_misses,
                cost_hits,
                cost_misses,
                store_ingested,
                store_deduplicated,
                ..
            } => Some(Self {
                hits,
                misses,
                column_hits,
                column_misses,
                cost_hits,
                cost_misses,
                store_ingested,
                store_deduplicated,
            }),
            _ => None,
        }
    }

    fn add(&mut self, other: &Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.column_hits += other.column_hits;
        self.column_misses += other.column_misses;
        self.cost_hits += other.cost_hits;
        self.cost_misses += other.cost_misses;
        self.store_ingested += other.store_ingested;
        self.store_deduplicated += other.store_deduplicated;
    }
}

/// Spans and counters attributed from one event stream.
#[derive(Debug, Default)]
pub struct Ledger {
    pub spans: Vec<Span>,
    /// Duration of every SGD epoch, in stream order.
    pub sgd_epoch_ns: Vec<u64>,
    /// SGD epochs per dataset.
    pub sgd_epochs: BTreeMap<Dataset, u64>,
    /// Gap between consecutive `GaGeneration` events of a run.
    pub gen_ns: Vec<u64>,
    /// Evaluations inside the `ga` spans (last minus first count of
    /// each run).
    pub ga_evals: u64,
    /// Final counters of every GA run, summed.
    pub cache: CacheCounters,
}

impl Ledger {
    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Duration of the `study` span of `dataset`, if it ran.
    pub fn study_ns(&self, dataset: Dataset) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == "study" && s.dataset == dataset)
            .map(Span::ns)
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children never overlap).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0) += span.ns().saturating_sub(covered);
        }
        out
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }
}

/// Span name of a pipeline stage.
pub fn stage_span(stage: StageKind) -> &'static str {
    match stage {
        StageKind::Prepared => "pipeline.prepare",
        StageKind::FloatTrained => "pipeline.float_train",
        StageKind::BaselineCosted => "pipeline.baseline_cost",
        StageKind::Searched => "pipeline.search",
        StageKind::Selected => "pipeline.select",
    }
}

/// A GA run in progress inside a `Searched` stage.
struct GaRun {
    first_ns: u64,
    last_ns: u64,
    first_evals: u64,
    last_evals: u64,
    cache: CacheCounters,
}

/// Attribution state of one study.
struct StudyState {
    study: usize,
    stage: Option<usize>,
    /// Time of the previous event inside the open stage.
    last_ns: u64,
    restart: Option<(u64, usize)>,
    run: Option<GaRun>,
    /// Where the next GA run's seeding began.
    seed_from: u64,
    /// End of the study's previous stage span.
    stage_end: Option<u64>,
}

/// Attribute a recorded stream (in arrival order; datasets may
/// interleave) to spans and counters.
pub fn attribute(events: &[Stamped]) -> Ledger {
    let mut ledger = Ledger::default();
    let mut studies: BTreeMap<Dataset, StudyState> = BTreeMap::new();
    for e in events {
        let state = studies.entry(e.dataset).or_insert_with(|| StudyState {
            study: ledger.push(Span {
                name: "study",
                start_ns: e.t_ns,
                end_ns: e.t_ns,
                parent: None,
                dataset: e.dataset,
            }),
            stage: None,
            last_ns: e.t_ns,
            restart: None,
            run: None,
            seed_from: e.t_ns,
            stage_end: None,
        });
        ledger.spans[state.study].end_ns = e.t_ns;
        step(&mut ledger, state, e);
    }
    ledger
}

fn step(ledger: &mut Ledger, st: &mut StudyState, e: &Stamped) {
    let t = e.t_ns;
    match &e.event {
        ProgressEvent::StageStarted { stage } => {
            if let Some(end) = st.stage_end.take() {
                ledger.push(Span {
                    name: "stage_cache",
                    start_ns: end,
                    end_ns: t,
                    parent: Some(st.study),
                    dataset: e.dataset,
                });
            }
            st.stage = Some(ledger.push(Span {
                name: stage_span(*stage),
                start_ns: t,
                end_ns: t,
                parent: Some(st.study),
                dataset: e.dataset,
            }));
            st.last_ns = t;
            st.restart = None;
            st.run = None;
            st.seed_from = t;
        }
        ProgressEvent::StageFinished { stage } => {
            let Some(idx) = st.stage.take() else { return };
            ledger.spans[idx].end_ns = t;
            st.stage_end = Some(t);
            if let Some((_, restart)) = st.restart.take() {
                ledger.spans[restart].end_ns = st.last_ns;
            }
            if *stage == StageKind::Searched {
                if let Some(run) = st.run.take() {
                    close_run(ledger, idx, e.dataset, &run);
                    ledger.push(Span {
                        name: "search.tail",
                        start_ns: run.last_ns,
                        end_ns: t,
                        parent: Some(idx),
                        dataset: e.dataset,
                    });
                }
            }
        }
        ProgressEvent::SgdEpoch { restart, .. } => {
            let Some(stage) = st.stage else { return };
            if st.restart.map(|(r, _)| r) != Some(*restart) {
                if let Some((_, prev)) = st.restart {
                    ledger.spans[prev].end_ns = st.last_ns;
                }
                let span = ledger.push(Span {
                    name: "sgd.restart",
                    start_ns: st.last_ns,
                    end_ns: t,
                    parent: Some(stage),
                    dataset: e.dataset,
                });
                st.restart = Some((*restart, span));
            }
            ledger.sgd_epoch_ns.push(t - st.last_ns);
            *ledger.sgd_epochs.entry(e.dataset).or_insert(0) += 1;
            st.last_ns = t;
        }
        ProgressEvent::GaGeneration {
            generation,
            evaluations,
            ..
        } => {
            let Some(stage) = st.stage else { return };
            match &mut st.run {
                Some(run) if *generation != 0 => {
                    ledger.gen_ns.push(t - run.last_ns);
                    run.last_ns = t;
                    run.last_evals = *evaluations;
                }
                _ => {
                    if let Some(prev) = st.run.take() {
                        close_run(ledger, stage, e.dataset, &prev);
                        st.seed_from = prev.last_ns;
                    }
                    ledger.push(Span {
                        name: "search.seed",
                        start_ns: st.seed_from,
                        end_ns: t,
                        parent: Some(stage),
                        dataset: e.dataset,
                    });
                    st.run = Some(GaRun {
                        first_ns: t,
                        last_ns: t,
                        first_evals: *evaluations,
                        last_evals: *evaluations,
                        cache: CacheCounters::default(),
                    });
                }
            }
        }
        event => {
            if let (Some(run), Some(counters)) = (&mut st.run, CacheCounters::of(event)) {
                run.cache = counters;
            }
        }
    }
}

fn close_run(ledger: &mut Ledger, stage: usize, dataset: Dataset, run: &GaRun) {
    ledger.push(Span {
        name: "ga",
        start_ns: run.first_ns,
        end_ns: run.last_ns,
        parent: Some(stage),
        dataset,
    });
    ledger.ga_evals += run.last_evals - run.first_evals;
    ledger.cache.add(&run.cache);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t_ns: u64, dataset: Dataset, event: ProgressEvent) -> Stamped {
        Stamped {
            t_ns,
            dataset,
            event,
        }
    }

    fn started(stage: StageKind) -> ProgressEvent {
        ProgressEvent::StageStarted { stage }
    }

    fn finished(stage: StageKind) -> ProgressEvent {
        ProgressEvent::StageFinished { stage }
    }

    fn gen(generation: usize, evaluations: u64) -> ProgressEvent {
        ProgressEvent::GaGeneration {
            generation,
            generations: 10,
            evaluations,
        }
    }

    fn epoch(restart: u64, epoch: usize) -> ProgressEvent {
        ProgressEvent::SgdEpoch {
            restart,
            epoch,
            epochs: 2,
        }
    }

    fn cache(hits: u64, misses: u64) -> ProgressEvent {
        ProgressEvent::EvalCache {
            hits,
            misses,
            entries: 0,
            column_hits: 2 * hits,
            column_misses: misses,
            column_entries: 0,
            column_contended: 0,
            column_shards: 1,
            cost_hits: 0,
            cost_misses: 1,
            store_ingested: 0,
            store_deduplicated: 0,
            store_bytes: 0,
        }
    }

    fn span(ledger: &Ledger, name: &str, dataset: Dataset) -> Vec<(u64, u64)> {
        ledger
            .spans
            .iter()
            .filter(|s| s.name == name && s.dataset == dataset)
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    #[test]
    fn search_splits_into_seed_ga_and_tail() {
        let d = Dataset::BreastCancer;
        let events = vec![
            at(100, d, started(StageKind::Searched)),
            at(130, d, gen(0, 40)),
            at(131, d, cache(1, 40)),
            at(150, d, gen(1, 60)),
            at(151, d, cache(5, 56)),
            at(175, d, gen(2, 80)),
            at(176, d, cache(9, 71)),
            at(200, d, finished(StageKind::Searched)),
        ];
        let ledger = attribute(&events);
        assert_eq!(span(&ledger, "search.seed", d), [(100, 130)]);
        assert_eq!(span(&ledger, "ga", d), [(130, 175)]);
        assert_eq!(span(&ledger, "search.tail", d), [(175, 200)]);
        assert_eq!(span(&ledger, "pipeline.search", d), [(100, 200)]);
        assert_eq!(ledger.gen_ns, [20, 25]);
        assert_eq!(ledger.ga_evals, 40);
        assert_eq!((ledger.cache.hits, ledger.cache.misses), (9, 71));
        assert_eq!(ledger.cache.column_hits, 18);
        // seed + ga + tail tile the stage: the stage has no self time.
        let own = ledger.self_ns();
        assert_eq!(own["pipeline.search"], 0);
        assert_eq!(own["ga"], 45);
    }

    #[test]
    fn interleaved_datasets_are_attributed_separately() {
        let (a, b) = (Dataset::Cardio, Dataset::RedWine);
        let events = vec![
            at(0, a, started(StageKind::FloatTrained)),
            at(5, b, started(StageKind::FloatTrained)),
            at(10, a, epoch(0, 0)),
            at(12, b, epoch(0, 0)),
            at(20, a, epoch(0, 1)),
            at(25, b, epoch(1, 0)),
            at(30, a, epoch(1, 0)),
            at(33, a, finished(StageKind::FloatTrained)),
            at(40, b, finished(StageKind::FloatTrained)),
        ];
        let ledger = attribute(&events);
        assert_eq!(ledger.sgd_epoch_ns, [10, 7, 10, 13, 10]);
        assert_eq!(ledger.sgd_epochs[&a], 3);
        assert_eq!(ledger.sgd_epochs[&b], 2);
        assert_eq!(span(&ledger, "sgd.restart", a), [(0, 20), (20, 30)]);
        assert_eq!(span(&ledger, "sgd.restart", b), [(5, 12), (12, 25)]);
        assert_eq!(ledger.study_ns(a), Some(33));
        assert_eq!(ledger.study_ns(b), Some(35));
        assert_eq!(ledger.study_ns(Dataset::Pendigits), None);
        // The float stage keeps the post-training test pass as self time.
        assert_eq!(ledger.self_ns()["pipeline.float_train"], 3 + 15);
    }

    #[test]
    fn generation_zero_restarts_a_run_and_folds_counters() {
        let d = Dataset::Pendigits;
        let events = vec![
            at(0, d, started(StageKind::Searched)),
            at(10, d, gen(0, 10)),
            at(11, d, cache(2, 10)),
            at(20, d, gen(1, 20)),
            at(21, d, cache(4, 18)),
            // A second GA run inside the same stage: counters restart.
            at(50, d, gen(0, 10)),
            at(51, d, cache(1, 9)),
            at(70, d, gen(1, 20)),
            at(71, d, cache(3, 17)),
            at(90, d, finished(StageKind::Searched)),
        ];
        let ledger = attribute(&events);
        assert_eq!(span(&ledger, "search.seed", d), [(0, 10), (20, 50)]);
        assert_eq!(span(&ledger, "ga", d), [(10, 20), (50, 70)]);
        assert_eq!(span(&ledger, "search.tail", d), [(70, 90)]);
        assert_eq!(ledger.gen_ns, [10, 20]);
        assert_eq!(ledger.ga_evals, 20);
        assert_eq!((ledger.cache.hits, ledger.cache.misses), (7, 35));
        assert_eq!(ledger.total_ns("search.seed"), 40);
    }

    #[test]
    fn gaps_between_stages_are_stage_cache_spans() {
        let d = Dataset::Cardio;
        let events = vec![
            at(0, d, started(StageKind::Prepared)),
            at(10, d, finished(StageKind::Prepared)),
            at(14, d, started(StageKind::FloatTrained)),
            at(30, d, finished(StageKind::FloatTrained)),
            at(31, d, started(StageKind::BaselineCosted)),
            at(40, d, finished(StageKind::BaselineCosted)),
        ];
        let ledger = attribute(&events);
        assert_eq!(span(&ledger, "stage_cache", d), [(10, 14), (30, 31)]);
        // Stage and stage-cache spans tile the study.
        assert_eq!(ledger.self_ns()["study"], 0);
    }

    #[test]
    fn a_loaded_study_has_only_its_study_span() {
        let d = Dataset::WhiteWine;
        let events = vec![at(
            0,
            d,
            ProgressEvent::StageLoaded {
                stage: StageKind::Selected,
            },
        )];
        let ledger = attribute(&events);
        assert_eq!(ledger.spans.len(), 1);
        assert_eq!(ledger.spans[0].name, "study");
    }
}
