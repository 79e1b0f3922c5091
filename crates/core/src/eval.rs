//! The shared evaluation core: parallel, memoized batch evaluation of
//! GA populations.
//!
//! Virtually all of a study's wall-clock time is spent inside
//! [`IntProblem::evaluate`] — full-dataset [`pe_mlp::AxMlp`] inference
//! plus a gate-equivalent hardware costing per genome, tens of
//! thousands of times per run. This module turns that hot path into a
//! reusable substrate:
//!
//! * [`CachedEvaluator`] wraps any [`IntProblem`] and overrides
//!   [`IntProblem::evaluate_batch`] so each NSGA-II wave
//!   1. is looked up in a bounded genome-keyed memo
//!      ([`pe_arith::BoundedCache`]) — elitist (μ+λ) selection and
//!      low mutation rates re-submit many identical genomes across
//!      generations, and duplicates *within* a wave are computed once;
//!   2. fans the remaining misses out over the workspace's one worker
//!      pool, [`pe_nsga::map_claimed`] (workers claim indices from one
//!      atomic counter; results come back in index order), so
//!   3. evaluations return **in input order**, byte-identical to a
//!      serial loop, regardless of thread count. A panicking
//!      evaluation is re-raised on the caller's thread once the wave
//!      is done, and `run_ga` reports it as a
//!      [`FlowError::Engine`](crate::FlowError::Engine).
//! * [`thread_budget`] (one worker per core) is the default of both
//!   [`Pipeline::run_many`](crate::Pipeline::run_many)'s dataset-level
//!   pool and the within-study batch evaluator; callers pass an
//!   explicit count to force the flow sequential.
//!
//! Correctness rests on one contract: `evaluate` must be a pure,
//! deterministic function of the genes (see [`IntProblem::evaluate`]).
//! Under that contract neither caching nor parallelism can change any
//! result — only how much work is re-done — which is what keeps
//! 1-thread and 32-thread runs byte-identical.
//!
//! Cache effectiveness is observable: [`CachedEvaluator::stats`]
//! snapshots hit/miss counters, and the GA driver (`run_ga`) forwards
//! them as [`ProgressEvent::EvalCache`] once per generation.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pe_arith::cache::FxBuildHasher;
use pe_arith::BoundedCache;
use pe_nsga::{
    map_claimed, split_budget, Evaluation, GenerationStats, IntProblem, IslandCheckpoint,
    IslandConfig, IslandModel, NsgaResult, Resume, SearchCheckpoint, SearchHooks, WorkerPanic,
};

use crate::checkpoint::CheckpointSpec;
use crate::progress::{ProgressEvent, RunControl};

/// Default worker-thread budget for parallel evaluation: one worker
/// per available core, at least 1.
///
/// Both [`Pipeline::run_many`](crate::Pipeline::run_many) and
/// [`CachedEvaluator::new`] resolve their defaults through this single
/// helper.
#[must_use]
pub fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Default bound on memoized genomes per cache generation (a paper-size
/// genome is a few hundred `u32`s, so a full cache stays tens of MB).
pub const GENOME_CACHE_CAPACITY: usize = 1 << 14;

/// Snapshot of a [`CachedEvaluator`]'s cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Genome evaluations served from the memo (lifetime).
    pub hits: u64,
    /// Genome evaluations actually computed by the inner problem
    /// (lifetime).
    pub misses: u64,
    /// Genomes currently resident in the memo.
    pub entries: usize,
}

/// A memoizing, batch-parallel wrapper around any [`IntProblem`].
///
/// `evaluate` and `evaluate_batch` return exactly what the inner
/// problem would return (the inner `evaluate` must be pure and
/// deterministic); the wrapper only changes *how often* and *on how
/// many threads* the inner problem runs. See the [module
/// docs](self) for the design.
///
/// The wrapper can own its problem or borrow it (`IntProblem` is
/// implemented for `&T`), so a trainer can keep using the problem
/// after the GA finishes:
///
/// ```
/// use pe_nsga::{Evaluation, IntProblem};
/// use printed_axc::eval::CachedEvaluator;
///
/// struct Square;
/// impl IntProblem for Square {
///     fn bounds(&self) -> &[u32] {
///         &[100]
///     }
///     fn evaluate(&self, genes: &[u32]) -> Evaluation {
///         let x = f64::from(genes[0]);
///         Evaluation::feasible(vec![x * x])
///     }
/// }
///
/// let problem = Square;
/// let evaluator = CachedEvaluator::new(&problem);
/// let batch = evaluator.evaluate_batch(&[vec![3], vec![4], vec![3]]);
/// assert_eq!(batch[0], problem.evaluate(&[3]));
/// assert_eq!(batch[0], batch[2]);
/// assert_eq!(evaluator.stats().misses, 2); // the duplicate was free
/// ```
pub struct CachedEvaluator<P> {
    inner: P,
    cache: Mutex<BoundedCache<Vec<u32>, Evaluation>>,
    /// Genome evaluations served from the memo (including intra-batch
    /// duplicates). Tracked here rather than via the cache's own
    /// counters, which also see the wrapper's bookkeeping lookups.
    hits: AtomicU64,
    /// Genome evaluations computed by the inner problem.
    misses: AtomicU64,
    threads: usize,
}

impl<P: IntProblem + Sync> CachedEvaluator<P> {
    /// Wrap `inner` with the default cache capacity and the
    /// [`thread_budget`] worker count.
    pub fn new(inner: P) -> Self {
        Self::with_options(inner, GENOME_CACHE_CAPACITY, thread_budget())
    }

    /// Wrap `inner` with an explicit memo capacity (per cache
    /// generation) and worker count (`threads <= 1` evaluates inline,
    /// spawning nothing).
    pub fn with_options(inner: P, capacity: usize, threads: usize) -> Self {
        Self {
            inner,
            cache: Mutex::new(BoundedCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            threads: threads.max(1),
        }
    }

    /// Snapshot the cache counters.
    pub fn stats(&self) -> EvalCacheStats {
        let entries = self.lock_cache().len();
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, BoundedCache<Vec<u32>, Evaluation>> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<P: IntProblem + Sync> IntProblem for CachedEvaluator<P> {
    fn bounds(&self) -> &[u32] {
        self.inner.bounds()
    }

    /// A one-genome wave (the GA itself only ever scores waves).
    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        let mut wave = self.evaluate_batch(&[genes.to_vec()]);
        wave.pop().expect("one genome in, one evaluation out")
    }

    fn evaluate_batch(&self, genomes: &[Vec<u32>]) -> Vec<Evaluation> {
        // `PE_FAULT` drill site: one arrival per evaluation wave.
        fault_point(pe_store::fault::SITE_EVAL_BATCH);

        // Phase 1 — one cache pass: every row is a hit or the index of
        // its genome in `misses`, which holds each miss once.
        let mut misses: Vec<&[u32]> = Vec::new();
        let mut miss_of: HashMap<&[u32], usize, FxBuildHasher> = HashMap::default();
        let rows: Vec<Result<Evaluation, usize>> = {
            let mut cache = self.lock_cache();
            genomes
                .iter()
                .map(|genome| {
                    cache.get(genome.as_slice()).ok_or_else(|| {
                        *miss_of.entry(genome).or_insert_with(|| {
                            misses.push(genome);
                            misses.len() - 1
                        })
                    })
                })
                .collect()
        };

        // Phase 2 — score the misses on the worker pool, in order; a
        // panicking evaluation is re-raised here, the lowest first.
        let computed: Vec<Evaluation> = map_claimed(misses.len(), self.threads, |k| {
            self.inner.evaluate(misses[k])
        })
        .into_iter()
        .map(|result| result.unwrap_or_else(|panic| panic.resume()))
        .collect();
        self.misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        self.hits
            .fetch_add((genomes.len() - misses.len()) as u64, Ordering::Relaxed);

        // Phase 3 — publish to the cache and fill the missed rows (and
        // their intra-batch duplicates) straight from `computed`, so
        // even immediate eviction from a tiny cache cannot lose a result.
        let mut cache = self.lock_cache();
        for (genome, e) in misses.iter().zip(&computed) {
            cache.insert(genome.to_vec(), e.clone());
        }
        drop(cache);
        rows.into_iter()
            .map(|row| row.unwrap_or_else(|k| computed[k].clone()))
            .collect()
    }
}

/// A `PE_FAULT` drill site: kill the process or panic as the armed plan
/// says. Free (one initialization check) when no plan is armed.
fn fault_point(site: &str) {
    match pe_store::fault::check(site) {
        Some(pe_store::FaultAction::Kill) => pe_store::fault::kill_now(),
        Some(pe_store::FaultAction::Err) => panic!("injected fault: {site}"),
        None => {}
    }
}

/// Run a GA search through the one driver ([`IslandModel::run`]) with
/// the shared progress protocol; returns the merged result and the
/// islands' histories in island order. The single implementation
/// behind [`HwAwareTrainer`](crate::HwAwareTrainer) and
/// [`PlainGaEngine`](crate::PlainGaEngine): a single population is
/// the one-island model.
///
/// **Threads.** The worker budget splits two levels deep, exactly like
/// [`Pipeline::run_many`](crate::Pipeline::run_many) ([`split_budget`]):
/// `workers = budget.clamp(1, islands)` island legs run concurrently,
/// each over a private [`CachedEvaluator`] with `budget / workers`
/// evaluation threads (one island gets the whole budget). Each island
/// keeps its own genome memo for the whole run, so the memo's hit
/// pattern is a pure function of that island's deterministic stream;
/// shared problem-level caches stay safe because
/// [`IntProblem::evaluate`] is pure.
///
/// **Events.** One island emits a [`ProgressEvent::GaGeneration`] then
/// a [`ProgressEvent::EvalCache`] with every cache counter per
/// generation. An archipelago wraps the same pair in
/// [`ProgressEvent::Island`], the `EvalCache` carrying that island's
/// memo counters only (islands interleave arbitrarily — fold tagged
/// streams per island); at every barrier it reports the shared
/// problem-level counters in one *untagged* `EvalCache` with the memo
/// fields zeroed (so aggregating consumers never double-count), then
/// one tagged [`ProgressEvent::Migration`] per island when elites were
/// exchanged. Cancellation is honored at generation granularity.
///
/// **Crash safety.** An active `checkpoint` spec saves island `i` to
/// its file (see `checkpoint::island_paths`) every `spec.every`
/// generations, at the end of each of its legs and on cancellation; an
/// archipelago's barriers also save the post-migration
/// [`IslandCheckpoint`] at the spec path. On resume the barrier file
/// restores the last exchanged state and any strictly newer island
/// file fast-forwards its island (an equal one is the stale
/// pre-migration flush of a persisted barrier), so a kill anywhere
/// resumes bit-exactly. `problem_stats` snapshots the problem's own
/// caches for the events (`None`: counters report zero).
///
/// **Panics.** A panic in an evaluation, a hook or a leg is returned as
/// the lowest island's [`WorkerPanic`]; the island checkpoint files
/// stay in place, so a re-run resumes from them.
pub(crate) fn run_ga<P: IntProblem + Sync>(
    model: &IslandModel,
    problem: &P,
    seeds: Vec<Vec<u32>>,
    eval_threads: usize,
    ctl: &RunControl<'_>,
    problem_stats: &(dyn Fn() -> Option<ProblemCacheStats> + Sync),
    checkpoint: Option<&CheckpointSpec>,
) -> Result<(NsgaResult, Vec<GenerationStats>), WorkerPanic> {
    let n = model.config().islands;
    let (workers, threads) = split_budget(eval_threads, n);
    let evaluators: Vec<CachedEvaluator<&P>> = (0..n)
        .map(|_| CachedEvaluator::with_options(problem, GENOME_CACHE_CAPACITY, threads))
        .collect();

    let checkpoint = checkpoint.filter(|spec| spec.is_active());
    let paths = checkpoint.map_or_else(Vec::new, |spec| {
        crate::checkpoint::island_paths(&spec.path, n)
    });
    let mut resume = Resume::default();
    if let Some(spec) = checkpoint {
        if n > 1 {
            let epoch = crate::checkpoint::load(&spec.path, "island", |cp: &IslandCheckpoint| {
                cp.validate(model.config(), problem.bounds())
            });
            resume = epoch.map(Resume::from).unwrap_or_default();
        }
        resume.islands.resize_with(n, || None);
        for ((slot, path), config) in resume
            .islands
            .iter_mut()
            .zip(&paths)
            .zip(model.island_configs())
        {
            if let Some(cp) = crate::checkpoint::load_search(path, config, problem.bounds()) {
                if slot.as_ref().is_none_or(|s| cp.generation > s.generation) {
                    *slot = Some(cp);
                }
            }
        }
    }

    let hooks = GaHooks {
        ctl,
        config: model.config(),
        evaluators: &evaluators,
        problem_stats,
        checkpoint,
        paths: &paths,
    };
    let outcome = model.run(&evaluators, seeds, resume, workers, &hooks)?;
    if n > 1 && !ctl.is_cancelled() {
        // The run completed: the mid-epoch island files are superseded
        // by the final barrier checkpoint (the pipeline deletes that
        // one once the stage artifact is safely cached).
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(outcome)
}

/// [`run_ga`]'s side of the driver: events, fault sites and checkpoint
/// files.
struct GaHooks<'a, P> {
    ctl: &'a RunControl<'a>,
    config: &'a IslandConfig,
    evaluators: &'a [CachedEvaluator<&'a P>],
    problem_stats: &'a (dyn Fn() -> Option<ProblemCacheStats> + Sync),
    /// The active checkpoint spec, if any: its path holds an
    /// archipelago's barrier snapshots.
    checkpoint: Option<&'a CheckpointSpec>,
    /// Per-island checkpoint files (empty with checkpointing off).
    paths: &'a [PathBuf],
}

impl<P> GaHooks<'_, P> {
    /// Emit an island's event: untagged for the single population,
    /// wrapped in [`ProgressEvent::Island`] for an archipelago.
    fn emit(&self, island: usize, event: ProgressEvent) {
        if self.evaluators.len() == 1 {
            self.ctl.emit(&event);
        } else {
            self.ctl.emit(&ProgressEvent::Island {
                island,
                event: Box::new(event),
            });
        }
    }

    fn shared_stats(&self) -> ProblemCacheStats {
        (self.problem_stats)().unwrap_or_default()
    }
}

impl<P: IntProblem + Sync> SearchHooks for GaHooks<'_, P> {
    fn checkpoint_every(&self) -> usize {
        self.checkpoint.map_or(0, |spec| spec.every)
    }

    fn generation(&self, island: usize, state: &SearchCheckpoint) -> bool {
        // Drill site: one arrival per completed generation, *before*
        // this generation's checkpoint can flush — a kill here loses
        // at most `every` generations of work, never durability.
        fault_point(pe_store::fault::SITE_SEARCHED_GENERATION);
        let stats = state
            .history
            .last()
            .expect("a completed generation has stats");
        self.emit(
            island,
            ProgressEvent::GaGeneration {
                generation: stats.generation,
                generations: self.config.nsga.generations,
                evaluations: stats.evaluations,
            },
        );
        // Archipelago islands share the problem-level caches; the
        // barriers report those once, untagged.
        let shared = if self.evaluators.len() == 1 {
            self.shared_stats()
        } else {
            ProblemCacheStats::default()
        };
        self.emit(
            island,
            eval_cache_event(self.evaluators[island].stats(), shared),
        );
        !self.ctl.is_cancelled()
    }

    fn save(&self, island: usize, state: &SearchCheckpoint) {
        if let Some(path) = self.paths.get(island) {
            if crate::checkpoint::write(path, state) {
                self.emit(
                    island,
                    ProgressEvent::Checkpoint {
                        generation: state.generation,
                        evaluations: state.evaluations,
                    },
                );
            }
        }
    }

    fn barrier(&self, checkpoint: &IslandCheckpoint, migrated: bool) {
        self.ctl.emit(&eval_cache_event(
            EvalCacheStats::default(),
            self.shared_stats(),
        ));
        if migrated {
            // Drill site: one arrival per interior barrier, before its
            // epoch checkpoint — a kill here must resume from the
            // per-island files and re-run the migration.
            fault_point(pe_store::fault::SITE_ISLAND_MIGRATION);
            for island in 0..self.evaluators.len() {
                self.emit(
                    island,
                    ProgressEvent::Migration {
                        generation: checkpoint.generation,
                        migrants: self.config.migrants,
                    },
                );
            }
        }
        if let Some(spec) = self.checkpoint {
            if crate::checkpoint::write(&spec.path, checkpoint) {
                self.ctl.emit(&ProgressEvent::Checkpoint {
                    generation: checkpoint.generation,
                    evaluations: checkpoint.islands.iter().map(|s| s.evaluations).sum(),
                });
            }
        }
    }
}

/// The [`ProgressEvent::EvalCache`] of a genome memo and the problem's
/// own caches.
fn eval_cache_event(memo: EvalCacheStats, shared: ProblemCacheStats) -> ProgressEvent {
    let columns = shared.columns;
    ProgressEvent::EvalCache {
        hits: memo.hits,
        misses: memo.misses,
        entries: memo.entries,
        column_hits: columns.hits,
        column_misses: columns.misses,
        column_entries: columns.entries,
        column_contended: columns.contended,
        column_shards: columns.shards,
        cost_hits: shared.cost_hits,
        cost_misses: shared.cost_misses,
        store_ingested: shared.store.ingested,
        store_deduplicated: shared.store.deduplicated,
        store_bytes: shared.store.bytes_written,
    }
}

/// Snapshot of an [`IntProblem`]'s internal caches for the
/// [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache)
/// stream: the columnar engine's neuron-column cache, the cost layer's
/// per-neuron gate-count memo, and the design-store sink counters
/// (all-zero when no store is attached).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProblemCacheStats {
    pub(crate) columns: crate::columns::ColumnCacheStats,
    pub(crate) cost_hits: u64,
    pub(crate) cost_misses: u64,
    pub(crate) store: pe_store::StoreStats,
}

impl<P: std::fmt::Debug> std::fmt::Debug for CachedEvaluator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedEvaluator")
            .field("inner", &self.inner)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap but non-trivial deterministic problem.
    struct Poly {
        bounds: Vec<u32>,
    }

    impl IntProblem for Poly {
        fn bounds(&self) -> &[u32] {
            &self.bounds
        }
        fn evaluate(&self, genes: &[u32]) -> Evaluation {
            let s: f64 = genes
                .iter()
                .enumerate()
                .map(|(i, &g)| f64::from(g) * (i as f64 + 1.0))
                .sum();
            let objectives = vec![s, 1000.0 - s];
            if s < 5.0 {
                Evaluation::infeasible(objectives, 5.0 - s)
            } else {
                Evaluation::feasible(objectives)
            }
        }
    }

    fn genomes(n: usize, modulo: u32) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| (0..4).map(|j| ((i as u32) * 7 + j * 13) % modulo).collect())
            .collect()
    }

    #[test]
    fn batch_matches_serial_loop_in_order() {
        let problem = Poly {
            bounds: vec![32; 4],
        };
        let pop = genomes(50, 32);
        let expected: Vec<Evaluation> = pop.iter().map(|g| problem.evaluate(g)).collect();
        for threads in [1, 4] {
            let evaluator = CachedEvaluator::with_options(&problem, 64, threads);
            assert_eq!(
                evaluator.evaluate_batch(&pop),
                expected,
                "{threads} threads"
            );
            // Warm pass: all hits, identical output.
            assert_eq!(evaluator.evaluate_batch(&pop), expected);
        }
    }

    #[test]
    fn duplicates_are_computed_once_and_counters_add_up() {
        let problem = Poly { bounds: vec![8; 4] };
        // modulo 2 forces heavy duplication across 40 genomes.
        let pop = genomes(40, 2);
        let unique: std::collections::HashSet<&[u32]> = pop.iter().map(Vec::as_slice).collect();
        let evaluator = CachedEvaluator::with_options(&problem, 64, 4);
        let _ = evaluator.evaluate_batch(&pop);
        let stats = evaluator.stats();
        assert_eq!(stats.misses, unique.len() as u64);
        assert_eq!(stats.hits + stats.misses, pop.len() as u64);
        assert_eq!(stats.entries, unique.len());
    }

    #[test]
    fn single_evaluate_is_cached_too() {
        let problem = Poly { bounds: vec![9; 4] };
        let evaluator = CachedEvaluator::with_options(&problem, 16, 1);
        let g = vec![1, 2, 3, 4];
        let a = evaluator.evaluate(&g);
        let b = evaluator.evaluate(&g);
        assert_eq!(a, b);
        assert_eq!(a, problem.evaluate(&g));
        assert_eq!(
            evaluator.stats(),
            EvalCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn eviction_never_changes_results() {
        let problem = Poly {
            bounds: vec![64; 4],
        };
        // Capacity 2 per generation: almost everything gets evicted.
        let evaluator = CachedEvaluator::with_options(&problem, 2, 2);
        let pop = genomes(30, 64);
        let expected: Vec<Evaluation> = pop.iter().map(|g| problem.evaluate(g)).collect();
        assert_eq!(evaluator.evaluate_batch(&pop), expected);
        assert_eq!(evaluator.evaluate_batch(&pop), expected);
    }

    /// [`Poly`], except that its `k`-th `evaluate` call panics.
    struct FailsAt {
        poly: Poly,
        calls: std::sync::atomic::AtomicUsize,
        k: usize,
    }

    impl IntProblem for FailsAt {
        fn bounds(&self) -> &[u32] {
            self.poly.bounds()
        }
        fn evaluate(&self, genes: &[u32]) -> Evaluation {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            assert_ne!(call, self.k, "evaluation {call} fails");
            self.poly.evaluate(genes)
        }
    }

    #[test]
    fn run_ga_returns_a_panicking_evaluation_as_an_error() {
        for islands in [1, 2] {
            for threads in [1, 2] {
                let problem = FailsAt {
                    poly: Poly {
                        bounds: vec![32; 4],
                    },
                    calls: std::sync::atomic::AtomicUsize::new(0),
                    k: 20,
                };
                let model = IslandModel::new(IslandConfig {
                    islands,
                    ..IslandConfig::single(pe_nsga::NsgaConfig {
                        population: 12,
                        generations: 6,
                        seed: 7,
                        ..pe_nsga::NsgaConfig::default()
                    })
                });
                let ctl = RunControl::NONE;
                let outcome = run_ga(&model, &problem, Vec::new(), threads, &ctl, &|| None, None);
                let panic = outcome.expect_err("the 20th evaluation panics");
                assert!(
                    panic.message.contains("evaluation 20 fails"),
                    "islands {islands}, threads {threads}: {panic:?}"
                );
            }
        }
    }

    #[test]
    fn thread_budget_is_positive() {
        assert!(thread_budget() >= 1);
    }
}
