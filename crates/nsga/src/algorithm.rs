//! The NSGA-II generation.
//!
//! Elitist (μ+λ) evolution with fast non-dominated sorting, crowding-
//! distance truncation and binary tournaments, as in Deb et al. (2002)
//! — the algorithm the paper picked for its "simplicity, low
//! computational complexity, and enhanced convergence" (§IV-A). One
//! generation is a step over a [`SearchCheckpoint`]; the GA driver
//! ([`IslandModel::run`]) steps it, and [`Nsga2::run`] is the driver's
//! one-island case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::individual::Individual;
use crate::island::{IslandConfig, IslandModel, Resume};
use crate::operators::{crossover, mutate_mixed, random_genome, CrossoverKind};
use crate::problem::IntProblem;
use crate::sort::{annotate, assign_crowding, fast_non_dominated_sort};

/// NSGA-II hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NsgaConfig {
    /// Population size μ (kept constant across generations).
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Probability that a mating pair undergoes crossover.
    pub crossover_prob: f64,
    /// Per-gene mutation probability.
    pub mutation_prob: f64,
    /// Fraction of mutations that are ±1 creep steps instead of uniform
    /// resets (see [`crate::operators::mutate_mixed`]).
    pub creep_fraction: f64,
    /// Crossover flavour.
    pub crossover_kind: CrossoverKind,
    /// RNG seed: runs are fully reproducible.
    pub seed: u64,
}

impl Default for NsgaConfig {
    /// The paper's operator rates: crossover 0.7, mutation 0.2
    /// (interpreted per mating / scaled per gene as is standard), with
    /// a moderate default budget.
    fn default() -> Self {
        Self {
            population: 100,
            generations: 100,
            crossover_prob: 0.7,
            mutation_prob: 0.02,
            creep_fraction: 0.5,
            crossover_kind: CrossoverKind::Uniform,
            seed: 0,
        }
    }
}

/// Per-generation progress snapshot handed to the observer callback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Size of the current first front.
    pub front_size: usize,
    /// Best (minimum) value of each objective in the population.
    pub best_objectives: Vec<f64>,
    /// Number of evaluations performed so far.
    pub evaluations: u64,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NsgaResult {
    /// Final population (rank/crowding annotated).
    pub population: Vec<Individual>,
    /// The final first (non-dominated) front.
    pub pareto_front: Vec<Individual>,
    /// Total candidate evaluations, including the initial population.
    pub evaluations: u64,
    /// Generations executed.
    pub generations: usize,
}

/// The state of one population between generations — the unit the
/// GA driver ([`IslandModel::run`]) steps, and the snapshot it saves.
/// Restoring it resumes the evolution bit-exactly: the population, the
/// RNG stream position and the evaluation counter all continue where
/// the snapshot left off, so a killed-and-resumed run is byte-identical
/// to an uninterrupted one.
///
/// The population's rank/crowding annotations are part of the snapshot
/// and are restored verbatim: survivors carry annotations computed
/// over the full (μ+λ) selection pool, which the μ survivors alone
/// cannot reproduce, and the next generation's tournaments depend on
/// them. The one JSON wrinkle — front-boundary points' `+∞` crowding
/// renders as `null` — is reversed on resume (crowding is never NaN
/// and never `-∞`, so the mapping is lossless).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// The configuration of the run that produced this snapshot. A
    /// checkpoint only resumes a run with an identical configuration.
    pub config: NsgaConfig,
    /// Generations completed when the snapshot was taken (1-based:
    /// after generation index `g` completes this is `g + 1`).
    pub generation: usize,
    /// xoshiro256\*\* stream state at the snapshot point.
    pub rng_state: [u64; 4],
    /// Candidate evaluations performed so far.
    pub evaluations: u64,
    /// The surviving population after `generation` generations.
    pub population: Vec<Individual>,
    /// Per-generation stats emitted so far (one per completed
    /// generation), so observers of a resumed run can reconstruct the
    /// full history.
    pub history: Vec<GenerationStats>,
}

impl SearchCheckpoint {
    /// A fresh population of `config` before its first generation:
    /// `seeds` are injected verbatim (truncated to the population
    /// size) and the remainder is drawn uniformly — the hook the
    /// paper's "doped" initialization uses (§IV-A: ~10% nearly
    /// non-approximate chromosomes). All genomes are generated first,
    /// then scored as one wave.
    ///
    /// # Panics
    ///
    /// Panics if the population size is below 2 or a seed genome has
    /// the wrong length.
    pub(crate) fn initial<P: IntProblem>(
        config: &NsgaConfig,
        problem: &P,
        seeds: Vec<Vec<u32>>,
    ) -> Self {
        assert!(config.population >= 2, "population must be at least 2");
        let bounds = problem.bounds();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x6c62_272e_07bb_0142);
        let mut genomes: Vec<Vec<u32>> = Vec::with_capacity(config.population);
        for genes in seeds.into_iter().take(config.population) {
            assert_eq!(genes.len(), bounds.len(), "seed genome length mismatch");
            genomes.push(genes);
        }
        while genomes.len() < config.population {
            genomes.push(random_genome(bounds, &mut rng));
        }
        let mut evaluations = 0;
        let mut population = evaluate_wave(problem, genomes, &mut evaluations);
        annotate(&mut population);
        Self {
            config: config.clone(),
            generation: 0,
            rng_state: rng.state(),
            evaluations,
            population,
            history: Vec::with_capacity(config.generations),
        }
    }

    /// Run one generation in place: breed a wave of offspring by binary
    /// tournaments, crossover and mutation, score it as one batch, keep
    /// the best μ of parents and offspring, and record the generation's
    /// stats in `history`.
    pub(crate) fn step<P: IntProblem>(&mut self, problem: &P) {
        let cfg = &self.config;
        let bounds = problem.bounds();
        let pop = &self.population;
        let mut rng = StdRng::from_state(self.rng_state);
        let mut offspring: Vec<Vec<u32>> = Vec::with_capacity(cfg.population);
        while offspring.len() < cfg.population {
            let p1 = tournament(pop, &mut rng);
            let p2 = tournament(pop, &mut rng);
            let (mut c1, mut c2) = if rng.gen_bool(cfg.crossover_prob.clamp(0.0, 1.0)) {
                crossover(cfg.crossover_kind, &pop[p1].genes, &pop[p2].genes, &mut rng)
            } else {
                (pop[p1].genes.clone(), pop[p2].genes.clone())
            };
            mutate_mixed(
                &mut c1,
                bounds,
                cfg.mutation_prob,
                cfg.creep_fraction,
                &mut rng,
            );
            mutate_mixed(
                &mut c2,
                bounds,
                cfg.mutation_prob,
                cfg.creep_fraction,
                &mut rng,
            );
            offspring.push(c1);
            if offspring.len() < cfg.population {
                offspring.push(c2);
            }
        }
        self.rng_state = rng.state();
        let offspring = evaluate_wave(problem, offspring, &mut self.evaluations);

        // Environmental selection over parents + offspring.
        let mut pool = std::mem::take(&mut self.population);
        pool.extend(offspring);
        self.population = select_mu(pool, self.config.population);

        let pop = &self.population;
        let m = pop[0].evaluation.objectives.len();
        let best_objectives: Vec<f64> = (0..m)
            .map(|obj| {
                pop.iter()
                    .map(|i| i.evaluation.objectives[obj])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        self.history.push(GenerationStats {
            generation: self.generation,
            front_size: pop.iter().filter(|i| i.rank == 0).count(),
            best_objectives,
            evaluations: self.evaluations,
        });
        self.generation += 1;
    }

    /// Check that this snapshot can resume a run of `config` over a
    /// problem with the given `bounds`. Returns a human-readable reason
    /// when it cannot (mismatched configuration, wrong population
    /// shape, inconsistent counters, torn data).
    ///
    /// # Errors
    ///
    /// Returns the first integrity violation found.
    pub fn validate(&self, config: &NsgaConfig, bounds: &[u32]) -> Result<(), String> {
        if self.config != *config {
            return Err("checkpoint was taken under a different configuration".into());
        }
        if self.generation == 0 || self.generation > config.generations {
            return Err(format!(
                "checkpoint generation {} outside 1..={}",
                self.generation, config.generations
            ));
        }
        if self.population.len() != config.population {
            return Err(format!(
                "checkpoint population {} != configured {}",
                self.population.len(),
                config.population
            ));
        }
        for ind in &self.population {
            if ind.genes.len() != bounds.len() {
                return Err(format!(
                    "checkpoint genome length {} != problem arity {}",
                    ind.genes.len(),
                    bounds.len()
                ));
            }
            if ind.genes.iter().zip(bounds).any(|(&g, &b)| g >= b) {
                return Err("checkpoint genome exceeds problem bounds".into());
            }
        }
        if self.rng_state == [0; 4] {
            return Err("checkpoint RNG state is degenerate (all zero)".into());
        }
        if self.history.len() != self.generation {
            return Err(format!(
                "checkpoint history length {} != generation {}",
                self.history.len(),
                self.generation
            ));
        }
        let expected_evals = (self.generation as u64 + 1) * config.population as u64;
        if self.evaluations != expected_evals {
            return Err(format!(
                "checkpoint evaluations {} != expected {expected_evals}",
                self.evaluations
            ));
        }
        Ok(())
    }
}

/// The NSGA-II optimizer.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    config: NsgaConfig,
}

impl Nsga2 {
    /// Optimizer with the given configuration.
    #[must_use]
    pub fn new(config: NsgaConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NsgaConfig {
        &self.config
    }

    /// Run the optimizer with a randomly initialized population: the
    /// one-island case of [`IslandModel::run`], which also takes seed
    /// genomes, resume states and per-generation hooks.
    ///
    /// # Panics
    ///
    /// Panics if the population size is below 2 or the generation
    /// budget is zero, and re-raises a panic of `problem`.
    pub fn run<P: IntProblem + Sync>(&self, problem: &P) -> NsgaResult {
        IslandModel::new(IslandConfig::single(self.config.clone()))
            .run(
                std::slice::from_ref(problem),
                Vec::new(),
                Resume::default(),
                1,
                &(),
            )
            .unwrap_or_else(|panic| panic.resume())
            .0
    }
}

/// Score one wave of genomes through [`IntProblem::evaluate_batch`]
/// and account every genome as one evaluation (cache hits inside a
/// batching problem do not reduce the count: `evaluations` reports
/// candidate evaluations requested, not inner-problem work performed).
///
/// # Panics
///
/// Panics if the problem's `evaluate_batch` returns the wrong number
/// of evaluations.
fn evaluate_wave<P: IntProblem>(
    problem: &P,
    genomes: Vec<Vec<u32>>,
    evaluations: &mut u64,
) -> Vec<Individual> {
    let evals = problem.evaluate_batch(&genomes);
    assert_eq!(
        evals.len(),
        genomes.len(),
        "evaluate_batch must return one Evaluation per genome"
    );
    *evaluations += genomes.len() as u64;
    genomes
        .into_iter()
        .zip(evals)
        .map(|(genes, e)| Individual::new(genes, e))
        .collect()
}

/// Binary tournament by the crowded-comparison operator.
fn tournament(pop: &[Individual], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if pop[a].beats(&pop[b]) {
        a
    } else {
        b
    }
}

/// Keep the best `mu` individuals: whole fronts while they fit, then
/// crowding-distance truncation of the spilling front. Survivors move
/// out of `pop` in that order, keeping the ranks and crowding of the
/// whole pool's sort.
pub(crate) fn select_mu(mut pop: Vec<Individual>, mu: usize) -> Vec<Individual> {
    let mut chosen: Vec<usize> = Vec::with_capacity(mu);
    for mut front in fast_non_dominated_sort(&mut pop) {
        assign_crowding(&mut pop, &front);
        if chosen.len() + front.len() > mu {
            front.sort_by(|&a, &b| {
                pop[b]
                    .crowding
                    .partial_cmp(&pop[a].crowding)
                    .expect("crowding is never NaN")
            });
            front.truncate(mu - chosen.len());
            chosen.extend(front);
            break;
        }
        chosen.extend(front);
    }
    let mut pool: Vec<Option<Individual>> = pop.into_iter().map(Some).collect();
    chosen
        .into_iter()
        .map(|i| pool[i].take().expect("a survivor is chosen once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::island::SearchHooks;
    use crate::problem::Evaluation;

    /// Minimize (x - 30)² and (x - 70)² over a single gene: the Pareto
    /// set is exactly 30..=70.
    struct TwoHumps {
        bounds: Vec<u32>,
    }

    impl IntProblem for TwoHumps {
        fn bounds(&self) -> &[u32] {
            &self.bounds
        }
        fn evaluate(&self, genes: &[u32]) -> Evaluation {
            let x = f64::from(genes[0]);
            Evaluation::feasible(vec![(x - 30.0).powi(2), (x - 70.0).powi(2)])
        }
    }

    #[test]
    fn converges_to_the_pareto_segment() {
        let problem = TwoHumps { bounds: vec![101] };
        let result = Nsga2::new(NsgaConfig {
            population: 40,
            generations: 60,
            mutation_prob: 0.2,
            ..NsgaConfig::default()
        })
        .run(&problem);
        assert!(!result.pareto_front.is_empty());
        // Every front member should be inside (or adjacent to) [30, 70].
        for ind in &result.pareto_front {
            let x = ind.genes[0];
            assert!((29..=71).contains(&x), "x = {x}");
        }
        // The front should spread across the segment, not collapse.
        let xs: Vec<u32> = result.pareto_front.iter().map(|i| i.genes[0]).collect();
        let spread = xs.iter().max().unwrap() - xs.iter().min().unwrap();
        assert!(spread >= 20, "front collapsed: {xs:?}");
    }

    #[test]
    fn runs_are_reproducible() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 16,
            generations: 10,
            ..NsgaConfig::default()
        };
        let a = Nsga2::new(cfg.clone()).run(&problem);
        let b = Nsga2::new(cfg).run(&problem);
        assert_eq!(a.population, b.population);
        assert_eq!(a.evaluations, b.evaluations);
    }

    /// Test hooks: record every generation's stats, capture every save
    /// (at cadence `every`), and stop after generation index
    /// `stop_after`.
    struct Capture {
        every: usize,
        stop_after: usize,
        seen: Mutex<Vec<GenerationStats>>,
        saved: Mutex<Vec<SearchCheckpoint>>,
    }

    impl Capture {
        fn new(every: usize) -> Self {
            Self::stopping_after(every, usize::MAX)
        }

        fn stopping_after(every: usize, stop_after: usize) -> Self {
            Self {
                every,
                stop_after,
                seen: Mutex::default(),
                saved: Mutex::default(),
            }
        }

        fn saved(self) -> Vec<SearchCheckpoint> {
            self.saved.into_inner().expect("unpoisoned")
        }
    }

    impl SearchHooks for Capture {
        fn checkpoint_every(&self) -> usize {
            self.every
        }
        fn generation(&self, _island: usize, state: &SearchCheckpoint) -> bool {
            let stats = state.history.last().expect("stats recorded").clone();
            let keep = stats.generation < self.stop_after;
            self.seen.lock().expect("unpoisoned").push(stats);
            keep
        }
        fn save(&self, _island: usize, state: &SearchCheckpoint) {
            self.saved.lock().expect("unpoisoned").push(state.clone());
        }
    }

    /// One population through the driver, with seeds, a resume state
    /// and hooks.
    fn run_one<P: IntProblem + Sync>(
        cfg: &NsgaConfig,
        problem: &P,
        seeds: Vec<Vec<u32>>,
        resume: Option<SearchCheckpoint>,
        hooks: &dyn SearchHooks,
    ) -> NsgaResult {
        let resume = Resume {
            islands: vec![resume],
            migrated_through: 0,
        };
        IslandModel::new(IslandConfig::single(cfg.clone()))
            .run(std::slice::from_ref(problem), seeds, resume, 1, hooks)
            .expect("no leg panics")
            .0
    }

    #[test]
    fn seeding_injects_genomes() {
        struct CountFirstGene;
        impl IntProblem for CountFirstGene {
            fn bounds(&self) -> &[u32] {
                const B: [u32; 1] = [1000];
                &B
            }
            fn evaluate(&self, genes: &[u32]) -> Evaluation {
                Evaluation::feasible(vec![f64::from(genes[0]), -f64::from(genes[0])])
            }
        }
        let cfg = NsgaConfig {
            population: 10,
            generations: 1,
            mutation_prob: 0.0,
            crossover_prob: 0.0,
            ..NsgaConfig::default()
        };
        let hooks = Capture::new(0);
        let result = run_one(&cfg, &CountFirstGene, vec![vec![999]], None, &hooks);
        // The seeded genome minimizes objective 1; it must survive elitism.
        assert!(result.population.iter().any(|i| i.genes == vec![999]));
        assert_eq!(hooks.seen.lock().expect("unpoisoned").len(), 1);
    }

    #[test]
    fn controlled_run_stops_when_the_observer_says_so() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 10,
            generations: 50,
            ..NsgaConfig::default()
        };
        // Continue through generations 0..=3.
        let stopping = Capture::stopping_after(0, 3);
        let result = run_one(&cfg, &problem, Vec::new(), None, &stopping);
        assert_eq!(result.generations, 4);
        assert_eq!(result.evaluations, 10 + 4 * 10);
        assert!(!result.pareto_front.is_empty());

        // The prefix of a cancelled run matches the uncancelled run.
        let full = Capture::new(0);
        let uncancelled = run_one(&cfg, &problem, Vec::new(), None, &full);
        assert_eq!(uncancelled.generations, 50);
        let seen = full.seen.into_inner().expect("unpoisoned");
        assert_eq!(
            seen[..4],
            stopping.seen.into_inner().expect("unpoisoned")[..]
        );
        assert_eq!(seen[3].evaluations, result.evaluations);
    }

    #[test]
    fn resume_from_every_checkpoint_matches_the_uninterrupted_run() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 12,
            generations: 9,
            ..NsgaConfig::default()
        };
        let hooks = Capture::new(1);
        let baseline = run_one(&cfg, &problem, Vec::new(), None, &hooks);
        let checkpoints = hooks.saved();
        assert_eq!(checkpoints.len(), cfg.generations);

        for cp in checkpoints {
            // Round-trip through JSON: the persisted form (with its
            // null-ed infinite crowding values) must resume exactly.
            let json = serde_json::to_string(&cp).expect("checkpoint serializes");
            let restored: SearchCheckpoint = serde_json::from_str(&json).expect("round-trips");
            restored
                .validate(&cfg, &[101])
                .expect("round-tripped checkpoint is valid");
            let resumed = run_one(&cfg, &problem, Vec::new(), Some(restored), &());
            assert_eq!(resumed, baseline);
        }
    }

    #[test]
    fn observer_stop_flushes_a_final_checkpoint() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 10,
            generations: 50,
            ..NsgaConfig::default()
        };
        // Cadence would fire at 10, 20, …; the stop after generation
        // index 2 must flush a snapshot anyway.
        let hooks = Capture::stopping_after(10, 2);
        let stopped = run_one(&cfg, &problem, Vec::new(), None, &hooks);
        assert_eq!(stopped.generations, 3);
        let checkpoints = hooks.saved();
        assert_eq!(checkpoints.len(), 1);
        let cp = checkpoints.into_iter().next().expect("one checkpoint");
        assert_eq!(cp.generation, 3);
        assert_eq!(cp.history.len(), 3);
        assert_eq!(cp.evaluations, stopped.evaluations);

        // Resuming the flushed snapshot completes the run identically
        // to an uninterrupted one.
        let resumed = run_one(&cfg, &problem, Vec::new(), Some(cp), &());
        let uninterrupted = Nsga2::new(cfg).run(&problem);
        assert_eq!(resumed.population, uninterrupted.population);
        assert_eq!(resumed.evaluations, uninterrupted.evaluations);
    }

    #[test]
    fn the_final_generation_flushes_a_checkpoint() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 10,
            generations: 7,
            ..NsgaConfig::default()
        };
        // `every: 3` fires at generations 3 and 6; generation 7 is the
        // final one and flushes regardless of cadence.
        let hooks = Capture::new(3);
        let _ = run_one(&cfg, &problem, Vec::new(), None, &hooks);
        let generations: Vec<usize> = hooks.saved().iter().map(|c| c.generation).collect();
        assert_eq!(generations, vec![3, 6, 7]);
    }

    #[test]
    fn validate_rejects_torn_or_mismatched_checkpoints() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 8,
            generations: 6,
            ..NsgaConfig::default()
        };
        let hooks = Capture::new(2);
        let _ = run_one(&cfg, &problem, Vec::new(), None, &hooks);
        let cp = hooks.saved().into_iter().next().expect("checkpoint");
        assert!(cp.validate(&cfg, &[101]).is_ok());

        let mut other_cfg = cfg.clone();
        other_cfg.seed ^= 1;
        assert!(cp.validate(&other_cfg, &[101]).is_err());
        assert!(cp.validate(&cfg, &[101, 101]).is_err());
        assert!(cp.validate(&cfg, &[5]).is_err());

        let mut torn = cp.clone();
        torn.population.pop();
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp.clone();
        torn.history.pop();
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp.clone();
        torn.evaluations += 1;
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp;
        torn.rng_state = [0; 4];
        assert!(torn.validate(&cfg, &[101]).is_err());
    }

    #[test]
    fn evaluation_budget_is_accounted() {
        let problem = TwoHumps { bounds: vec![101] };
        let result = Nsga2::new(NsgaConfig {
            population: 10,
            generations: 5,
            ..NsgaConfig::default()
        })
        .run(&problem);
        // init + generations * population.
        assert_eq!(result.evaluations, 10 + 5 * 10);
    }

    #[test]
    fn every_wave_goes_through_evaluate_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Counting {
            bounds: Vec<u32>,
            batches: AtomicUsize,
            singles: AtomicUsize,
        }
        impl IntProblem for Counting {
            fn bounds(&self) -> &[u32] {
                &self.bounds
            }
            fn evaluate(&self, genes: &[u32]) -> Evaluation {
                self.singles.fetch_add(1, Ordering::Relaxed);
                let x = f64::from(genes[0]);
                Evaluation::feasible(vec![x, 100.0 - x])
            }
            fn evaluate_batch(&self, genomes: &[Vec<u32>]) -> Vec<Evaluation> {
                self.batches.fetch_add(1, Ordering::Relaxed);
                genomes.iter().map(|g| self.evaluate(g)).collect()
            }
        }

        let problem = Counting {
            bounds: vec![101],
            batches: AtomicUsize::new(0),
            singles: AtomicUsize::new(0),
        };
        let result = Nsga2::new(NsgaConfig {
            population: 8,
            generations: 5,
            ..NsgaConfig::default()
        })
        .run(&problem);
        // One batch per wave: the initial population plus one per
        // generation — never one call per genome.
        assert_eq!(problem.batches.load(Ordering::Relaxed), 1 + 5);
        assert_eq!(
            problem.singles.load(Ordering::Relaxed) as u64,
            result.evaluations
        );
    }

    #[test]
    fn infeasible_solutions_are_purged_when_feasible_exist() {
        struct Constrained;
        impl IntProblem for Constrained {
            fn bounds(&self) -> &[u32] {
                const B: [u32; 1] = [100];
                &B
            }
            fn evaluate(&self, genes: &[u32]) -> Evaluation {
                let x = f64::from(genes[0]);
                if genes[0] < 50 {
                    Evaluation::infeasible(vec![x, 100.0 - x], 50.0 - x)
                } else {
                    Evaluation::feasible(vec![x, 100.0 - x])
                }
            }
        }
        let result = Nsga2::new(NsgaConfig {
            population: 20,
            generations: 30,
            mutation_prob: 0.3,
            ..NsgaConfig::default()
        })
        .run(&Constrained);
        for ind in &result.pareto_front {
            assert!(
                ind.evaluation.is_feasible(),
                "infeasible on front: {:?}",
                ind.genes
            );
        }
    }
}
