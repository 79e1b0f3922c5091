//! The GA driver: island-model NSGA-II, with the single population as
//! its one-island case.
//!
//! The island model parallelizes a GA without giving up determinism:
//! the total population splits into N islands, each evolving its own
//! (μ+λ) loop on its own xoshiro256\*\* stream (seeds derived from the
//! master seed by the same splitmix64-over-FNV discipline the pipeline
//! uses for per-dataset streams). Every `migration_every` generations
//! the islands pause at a common barrier and exchange elites around a
//! ring — the selection of emigrants and the choice of replaced locals
//! are both drawn from the islands' own recorded RNG streams, so
//! migration checkpoints and resumes bit-exactly like any other part
//! of the evolution. After the final generation the island populations
//! merge through one non-dominated sort into a single front.
//!
//! The evaluation budget is conserved: island populations sum to the
//! configured total and every island runs the full generation count,
//! so an N-island run performs exactly as many candidate evaluations
//! as the single-population run it replaces. With `islands == 1` the
//! model *is* the single-population run: island 0 keeps the master
//! seed, there is no barrier before the final generation, and nothing
//! is exchanged or re-sorted. [`Nsga2::run`] is that case.
//!
//! [`IslandModel::run`] is the one loop every search goes through. It
//! owns resume, the per-generation step ([`SearchCheckpoint`] is the
//! state it steps), cadence saves, migration and the final merge, and
//! runs each epoch's island legs through the crate's one worker pool
//! ([`map_claimed`]); callers observe and persist through
//! [`SearchHooks`]. At one worker the legs run inline in island order —
//! the serial reference every worker count reproduces bit for bit,
//! because islands share nothing but the (pure) problem. A leg that
//! panics ends the run with that leg's [`WorkerPanic`] as its error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

#[cfg(doc)]
use crate::algorithm::Nsga2;
use crate::algorithm::{GenerationStats, NsgaConfig, NsgaResult, SearchCheckpoint};
use crate::individual::Individual;
use crate::pool::{map_claimed, WorkerPanic};
use crate::problem::IntProblem;
use crate::sort::annotate;

/// Default migration cadence in generations (the `PE_MIGRATE_EVERY`
/// fallback upstream).
pub const DEFAULT_MIGRATION_EVERY: usize = 5;

/// Default number of elites each island emits per migration epoch.
pub const DEFAULT_MIGRANTS: usize = 2;

/// FNV-1a over the island tag — the same stream-naming hash the
/// pipeline uses for per-dataset seed derivation.
fn fnv1a64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer: decorrelates the per-island seeds so sibling
/// islands never share a stream prefix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of island `island` under master seed `master`.
///
/// Island 0 keeps the master seed unchanged — that is what makes a
/// one-island model bit-identical to the plain single-population run.
/// Every other island gets `splitmix64(master ^ fnv1a64("island{i}"))`,
/// the exact discipline `derive_seed` applies to dataset names.
#[must_use]
pub fn island_seed(master: u64, island: usize) -> u64 {
    if island == 0 {
        master
    } else {
        splitmix64(master ^ fnv1a64(&format!("island{island}")))
    }
}

/// Island-model hyperparameters: the total search budget plus the
/// island topology laid over it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandConfig {
    /// The *total* search budget: `population` is the combined size of
    /// all islands and `seed` is the master seed the per-island
    /// streams derive from. Operator rates apply to every island.
    pub nsga: NsgaConfig,
    /// Number of islands (≥ 1; `1` reproduces the plain run exactly).
    pub islands: usize,
    /// Migration cadence in completed generations (≥ 1).
    pub migration_every: usize,
    /// Elites each island emits per migration epoch (1 ..= the
    /// smallest island population).
    pub migrants: usize,
}

impl IslandConfig {
    /// The one-island topology over `nsga`: the plain single-population
    /// run (no barrier before the final generation, so the cadence and
    /// migrant count are never used).
    #[must_use]
    pub fn single(nsga: NsgaConfig) -> Self {
        Self {
            nsga,
            islands: 1,
            migration_every: DEFAULT_MIGRATION_EVERY,
            migrants: DEFAULT_MIGRANTS,
        }
    }

    /// Check the topology is coherent: at least one island, at least
    /// one generation, every island at least 2 individuals and, for an
    /// archipelago, a positive migration cadence and a migrant count
    /// every island can honor.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, human-readable.
    pub fn validate(&self) -> Result<(), String> {
        if self.islands == 0 {
            return Err("islands must be at least 1".into());
        }
        if self.nsga.generations == 0 {
            return Err("generations must be at least 1".into());
        }
        if self.nsga.population < 2 * self.islands {
            return Err(format!(
                "population {} cannot split into {} islands of at least 2",
                self.nsga.population, self.islands
            ));
        }
        if self.islands == 1 {
            return Ok(());
        }
        let base = self.nsga.population / self.islands;
        if self.migration_every == 0 {
            return Err("migration_every must be at least 1".into());
        }
        if self.migrants == 0 || self.migrants > base {
            return Err(format!(
                "migrants {} outside 1..={base} (the smallest island population)",
                self.migrants
            ));
        }
        Ok(())
    }

    /// The per-island [`NsgaConfig`]s: the total population split as
    /// evenly as possible (the first `population % islands` islands
    /// take the remainder, one each), the same generation count and
    /// operator rates everywhere, and [`island_seed`]-derived seeds.
    #[must_use]
    pub fn island_configs(&self) -> Vec<NsgaConfig> {
        let n = self.islands;
        let base = self.nsga.population / n;
        let extra = self.nsga.population % n;
        (0..n)
            .map(|i| NsgaConfig {
                population: base + usize::from(i < extra),
                seed: island_seed(self.nsga.seed, i),
                ..self.nsga.clone()
            })
            .collect()
    }

    /// The epoch barrier generations, in order: for an archipelago
    /// every multiple of `migration_every` below the generation count,
    /// then (always) the final generation. Migration fires at every
    /// target except the last (nothing evolves after the final
    /// generation, so a final exchange would only scramble the merged
    /// front); a single island has only the final one.
    #[must_use]
    pub fn epoch_targets(&self) -> Vec<usize> {
        let generations = self.nsga.generations;
        let interior = if self.islands > 1 {
            self.migration_every
        } else {
            generations
        };
        let mut targets: Vec<usize> = (1..)
            .map(|epoch| epoch * interior)
            .take_while(|&t| t < generations)
            .collect();
        targets.push(generations);
        targets
    }
}

/// A snapshot of every island right after a common epoch barrier —
/// by contract taken *after* that barrier's migration, so resuming
/// from it never replays the exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandCheckpoint {
    /// Generations every island had completed at the barrier.
    pub generation: usize,
    /// One [`SearchCheckpoint`] per island, in island order.
    pub islands: Vec<SearchCheckpoint>,
}

impl IslandCheckpoint {
    /// Check this snapshot can resume a run of `config` over a problem
    /// with the given `bounds`: per-island validity against the
    /// derived island configurations plus a uniform generation across
    /// islands (epochs are common barriers).
    ///
    /// # Errors
    ///
    /// Returns the first integrity violation found.
    pub fn validate(&self, config: &IslandConfig, bounds: &[u32]) -> Result<(), String> {
        config.validate()?;
        let island_configs = config.island_configs();
        if self.islands.len() != island_configs.len() {
            return Err(format!(
                "island checkpoint holds {} islands, configuration has {}",
                self.islands.len(),
                island_configs.len()
            ));
        }
        for (index, (state, island_config)) in self.islands.iter().zip(&island_configs).enumerate()
        {
            state
                .validate(island_config, bounds)
                .map_err(|reason| format!("island {index}: {reason}"))?;
            if state.generation != self.generation {
                return Err(format!(
                    "island {index} at generation {} but the epoch barrier is {}",
                    state.generation, self.generation
                ));
            }
        }
        Ok(())
    }
}

/// Where [`IslandModel::run`] picks a search up. The default starts
/// every island fresh.
#[derive(Debug, Clone, Default)]
pub struct Resume {
    /// Per-island states in island order; a missing or `None` island
    /// starts fresh from its seeds.
    pub islands: Vec<Option<SearchCheckpoint>>,
    /// The last barrier whose migration `islands` already include
    /// (`0`: none). Barriers up to it are never replayed.
    pub migrated_through: usize,
}

impl From<IslandCheckpoint> for Resume {
    fn from(checkpoint: IslandCheckpoint) -> Self {
        Self {
            islands: checkpoint.islands.into_iter().map(Some).collect(),
            migrated_through: checkpoint.generation,
        }
    }
}

/// The caller's side of [`IslandModel::run`]: progress, cancellation
/// and persistence. Every method defaults to a no-op, so `&()` runs a
/// bare search. Legs of different islands call in concurrently when
/// the run has more than one worker.
pub trait SearchHooks: Sync {
    /// Cadence of [`save`](Self::save) in completed generations (`0`:
    /// leg ends and stops only).
    fn checkpoint_every(&self) -> usize {
        0
    }

    /// Island `island` completed a generation; `state` is its state
    /// right after it (the last `history` entry is the generation's
    /// stats). Returning `false` stops the run after this generation
    /// (cooperative cancellation): up to that point it is bit-identical
    /// to an unstopped one.
    fn generation(&self, _island: usize, _state: &SearchCheckpoint) -> bool {
        true
    }

    /// Persist island `island`'s state. Called after every
    /// [`checkpoint_every`](Self::checkpoint_every)-th generation, at
    /// the end of each of the island's legs (a barrier or the final
    /// generation) and when the island stops; always after the
    /// generation's [`generation`](Self::generation) call.
    fn save(&self, _island: usize, _state: &SearchCheckpoint) {}

    /// An archipelago (≥ 2 islands) reached a barrier: `checkpoint`
    /// holds every island's state there — after the exchange when
    /// `migrated`, which is every barrier but the final generation's.
    /// Never called for a single island, nor once the run stopped.
    fn barrier(&self, _checkpoint: &IslandCheckpoint, _migrated: bool) {}
}

impl SearchHooks for () {}

/// The GA driver. See the [module docs](self) for the topology and
/// determinism contract.
#[derive(Debug, Clone)]
pub struct IslandModel {
    config: IslandConfig,
    islands: Vec<NsgaConfig>,
}

impl IslandModel {
    /// A model over a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`IslandConfig::validate`]
    /// (callers wanting friendly errors should validate first).
    #[must_use]
    pub fn new(config: IslandConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|reason| panic!("invalid island configuration: {reason}"));
        let islands = config.island_configs();
        Self { config, islands }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &IslandConfig {
        &self.config
    }

    /// The derived per-island configurations, in island order.
    #[must_use]
    pub fn island_configs(&self) -> &[NsgaConfig] {
        &self.islands
    }

    /// Evolve every island epoch by epoch — migrating at each interior
    /// barrier — and merge the final states. Returns the merged result
    /// and the islands' recorded histories concatenated in island
    /// order (a pure function of the deterministic streams, never the
    /// live interleave).
    ///
    /// `problems` holds one problem per island (they may share caches:
    /// [`IntProblem::evaluate`] is pure). `seeds` are dealt round-robin
    /// (seed `j` joins island `j mod N`), so doped initialization
    /// spreads over the archipelago. `resume` continues from saved
    /// states. Up to `workers` island legs run concurrently; the
    /// result is the same at any worker count. A stop requested by
    /// [`SearchHooks::generation`] ends that island's leg after the
    /// generation; legs not yet started are skipped, the run ends
    /// before the next barrier, and whatever states exist merge.
    ///
    /// # Errors
    ///
    /// The lowest island's panic, when a leg panics (in the problem,
    /// the hooks, or on a seed genome of the wrong length). The epoch's
    /// other legs still finish, and their [`SearchHooks::save`] calls
    /// land, so a re-run can resume.
    ///
    /// # Panics
    ///
    /// Panics if `problems` does not hold one problem per island, or a
    /// resume state fails [`SearchCheckpoint::validate`] or lags behind
    /// `resume.migrated_through`.
    pub fn run<P: IntProblem + Sync>(
        &self,
        problems: &[P],
        seeds: Vec<Vec<u32>>,
        resume: Resume,
        workers: usize,
        hooks: &dyn SearchHooks,
    ) -> Result<(NsgaResult, Vec<GenerationStats>), WorkerPanic> {
        let n = self.islands.len();
        assert_eq!(problems.len(), n, "one problem per island");
        let mut island_seeds: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        for (index, genome) in seeds.into_iter().enumerate() {
            island_seeds[index % n].push(genome);
        }
        let Resume {
            islands: mut states,
            migrated_through,
        } = resume;
        assert!(
            states.len() <= n,
            "resume holds more islands than the model"
        );
        states.resize_with(n, || None);
        for (island, slot) in states.iter_mut().enumerate() {
            let Some(state) = slot else {
                assert_eq!(
                    migrated_through, 0,
                    "island {island} missing past a barrier"
                );
                continue;
            };
            state
                .validate(&self.islands[island], problems[island].bounds())
                .unwrap_or_else(|reason| panic!("invalid checkpoint of island {island}: {reason}"));
            assert!(
                state.generation >= migrated_through,
                "island {island} lags behind barrier {migrated_through}"
            );
            // A front-boundary point's +∞ crowding renders as JSON null
            // and deserializes as NaN; map it back so the restored
            // annotations equal the snapshot's exactly.
            for ind in &mut state.population {
                if ind.crowding.is_nan() {
                    ind.crowding = f64::INFINITY;
                }
            }
        }

        // One cell per island: its state (built by the first leg that
        // claims it) and its not-yet-consumed seeds.
        type Cell = Mutex<(Option<SearchCheckpoint>, Vec<Vec<u32>>)>;
        let mut cells: Vec<Cell> = states
            .into_iter()
            .zip(island_seeds)
            .map(Mutex::new)
            .collect();
        let stopped = AtomicBool::new(false);
        for target in self.config.epoch_targets() {
            if target <= migrated_through {
                continue;
            }
            let legs = map_claimed(n, workers, |island| {
                if stopped.load(Ordering::SeqCst) {
                    return;
                }
                let mut cell = cells[island].lock().unwrap_or_else(PoisonError::into_inner);
                let (state, seeds) = &mut *cell;
                let problem = &problems[island];
                let state = state.get_or_insert_with(|| {
                    SearchCheckpoint::initial(&self.islands[island], problem, std::mem::take(seeds))
                });
                if !Self::leg(island, problem, state, target, hooks) {
                    stopped.store(true, Ordering::SeqCst);
                }
            });
            legs.into_iter().collect::<Result<(), _>>()?;
            if stopped.load(Ordering::SeqCst) {
                break;
            }
            if n > 1 {
                let mut barrier = IslandCheckpoint {
                    generation: target,
                    islands: cells
                        .iter_mut()
                        .map(|cell| {
                            let cell = cell.get_mut().unwrap_or_else(PoisonError::into_inner);
                            cell.0.take().expect("every island reached the barrier")
                        })
                        .collect(),
                };
                let migrated = target < self.config.nsga.generations;
                if migrated {
                    self.migrate(&mut barrier.islands);
                }
                hooks.barrier(&barrier, migrated);
                for (cell, state) in cells.iter_mut().zip(barrier.islands) {
                    cell.get_mut().unwrap_or_else(PoisonError::into_inner).0 = Some(state);
                }
            }
        }

        let mut finals: Vec<SearchCheckpoint> = cells
            .into_iter()
            .filter_map(|cell| cell.into_inner().unwrap_or_else(PoisonError::into_inner).0)
            .collect();
        let history = finals
            .iter_mut()
            .flat_map(|state| std::mem::take(&mut state.history))
            .collect();
        Ok((self.merge(finals), history))
    }

    /// Advance one island to `target` completed generations, calling
    /// the hooks after every generation. Returns `false` when the
    /// hooks stopped it.
    fn leg<P: IntProblem>(
        island: usize,
        problem: &P,
        state: &mut SearchCheckpoint,
        target: usize,
        hooks: &dyn SearchHooks,
    ) -> bool {
        let every = hooks.checkpoint_every();
        while state.generation < target {
            state.step(problem);
            let keep = hooks.generation(island, state);
            let due = state.generation.is_multiple_of(every);
            if due || !keep || state.generation == target {
                hooks.save(island, state);
            }
            if !keep {
                return false;
            }
        }
        true
    }

    /// One deterministic ring-migration epoch over the island states,
    /// in place. Two seeded phases, both drawn from (and recorded back
    /// into) each island's own RNG stream:
    ///
    /// 1. every island picks `migrants` distinct members of its first
    ///    front (a seeded partial shuffle; fewer if the front is
    ///    smaller) as emigrants;
    /// 2. around the ring (island `i` receives from `i - 1 mod n`),
    ///    each migrant replaces a seeded choice among the receiver's
    ///    *dominated* members (rank > 0) — elites are never displaced,
    ///    and if no dominated members remain the rest of the batch is
    ///    dropped. Receivers re-annotate ranks and crowding.
    ///
    /// A single island is a strict no-op: the RNG stream is not
    /// touched.
    fn migrate(&self, states: &mut [SearchCheckpoint]) {
        let n = states.len();
        if n < 2 {
            return;
        }
        // Phase 1: seeded emigrant selection, island order.
        let mut outgoing: Vec<Vec<Individual>> = Vec::with_capacity(n);
        for state in states.iter_mut() {
            let mut rng = StdRng::from_state(state.rng_state);
            let mut front: Vec<usize> = state
                .population
                .iter()
                .enumerate()
                .filter(|(_, ind)| ind.rank == 0)
                .map(|(index, _)| index)
                .collect();
            let emigrants = self.config.migrants.min(front.len());
            for slot in 0..emigrants {
                let pick = rng.gen_range(slot..front.len());
                front.swap(slot, pick);
            }
            outgoing.push(
                front[..emigrants]
                    .iter()
                    .map(|&index| state.population[index].clone())
                    .collect(),
            );
            state.rng_state = rng.state();
        }
        // Phase 2: ring delivery into seeded dominated slots, island
        // order again (the two passes keep each island's draws in one
        // contiguous, resumable stream segment per phase).
        for island in 0..n {
            let incoming = std::mem::take(&mut outgoing[(island + n - 1) % n]);
            let state = &mut states[island];
            let mut rng = StdRng::from_state(state.rng_state);
            let mut dominated: Vec<usize> = state
                .population
                .iter()
                .enumerate()
                .filter(|(_, ind)| ind.rank != 0)
                .map(|(index, _)| index)
                .collect();
            for migrant in incoming {
                if dominated.is_empty() {
                    break;
                }
                let pick = rng.gen_range(0..dominated.len());
                let slot = dominated.swap_remove(pick);
                state.population[slot] = migrant;
            }
            state.rng_state = rng.state();
            annotate(&mut state.population);
        }
    }

    /// Merge final island states into one result: populations
    /// concatenate in island order, one non-dominated sort annotates
    /// the union, and the merged first front is the Pareto front.
    /// Evaluations sum across islands. A single island passes through
    /// untouched — its stored (μ+λ)-pool annotations are exactly what
    /// the plain run reports, and re-sorting the μ survivors alone
    /// could not reproduce them.
    fn merge(&self, mut states: Vec<SearchCheckpoint>) -> NsgaResult {
        let evaluations = states.iter().map(|state| state.evaluations).sum();
        let generations = states
            .iter()
            .map(|state| state.generation)
            .max()
            .unwrap_or(0);
        let population: Vec<Individual> = if states.len() == 1 {
            states.pop().expect("one island").population
        } else {
            let mut union: Vec<Individual> = states
                .into_iter()
                .flat_map(|state| state.population)
                .collect();
            annotate(&mut union);
            union
        };
        let pareto_front: Vec<Individual> = population
            .iter()
            .filter(|ind| ind.rank == 0)
            .cloned()
            .collect();
        NsgaResult {
            population,
            pareto_front,
            evaluations,
            generations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;

    /// Minimize (x - 30)² and (x - 70)² over a single gene — the same
    /// trade-off the algorithm tests use, big enough fronts to migrate.
    #[derive(Clone)]
    struct TwoHumps;

    impl IntProblem for TwoHumps {
        fn bounds(&self) -> &[u32] {
            const B: [u32; 1] = [101];
            &B
        }
        fn evaluate(&self, genes: &[u32]) -> Evaluation {
            let x = f64::from(genes[0]);
            Evaluation::feasible(vec![(x - 30.0).powi(2), (x - 70.0).powi(2)])
        }
    }

    fn config(islands: usize) -> IslandConfig {
        IslandConfig {
            nsga: NsgaConfig {
                population: 24,
                generations: 10,
                seed: 42,
                ..NsgaConfig::default()
            },
            islands,
            migration_every: 3,
            migrants: 2,
        }
    }

    #[test]
    fn island_seeds_are_pinned() {
        // island 0 keeps the master seed (one island ≡ the plain run);
        // the rest follow splitmix64(master ^ fnv1a64("island{i}")),
        // pinned so the derivation can never drift silently.
        assert_eq!(island_seed(0, 0), 0);
        assert_eq!(island_seed(7, 0), 7);
        assert_eq!(island_seed(0, 1), 0x81d9_54a7_b2a7_6f04);
        assert_eq!(island_seed(0, 2), 0x6eae_d8d9_98ce_0051);
        assert_eq!(island_seed(0, 3), 0x5a1b_615f_0bee_b315);
        assert_eq!(island_seed(7, 1), 0xf5a1_d8b6_a348_df1f);
        assert_eq!(island_seed(7, 2), 0xb9a5_e978_58a1_916f);
    }

    #[test]
    fn validation_catches_incoherent_topologies() {
        assert!(config(1).validate().is_ok());
        assert!(config(4).validate().is_ok());
        let mut bad = config(0);
        assert!(bad.validate().is_err());
        bad = config(13); // 24 cannot split into 13 islands of ≥ 2
        assert!(bad.validate().is_err());
        bad = config(2);
        bad.migration_every = 0;
        assert!(bad.validate().is_err());
        bad = config(2);
        bad.migrants = 0;
        assert!(bad.validate().is_err());
        bad = config(2);
        bad.migrants = 13; // smallest island holds 12
        assert!(bad.validate().is_err());
        bad = config(2);
        bad.nsga.generations = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn budget_splits_evenly_and_epochs_cover_the_run() {
        let cfg = IslandConfig {
            nsga: NsgaConfig {
                population: 23,
                generations: 10,
                seed: 5,
                ..NsgaConfig::default()
            },
            islands: 4,
            migration_every: 4,
            migrants: 1,
        };
        let islands = cfg.island_configs();
        let sizes: Vec<usize> = islands.iter().map(|c| c.population).collect();
        assert_eq!(sizes, [6, 6, 6, 5]);
        assert_eq!(islands[0].seed, 5);
        assert!(islands.iter().skip(1).all(|c| c.seed != 5));
        assert_eq!(cfg.epoch_targets(), [4, 8, 10]);
        let one_epoch = IslandConfig {
            migration_every: 50,
            ..cfg
        };
        assert_eq!(one_epoch.epoch_targets(), [10]);
    }

    /// A run over one problem per island at the given worker count.
    fn run(
        model: &IslandModel,
        seeds: Vec<Vec<u32>>,
        resume: Resume,
        workers: usize,
        hooks: &dyn SearchHooks,
    ) -> NsgaResult {
        let problems = vec![TwoHumps; model.config().islands];
        model
            .run(&problems, seeds, resume, workers, hooks)
            .expect("no leg panics")
            .0
    }

    #[test]
    fn one_island_is_the_plain_run_bit_for_bit() {
        // The plain loop by hand: seed the population, step it through
        // every generation, report the survivors.
        let cfg = config(1);
        let mut state = SearchCheckpoint::initial(&cfg.nsga, &TwoHumps, Vec::new());
        for _ in 0..cfg.nsga.generations {
            state.step(&TwoHumps);
        }
        let merged = run(
            &IslandModel::new(cfg),
            Vec::new(),
            Resume::default(),
            1,
            &(),
        );
        assert_eq!(merged.population, state.population);
        assert_eq!(merged.evaluations, state.evaluations);
        assert_eq!(merged.generations, state.generation);
        assert!(merged.pareto_front.iter().all(|ind| ind.rank == 0));
    }

    #[test]
    fn runs_are_deterministic_and_budget_conserving() {
        let cfg = config(3);
        let model = IslandModel::new(cfg.clone());
        let a = run(&model, Vec::new(), Resume::default(), 1, &());
        for workers in [1, 3] {
            let b = run(&model, Vec::new(), Resume::default(), workers, &());
            assert_eq!(a, b, "{workers} workers");
        }
        // Same budget as the single-population run: init + G waves
        // over the total population.
        let expected = (cfg.nsga.generations as u64 + 1) * cfg.nsga.population as u64;
        assert_eq!(a.evaluations, expected);
        assert_eq!(a.population.len(), cfg.nsga.population);
        assert!(!a.pareto_front.is_empty());
        assert!(a.pareto_front.iter().all(|ind| ind.rank == 0));
    }

    #[test]
    fn migration_preserves_checkpoint_invariants() {
        let cfg = config(3);
        let model = IslandModel::new(cfg.clone());
        // Drive every island to the first barrier by hand.
        let to_barrier = |nsga: &NsgaConfig| {
            let mut state = SearchCheckpoint::initial(nsga, &TwoHumps, Vec::new());
            while state.generation < cfg.migration_every {
                state.step(&TwoHumps);
            }
            state
        };
        let mut states: Vec<SearchCheckpoint> =
            model.island_configs().iter().map(to_barrier).collect();
        let before: Vec<[u64; 4]> = states.iter().map(|s| s.rng_state).collect();
        model.migrate(&mut states);
        let checkpoint = IslandCheckpoint {
            generation: cfg.migration_every,
            islands: states.clone(),
        };
        checkpoint
            .validate(&cfg, TwoHumps.bounds())
            .expect("migrated states stay valid");
        // Migration consumed RNG on every island…
        for (state, old) in states.iter().zip(&before) {
            assert_ne!(state.rng_state, *old);
        }
        // …and a single island consumes nothing at all.
        let solo = IslandModel::new(config(1));
        let mut one = vec![to_barrier(&solo.island_configs()[0])];
        let old = one[0].rng_state;
        solo.migrate(&mut one);
        assert_eq!(one[0].rng_state, old);
    }

    /// Hooks capturing every barrier snapshot in order.
    #[derive(Default)]
    struct CaptureEpochs(Mutex<Vec<IslandCheckpoint>>);

    impl SearchHooks for CaptureEpochs {
        fn barrier(&self, checkpoint: &IslandCheckpoint, migrated: bool) {
            assert_eq!(migrated, checkpoint.generation < 10);
            self.0.lock().expect("unpoisoned").push(checkpoint.clone());
        }
    }

    #[test]
    fn resume_from_every_epoch_checkpoint_matches_the_uninterrupted_run() {
        let cfg = config(3);
        let model = IslandModel::new(cfg.clone());
        let hooks = CaptureEpochs::default();
        let baseline = run(&model, Vec::new(), Resume::default(), 1, &hooks);
        let epochs = hooks.0.into_inner().expect("unpoisoned");
        assert_eq!(
            epochs.iter().map(|e| e.generation).collect::<Vec<_>>(),
            cfg.epoch_targets()
        );
        for epoch in epochs {
            // Round-trip through JSON like the on-disk epoch file.
            let json = serde_json::to_string(&epoch).expect("epoch serializes");
            let restored: IslandCheckpoint = serde_json::from_str(&json).expect("epoch parses");
            restored
                .validate(&cfg, TwoHumps.bounds())
                .expect("round-tripped epoch is valid");
            let resumed = run(&model, Vec::new(), restored.into(), 2, &());
            assert_eq!(resumed, baseline);
        }
    }

    /// Hooks recording `(island, generation index)` pairs and stopping
    /// when `stop` says so.
    struct Record<F> {
        seen: Mutex<Vec<(usize, usize)>>,
        stop: F,
    }

    impl<F: Fn(usize, usize) -> bool + Sync> SearchHooks for Record<F> {
        fn generation(&self, island: usize, state: &SearchCheckpoint) -> bool {
            let generation = state.generation - 1;
            self.seen
                .lock()
                .expect("unpoisoned")
                .push((island, generation));
            !(self.stop)(island, generation)
        }
    }

    #[test]
    fn observer_tags_islands_and_can_stop_the_run() {
        let cfg = config(2);
        let model = IslandModel::new(cfg.clone());
        let full = Record {
            seen: Mutex::default(),
            stop: |_, _| false,
        };
        let (result, history) = model
            .run(
                &[TwoHumps, TwoHumps],
                Vec::new(),
                Resume::default(),
                1,
                &full,
            )
            .expect("no leg panics");
        assert_eq!(result.generations, cfg.nsga.generations);
        // Every island reports every generation exactly once, and the
        // history holds both islands' logs in island order.
        let seen = full.seen.into_inner().expect("unpoisoned");
        for island in 0..cfg.islands {
            let gens: Vec<usize> = seen
                .iter()
                .filter(|(i, _)| *i == island)
                .map(|(_, g)| *g)
                .collect();
            assert_eq!(gens, (0..cfg.nsga.generations).collect::<Vec<_>>());
        }
        let logged: Vec<usize> = history.iter().map(|s| s.generation).collect();
        assert_eq!(
            logged,
            [(0..10).collect::<Vec<_>>(), (0..10).collect()].concat()
        );
        // A stop inside the first epoch ends the run early, before the
        // second island starts.
        let stopping = Record {
            seen: Mutex::default(),
            stop: |island, generation| island == 0 && generation == 1,
        };
        let stopped = run(&model, Vec::new(), Resume::default(), 1, &stopping);
        assert_eq!(stopped.generations, 2);
        assert_eq!(
            stopping.seen.into_inner().expect("unpoisoned"),
            [(0, 0), (0, 1)]
        );
    }

    #[test]
    fn seeds_spread_round_robin_and_survive_elitism() {
        let cfg = IslandConfig {
            nsga: NsgaConfig {
                population: 8,
                generations: 1,
                mutation_prob: 0.0,
                crossover_prob: 0.0,
                seed: 9,
                ..NsgaConfig::default()
            },
            islands: 2,
            migration_every: 5,
            migrants: 1,
        };
        // One strong seed per island: gene 0 minimizes objective 0, so
        // both must survive their island's elitist selection.
        let merged = run(
            &IslandModel::new(cfg),
            vec![vec![30], vec![30]],
            Resume::default(),
            1,
            &(),
        );
        assert!(merged.population.iter().filter(|i| i.genes == [30]).count() >= 2);
    }
}
