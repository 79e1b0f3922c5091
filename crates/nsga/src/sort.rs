//! Non-dominated sorting and crowding distance (Deb et al. 2002).
//!
//! With one or two objectives — every problem in this workspace — the
//! fronts come from an exact O(N log N) sweep (Jensen, IEEE TEVC 2003).
//! Three or more objectives take the O(MN²) pairwise sort of the
//! NSGA-II paper. Both return the same ranks and the same fronts, each
//! front in the order the pairwise sort's queue emits it, which is the
//! order the next population is built in.

use std::cmp::Ordering;

use crate::individual::Individual;
use crate::problem::constrained_dominates;

/// Assign `rank` to every individual and return the fronts as index
/// lists (front 0 first), under Deb's constrained domination.
///
/// Front 0 lists its members by index. A member of front k+1 is listed
/// by the position in front k of its last front-k dominator, then by
/// index. Infeasible individuals follow every feasible front, one front
/// per distinct violation in ascending order, each by index.
///
/// # Panics
///
/// Panics if an objective or a constraint violation is NaN.
pub fn fast_non_dominated_sort(pop: &mut [Individual]) -> Vec<Vec<usize>> {
    for (i, ind) in pop.iter().enumerate() {
        assert!(
            !ind.evaluation.violation.is_nan(),
            "individual {i} has a NaN constraint violation"
        );
        if let Some(k) = ind.evaluation.objectives.iter().position(|x| x.is_nan()) {
            panic!("individual {i} has a NaN objective {k}");
        }
    }
    let fronts = match pop.first() {
        Some(ind) if ind.evaluation.objectives.len() > 2 => pairwise_fronts(pop),
        _ => sweep_fronts(pop),
    };
    for (rank, front) in fronts.iter().enumerate() {
        for &i in front {
            pop[i].rank = rank;
        }
    }
    fronts
}

/// Sort `pop` into fronts and give every front its crowding distances.
pub(crate) fn annotate(pop: &mut [Individual]) {
    for front in fast_non_dominated_sort(pop) {
        assign_crowding(pop, &front);
    }
}

/// The fronts of one- and two-objective individuals by a sweep in
/// `(o0, o1, index)` order (a single objective sweeps with `o1 ≡ 0`).
fn sweep_fronts(pop: &[Individual]) -> Vec<Vec<usize>> {
    let keys: Vec<(f64, f64)> = pop
        .iter()
        .map(|ind| {
            let o = &ind.evaluation.objectives;
            (
                o.first().copied().unwrap_or(0.0),
                o.get(1).copied().unwrap_or(0.0),
            )
        })
        .collect();
    let (mut feasible, mut infeasible): (Vec<usize>, Vec<usize>) =
        (0..pop.len()).partition(|&i| pop[i].evaluation.is_feasible());
    feasible.sort_unstable_by(|&a, &b| {
        cmp(keys[a].0, keys[b].0)
            .then(cmp(keys[a].1, keys[b].1))
            .then(a.cmp(&b))
    });

    // Along a front in sweep order o0 rises and o1 falls, so its last
    // member dominates `p` iff any member does, and the fronts whose
    // last member dominates `p` are a prefix of the fronts so far.
    let mut swept: Vec<Vec<usize>> = Vec::new();
    for &p in &feasible {
        let (p0, p1) = keys[p];
        let k = swept.partition_point(|front| {
            let (t0, t1) = keys[*front.last().expect("fronts are never empty")];
            t1 < p1 || (t1 == p1 && t0 < p0)
        });
        match swept.get_mut(k) {
            Some(front) => front.push(p),
            None => swept.push(vec![p]),
        }
    }

    // Emit each front in the pairwise sort's queue order. The members
    // of front k that dominate `q` are the contiguous run of its sweep
    // order with o1 ≤ q.o1 and o0 ≤ q.o0.
    let mut fronts: Vec<Vec<usize>> = Vec::with_capacity(swept.len());
    let mut position = vec![0usize; pop.len()];
    for (k, front) in swept.iter().enumerate() {
        let emitted: Vec<usize> = if k == 0 {
            let mut first = front.clone();
            first.sort_unstable();
            first
        } else {
            let prev = &swept[k - 1];
            let last = RangeMax::new(prev.iter().map(|&e| position[e]).collect());
            let mut keyed: Vec<(usize, usize)> = front
                .iter()
                .map(|&q| {
                    let (q0, q1) = keys[q];
                    let lo = prev.partition_point(|&e| keys[e].1 > q1);
                    let hi = prev.partition_point(|&e| keys[e].0 <= q0);
                    (last.max(lo, hi), q)
                })
                .collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, q)| q).collect()
        };
        for (at, &i) in emitted.iter().enumerate() {
            position[i] = at;
        }
        fronts.push(emitted);
    }

    let violation = |i: usize| pop[i].evaluation.violation;
    infeasible.sort_unstable_by(|&a, &b| cmp(violation(a), violation(b)).then(a.cmp(&b)));
    fronts.extend(
        infeasible
            .chunk_by(|&a, &b| violation(a) == violation(b))
            .map(<[usize]>::to_vec),
    );
    fronts
}

/// Order two values already checked not to be NaN.
fn cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .expect("NaN values are rejected before sorting")
}

/// Range-maximum queries in O(1) over a sparse table built in
/// O(n log n): level `j` holds the maximum of every window of `2^j`.
struct RangeMax(Vec<Vec<usize>>);

impl RangeMax {
    fn new(values: Vec<usize>) -> Self {
        let mut levels = vec![values];
        let mut width = 1;
        while 2 * width <= levels[0].len() {
            let prev = levels.last().expect("level 0 exists");
            let next = (0..prev.len() - width)
                .map(|i| prev[i].max(prev[i + width]))
                .collect();
            levels.push(next);
            width *= 2;
        }
        Self(levels)
    }

    /// The maximum over `lo..hi` (non-empty).
    fn max(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "a dominated member has a dominator");
        let level = (usize::BITS - 1 - (hi - lo).leading_zeros()) as usize;
        let row = &self.0[level];
        row[lo].max(row[hi - (1 << level)])
    }
}

/// The fronts by the O(MN²) pairwise sort of the NSGA-II paper: every
/// pair is compared once, and each front is drained from the previous
/// one's domination lists.
fn pairwise_fronts(pop: &[Individual]) -> Vec<Vec<usize>> {
    let n = pop.len();
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dominated_count = vec![0usize; n];
    for p in 0..n {
        for q in (p + 1)..n {
            if constrained_dominates(&pop[p].evaluation, &pop[q].evaluation) {
                dominates[p].push(q);
                dominated_count[q] += 1;
            } else if constrained_dominates(&pop[q].evaluation, &pop[p].evaluation) {
                dominates[q].push(p);
                dominated_count[p] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut front: Vec<usize> = (0..n).filter(|&p| dominated_count[p] == 0).collect();
    while !front.is_empty() {
        let mut next = Vec::new();
        for &p in &front {
            for &q in &dominates[p] {
                dominated_count[q] -= 1;
                if dominated_count[q] == 0 {
                    next.push(q);
                }
            }
        }
        fronts.push(std::mem::replace(&mut front, next));
    }
    fronts
}

/// Assign crowding distances to the individuals of one front.
pub fn assign_crowding(pop: &mut [Individual], front: &[usize]) {
    for &i in front {
        pop[i].crowding = 0.0;
    }
    if front.len() <= 2 {
        for &i in front {
            pop[i].crowding = f64::INFINITY;
        }
        return;
    }
    let m = pop[front[0]].evaluation.objectives.len();
    for obj in 0..m {
        let mut order: Vec<usize> = front.to_vec();
        order.sort_by(|&a, &b| {
            pop[a].evaluation.objectives[obj]
                .partial_cmp(&pop[b].evaluation.objectives[obj])
                .expect("objectives must be finite")
        });
        let lo = pop[order[0]].evaluation.objectives[obj];
        let hi = pop[*order.last().expect("front non-empty")]
            .evaluation
            .objectives[obj];
        let span = hi - lo;
        pop[order[0]].crowding = f64::INFINITY;
        pop[*order.last().expect("front non-empty")].crowding = f64::INFINITY;
        if span <= 0.0 {
            continue;
        }
        for w in order.windows(3) {
            let (prev, mid, next) = (w[0], w[1], w[2]);
            let delta = (pop[next].evaluation.objectives[obj]
                - pop[prev].evaluation.objectives[obj])
                / span;
            if pop[mid].crowding.is_finite() {
                pop[mid].crowding += delta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::algorithm::select_mu;
    use crate::problem::Evaluation;

    fn ind(objs: &[f64]) -> Individual {
        Individual::new(vec![], Evaluation::feasible(objs.to_vec()))
    }

    #[test]
    fn sorts_into_expected_fronts() {
        // (1,1) dominates (2,2) dominates (3,3); (1,3) and (3,1) are on
        // the first front with (1,1)? No: (1,1) dominates both.
        let mut pop = vec![
            ind(&[1.0, 1.0]),
            ind(&[2.0, 2.0]),
            ind(&[3.0, 3.0]),
            ind(&[1.0, 3.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts[0], vec![0]);
        assert!(fronts[1].contains(&1));
        assert!(fronts[1].contains(&3));
        assert_eq!(fronts[2], vec![2]);
        assert_eq!(pop[0].rank, 0);
        assert_eq!(pop[2].rank, 2);
    }

    #[test]
    fn non_dominated_set_is_one_front() {
        let mut pop = vec![
            ind(&[1.0, 4.0]),
            ind(&[2.0, 3.0]),
            ind(&[3.0, 2.0]),
            ind(&[4.0, 1.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 4);
    }

    #[test]
    fn infeasible_individuals_rank_behind_feasible() {
        let mut pop = vec![
            Individual::new(vec![], Evaluation::infeasible(vec![0.0, 0.0], 1.0)),
            ind(&[9.0, 9.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts[0], vec![1]);
        assert_eq!(fronts[1], vec![0]);
    }

    #[test]
    fn crowding_rewards_boundary_and_spread() {
        let mut pop = vec![
            ind(&[1.0, 4.0]),
            ind(&[2.0, 3.0]),
            ind(&[2.1, 2.9]),
            ind(&[4.0, 1.0]),
        ];
        let front: Vec<usize> = vec![0, 1, 2, 3];
        assign_crowding(&mut pop, &front);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[3].crowding.is_infinite());
        // Individual 1 sits in a sparser neighbourhood than 2.
        assert!(pop[1].crowding > 0.0 && pop[2].crowding > 0.0);
    }

    #[test]
    fn small_fronts_get_infinite_crowding() {
        let mut pop = vec![ind(&[1.0, 2.0]), ind(&[2.0, 1.0])];
        let front = vec![0, 1];
        assign_crowding(&mut pop, &front);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[1].crowding.is_infinite());
    }

    #[test]
    fn three_objectives_take_the_pairwise_sort() {
        let mut pop = vec![
            ind(&[2.0, 2.0, 2.0]),
            ind(&[1.0, 1.0, 1.0]),
            ind(&[1.0, 3.0, 0.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts, vec![vec![1, 2], vec![0]]);
        assert_eq!(pop[0].rank, 1);
    }

    #[test]
    #[should_panic(expected = "individual 1 has a NaN objective 1")]
    fn a_nan_objective_panics() {
        fast_non_dominated_sort(&mut [ind(&[1.0, 2.0]), ind(&[0.0, f64::NAN])]);
    }

    #[test]
    #[should_panic(expected = "individual 0 has a NaN constraint violation")]
    fn a_nan_violation_panics() {
        let mut nan = ind(&[1.0, 2.0]);
        nan.evaluation.violation = f64::NAN;
        fast_non_dominated_sort(&mut [nan, ind(&[0.0, 1.0])]);
    }

    /// A pool of 0–80 individuals on a small integer grid, so it is full
    /// of ties: duplicate vectors, equal first objectives (and `0.0`
    /// next to `-0.0`), equal violations, and sometimes no feasible
    /// member at all. Each genome is its index, so selections that pick
    /// different individuals differ.
    fn random_pool(rng: &mut StdRng, m: usize) -> Vec<Individual> {
        let n = rng.gen_range(0..=80usize);
        let grid = rng.gen_range(1..=6u32);
        let infeasible_share = [0.0, 0.3, 1.0][rng.gen_range(0..3usize)];
        (0..n)
            .map(|i| {
                let objectives = (0..m)
                    .map(|_| match rng.gen_range(0..grid) {
                        0 if rng.gen_bool(0.5) => -0.0,
                        v => f64::from(v),
                    })
                    .collect();
                let evaluation = if rng.gen_bool(infeasible_share) {
                    Evaluation::infeasible(objectives, 0.5 * f64::from(rng.gen_range(1..=3u32)))
                } else {
                    Evaluation::feasible(objectives)
                };
                Individual::new(vec![i as u32], evaluation)
            })
            .collect()
    }

    /// `pop` ranked and crowded by the pairwise sort.
    fn pairwise_annotated(mut pop: Vec<Individual>) -> (Vec<Individual>, Vec<Vec<usize>>) {
        let fronts = pairwise_fronts(&pop);
        for (rank, front) in fronts.iter().enumerate() {
            for &i in front {
                pop[i].rank = rank;
            }
            assign_crowding(&mut pop, front);
        }
        (pop, fronts)
    }

    /// Survivor selection over the pairwise sort, cloning the survivors.
    fn pairwise_select(pop: Vec<Individual>, mu: usize) -> Vec<Individual> {
        let (pop, fronts) = pairwise_annotated(pop);
        let mut selected: Vec<Individual> = Vec::with_capacity(mu);
        for mut front in fronts {
            if selected.len() + front.len() <= mu {
                selected.extend(front.iter().map(|&i| pop[i].clone()));
            } else {
                front.sort_by(|&a, &b| pop[b].crowding.partial_cmp(&pop[a].crowding).unwrap());
                let room = mu - selected.len();
                selected.extend(front.iter().take(room).map(|&i| pop[i].clone()));
                break;
            }
        }
        selected
    }

    #[test]
    fn the_sweep_matches_the_pairwise_sort_on_tied_pools() {
        let mut rng = StdRng::seed_from_u64(0x5eed_f40e);
        for case in 0..2000 {
            let pool = random_pool(&mut rng, 1 + case % 2);
            let (expected, expected_fronts) = pairwise_annotated(pool.clone());
            let mut swept = pool.clone();
            let fronts = fast_non_dominated_sort(&mut swept);
            assert_eq!(
                fronts, expected_fronts,
                "case {case}: fronts or their order"
            );
            for front in &fronts {
                assign_crowding(&mut swept, front);
            }
            assert_eq!(swept, expected, "case {case}: ranks or crowding");
            let mu = rng.gen_range(0..=pool.len());
            assert_eq!(
                select_mu(pool.clone(), mu),
                pairwise_select(pool, mu),
                "case {case}: survivors of mu = {mu}"
            );
        }
    }
}
