//! Doped initial populations (paper §IV-A).
//!
//! "To facilitate the convergence of the evolutionary algorithm ... we
//! create an initial population of semi-random chromosomes ... doped
//! with a small percentage (~10%) of nearly non-approximate solutions,
//! exploring solutions of high accuracy at the early stages of
//! evolution."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pe_mlp::{AxMlp, AxWeight, Edit, FixedMlp, IncrementalScorer, QuantMatrix};

use crate::genome::GenomeSpec;

/// Build the doped seed genomes the GA driver injects into its initial
/// population (the `seeds` of [`pe_nsga::IslandModel::run`]).
///
/// `doped_count` copies of the baseline-derived pow2 network are
/// injected: the first verbatim, the rest with a few random mask bits
/// cleared (light, accuracy-preserving perturbations that diversify the
/// high-accuracy end of the initial population). The remaining
/// population slots are filled randomly by the optimizer itself.
#[must_use]
pub fn doped_seeds(
    spec: &GenomeSpec,
    baseline: &FixedMlp,
    max_shift: u8,
    bias_bits: u32,
    doped_count: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    doped_seeds_calibrated(
        spec,
        baseline,
        max_shift,
        bias_bits,
        doped_count,
        seed,
        &QuantMatrix::default(),
    )
}

/// [`doped_seeds`] with data-calibrated pow2 conversion (see
/// [`AxMlp::from_fixed_calibrated`]): bias error-feedback makes the
/// doped seeds genuinely "nearly non-approximate" on multi-class
/// datasets.
#[must_use]
pub fn doped_seeds_calibrated(
    spec: &GenomeSpec,
    baseline: &FixedMlp,
    max_shift: u8,
    bias_bits: u32,
    doped_count: usize,
    seed: u64,
    calibration_rows: &QuantMatrix,
) -> Vec<Vec<u32>> {
    doped_seeds_refined(
        spec,
        baseline,
        max_shift,
        bias_bits,
        doped_count,
        seed,
        calibration_rows,
        None,
    )
}

/// [`doped_seeds_calibrated`] plus greedy [`refine_doped`] sweeps
/// against the given labelled rows; pass `None` to skip refinement.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn doped_seeds_refined(
    spec: &GenomeSpec,
    baseline: &FixedMlp,
    max_shift: u8,
    bias_bits: u32,
    doped_count: usize,
    seed: u64,
    calibration_rows: &QuantMatrix,
    refine: Option<(&QuantMatrix, &[usize])>,
) -> Vec<Vec<u32>> {
    let mut doped: AxMlp =
        AxMlp::from_fixed_calibrated(baseline, max_shift, bias_bits, calibration_rows);
    if let Some((rows, labels)) = refine {
        doped = refine_doped(&doped, rows, labels, max_shift, bias_bits, 2);
    }
    let base_genes = spec.encode(&doped);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x27d4_eb2f_1656_67c5);
    let mut seeds = Vec::with_capacity(doped_count + 3);
    for i in 0..doped_count {
        let mut genes = base_genes.clone();
        if i > 0 {
            perturb_masks(spec, &mut genes, &mut rng);
        }
        seeds.push(genes);
    }
    // Anchor the *sparse* end of the front too: the all-masks-zero
    // chromosome (a constant classifier — on imbalanced datasets this
    // already sits near the majority-class accuracy at near-zero area)
    // plus variants keeping a couple of random connections. Together
    // with the doped seeds this spans the whole trade-off from
    // generation 0.
    let mut sparse = base_genes.clone();
    zero_all_masks(spec, &mut sparse);
    seeds.push(sparse.clone());
    for _ in 0..2 {
        let mut genes = sparse.clone();
        restore_random_masks(spec, &base_genes, &mut genes, 2, &mut rng);
        seeds.push(genes);
    }
    seeds
}

/// Zero every mask gene in place.
fn zero_all_masks(spec: &GenomeSpec, genes: &mut [u32]) {
    for_each_mask_gene(spec, |idx| genes[idx] = 0);
}

/// Restore `count` random mask genes to their doped values.
fn restore_random_masks(
    spec: &GenomeSpec,
    base: &[u32],
    genes: &mut [u32],
    count: usize,
    rng: &mut StdRng,
) {
    let mut mask_indices = Vec::new();
    for_each_mask_gene(spec, |idx| mask_indices.push(idx));
    for _ in 0..count {
        if mask_indices.is_empty() {
            break;
        }
        let pick = mask_indices[rng.gen_range(0..mask_indices.len())];
        genes[pick] = base[pick];
    }
}

/// Visit the genome index of every mask gene.
fn for_each_mask_gene(spec: &GenomeSpec, mut visit: impl FnMut(usize)) {
    let mut idx = 0usize;
    for layer in spec.layers() {
        for _ in 0..layer.neurons {
            for _ in 0..layer.fan_in {
                visit(idx);
                idx += 3;
            }
            idx += 1;
        }
    }
}

/// Greedy coordinate-descent refinement of a doped network: sweeps
/// every weight's pow2 exponent (±1), sign, and every bias (exponential
/// step sizes), keeping changes that improve training-subsample
/// accuracy. This stands in for the paper's vastly larger GA budget
/// (26M chromosome evaluations on an EPYC server, Table III): after a
/// couple of sweeps the doped seed is genuinely "nearly
/// non-approximate" even on the multi-class datasets, and the NSGA-II
/// run then explores the accuracy/area trade-off around it.
///
/// Every candidate changes one gene, so it is re-scored incrementally
/// ([`IncrementalScorer`]) and compared as an integer hit count — the
/// same accept/reject decisions as a full per-row accuracy per
/// candidate, since the row count is fixed.
///
/// **Revert quirk.** A weight's candidates (shift − 1, shift + 1, sign
/// flip) are all built from its value before the sweep, and a rejected
/// candidate restores *that* value — even when an earlier candidate of
/// the same sweep was accepted. The accepted score stays the bar to
/// beat, so the network can fall back to the pre-sweep weight while
/// later candidates must still beat the score of the one it dropped.
/// Bias steps restore the value before each step and do not drift. The
/// published artifacts depend on this order; the tests pin it.
#[must_use]
pub fn refine_doped(
    mlp: &AxMlp,
    rows: &QuantMatrix,
    labels: &[usize],
    max_shift: u8,
    bias_bits: u32,
    passes: usize,
) -> AxMlp {
    if rows.is_empty() {
        return mlp.clone();
    }
    let bias_lo = -(1i64 << (bias_bits - 1)) as i32;
    let bias_hi = ((1i64 << (bias_bits - 1)) - 1) as i32;
    let mut scorer = IncrementalScorer::new(mlp.clone(), rows, labels);
    let mut best_hits = scorer.hits();

    for _ in 0..passes {
        let improved_before = best_hits;
        for layer in 0..mlp.layers.len() {
            for neuron in 0..mlp.layers[layer].neurons.len() {
                for input in 0..mlp.layers[layer].neurons[neuron].weights.len() {
                    let current = scorer.mlp().layers[layer].neurons[neuron].weights[input];
                    if current.mask == 0 {
                        continue;
                    }
                    let mut candidates = Vec::with_capacity(3);
                    if current.shift > 0 {
                        candidates.push(AxWeight {
                            shift: current.shift - 1,
                            ..current
                        });
                    }
                    if current.shift < max_shift {
                        candidates.push(AxWeight {
                            shift: current.shift + 1,
                            ..current
                        });
                    }
                    candidates.push(AxWeight {
                        negative: !current.negative,
                        ..current
                    });
                    let edit = |weight| Edit::Weight {
                        layer,
                        neuron,
                        input,
                        weight,
                    };
                    for weight in candidates {
                        let hits = scorer.score(edit(weight));
                        if hits > best_hits {
                            best_hits = hits;
                            scorer.apply(edit(weight));
                        } else {
                            // The revert quirk: back to the pre-sweep weight.
                            scorer.apply(edit(current));
                        }
                    }
                }
                // Bias refinement with exponential steps.
                let mut step = 1i32 << (bias_bits.min(12) - 2);
                while step >= 1 {
                    for delta in [step, -step] {
                        let current = scorer.mlp().layers[layer].neurons[neuron].bias;
                        let bias = current.saturating_add(delta).clamp(bias_lo, bias_hi);
                        if bias == current {
                            continue;
                        }
                        let edit = Edit::Bias {
                            layer,
                            neuron,
                            bias,
                        };
                        let hits = scorer.score(edit);
                        if hits > best_hits {
                            best_hits = hits;
                            scorer.apply(edit);
                        }
                    }
                    step /= 2;
                }
            }
        }
        if best_hits <= improved_before {
            break;
        }
    }
    scorer.into_mlp()
}

/// Clear a handful of random mask bits in place (~2% of mask genes get
/// one bit dropped).
fn perturb_masks(spec: &GenomeSpec, genes: &mut [u32], rng: &mut StdRng) {
    let mut idx = 0usize;
    for layer in spec.layers() {
        for _ in 0..layer.neurons {
            for _ in 0..layer.fan_in {
                let mask_idx = idx;
                idx += 3; // skip s and k
                if rng.gen_bool(0.02) && genes[mask_idx] != 0 {
                    let bit = rng.gen_range(0..layer.input_bits);
                    genes[mask_idx] &= !(1u32 << bit);
                }
            }
            idx += 1; // bias gene
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::LayerGenomeSpec;
    use pe_mlp::{FixedLayer, QReluCfg};

    fn baseline() -> FixedMlp {
        FixedMlp {
            input_bits: 4,
            layers: vec![
                FixedLayer {
                    weights: vec![vec![40, -17, 3], vec![-2, 80, 9]],
                    biases: vec![5, -11],
                    qrelu: Some(QReluCfg {
                        out_bits: 8,
                        shift: 3,
                    }),
                },
                FixedLayer {
                    weights: vec![vec![10, -10], vec![-5, 5]],
                    biases: vec![0, 2],
                    qrelu: None,
                },
            ],
        }
    }

    fn spec() -> GenomeSpec {
        GenomeSpec::new(
            vec![
                LayerGenomeSpec {
                    fan_in: 3,
                    neurons: 2,
                    input_bits: 4,
                    qrelu: Some(QReluCfg {
                        out_bits: 8,
                        shift: 3,
                    }),
                },
                LayerGenomeSpec {
                    fan_in: 2,
                    neurons: 2,
                    input_bits: 8,
                    qrelu: None,
                },
            ],
            8,
            12,
        )
    }

    #[test]
    fn rejected_candidate_restores_the_pre_sweep_weight() {
        // Class 0 scores 4x (weight shift 2), class 1 a constant 10, so
        // the start predicts class 0 for x >= 3. The labels say x >= 5:
        // exactly what shift 1 (2x) predicts. The sweep accepts shift 1
        // at 100% accuracy, rejects shift 3 and the sign flip — and each
        // rejection restores the pre-sweep shift 2. Nothing can beat
        // 100% afterwards, so the start network comes back unchanged.
        let weight = |shift, mask| pe_mlp::AxWeight {
            mask,
            shift,
            negative: false,
        };
        let start = AxMlp {
            layers: vec![pe_mlp::AxLayer {
                input_bits: 4,
                neurons: vec![
                    pe_mlp::AxNeuron {
                        weights: vec![weight(2, 0b1111)],
                        bias: 0,
                    },
                    pe_mlp::AxNeuron {
                        weights: vec![weight(0, 0)],
                        bias: 10,
                    },
                ],
                qrelu: None,
            }],
        };
        let rows = QuantMatrix::from_rows(&(0..16u8).map(|x| [x]).collect::<Vec<_>>());
        let labels: Vec<usize> = (0..16).map(|x| usize::from(x < 5)).collect();
        let mut accepted = start.clone();
        accepted.layers[0].neurons[0].weights[0].shift = 1;
        assert_eq!(accepted.accuracy(&rows, &labels), 1.0);
        assert!(start.accuracy(&rows, &labels) < 1.0);

        let refined = refine_doped(&start, &rows, &labels, 6, 12, 3);
        assert_eq!(refined, start);
    }

    #[test]
    fn seeds_have_correct_shape_and_count() {
        // doped_count doped seeds plus 3 sparse anchors.
        let seeds = doped_seeds(&spec(), &baseline(), 6, 12, 5, 3);
        assert_eq!(seeds.len(), 5 + 3);
        for s in &seeds {
            assert_eq!(s.len(), spec().gene_count());
        }
        // The sparse anchor has every mask gene zeroed.
        let sparse = &seeds[5];
        let decoded = spec().decode(sparse);
        for layer in &decoded.layers {
            for n in &layer.neurons {
                // At most the 2 restored connections are active across
                // the pure-sparse seed (index 5): none.
                assert!(n.weights.iter().all(|w| w.mask == 0));
            }
        }
    }

    #[test]
    fn first_seed_is_the_unperturbed_doped_network() {
        let s = spec();
        let seeds = doped_seeds(&s, &baseline(), 6, 12, 3, 3);
        let expected = s.encode(&pe_mlp::AxMlp::from_fixed(&baseline(), 6, 12));
        assert_eq!(seeds[0], expected);
    }

    #[test]
    fn perturbed_seeds_only_lose_mask_bits() {
        let s = spec();
        let seeds = doped_seeds(&s, &baseline(), 6, 12, 10, 9);
        let base = &seeds[0];
        for seed in &seeds[1..] {
            for (i, (&a, &b)) in seed.iter().zip(base).enumerate() {
                if a != b {
                    // Differences only at mask genes, only clearing bits.
                    assert_eq!(a & !b, 0, "gene {i} gained bits: {b:#b} -> {a:#b}");
                }
            }
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        let s = spec();
        let a = doped_seeds(&s, &baseline(), 6, 12, 4, 42);
        let b = doped_seeds(&s, &baseline(), 6, 12, 4, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_decode_within_bounds() {
        let s = spec();
        for seed in doped_seeds(&s, &baseline(), 6, 12, 6, 1) {
            for (g, b) in seed.iter().zip(s.bounds()) {
                assert!(g < b, "gene {g} out of bound {b}");
            }
            let _ = s.decode(&seed); // must not panic
        }
    }
}
