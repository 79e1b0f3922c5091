//! `refine_doped` — the doped-seed refinement and the memetic polish —
//! pinned two ways:
//!
//! * **Golden digests.** One seeded synthetic study per paper topology
//!   (2500 rows, labels from a teacher network, a perturbed start so
//!   that moves get accepted); the `fingerprint_json` digest of the
//!   refined network must match `tests/golden/refine_doped.digests`.
//! * **Equivalence with the per-row reference.** The sweep below scores
//!   every candidate with a full [`AxMlp::accuracy`]; `refine_doped`
//!   must return the same network on seeded random networks, deeper
//!   networks and the edge cases (fully masked weights, saturating
//!   QReLUs, argmax ties, biases at the clamp bounds, one row, no rows).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use printed_mlps::axc::{fingerprint_json, refine_doped};
use printed_mlps::mlp::{AxLayer, AxMlp, AxNeuron, AxWeight, QReluCfg, QuantMatrix};

const MAX_SHIFT: u8 = 6;
const BIAS_BITS: u32 = 12;
const BIAS_LO: i32 = -(1 << (BIAS_BITS - 1));
const BIAS_HI: i32 = (1 << (BIAS_BITS - 1)) - 1;

/// BreastCancer, Cardio, Pendigits, RedWine, WhiteWine.
const PAPER_TOPOLOGIES: [&[usize]; 5] = [
    &[10, 3, 2],
    &[21, 3, 3],
    &[16, 5, 10],
    &[11, 2, 6],
    &[11, 4, 7],
];

/// The per-row reference sweep: `refine_doped` as it was written before
/// incremental re-scoring, every candidate scored by a full
/// `AxMlp::accuracy`.
fn refine_reference(
    mlp: &AxMlp,
    rows: &QuantMatrix,
    labels: &[usize],
    max_shift: u8,
    bias_bits: u32,
    passes: usize,
) -> AxMlp {
    let mut best = mlp.clone();
    if rows.is_empty() {
        return best;
    }
    let bias_lo = -(1i64 << (bias_bits - 1)) as i32;
    let bias_hi = ((1i64 << (bias_bits - 1)) - 1) as i32;
    let mut best_acc = best.accuracy(rows, labels);
    for _ in 0..passes {
        let improved_before = best_acc;
        for li in 0..best.layers.len() {
            for ni in 0..best.layers[li].neurons.len() {
                for wi in 0..best.layers[li].neurons[ni].weights.len() {
                    let current = best.layers[li].neurons[ni].weights[wi];
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
                    for cand in candidates {
                        best.layers[li].neurons[ni].weights[wi] = cand;
                        let acc = best.accuracy(rows, labels);
                        if acc > best_acc {
                            best_acc = acc;
                        } else {
                            best.layers[li].neurons[ni].weights[wi] = current;
                        }
                    }
                }
                let mut step = 1i32 << (bias_bits.min(12) - 2);
                while step >= 1 {
                    for delta in [step, -step] {
                        let current = best.layers[li].neurons[ni].bias;
                        let cand = current.saturating_add(delta).clamp(bias_lo, bias_hi);
                        if cand == current {
                            continue;
                        }
                        best.layers[li].neurons[ni].bias = cand;
                        let acc = best.accuracy(rows, labels);
                        if acc > best_acc {
                            best_acc = acc;
                        } else {
                            best.layers[li].neurons[ni].bias = current;
                        }
                    }
                    step /= 2;
                }
            }
        }
        if best_acc <= improved_before {
            break;
        }
    }
    best
}

fn topology_name(topology: &[usize]) -> String {
    topology
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("-")
}

fn random_weight(rng: &mut StdRng, input_bits: u32) -> AxWeight {
    let full = ((1u32 << input_bits) - 1) as u16;
    let mask = match rng.gen_range(0..10u32) {
        0 => 0,
        1 | 2 => rng.gen_range(1..=full),
        _ => full,
    };
    AxWeight {
        mask,
        shift: rng.gen_range(0..=MAX_SHIFT),
        negative: rng.gen_bool(0.5),
    }
}

/// A random network: 4-bit primary inputs, 8-bit QReLU hidden layers,
/// an argmax output layer.
fn random_network(topology: &[usize], rng: &mut StdRng) -> AxMlp {
    let mut layers = Vec::new();
    let mut input_bits = 4;
    for (li, pair) in topology.windows(2).enumerate() {
        let hidden = li + 2 < topology.len();
        let mut neurons = Vec::new();
        for _ in 0..pair[1] {
            let weights = (0..pair[0])
                .map(|_| random_weight(rng, input_bits))
                .collect();
            neurons.push(AxNeuron {
                weights,
                bias: rng.gen_range(-512..512),
            });
        }
        let qrelu = hidden.then(|| QReluCfg {
            out_bits: 8,
            shift: rng.gen_range(2..=5),
        });
        layers.push(AxLayer {
            input_bits,
            neurons,
            qrelu,
        });
        if hidden {
            input_bits = 8;
        }
    }
    AxMlp { layers }
}

/// Centre every neuron on `rows` (bias = −median of its weighted sum,
/// within the bias range) and pick each hidden QReLU shift so that the
/// activations spread over the 8-bit range: a teacher calibrated this
/// way labels the rows with several classes.
fn calibrate(mlp: &mut AxMlp, rows: &QuantMatrix) {
    for li in 0..mlp.layers.len() {
        let prefix = AxMlp {
            layers: mlp.layers[..li].to_vec(),
        };
        let inputs: Vec<Vec<u8>> = rows
            .iter()
            .map(|r| {
                if li == 0 {
                    r.to_vec()
                } else {
                    prefix.accumulators(r).iter().map(|&a| a as u8).collect()
                }
            })
            .collect();
        let mut spread = 0i64;
        for neuron in &mut mlp.layers[li].neurons {
            neuron.bias = 0;
            let mut sums: Vec<i64> = inputs.iter().map(|x| neuron.accumulate(x)).collect();
            sums.sort_unstable();
            let median = sums[sums.len() / 2];
            neuron.bias = (-median).clamp(i64::from(BIAS_LO), i64::from(BIAS_HI)) as i32;
            spread = spread.max(sums[sums.len() * 9 / 10] - median);
        }
        if let Some(q) = &mut mlp.layers[li].qrelu {
            q.shift = (0..16).find(|&s| spread >> s <= 255).unwrap_or(16);
        }
    }
}

/// `teacher` with ~30% of its weights moved one shift step or flipped
/// and ~30% of its biases nudged.
fn perturbed(teacher: &AxMlp, rng: &mut StdRng) -> AxMlp {
    let mut mlp = teacher.clone();
    for layer in &mut mlp.layers {
        for neuron in &mut layer.neurons {
            for w in &mut neuron.weights {
                if rng.gen_bool(0.3) {
                    if rng.gen_bool(0.5) {
                        w.negative = !w.negative;
                    } else {
                        w.shift = (w.shift + 1) % (MAX_SHIFT + 1);
                    }
                }
            }
            if rng.gen_bool(0.3) {
                neuron.bias = (neuron.bias + rng.gen_range(-300..300i32)).clamp(BIAS_LO, BIAS_HI);
            }
        }
    }
    mlp
}

fn random_rows(width: usize, n: usize, rng: &mut StdRng) -> QuantMatrix {
    let data = (0..width * n).map(|_| rng.gen_range(0..16u8)).collect();
    QuantMatrix::from_flat(data, width, n)
}

/// A seeded synthetic study: a perturbed start network, `n` rows and the
/// labels a random teacher of the same topology assigns to them.
fn teacher_study(topology: &[usize], n: usize, seed: u64) -> (AxMlp, QuantMatrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut teacher = random_network(topology, &mut rng);
    let rows = random_rows(topology[0], n, &mut rng);
    calibrate(&mut teacher, &rows);
    let labels = rows.iter().map(|r| teacher.predict(r)).collect();
    (perturbed(&teacher, &mut rng), rows, labels)
}

fn assert_matches_reference(
    start: &AxMlp,
    rows: &QuantMatrix,
    labels: &[usize],
    passes: usize,
    case: &str,
) {
    let expected = refine_reference(start, rows, labels, MAX_SHIFT, BIAS_BITS, passes);
    let got = refine_doped(start, rows, labels, MAX_SHIFT, BIAS_BITS, passes);
    assert_eq!(got, expected, "{case}, passes {passes}");
}

#[test]
fn refine_doped_reproduces_the_golden_digests() {
    let golden = include_str!("golden/refine_doped.digests");
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let computed: Vec<String> = PAPER_TOPOLOGIES
        .iter()
        .zip(0u64..)
        .map(|(topology, i)| {
            let (start, rows, labels) = teacher_study(topology, 2500, 0x601d_0000 + i);
            let refined = refine_doped(&start, &rows, &labels, MAX_SHIFT, BIAS_BITS, 3);
            let name = topology_name(topology);
            assert_ne!(refined, start, "{name}: no move was accepted");
            format!("{name} {:016x}", fingerprint_json(&refined))
        })
        .collect();
    assert_eq!(
        computed,
        expected,
        "refine_doped output changed; computed digests:\n{}",
        computed.join("\n")
    );
}

#[test]
fn refine_doped_matches_the_reference_on_random_networks() {
    let deep: &[usize] = &[6, 4, 3, 5];
    for (ti, topology) in PAPER_TOPOLOGIES.iter().copied().chain([deep]).enumerate() {
        for passes in 1..=3 {
            let seed = 0xe901_0000 + 16 * ti as u64 + passes as u64;
            let (start, rows, labels) = teacher_study(topology, 120, seed);
            let case = format!("teacher study {}", topology_name(topology));
            assert_matches_reference(&start, &rows, &labels, passes, &case);
            // Labels unrelated to any network: moves are accepted and
            // rejected at a different rate.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xffff);
            let noisy: Vec<usize> = (0..rows.len())
                .map(|_| rng.gen_range(0..*topology.last().unwrap()))
                .collect();
            let case = format!("random labels {}", topology_name(topology));
            assert_matches_reference(&start, &rows, &noisy, passes, &case);
        }
    }
}

#[test]
fn refine_doped_matches_the_reference_on_edge_cases() {
    let mut rng = StdRng::seed_from_u64(0xed6e);
    let (start, rows, labels) = teacher_study(&[11, 4, 7], 90, 0xed6e);

    // Fully masked weights: a whole hidden neuron and scattered output
    // weights contribute nothing and are never swept.
    let mut masked = start.clone();
    for w in &mut masked.layers[0].neurons[1].weights {
        w.mask = 0;
    }
    for (i, w) in masked.layers[1].neurons[2].weights.iter_mut().enumerate() {
        if i % 2 == 0 {
            w.mask = 0;
        }
    }
    // Saturating QReLUs: no shift, so most activations clamp at 255.
    let mut saturating = start.clone();
    saturating.layers[0].qrelu = Some(QReluCfg {
        out_bits: 8,
        shift: 0,
    });
    // Argmax ties: duplicated output neurons tie on every row, and the
    // lowest index must win.
    let mut tied = start.clone();
    let first = tied.layers[1].neurons[0].clone();
    tied.layers[1].neurons[3] = first.clone();
    tied.layers[1].neurons[5] = first;
    // Biases at the clamp bounds, so bias steps saturate.
    let mut clamped = start.clone();
    for layer in &mut clamped.layers {
        for (i, neuron) in layer.neurons.iter_mut().enumerate() {
            neuron.bias = if i % 2 == 0 { BIAS_LO } else { BIAS_HI };
        }
    }
    for (case, mlp) in [
        ("fully masked weights", &masked),
        ("saturating QReLU", &saturating),
        ("argmax ties", &tied),
        ("biases at the clamp bounds", &clamped),
    ] {
        for passes in 1..=3 {
            assert_matches_reference(mlp, &rows, &labels, passes, case);
        }
    }

    // A single row.
    let one = rows.head(1);
    for passes in 1..=3 {
        assert_matches_reference(&start, &one, &labels[..1], passes, "single row");
    }

    // No rows: the input comes back unchanged.
    let empty = QuantMatrix::from_flat(Vec::new(), 11, 0);
    let refined = refine_doped(&start, &empty, &[], MAX_SHIFT, BIAS_BITS, 3);
    assert_eq!(refined, start);

    // A deeper network with every edge case at once.
    let mut deep = random_network(&[5, 3, 3, 4], &mut rng);
    deep.layers[1].qrelu = Some(QReluCfg {
        out_bits: 8,
        shift: 0,
    });
    deep.layers[0].neurons[2]
        .weights
        .iter_mut()
        .for_each(|w| w.mask = 0);
    deep.layers[0].neurons[0].bias = BIAS_HI;
    deep.layers[2].neurons[3] = deep.layers[2].neurons[1].clone();
    let deep_rows = random_rows(5, 80, &mut rng);
    let deep_labels: Vec<usize> = (0..80).map(|_| rng.gen_range(0..4)).collect();
    for passes in 1..=3 {
        assert_matches_reference(&deep, &deep_rows, &deep_labels, passes, "deep edge cases");
    }
}
