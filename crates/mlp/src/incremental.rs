//! Incremental re-scoring of single-gene edits to an [`AxMlp`].
//!
//! Local search over the approximate MLP (the doped-seed refinement and
//! the memetic polish) tries one gene at a time: a weight's shift or
//! sign, or a bias. Scoring each candidate with a full per-row
//! [`AxMlp::accuracy`] redoes the whole network on every row.
//! [`IncrementalScorer`] instead keeps the network's state over a fixed
//! labelled dataset — per-layer accumulators and hidden activations in
//! column-major order (`buf[neuron * rows + row]`), per-row predictions
//! and the integer hit count — and re-scores an edit from the delta it
//! makes:
//!
//! * the edited neuron's accumulator changes by the one-term delta
//!   `term(new, x) − term(old, x)` (or the bias delta), on the rows
//!   where that delta is nonzero;
//! * in a hidden layer, only rows whose activation changed carry the
//!   change on to the next layer's accumulators, layer by layer, and
//!   only rows that reach the output layer re-run the argmax;
//! * the hit count moves by each changed row's old and new correctness.
//!
//! The integers are the ones [`AxMlp::predict_with`] computes, so the
//! hit count is exactly what the per-row path counts.

use crate::axmlp::{AxMlp, AxWeight};
use crate::columnar::{accumulate_neuron_column, qrelu_column, ColumnMatrix, QuantMatrix};

/// One single-gene edit of an [`AxMlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Set `layers[layer].neurons[neuron].weights[input]` to `weight`.
    Weight {
        /// Layer index.
        layer: usize,
        /// Neuron index within the layer.
        neuron: usize,
        /// Input (weight) index within the neuron.
        input: usize,
        /// The new weight.
        weight: AxWeight,
    },
    /// Set `layers[layer].neurons[neuron].bias` to `bias`.
    Bias {
        /// Layer index.
        layer: usize,
        /// Neuron index within the layer.
        neuron: usize,
        /// The new bias.
        bias: i32,
    },
}

impl Edit {
    /// Write the edited gene into `mlp`.
    fn write(self, mlp: &mut AxMlp) {
        match self {
            Edit::Weight {
                layer,
                neuron,
                input,
                weight,
            } => mlp.layers[layer].neurons[neuron].weights[input] = weight,
            Edit::Bias {
                layer,
                neuron,
                bias,
            } => mlp.layers[layer].neurons[neuron].bias = bias,
        }
    }
}

/// An [`AxMlp`] with its forward state over one labelled dataset, kept
/// current under single-gene [`Edit`]s (see the [module
/// docs](crate::incremental)).
#[derive(Debug)]
pub struct IncrementalScorer<'a> {
    mlp: AxMlp,
    inputs: ColumnMatrix,
    labels: &'a [usize],
    /// Per layer, the accumulators `acc[l][j * rows + s]`.
    acc: Vec<Vec<i64>>,
    /// Per hidden layer, the QReLU activations, laid out like `acc`.
    act: Vec<Vec<u8>>,
    preds: Vec<usize>,
    hits: usize,
    // Reused per-edit buffers.
    delta: Vec<i64>,
    new_acc: Vec<i64>,
    new_act: Vec<u8>,
    reached: Vec<bool>,
    hop: Hop,
    next: Hop,
}

/// The rows a change reaches at one layer boundary, and how it reaches
/// them: the previous layer's neurons whose activation changed on any
/// of those rows, with old and new activations laid out
/// `old[c * rows.len() + r]` for the `c`-th changed neuron and the
/// `r`-th row.
#[derive(Debug, Default)]
struct Hop {
    rows: Vec<usize>,
    neurons: Vec<usize>,
    old: Vec<u8>,
    new: Vec<u8>,
}

impl Hop {
    fn clear(&mut self) {
        self.rows.clear();
        self.neurons.clear();
        self.old.clear();
        self.new.clear();
    }
}

impl<'a> IncrementalScorer<'a> {
    /// Run `mlp` over `rows` once and keep the state.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` differ in length, `mlp` has no
    /// layers, a hidden layer has no QReLU, the output layer has one,
    /// or the dataset width differs from the first layer's fan-in.
    #[must_use]
    pub fn new(mlp: AxMlp, rows: &QuantMatrix, labels: &'a [usize]) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows and labels differ in length");
        let (output, hidden) = mlp.layers.split_last().expect("a network with no layers");
        assert!(
            hidden.iter().all(|l| l.qrelu.is_some()) && output.qrelu.is_none(),
            "incremental scoring needs QReLU hidden layers and an argmax output layer"
        );
        let inputs = rows.columns();
        let samples = rows.len();
        let mut acc: Vec<Vec<i64>> = Vec::with_capacity(mlp.layers.len());
        let mut act: Vec<Vec<u8>> = Vec::with_capacity(hidden.len());
        let (mut column, mut narrow, mut activations) = (Vec::new(), Vec::new(), Vec::new());
        for (l, layer) in mlp.layers.iter().enumerate() {
            let cols: Vec<&[u8]> = if l == 0 {
                inputs.col_refs()
            } else {
                column_slices(&act[l - 1], samples, mlp.layers[l - 1].neurons.len())
            };
            let mut layer_acc = Vec::with_capacity(layer.neurons.len() * samples);
            for neuron in &layer.neurons {
                accumulate_neuron_column(neuron, &cols, samples, &mut column, &mut narrow);
                layer_acc.extend_from_slice(&column);
            }
            if let Some(q) = layer.qrelu {
                qrelu_column(q, &layer_acc, &mut activations);
                act.push(std::mem::take(&mut activations));
            }
            acc.push(layer_acc);
        }
        let classes = output.neurons.len();
        let out = acc.last().expect("one accumulator buffer per layer");
        let preds: Vec<usize> = (0..samples)
            .map(|s| argmax(classes, |j| out[j * samples + s]))
            .collect();
        let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Self {
            mlp,
            inputs,
            labels,
            acc,
            act,
            preds,
            hits,
            delta: Vec::new(),
            new_acc: Vec::new(),
            new_act: Vec::new(),
            reached: Vec::new(),
            hop: Hop::default(),
            next: Hop::default(),
        }
    }

    /// The network the state describes.
    #[must_use]
    pub fn mlp(&self) -> &AxMlp {
        &self.mlp
    }

    /// Give the network back.
    #[must_use]
    pub fn into_mlp(self) -> AxMlp {
        self.mlp
    }

    /// Rows the network classifies correctly.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Rows the network would classify correctly with `edit` applied;
    /// the state is left as it is.
    ///
    /// # Panics
    ///
    /// Panics if `edit` addresses a gene the network does not have.
    pub fn score(&mut self, edit: Edit) -> usize {
        self.run(edit, false)
    }

    /// Apply `edit` and bring the state up to date. An edit that leaves
    /// the gene as it is costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `edit` addresses a gene the network does not have.
    pub fn apply(&mut self, edit: Edit) {
        self.hits = self.run(edit, true);
        edit.write(&mut self.mlp);
    }

    /// The hit count with `edit` applied; with `commit`, also write the
    /// changed accumulators, activations and predictions.
    fn run(&mut self, edit: Edit, commit: bool) -> usize {
        let samples = self.inputs.samples();
        let (layer, neuron) = match edit {
            Edit::Weight { layer, neuron, .. } | Edit::Bias { layer, neuron, .. } => {
                (layer, neuron)
            }
        };
        self.delta.clear();
        match edit {
            Edit::Weight { input, weight, .. } => {
                let old = self.mlp.layers[layer].neurons[neuron].weights[input];
                if old == weight {
                    return self.hits;
                }
                let col = if layer == 0 {
                    self.inputs.col(input)
                } else {
                    &self.act[layer - 1][input * samples..(input + 1) * samples]
                };
                self.delta
                    .extend(col.iter().map(|&x| weight.term(x) - old.term(x)));
            }
            Edit::Bias { bias, .. } => {
                let old = self.mlp.layers[layer].neurons[neuron].bias;
                if old == bias {
                    return self.hits;
                }
                self.delta.resize(samples, i64::from(bias) - i64::from(old));
            }
        }
        let last = self.mlp.layers.len() - 1;
        let base = neuron * samples;
        let mut hits = self.hits;
        if layer == last {
            // One output changes: only a falling winner needs a rescan.
            let classes = self.mlp.layers[layer].neurons.len();
            let out = &mut self.acc[layer];
            for (s, &d) in self.delta.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                let a = out[base + s] + d;
                let winner = self.preds[s];
                let pred = if neuron != winner {
                    let w = out[winner * samples + s];
                    if a > w || (a == w && neuron < winner) {
                        neuron
                    } else {
                        winner
                    }
                } else if d > 0 {
                    winner
                } else {
                    argmax(
                        classes,
                        |j| if j == neuron { a } else { out[j * samples + s] },
                    )
                };
                let label = self.labels[s];
                hits = hits + usize::from(pred == label) - usize::from(winner == label);
                if commit {
                    out[base + s] = a;
                    self.preds[s] = pred;
                }
            }
            return hits;
        }

        // A hidden neuron: the rows whose activation changed start the
        // propagation.
        let q = self.mlp.layers[layer]
            .qrelu
            .expect("a hidden layer")
            .kernel();
        self.hop.clear();
        self.hop.neurons.push(neuron);
        let acc = &mut self.acc[layer][base..base + samples];
        let act = &mut self.act[layer][base..base + samples];
        for (s, &d) in self.delta.iter().enumerate() {
            if d == 0 {
                continue;
            }
            let a = acc[s] + d;
            let (old, new) = (act[s], q.apply(a));
            if commit {
                acc[s] = a;
                act[s] = new;
            }
            if old != new {
                self.hop.rows.push(s);
                self.hop.old.push(old);
                self.hop.new.push(new);
            }
        }

        for k in layer + 1..=last {
            let hop = &self.hop;
            let m = hop.rows.len();
            if m == 0 {
                break;
            }
            // Layer k's accumulators on the reached rows, from the
            // one-term deltas of the changed inputs.
            let next_layer = &self.mlp.layers[k];
            self.new_acc.clear();
            for (j, n) in next_layer.neurons.iter().enumerate() {
                let col = &mut self.acc[k][j * samples..(j + 1) * samples];
                let start = self.new_acc.len();
                self.new_acc.extend(hop.rows.iter().map(|&s| col[s]));
                let new_acc = &mut self.new_acc[start..];
                for (c, &i) in hop.neurons.iter().enumerate() {
                    let w = n.weights[i];
                    let old = &hop.old[c * m..(c + 1) * m];
                    let new = &hop.new[c * m..(c + 1) * m];
                    for ((v, &o), &x) in new_acc.iter_mut().zip(old).zip(new) {
                        *v += w.term(x) - w.term(o);
                    }
                }
                if commit {
                    for (&s, &v) in hop.rows.iter().zip(&*new_acc) {
                        col[s] = v;
                    }
                }
            }
            let Some(q) = next_layer.qrelu else {
                let classes = next_layer.neurons.len();
                for (r, &s) in hop.rows.iter().enumerate() {
                    let pred = argmax(classes, |j| self.new_acc[j * m + r]);
                    let label = self.labels[s];
                    hits = hits + usize::from(pred == label) - usize::from(self.preds[s] == label);
                    if commit {
                        self.preds[s] = pred;
                    }
                }
                break;
            };
            // A hidden layer k: the activations that changed carry on.
            let q = q.kernel();
            let act = &mut self.act[k];
            self.new_act.clear();
            self.new_act
                .extend(self.new_acc.iter().map(|&v| q.apply(v)));
            self.reached.clear();
            self.reached.resize(m, false);
            let next = &mut self.next;
            next.clear();
            for j in 0..next_layer.neurons.len() {
                let mut any = false;
                for (r, &s) in hop.rows.iter().enumerate() {
                    if act[j * samples + s] != self.new_act[j * m + r] {
                        self.reached[r] = true;
                        any = true;
                    }
                }
                if any {
                    next.neurons.push(j);
                }
            }
            let reached = || (0..m).filter(|&r| self.reached[r]);
            next.rows.extend(reached().map(|r| hop.rows[r]));
            for &j in &next.neurons {
                for r in reached() {
                    next.old.push(act[j * samples + hop.rows[r]]);
                    next.new.push(self.new_act[j * m + r]);
                }
            }
            if commit {
                for j in 0..next_layer.neurons.len() {
                    for (r, &s) in hop.rows.iter().enumerate() {
                        act[j * samples + s] = self.new_act[j * m + r];
                    }
                }
            }
            std::mem::swap(&mut self.hop, &mut self.next);
        }
        hits
    }
}

/// `neurons` column slices of a column-major buffer.
fn column_slices(buf: &[u8], samples: usize, neurons: usize) -> Vec<&[u8]> {
    (0..neurons)
        .map(|j| &buf[j * samples..(j + 1) * samples])
        .collect()
}

/// Argmax of `value(0..n)`, ties to the lowest index (the hardware
/// comparator's behaviour, as in [`AxMlp::predict_with`]).
fn argmax(n: usize, value: impl Fn(usize) -> i64) -> usize {
    let mut best = 0;
    let mut best_value = value(0);
    for j in 1..n {
        let v = value(j);
        if v > best_value {
            best = j;
            best_value = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::axmlp::{AxLayer, AxNeuron};
    use crate::quant::QReluCfg;

    fn random_mlp(topology: &[usize], rng: &mut StdRng) -> AxMlp {
        let mut input_bits = 4;
        let mut layers = Vec::new();
        for (li, pair) in topology.windows(2).enumerate() {
            let hidden = li + 2 < topology.len();
            let neurons = (0..pair[1])
                .map(|_| AxNeuron {
                    weights: (0..pair[0])
                        .map(|_| random_weight(rng, input_bits))
                        .collect(),
                    bias: rng.gen_range(-300..300),
                })
                .collect();
            layers.push(AxLayer {
                input_bits,
                neurons,
                qrelu: hidden.then(|| QReluCfg {
                    out_bits: 8,
                    shift: rng.gen_range(0..4),
                }),
            });
            if hidden {
                input_bits = 8;
            }
        }
        AxMlp { layers }
    }

    fn random_weight(rng: &mut StdRng, input_bits: u32) -> AxWeight {
        AxWeight {
            mask: rng.gen_range(0..(1u16 << input_bits)),
            shift: rng.gen_range(0..7),
            negative: rng.gen_bool(0.5),
        }
    }

    fn random_edit(mlp: &AxMlp, rng: &mut StdRng) -> Edit {
        let layer = rng.gen_range(0..mlp.layers.len());
        let neuron = rng.gen_range(0..mlp.layers[layer].neurons.len());
        if rng.gen_bool(0.7) {
            let input = rng.gen_range(0..mlp.layers[layer].neurons[neuron].weights.len());
            let weight = random_weight(rng, mlp.layers[layer].input_bits);
            Edit::Weight {
                layer,
                neuron,
                input,
                weight,
            }
        } else {
            Edit::Bias {
                layer,
                neuron,
                bias: rng.gen_range(-2048..2048),
            }
        }
    }

    fn edited(mlp: &AxMlp, edit: Edit) -> AxMlp {
        let mut out = mlp.clone();
        edit.write(&mut out);
        out
    }

    fn hits(mlp: &AxMlp, rows: &QuantMatrix, labels: &[usize]) -> usize {
        rows.iter()
            .zip(labels)
            .filter(|&(r, &l)| mlp.predict(r) == l)
            .count()
    }

    #[test]
    fn scores_and_applies_edits_like_the_per_row_path() {
        let mut rng = StdRng::seed_from_u64(0x1c4e);
        for topology in [&[10usize, 3, 2][..], &[16, 5, 10], &[6, 4, 3, 5], &[5, 3]] {
            let mlp = random_mlp(topology, &mut rng);
            let n = 150;
            let data = (0..n * topology[0])
                .map(|_| rng.gen_range(0..16u8))
                .collect();
            let rows = QuantMatrix::from_flat(data, topology[0], n);
            let classes = *topology.last().unwrap();
            let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
            let mut scorer = IncrementalScorer::new(mlp, &rows, &labels);
            assert_eq!(scorer.hits(), hits(scorer.mlp(), &rows, &labels));
            for step in 0..200 {
                let edit = random_edit(scorer.mlp(), &mut rng);
                let expected = hits(&edited(scorer.mlp(), edit), &rows, &labels);
                let before = scorer.mlp().clone();
                assert_eq!(scorer.score(edit), expected, "{topology:?} step {step}");
                assert_eq!(scorer.mlp(), &before, "score must not edit");
                if step % 3 == 0 {
                    scorer.apply(edit);
                    assert_eq!(scorer.mlp(), &edited(&before, edit));
                    assert_eq!(scorer.hits(), expected, "{topology:?} step {step}");
                }
            }
        }
    }

    #[test]
    fn an_empty_dataset_scores_zero_hits() {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = random_mlp(&[3, 2, 2], &mut rng);
        let rows = QuantMatrix::from_flat(Vec::new(), 3, 0);
        let mut scorer = IncrementalScorer::new(mlp, &rows, &[]);
        let edit = random_edit(scorer.mlp(), &mut rng);
        assert_eq!(scorer.score(edit), 0);
        scorer.apply(edit);
        assert_eq!(scorer.hits(), 0);
    }

    #[test]
    #[should_panic(expected = "QReLU hidden layers")]
    fn rejects_an_output_layer_with_a_qrelu() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = random_mlp(&[3, 2], &mut rng);
        mlp.layers[0].qrelu = Some(QReluCfg {
            out_bits: 8,
            shift: 0,
        });
        let rows = QuantMatrix::from_flat(vec![1, 2, 3], 3, 1);
        let _ = IncrementalScorer::new(mlp, &rows, &[0]);
    }
}
