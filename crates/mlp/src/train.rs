//! From-scratch mini-batch SGD backpropagation.
//!
//! Implements the conventional gradient-based training the paper uses
//! both for the exact baselines (before quantization) and as the
//! "Grad." reference row of Table III. Softmax cross-entropy loss,
//! ReLU hidden layers, SGD with momentum.
//!
//! The trainer copies the network into flat row-major buffers once
//! (weights, velocities and batch gradients per layer, plus reused
//! activation and delta scratch), so nothing is allocated per batch or
//! per sample, and copies the result back at the end. The weights are
//! fixed within a batch, so each group of up to 8 of its samples is
//! forwarded together, one `f32` lane per sample; softmax and
//! back-propagation then run per sample in batch order.
//!
//! **Bit-exactness rule.** Every lane performs the operations of the
//! plain per-sample loop in the same order: `Σ w·v` serially in input
//! order from `-0.0` (as `Iterator::sum` does), then `+ b`, then the
//! ReLU. Gradients are summed sample by sample in batch order, the
//! propagated delta is summed over neurons in order, and nothing is
//! reassociated or fused (no `mul_add`). The trained network is
//! therefore bit-identical to the per-sample reference kept in the
//! tests, in every build.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dense::DenseMlp;

/// Hyperparameters for [`SgdTrainer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffling / initialization seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 200,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs: usize,
    /// Final accuracy on the training data.
    pub train_accuracy: f64,
    /// Final mean cross-entropy on the training data.
    pub train_loss: f64,
    /// Number of forward/backward sample evaluations performed.
    pub evaluations: u64,
}

/// Mini-batch SGD trainer with momentum.
#[derive(Debug, Clone)]
pub struct SgdTrainer {
    config: TrainConfig,
}

impl SgdTrainer {
    /// Trainer with the given hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_size` is zero.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.batch_size > 0, "batch_size must be positive");
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train `mlp` in place on `(rows, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` differ in length, `rows` is empty,
    /// rows don't match the network's input width, or a label exceeds
    /// the output width. (A zero `batch_size` is rejected by
    /// [`new`](Self::new).)
    pub fn train(&self, mlp: &mut DenseMlp, rows: &[Vec<f32>], labels: &[usize]) -> TrainReport {
        self.train_observed(mlp, rows, labels, |_| true)
    }

    /// Train with a per-epoch observer: `on_epoch(epoch)` runs after
    /// each completed epoch and returns whether to keep training —
    /// `false` stops early (cooperative cancellation). The report's
    /// `epochs` field records the epochs actually executed; up to the
    /// stopping point the run is bit-identical to a full one.
    ///
    /// # Panics
    ///
    /// Panics as [`train`](Self::train) does.
    pub fn train_observed(
        &self,
        mlp: &mut DenseMlp,
        rows: &[Vec<f32>],
        labels: &[usize],
        mut on_epoch: impl FnMut(usize) -> bool,
    ) -> TrainReport {
        assert_eq!(rows.len(), labels.len());
        assert!(!rows.is_empty(), "training data must be non-empty");
        let topology = mlp.topology().clone();
        let classes = topology.outputs();
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        assert!(
            rows.iter().all(|r| r.len() == topology.inputs()),
            "input width mismatch"
        );

        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xa076_1d64_78bd_642f);
        let layer_count = topology.layer_count();
        let mut layers: Vec<FlatLayer> = mlp
            .weights()
            .iter()
            .zip(mlp.biases())
            .map(|(w, b)| FlatLayer::new(w, b))
            .collect();
        // `acts[l]`: the lane group's inputs to layer `l`; the last
        // entry holds the logits.
        let mut acts: Vec<Vec<Lanes>> = topology
            .sizes()
            .iter()
            .map(|&width| vec![[0.0; LANES]; width])
            .collect();
        let widest = topology.sizes().iter().copied().max().unwrap_or(0);
        // One sample's layer input (or logits), its delta, and the
        // delta propagated to the layer below.
        let mut x = vec![0.0f32; widest];
        let mut delta = vec![0.0f32; widest];
        let mut next = vec![0.0f32; widest];

        let mut order: Vec<usize> = (0..rows.len()).collect();
        let mut evaluations = 0u64;

        let mut executed = 0usize;
        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(self.config.batch_size) {
                for layer in &mut layers {
                    layer.grad_w.fill(0.0);
                    layer.grad_b.fill(0.0);
                }
                // The weights are fixed within a batch, so its samples
                // are forwarded a lane group at a time. Lanes past the
                // group's end keep stale values and are never read.
                for group in batch.chunks(LANES) {
                    forward_group(&layers, rows, group, &mut acts);

                    // Softmax and back-propagation run per sample, in
                    // batch order, so the gradient sums keep it.
                    for (k, &idx) in group.iter().enumerate() {
                        evaluations += 1;
                        gather(&acts[layer_count], k, &mut x[..classes]);
                        // dL/dlogit = softmax - onehot.
                        softmax_into(&x[..classes], &mut delta[..classes]);
                        delta[labels[idx]] -= 1.0;
                        for l in (0..layer_count).rev() {
                            let (fan_in, fan_out) = topology.layer_dims(l);
                            let input: &[f32] = if l == 0 {
                                &rows[idx]
                            } else {
                                gather(&acts[l], k, &mut x[..fan_in]);
                                &x[..fan_in]
                            };
                            let layer = &mut layers[l];
                            layer.accumulate(&delta[..fan_out], input);
                            if l > 0 {
                                layer.backprop(&delta[..fan_out], input, &mut next[..fan_in]);
                                std::mem::swap(&mut delta, &mut next);
                            }
                        }
                    }
                }

                let scale = self.config.learning_rate / batch.len() as f32;
                for layer in &mut layers {
                    layer.step(self.config.momentum, scale);
                }
            }
            executed = epoch + 1;
            if !on_epoch(epoch) {
                break;
            }
        }

        let (weights, biases) = mlp.params_mut();
        for (layer, (w, b)) in layers.iter().zip(weights.iter_mut().zip(biases.iter_mut())) {
            for (row, flat) in w.iter_mut().zip(layer.rows()) {
                row.copy_from_slice(flat);
            }
            b.copy_from_slice(&layer.b);
        }

        let train_accuracy = mlp.accuracy(rows, labels);
        let train_loss = mean_cross_entropy(mlp, rows, labels);
        TrainReport {
            epochs: executed,
            train_accuracy,
            train_loss,
            evaluations,
        }
    }
}

/// Samples forwarded together, one `f32` lane each.
const LANES: usize = 8;

/// One value per sample of a lane group.
type Lanes = [f32; LANES];

/// Forward the samples `group` of `rows` through `layers`, one lane
/// each: `acts[0]` receives the inputs and `acts[l + 1]` layer `l`'s
/// outputs.
fn forward_group(
    layers: &[FlatLayer],
    rows: &[Vec<f32>],
    group: &[usize],
    acts: &mut [Vec<Lanes>],
) {
    for (k, &idx) in group.iter().enumerate() {
        for (lane, &v) in acts[0].iter_mut().zip(&rows[idx]) {
            lane[k] = v;
        }
    }
    let last = layers.len() - 1;
    for (l, layer) in layers.iter().enumerate() {
        let (below, above) = acts.split_at_mut(l + 1);
        layer.forward(&below[l], &mut above[0], l < last);
    }
}

/// Lane `k` of `lanes`, one value per unit, into `out`.
fn gather(lanes: &[Lanes], k: usize, out: &mut [f32]) {
    for (o, lane) in out.iter_mut().zip(lanes) {
        *o = lane[k];
    }
}

/// One layer's parameters, momentum and batch gradient as flat
/// row-major buffers: index `j * fan_in + i` is input `i` of neuron
/// `j`, as `DenseMlp`'s `weights[l][j][i]`.
struct FlatLayer {
    fan_in: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    vel_w: Vec<f32>,
    vel_b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
}

impl FlatLayer {
    fn new(weights: &[Vec<f32>], biases: &[f32]) -> Self {
        let w = weights.concat();
        Self {
            fan_in: weights[0].len(),
            vel_w: vec![0.0; w.len()],
            grad_w: vec![0.0; w.len()],
            vel_b: vec![0.0; biases.len()],
            grad_b: vec![0.0; biases.len()],
            b: biases.to_vec(),
            w,
        }
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, f32> {
        self.w.chunks_exact(self.fan_in)
    }

    /// Forward a lane group: each lane computes `Σ w·v` serially in
    /// input order from `-0.0` (as `Iterator::sum` does), then `+ b`,
    /// then the ReLU when `relu`.
    fn forward(&self, input: &[Lanes], out: &mut [Lanes], relu: bool) {
        for ((o, row), &b) in out.iter_mut().zip(self.rows()).zip(&self.b) {
            let mut acc = [-0.0f32; LANES];
            for (&w, v) in row.iter().zip(input) {
                for (a, &v) in acc.iter_mut().zip(v) {
                    *a += w * v;
                }
            }
            for (o, a) in o.iter_mut().zip(acc) {
                let z = a + b;
                *o = if relu { z.max(0.0) } else { z };
            }
        }
    }

    /// Add one sample's gradient: `delta` at this layer's outputs,
    /// `input` its inputs.
    fn accumulate(&mut self, delta: &[f32], input: &[f32]) {
        let rows = self.grad_w.chunks_exact_mut(self.fan_in);
        for ((g, gb), &d) in rows.zip(&mut self.grad_b).zip(delta) {
            *gb += d;
            for (g, &v) in g.iter_mut().zip(input) {
                *g += d * v;
            }
        }
    }

    /// `delta` through the weights into `next` (summed over neurons in
    /// order from `0.0`), then through the ReLU that produced `input`.
    fn backprop(&self, delta: &[f32], input: &[f32], next: &mut [f32]) {
        next.fill(0.0);
        for (row, &d) in self.rows().zip(delta) {
            for (n, &w) in next.iter_mut().zip(row) {
                *n += d * w;
            }
        }
        for (n, &o) in next.iter_mut().zip(input) {
            if o <= 0.0 {
                *n = 0.0;
            }
        }
    }

    /// The momentum update from the batch gradient scaled by `scale`.
    fn step(&mut self, momentum: f32, scale: f32) {
        let params = self.w.iter_mut().chain(&mut self.b);
        let vels = self.vel_w.iter_mut().chain(&mut self.vel_b);
        let grads = self.grad_w.iter().chain(&self.grad_b);
        for ((p, v), &g) in params.zip(vels).zip(grads) {
            *v = momentum * *v - scale * g;
            *p += *v;
        }
    }
}

/// Train `restarts` randomly initialized networks and keep the one with
/// the lowest final training loss.
///
/// The paper's topologies have as few as two hidden units, where single
/// initializations occasionally die (all-ReLU-dead); best-of-N restarts
/// is the standard remedy and stays deterministic in `seed`.
///
/// # Panics
///
/// Panics if `restarts` is zero or the data is empty.
#[must_use]
pub fn train_best_of(
    topology: &crate::topology::Topology,
    rows: &[Vec<f32>],
    labels: &[usize],
    config: &TrainConfig,
    restarts: u64,
) -> (DenseMlp, TrainReport) {
    train_best_of_observed(topology, rows, labels, config, restarts, |_, _| true)
}

/// [`train_best_of`] with a per-epoch observer: `on_epoch(restart,
/// epoch)` runs after every completed epoch of every restart and
/// returns whether to keep training. Returning `false` abandons the
/// remaining epochs and restarts; the best network trained so far is
/// still returned (callers deciding to cancel typically discard it).
///
/// # Panics
///
/// Panics if `restarts` is zero or the data is empty.
#[must_use]
pub fn train_best_of_observed(
    topology: &crate::topology::Topology,
    rows: &[Vec<f32>],
    labels: &[usize],
    config: &TrainConfig,
    restarts: u64,
    mut on_epoch: impl FnMut(u64, usize) -> bool,
) -> (DenseMlp, TrainReport) {
    assert!(restarts > 0, "at least one restart required");
    let trainer = SgdTrainer::new(config.clone());
    let mut best: Option<(DenseMlp, TrainReport)> = None;
    for r in 0..restarts {
        let mut stopped = false;
        let mut mlp = DenseMlp::random(topology.clone(), config.seed ^ (r * 0x9e37_79b9));
        let report = trainer.train_observed(&mut mlp, rows, labels, |epoch| {
            let keep_going = on_epoch(r, epoch);
            stopped = !keep_going;
            keep_going
        });
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.train_loss < b.train_loss)
        {
            best = Some((mlp, report));
        }
        if stopped {
            break;
        }
    }
    best.expect("restarts > 0")
}

/// Numerically-stable softmax.
#[must_use]
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = vec![0.0; logits.len()];
    softmax_into(logits, &mut probs);
    probs
}

/// [`softmax`] of `logits` into `out`, which has the same length.
fn softmax_into(logits: &[f32], out: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (e, &v) in out.iter_mut().zip(logits) {
        *e = (v - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum.max(f32::MIN_POSITIVE);
    }
}

/// Mean softmax cross-entropy of `mlp` over a labelled set.
///
/// # Panics
///
/// Panics if `rows` and `labels` differ in length.
#[must_use]
pub fn mean_cross_entropy(mlp: &DenseMlp, rows: &[Vec<f32>], labels: &[usize]) -> f64 {
    assert_eq!(rows.len(), labels.len());
    if rows.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for (row, &l) in rows.iter().zip(labels) {
        let probs = softmax(&mlp.logits(row));
        total -= f64::from(probs[l].max(1e-12)).ln();
    }
    total / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    use super::*;
    use crate::topology::Topology;

    /// The trainer as it was written before flat buffers and lanes: one
    /// `forward_trace`, softmax and `next` allocation per sample and
    /// nested gradient buffers per batch. The oracle the flat trainer
    /// must match bit for bit.
    fn reference_train(
        config: &TrainConfig,
        mlp: &mut DenseMlp,
        rows: &[Vec<f32>],
        labels: &[usize],
        mut on_epoch: impl FnMut(usize) -> bool,
    ) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa076_1d64_78bd_642f);
        let layer_count = mlp.topology().layer_count();

        // Momentum buffers mirroring the parameter shapes.
        let mut vel_w: Vec<Vec<Vec<f32>>> = mlp
            .weights()
            .iter()
            .map(|l| l.iter().map(|r| vec![0.0; r.len()]).collect())
            .collect();
        let mut vel_b: Vec<Vec<f32>> = mlp.biases().iter().map(|l| vec![0.0; l.len()]).collect();

        let mut order: Vec<usize> = (0..rows.len()).collect();
        let mut evaluations = 0u64;

        let mut executed = 0usize;
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size) {
                // Accumulate gradients over the batch.
                let mut grad_w: Vec<Vec<Vec<f32>>> = mlp
                    .weights()
                    .iter()
                    .map(|l| l.iter().map(|r| vec![0.0; r.len()]).collect())
                    .collect();
                let mut grad_b: Vec<Vec<f32>> =
                    mlp.biases().iter().map(|l| vec![0.0; l.len()]).collect();

                for &idx in batch {
                    evaluations += 1;
                    let trace = mlp.forward_trace(&rows[idx]);
                    let logits = trace.last().expect("trace non-empty");
                    let probs = softmax(logits);
                    // dL/dlogit = softmax - onehot.
                    let mut delta: Vec<f32> = probs;
                    delta[labels[idx]] -= 1.0;

                    for l in (0..layer_count).rev() {
                        let input = &trace[l];
                        for (j, d) in delta.iter().enumerate() {
                            grad_b[l][j] += d;
                            for (i, &v) in input.iter().enumerate() {
                                grad_w[l][j][i] += d * v;
                            }
                        }
                        if l > 0 {
                            // Propagate through weights and the ReLU of
                            // layer l-1's output.
                            let prev_out = &trace[l];
                            let mut next = vec![0.0f32; prev_out.len()];
                            for (j, d) in delta.iter().enumerate() {
                                for (i, n) in next.iter_mut().enumerate() {
                                    *n += d * mlp.weights()[l][j][i];
                                }
                            }
                            for (n, &o) in next.iter_mut().zip(prev_out) {
                                if o <= 0.0 {
                                    *n = 0.0;
                                }
                            }
                            delta = next;
                        }
                    }
                }

                let scale = config.learning_rate / batch.len() as f32;
                let (weights, biases) = mlp.params_mut();
                for l in 0..layer_count {
                    for j in 0..weights[l].len() {
                        for i in 0..weights[l][j].len() {
                            let v = &mut vel_w[l][j][i];
                            *v = config.momentum * *v - scale * grad_w[l][j][i];
                            weights[l][j][i] += *v;
                        }
                        let vb = &mut vel_b[l][j];
                        *vb = config.momentum * *vb - scale * grad_b[l][j];
                        biases[l][j] += *vb;
                    }
                }
            }
            executed = epoch + 1;
            if !on_epoch(epoch) {
                break;
            }
        }

        let train_accuracy = mlp.accuracy(rows, labels);
        let train_loss = mean_cross_entropy(mlp, rows, labels);
        TrainReport {
            epochs: executed,
            train_accuracy,
            train_loss,
            evaluations,
        }
    }

    /// `rows` seeded random rows of width `inputs` with random labels
    /// below `classes`; the first row is all zeros and the second
    /// negative, so `-0.0` sums and dead ReLUs get exercised.
    fn random_problem(
        inputs: usize,
        classes: usize,
        rows: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows)
            .map(|r| match r {
                0 => vec![0.0; inputs],
                1 => (0..inputs).map(|_| -rng.gen_range(0.0f32..1.0)).collect(),
                _ => (0..inputs).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
            })
            .collect();
        let labels = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
        (data, labels)
    }

    fn param_bits(mlp: &DenseMlp) -> (Vec<u32>, Vec<u32>) {
        let weights = mlp.weights().iter().flatten().flatten();
        let biases = mlp.biases().iter().flatten();
        (
            weights.map(|w| w.to_bits()).collect(),
            biases.map(|b| b.to_bits()).collect(),
        )
    }

    fn report_bits(r: &TrainReport) -> (usize, u64, u64, u64) {
        (
            r.epochs,
            r.train_accuracy.to_bits(),
            r.train_loss.to_bits(),
            r.evaluations,
        )
    }

    /// Train a seeded network with both trainers, stopping after epoch
    /// `stop_after` when given, and assert identical bits.
    fn assert_matches_reference(sizes: &[usize], config: &TrainConfig, stop_after: Option<usize>) {
        let (rows, labels) = random_problem(sizes[0], *sizes.last().unwrap(), 37, config.seed);
        let start = DenseMlp::random(Topology::new(sizes.to_vec()), config.seed + 1);
        let keep_going = |e: usize| stop_after.is_none_or(|s| e < s);

        let mut expected = start.clone();
        let want = reference_train(config, &mut expected, &rows, &labels, keep_going);
        let mut actual = start;
        let got =
            SgdTrainer::new(config.clone()).train_observed(&mut actual, &rows, &labels, keep_going);
        let case = format!("{sizes:?} {config:?} stop={stop_after:?}");
        assert_eq!(param_bits(&actual), param_bits(&expected), "{case}");
        assert_eq!(report_bits(&got), report_bits(&want), "{case}");
    }

    /// Every paper topology plus a three-hidden-layer net; batch sizes
    /// that leave partial lane groups and a short last batch (37 rows),
    /// and one larger than the data; momentum off and on.
    #[test]
    fn flat_trainer_is_bit_identical_to_the_reference() {
        let topologies: [&[usize]; 6] = [
            &[10, 3, 2],
            &[21, 3, 3],
            &[16, 5, 10],
            &[11, 2, 6],
            &[11, 4, 7],
            &[9, 6, 5, 4, 3],
        ];
        for (t, sizes) in topologies.iter().enumerate() {
            for batch_size in [1, 7, 8, 9, 32, 64] {
                for momentum in [0.0, 0.9] {
                    let config = TrainConfig {
                        learning_rate: 0.2,
                        momentum,
                        epochs: 4,
                        batch_size,
                        seed: 100 + t as u64,
                    };
                    assert_matches_reference(sizes, &config, None);
                }
            }
        }
    }

    #[test]
    fn flat_trainer_matches_the_reference_when_stopped_early() {
        for batch_size in [7, 32] {
            let config = TrainConfig {
                epochs: 10,
                batch_size,
                seed: 9,
                ..TrainConfig::default()
            };
            assert_matches_reference(&[16, 5, 10], &config, Some(3));
        }
    }

    /// The lane forward reproduces `forward_trace` bit for bit, in full
    /// and partial lane groups, down to the sign of zero sums: a zero
    /// row through negative weights and `-0.0` biases tells a sum
    /// started at `-0.0` from one started at `0.0`.
    #[test]
    fn lane_forward_matches_forward_trace_bits() {
        let sizes = [6, 4, 3];
        let topology = Topology::new(sizes.to_vec());
        let negative = DenseMlp::from_parameters(
            topology.clone(),
            vec![vec![vec![-0.5; 6]; 4], vec![vec![-0.5; 4]; 3]],
            vec![vec![-0.0; 4], vec![-0.0; 3]],
        );
        let (rows, _) = random_problem(6, 3, 11, 2);
        for mlp in [DenseMlp::random(topology, 4), negative] {
            let layers: Vec<FlatLayer> = mlp
                .weights()
                .iter()
                .zip(mlp.biases())
                .map(|(w, b)| FlatLayer::new(w, b))
                .collect();
            let mut acts: Vec<Vec<Lanes>> = sizes.iter().map(|&w| vec![[0.0; LANES]; w]).collect();
            let order: Vec<usize> = (0..rows.len()).collect();
            for group in order.chunks(LANES) {
                forward_group(&layers, &rows, group, &mut acts);
                for (k, &idx) in group.iter().enumerate() {
                    for (lanes, want) in acts.iter().zip(mlp.forward_trace(&rows[idx])) {
                        let mut got = vec![0.0; want.len()];
                        gather(lanes, k, &mut got);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "row {idx}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_panics() {
        let _ = SgdTrainer::new(TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        });
    }

    /// Two well-separated blobs in 2D.
    fn toy_problem() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let t = (i % 20) as f32 / 20.0;
            if i < 20 {
                rows.push(vec![0.1 + 0.2 * t, 0.2]);
                labels.push(0);
            } else {
                rows.push(vec![0.7 + 0.2 * t, 0.8]);
                labels.push(1);
            }
        }
        (rows, labels)
    }

    #[test]
    fn learns_separable_blobs() {
        let (rows, labels) = toy_problem();
        let mut mlp = DenseMlp::random(Topology::new(vec![2, 4, 2]), 3);
        let report = SgdTrainer::new(TrainConfig {
            epochs: 150,
            learning_rate: 0.1,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &rows, &labels);
        assert!(
            report.train_accuracy > 0.95,
            "accuracy {}",
            report.train_accuracy
        );
        assert!(report.train_loss < 0.3, "loss {}", report.train_loss);
    }

    #[test]
    fn loss_decreases_with_training() {
        let (rows, labels) = toy_problem();
        let topo = Topology::new(vec![2, 4, 2]);
        let untrained = DenseMlp::random(topo.clone(), 3);
        let before = mean_cross_entropy(&untrained, &rows, &labels);
        let mut trained = untrained.clone();
        let _ = SgdTrainer::new(TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        })
        .train(&mut trained, &rows, &labels);
        let after = mean_cross_entropy(&trained, &rows, &labels);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn training_is_deterministic() {
        let (rows, labels) = toy_problem();
        let run = || {
            let mut mlp = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
            let _ = SgdTrainer::new(TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            })
            .train(&mut mlp, &rows, &labels);
            mlp
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observed_training_can_stop_early_and_matches_the_full_prefix() {
        let (rows, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        };
        let mut observed = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
        let report =
            SgdTrainer::new(cfg.clone()).train_observed(&mut observed, &rows, &labels, |e| e < 4);
        assert_eq!(report.epochs, 5);
        assert_eq!(report.evaluations, 5 * rows.len() as u64);

        // Identical to simply configuring 5 epochs.
        let mut direct = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
        let _ =
            SgdTrainer::new(TrainConfig { epochs: 5, ..cfg }).train(&mut direct, &rows, &labels);
        assert_eq!(observed, direct);
    }

    #[test]
    fn best_of_observed_stops_across_restarts() {
        let (rows, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let mut calls = 0u64;
        let (_, report) = train_best_of_observed(
            &Topology::new(vec![2, 3, 2]),
            &rows,
            &labels,
            &cfg,
            3,
            |restart, _| {
                calls += 1;
                restart == 0 // cancel as soon as the second restart begins
            },
        );
        assert_eq!(calls, 11); // 10 epochs of restart 0 + 1 of restart 1
        assert_eq!(report.epochs, 10);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn evaluation_count_matches_epochs_times_samples() {
        let (rows, labels) = toy_problem();
        let mut mlp = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
        let report = SgdTrainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &rows, &labels);
        assert_eq!(report.evaluations, 3 * rows.len() as u64);
    }
}
