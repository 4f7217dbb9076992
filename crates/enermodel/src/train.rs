//! Network training loop.
//!
//! Mirrors Section V-B: per-sample stochastic updates with Adam, a fixed
//! number of epochs (five for LOOCV, ten for the final train/test split —
//! the paper notes more epochs over-fit), samples shuffled each epoch with
//! a seeded RNG, features standardised with statistics from the training
//! set only.
//!
//! There is one epoch loop. Only [`train`] measures the training-set MSE
//! after each epoch, for [`TrainReport::epoch_mse`]; [`train_scaled`],
//! which committee members and LOOCV folds train through, skips that
//! forward pass over every sample, since nothing would read it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::adam::{Adam, AdamConfig};
use crate::linalg::Matrix;
use crate::metrics::mse;
use crate::nn::{EnergyNet, Gradients, NetConfig, Workspace};
use crate::scaler::StandardScaler;

/// A supervised dataset: one feature row and scalar target per sample, with
/// a group label (benchmark name) used to form LOOCV folds.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature matrix, samples × features (unscaled).
    pub features: Matrix,
    /// Target per sample (normalised energy).
    pub targets: Vec<f64>,
    /// Group label per sample; LOOCV leaves out one *group* (benchmark) at
    /// a time, never individual samples — the paper calls out that 10-fold
    /// CV with random indexing can leak a benchmark into both sets.
    pub groups: Vec<String>,
}

impl Dataset {
    /// Create a dataset, validating lengths.
    pub fn new(features: Matrix, targets: Vec<f64>, groups: Vec<String>) -> Self {
        assert_eq!(features.rows(), targets.len(), "one target per sample");
        assert_eq!(features.rows(), groups.len(), "one group per sample");
        Self {
            features,
            targets,
            groups,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Distinct group labels, in first-appearance order.
    pub fn group_names(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for g in &self.groups {
            if !seen.contains(g) {
                seen.push(g.clone());
            }
        }
        seen
    }

    /// Split into (kept, left-out) by group label.
    pub fn split_by_group(&self, leave_out: &str) -> (Dataset, Dataset) {
        let mut train_rows = Vec::new();
        let mut test_rows = Vec::new();
        for (i, g) in self.groups.iter().enumerate() {
            if g == leave_out {
                test_rows.push(i);
            } else {
                train_rows.push(i);
            }
        }
        (self.subset(&train_rows), self.subset(&test_rows))
    }

    /// Extract the given sample indices into a new dataset.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let features = Matrix::from_fn(idx.len(), self.features.cols(), |r, c| {
            self.features[(idx[r], c)]
        });
        Dataset {
            features,
            targets: idx.iter().map(|&i| self.targets[i]).collect(),
            groups: idx.iter().map(|&i| self.groups[i].clone()).collect(),
        }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Network architecture.
    pub net: NetConfig,
    /// Adam settings (paper: defaults, lr 1e-3).
    pub adam: AdamConfig,
    /// Epochs: 5 for LOOCV, 10 for the final model (Section V-B).
    pub epochs: usize,
    /// Shuffle seed (per-epoch order).
    pub shuffle_seed: u64,
    /// Multiplicative learning-rate decay applied after every epoch
    /// (1.0 = constant rate, the paper's setting).
    pub lr_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::default(),
            adam: AdamConfig::default(),
            epochs: 5,
            shuffle_seed: 0x5EED,
            lr_decay: 1.0,
        }
    }
}

/// Outcome of [`train`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Trained network.
    pub net: EnergyNet,
    /// Scaler fitted on the training features; apply before inference.
    pub scaler: StandardScaler,
    /// Mean squared error on the (scaled) training set after each epoch.
    pub epoch_mse: Vec<f64>,
}

impl TrainReport {
    /// Predict the target for a raw (unscaled) feature row.
    pub fn predict(&self, raw_row: &[f64]) -> f64 {
        let mut row = raw_row.to_vec();
        self.scaler.transform_row(&mut row);
        self.net.predict_scalar(&row)
    }

    /// Predict all rows of a raw feature matrix through one row buffer
    /// and one workspace.
    pub fn predict_batch(&self, raw: &Matrix) -> Vec<f64> {
        let mut row = Vec::with_capacity(raw.cols());
        let mut ws = Workspace::default();
        (0..raw.rows())
            .map(|r| {
                row.clear();
                row.extend_from_slice(raw.row(r));
                self.scaler.transform_row(&mut row);
                self.net.predict_with(&row, &mut ws)
            })
            .collect()
    }
}

/// Train a fresh network on `data` according to `cfg`, measuring the
/// mean squared error on the scaled training set after each epoch.
///
/// # Panics
/// Panics if the dataset is empty or the feature width does not match the
/// network input size.
pub fn train(data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    let scaler = StandardScaler::fit(&data.features);
    let x = scaler.transform(&data.features);
    let mut preds = vec![0.0; data.len()];
    let mut epoch_mse = Vec::with_capacity(cfg.epochs);
    let net = train_epochs(&x, &data.targets, cfg, |net, ws| {
        for (r, p) in preds.iter_mut().enumerate() {
            *p = net.predict_with(x.row(r), ws);
        }
        epoch_mse.push(mse(&data.targets, &preds));
    });
    TrainReport {
        net,
        scaler,
        epoch_mse,
    }
}

/// Train a fresh network on features that are already standardised.
/// Networks that share a training set (a committee) share one scaled
/// copy of it. The network is bit-identical to [`train`]'s; only the
/// per-epoch MSE is not measured.
///
/// # Panics
/// Panics if there are no samples, the targets do not match the rows, or
/// the feature width does not match the network input size.
pub fn train_scaled(x: &Matrix, targets: &[f64], cfg: &TrainConfig) -> EnergyNet {
    train_epochs(x, targets, cfg, |_, _| {})
}

/// The epoch loop behind [`train`] and [`train_scaled`]: per-sample Adam
/// steps in a freshly shuffled order each epoch, then `after_epoch` with
/// the network and the loop's workspace.
///
/// Steady-state training allocates nothing: the network, its gradient,
/// Adam's moments and the forward/backward workspace are all buffers
/// sized once up front.
fn train_epochs(
    x: &Matrix,
    targets: &[f64],
    cfg: &TrainConfig,
    mut after_epoch: impl FnMut(&EnergyNet, &mut Workspace),
) -> EnergyNet {
    assert!(!targets.is_empty(), "cannot train on an empty dataset");
    assert_eq!(x.rows(), targets.len(), "one target per sample");
    assert_eq!(
        x.cols(),
        cfg.net.layer_sizes[0],
        "feature width must match network input size"
    );

    let mut net = EnergyNet::new(&cfg.net);
    let mut adam_cfg = cfg.adam;
    let mut adam = Adam::new(&net, adam_cfg);
    let mut ws = Workspace::default();
    let mut grads = Gradients::zeros_like(&net);
    let mut order: Vec<usize> = (0..targets.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);

    for epoch in 0..cfg.epochs {
        if epoch > 0 && cfg.lr_decay != 1.0 {
            adam_cfg.learning_rate *= cfg.lr_decay;
            adam = adam.with_learning_rate(adam_cfg.learning_rate);
        }
        order.shuffle(&mut rng);
        for &i in &order {
            net.backprop_into(x.row(i), &targets[i..=i], &mut ws, &mut grads);
            adam.step(&mut net, &grads);
        }
        after_epoch(&net, &mut ws);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Activation;

    /// Synthetic dataset: target is a smooth function of 3 features.
    fn synth(n: usize) -> Dataset {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut groups = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.37).sin();
            let b = (i as f64 * 0.11).cos();
            let c = (i % 7) as f64 / 7.0;
            rows.push(vec![a, b, c]);
            y.push(1.0 + 0.3 * a - 0.2 * b + 0.5 * c);
            groups.push(format!("g{}", i % 4));
        }
        Dataset::new(Matrix::from_rows(&rows), y, groups)
    }

    fn small_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            net: NetConfig {
                layer_sizes: vec![3, 5, 5, 1],
                hidden_activation: Activation::ReLU,
                seed: 9,
            },
            adam: AdamConfig::default(),
            epochs,
            shuffle_seed: 1,
            lr_decay: 1.0,
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = synth(200);
        let report = train(&data, &small_cfg(20));
        let first = report.epoch_mse[0];
        let last = *report.epoch_mse.last().unwrap();
        assert!(last < first, "mse did not drop: {first} -> {last}");
        assert!(last < 0.02, "final mse too high: {last}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let data = synth(64);
        let a = train(&data, &small_cfg(3));
        let b = train(&data, &small_cfg(3));
        assert_eq!(a.epoch_mse, b.epoch_mse);
        assert_eq!(a.predict(&[0.1, 0.2, 0.3]), b.predict(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn predictions_track_targets() {
        let data = synth(300);
        let report = train(&data, &small_cfg(30));
        let preds = report.predict_batch(&data.features);
        let err = crate::metrics::mape(&data.targets, &preds);
        assert!(err < 5.0, "training MAPE {err}%");
    }

    #[test]
    fn predict_batch_matches_predict_row_by_row() {
        let data = synth(50);
        let report = train(&data, &small_cfg(2));
        let batch = report.predict_batch(&data.features);
        for (r, p) in batch.iter().enumerate() {
            let alone = report.predict(data.features.row(r));
            assert_eq!(p.to_bits(), alone.to_bits(), "row {r}");
        }
    }

    #[test]
    fn scaled_training_equals_train_minus_the_mse() {
        let data = synth(64);
        let cfg = small_cfg(3);
        let report = train(&data, &cfg);
        let x = report.scaler.transform(&data.features);
        let net = train_scaled(&x, &data.targets, &cfg);
        assert_eq!(net.params(), report.net.params());
    }

    #[test]
    fn split_by_group_partitions() {
        let data = synth(40);
        let (tr, te) = data.split_by_group("g0");
        assert_eq!(tr.len() + te.len(), data.len());
        assert!(te.groups.iter().all(|g| g == "g0"));
        assert!(tr.groups.iter().all(|g| g != "g0"));
        assert_eq!(te.len(), 10);
    }

    #[test]
    fn group_names_order_and_uniqueness() {
        let data = synth(10);
        let names = data.group_names();
        assert_eq!(names, vec!["g0", "g1", "g2", "g3"]);
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn wrong_feature_width_panics() {
        let data = synth(10);
        let mut cfg = small_cfg(1);
        cfg.net.layer_sizes = vec![9, 5, 5, 1];
        let _ = train(&data, &cfg);
    }

    /// FNV-1a over the bit patterns of every weight and bias (layer by
    /// layer, weights row-major, then biases) followed by every epoch MSE.
    fn training_hash(report: &TrainReport) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: f64| {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        report.net.params().iter().for_each(|&p| eat(p));
        report.epoch_mse.iter().for_each(|&m| eat(m));
        h
    }

    /// Golden hashes of two training runs. Any change to the arithmetic
    /// of the forward pass, backprop, Adam or the epoch MSE (operation
    /// order, fused multiply-add, reciprocal multiplies) moves them.
    #[test]
    fn training_is_bit_identical_to_golden() {
        let data = synth(200);
        let relu = train(&data, &small_cfg(5));
        assert_eq!(training_hash(&relu), 0x35a3_d6d3_b113_54a4, "relu");
        let mut cfg = small_cfg(4);
        cfg.net.hidden_activation = Activation::Tanh;
        cfg.lr_decay = 0.9;
        let tanh = train(&data, &cfg);
        assert_eq!(
            training_hash(&tanh),
            0x6cc6_3818_e461_94f9,
            "tanh + lr decay"
        );
    }

    #[test]
    fn epoch_mse_length_matches_epochs() {
        let data = synth(32);
        let report = train(&data, &small_cfg(7));
        assert_eq!(report.epoch_mse.len(), 7);
    }
}
