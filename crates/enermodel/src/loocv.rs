//! Leave-One-Out Cross-Validation across benchmarks.
//!
//! Section V-B evaluates model stability by leaving one *benchmark* out at
//! a time: its samples form the test set, all other benchmarks train the
//! network (5 epochs), and MAPE over the held-out benchmark's DVFS/UFS
//! states is reported (Fig. 5). Folds are independent and run one after
//! another. A fold trains without measuring its training-set MSE, which
//! nothing reads.

use crate::metrics::mape;
use crate::scaler::StandardScaler;
use crate::train::{train_scaled, Dataset, TrainConfig};

/// MAPE result for one LOOCV fold.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// The benchmark that was left out (the test set).
    pub group: String,
    /// Mean absolute percentage error over its samples.
    pub mape: f64,
    /// Number of test samples in the fold.
    pub samples: usize,
}

/// Aggregate LOOCV report (the data behind Fig. 5).
#[derive(Debug, Clone)]
pub struct LoocvReport {
    /// Per-benchmark fold results, in group order.
    pub folds: Vec<FoldResult>,
}

impl LoocvReport {
    /// Mean MAPE across folds (the paper reports 5.20 across 19 benchmarks).
    pub fn mean_mape(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        self.folds.iter().map(|f| f.mape).sum::<f64>() / self.folds.len() as f64
    }

    /// Fold with the largest error (paper: miniMD at 9.35).
    pub fn worst(&self) -> Option<&FoldResult> {
        self.folds.iter().max_by(|a, b| a.mape.total_cmp(&b.mape))
    }

    /// Fold with the smallest error (paper: Lulesh at 2.81).
    pub fn best(&self) -> Option<&FoldResult> {
        self.folds.iter().min_by(|a, b| a.mape.total_cmp(&b.mape))
    }

    /// Look up one fold by group name.
    pub fn fold(&self, group: &str) -> Option<&FoldResult> {
        self.folds.iter().find(|f| f.group == group)
    }
}

/// Run LOOCV over every group in `data` with the given training config.
///
/// Each fold trains from scratch (fresh He init with the same seed — folds
/// differ only in their training data, matching the paper's protocol).
pub fn loocv_mape(data: &Dataset, cfg: &TrainConfig) -> LoocvReport {
    let groups = data.group_names();
    let folds: Vec<FoldResult> = groups
        .iter()
        .map(|g| {
            let (train_set, test_set) = data.split_by_group(g);
            assert!(!train_set.is_empty(), "fold {g} has an empty training set");
            assert!(!test_set.is_empty(), "fold {g} has an empty test set");
            let scaler = StandardScaler::fit(&train_set.features);
            let x = scaler.transform(&train_set.features);
            let net = train_scaled(&x, &train_set.targets, cfg);
            let preds = net.predict_batch(&scaler.transform(&test_set.features));
            FoldResult {
                group: g.clone(),
                mape: mape(&test_set.targets, &preds),
                samples: test_set.len(),
            }
        })
        .collect();
    LoocvReport { folds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::AdamConfig;
    use crate::linalg::Matrix;
    use crate::nn::{Activation, NetConfig};

    /// Synthetic multi-group dataset where each group shares the same
    /// underlying function, so LOOCV should generalise well.
    fn synth() -> Dataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for g in 0..5 {
            for i in 0..40 {
                let a = ((i + g * 3) as f64 * 0.21).sin();
                let b = (i as f64 * 0.13).cos();
                rows.push(vec![a, b]);
                y.push(1.0 + 0.4 * a - 0.3 * b);
                groups.push(format!("bench{g}"));
            }
        }
        Dataset::new(Matrix::from_rows(&rows), y, groups)
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            net: NetConfig {
                layer_sizes: vec![2, 5, 5, 1],
                hidden_activation: Activation::ReLU,
                seed: 3,
            },
            adam: AdamConfig::default(),
            epochs: 15,
            shuffle_seed: 4,
        }
    }

    #[test]
    fn one_fold_per_group() {
        let data = synth();
        let report = loocv_mape(&data, &cfg());
        assert_eq!(report.folds.len(), 5);
        let names: Vec<&str> = report.folds.iter().map(|f| f.group.as_str()).collect();
        assert_eq!(
            names,
            vec!["bench0", "bench1", "bench2", "bench3", "bench4"]
        );
        assert!(report.folds.iter().all(|f| f.samples == 40));
    }

    #[test]
    fn generalises_on_shared_function() {
        let data = synth();
        let report = loocv_mape(&data, &cfg());
        assert!(
            report.mean_mape() < 10.0,
            "mean MAPE {}",
            report.mean_mape()
        );
        for f in &report.folds {
            assert!(f.mape.is_finite());
        }
    }

    #[test]
    fn best_and_worst_are_consistent() {
        let data = synth();
        let report = loocv_mape(&data, &cfg());
        let best = report.best().unwrap().mape;
        let worst = report.worst().unwrap().mape;
        assert!(best <= worst);
        assert!(report.mean_mape() >= best && report.mean_mape() <= worst);
    }

    #[test]
    fn fold_lookup() {
        let data = synth();
        let report = loocv_mape(&data, &cfg());
        assert!(report.fold("bench2").is_some());
        assert!(report.fold("nope").is_none());
    }

    /// Golden FNV-1a hash over every fold's group name, sample count and
    /// MAPE bits. It pins the whole fold path: scaling, training and the
    /// held-out predictions.
    #[test]
    fn fold_mapes_are_bit_identical_to_golden() {
        let report = loocv_mape(&synth(), &cfg());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for f in &report.folds {
            eat(f.group.as_bytes());
            eat(&(f.samples as u64).to_le_bytes());
            eat(&f.mape.to_bits().to_le_bytes());
        }
        assert_eq!(h, 0x263c_1111_58f3_5240, "fold MAPE hash {h:#x}");
    }

    #[test]
    fn deterministic_across_runs() {
        let data = synth();
        let a = loocv_mape(&data, &cfg());
        let b = loocv_mape(&data, &cfg());
        for (fa, fb) in a.folds.iter().zip(&b.folds) {
            assert_eq!(fa.mape, fb.mape, "fold {} differs", fa.group);
        }
    }
}
