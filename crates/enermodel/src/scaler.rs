//! Feature standardisation.
//!
//! The paper standardises and centres the nine network inputs "by removing
//! the mean and scaling to unit variance", with the statistics determined
//! from the *training* set only (Section IV-C). [`StandardScaler`] captures
//! exactly that: fit on training data, then applied unchanged to test data.

use serde::{Deserialize, Serialize};

use crate::linalg::Matrix;

/// Per-column z-scoring transform (`(x - mean) / std`).
///
/// Columns with zero variance are centred but not scaled (divisor 1.0), so
/// the transform never produces NaNs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learn column means and standard deviations from `x`.
    pub fn fit(x: &Matrix) -> Self {
        let means = x.col_means();
        let stds = x
            .col_stds()
            .into_iter()
            .map(|s| if s < 1e-12 { 1.0 } else { s })
            .collect();
        Self { means, stds }
    }

    /// Column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Column scale factors.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Transform a matrix (rows are observations).
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.means.len(), "feature count mismatch");
        Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            (x[(r, c)] - self.means[c]) / self.stds[c]
        })
    }

    /// Transform a single feature row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "feature count mismatch");
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Invert the transform on a matrix.
    pub fn inverse_transform(&self, z: &Matrix) -> Matrix {
        assert_eq!(z.cols(), self.means.len(), "feature count mismatch");
        Matrix::from_fn(z.rows(), z.cols(), |r, c| {
            z[(r, c)] * self.stds[c] + self.means[c]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_zero_mean_unit_variance() {
        let x = Matrix::from_rows(&[
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ]);
        let sc = StandardScaler::fit(&x);
        let z = sc.transform(&x);
        let means = z.col_means();
        let stds = z.col_stds();
        for m in means {
            assert!(m.abs() < 1e-12, "mean {m}");
        }
        for s in stds {
            assert!((s - 1.0).abs() < 1e-12, "std {s}");
        }
    }

    #[test]
    fn constant_column_is_centred_not_scaled() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0], vec![7.0]]);
        let sc = StandardScaler::fit(&x);
        let z = sc.transform(&x);
        for r in 0..3 {
            assert_eq!(z[(r, 0)], 0.0);
            assert!(z[(r, 0)].is_finite());
        }
    }

    #[test]
    fn inverse_round_trips() {
        let x = Matrix::from_rows(&[vec![1.5, -2.0], vec![0.0, 4.0], vec![9.0, 1.0]]);
        let sc = StandardScaler::fit(&x);
        let back = sc.inverse_transform(&sc.transform(&x));
        assert!(x.max_abs_diff(&back) < 1e-12);
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 8.0], vec![5.0, 2.0]]);
        let sc = StandardScaler::fit(&x);
        let z = sc.transform(&x);
        let mut row = x.row(1).to_vec();
        sc.transform_row(&mut row);
        assert_eq!(row, z.row(1));
    }

    #[test]
    fn applies_training_stats_to_unseen_data() {
        let train = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let sc = StandardScaler::fit(&train); // mean 5, std 5
        let test = Matrix::from_rows(&[vec![15.0]]);
        let z = sc.transform(&test);
        assert!((z[(0, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn mismatched_width_panics() {
        let sc = StandardScaler::fit(&Matrix::from_rows(&[vec![1.0, 2.0]]));
        let _ = sc.transform(&Matrix::from_rows(&[vec![1.0]]));
    }

    #[test]
    fn serde_round_trip() {
        let sc = StandardScaler::fit(&Matrix::from_rows(&[vec![1.0, 2.0], vec![7.0, 10.0]]));
        let s = serde_json::to_string(&sc).unwrap();
        let back: StandardScaler = serde_json::from_str(&s).unwrap();
        assert_eq!(sc, back);
    }
}
