//! Minimal dense linear algebra sized for the paper's workloads.
//!
//! The counter-selection algorithm regresses at most a few dozen predictors
//! over a few hundred observations, and the neural network is 9–5–5–1, so a
//! straightforward row-major `Vec<f64>` matrix with partial-pivot Gaussian
//! elimination is both sufficient and easy to audit. No `unsafe`, no BLAS.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Convenience alias: a column vector is just a `Vec<f64>` in this crate.
pub type Vector = Vec<f64>;

/// Row-major dense matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "{}]", if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Create a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow one row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy one column out.
    pub fn col(&self, c: usize) -> Vector {
        assert!(
            c < self.cols,
            "col {c} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec(&self, v: &[f64]) -> Vector {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        self.data
            .chunks_exact(self.cols.max(1))
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Matrix product `self * rhs`.
    ///
    /// Sizes here are tiny (≤ a few hundred), so the classic i-k-j loop with
    /// a hoisted `lhs[i][k]` is plenty fast and keeps the inner loop
    /// auto-vectorisable.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Select a subset of columns (in the given order) into a new matrix.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            for (j, &c) in cols.iter().enumerate() {
                out[(r, j)] = self[(r, c)];
            }
        }
        out
    }

    /// Horizontally concatenate `self | rhs`.
    pub fn hconcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hconcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Maximum absolute element difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Solve the linear system `self * x = b` by Gaussian elimination with
    /// partial pivoting. Returns `None` if the matrix is (numerically)
    /// singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vector> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.clone();
        let mut x: Vector = b.to_vec();

        for col in 0..n {
            // Partial pivot: find the row with the largest magnitude entry.
            let mut pivot = col;
            let mut best = a[(col, col)].abs();
            for r in col + 1..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    let tmp = a[(col, c)];
                    a[(col, c)] = a[(pivot, c)];
                    a[(pivot, c)] = tmp;
                }
                x.swap(col, pivot);
            }
            // Eliminate below.
            let diag = a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] / diag;
                if factor == 0.0 {
                    continue;
                }
                a[(r, col)] = 0.0;
                for c in col + 1..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= factor * v;
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in col + 1..n {
                acc -= a[(col, c)] * x[c];
            }
            x[col] = acc / a[(col, col)];
        }
        Some(x)
    }

    /// Mean of every column.
    pub fn col_means(&self) -> Vector {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, v) in means.iter_mut().zip(self.row(r)) {
                *m += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Population standard deviation of every column.
    pub fn col_stds(&self) -> Vector {
        let means = self.col_means();
        let mut vars = vec![0.0; self.cols];
        for r in 0..self.rows {
            for ((v, m), x) in vars.iter_mut().zip(&means).zip(self.row(r)) {
                let d = x - m;
                *v += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        vars.into_iter().map(|v| (v / n).sqrt()).collect()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance of a slice.
pub fn variance(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 2);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0, 2.0], vec![0.5, 3.0, -2.0]]);
        let v = vec![2.0, 1.0, 0.5];
        let got = a.matvec(&v);
        assert!((got[0] - 2.0).abs() < 1e-12);
        assert!((got[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_simple_system() {
        // x + y = 3; 2x - y = 0 -> x = 1, y = 2
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, -1.0]]);
        let x = a.solve(&[3.0, 0.0]).expect("solvable");
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[5.0, 7.0]).expect("solvable with pivoting");
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn select_columns_and_hconcat() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[vec![3.0, 1.0], vec![6.0, 4.0]]));
        let h = s.hconcat(&m.select_columns(&[1]));
        assert_eq!(h.row(0), &[3.0, 1.0, 2.0]);
    }

    #[test]
    fn col_stats() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        let means = m.col_means();
        assert_eq!(means, vec![2.0, 10.0]);
        let stds = m.col_stds();
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert_eq!(stds[1], 0.0);
    }

    #[test]
    fn scalar_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!((&a + &b).row(0), &[4.0, 6.0]);
        assert_eq!((&b - &a).row(0), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).row(0), &[2.0, 4.0]);
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 6.0]]);
        assert!((a.max_abs_diff(&b) - 2.0).abs() < 1e-12);
    }
}
