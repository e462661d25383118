//! Dense row-major matrices over `f64` and [`Complex64`].
//!
//! Sized for the QISMET workloads: Hamiltonians up to a few hundred rows,
//! density matrices up to `2^8 x 2^8`, and tiny chemistry matrices. All
//! operations are straightforward `O(n^3)`/`O(n^2)` loops — no BLAS.

// Dense index arithmetic reads clearest with explicit loop indices; the
// iterator rewrites clippy suggests obscure the row/column structure.
#![allow(clippy::needless_range_loop, clippy::assign_op_pattern)]

use crate::complex::Complex64;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Error produced by matrix constructors and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The data length does not match `rows * cols`.
    BadShape {
        /// Requested rows.
        rows: usize,
        /// Requested cols.
        cols: usize,
        /// Provided buffer length.
        len: usize,
    },
    /// Two operands have incompatible dimensions.
    DimMismatch {
        /// Left operand shape.
        left: (usize, usize),
        /// Right operand shape.
        right: (usize, usize),
    },
    /// A square matrix was required.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// The matrix is numerically singular.
    Singular,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::BadShape { rows, cols, len } => write!(
                f,
                "buffer of length {len} cannot form a {rows}x{cols} matrix"
            ),
            MatrixError::DimMismatch { left, right } => write!(
                f,
                "dimension mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MatrixError::NotSquare { shape } => {
                write!(f, "expected square matrix, got {}x{}", shape.0, shape.1)
            }
            MatrixError::Singular => write!(f, "matrix is numerically singular"),
        }
    }
}

impl std::error::Error for MatrixError {}

macro_rules! impl_matrix_common {
    ($name:ident, $elem:ty, $zero:expr, $one:expr) => {
        impl $name {
            /// Creates a matrix filled with zeros.
            pub fn zeros(rows: usize, cols: usize) -> Self {
                $name {
                    rows,
                    cols,
                    data: vec![$zero; rows * cols],
                }
            }

            /// Creates an identity matrix of size `n`.
            pub fn identity(n: usize) -> Self {
                let mut m = Self::zeros(n, n);
                for i in 0..n {
                    m.data[i * n + i] = $one;
                }
                m
            }

            /// Creates a matrix from a row-major buffer.
            ///
            /// # Errors
            ///
            /// Returns [`MatrixError::BadShape`] if `data.len() != rows * cols`.
            pub fn from_vec(
                rows: usize,
                cols: usize,
                data: Vec<$elem>,
            ) -> Result<Self, MatrixError> {
                if data.len() != rows * cols {
                    return Err(MatrixError::BadShape {
                        rows,
                        cols,
                        len: data.len(),
                    });
                }
                Ok($name { rows, cols, data })
            }

            /// Creates a matrix from nested row slices (convenient in tests).
            ///
            /// # Panics
            ///
            /// Panics if the rows are ragged.
            pub fn from_rows(rows: &[&[$elem]]) -> Self {
                let r = rows.len();
                let c = if r == 0 { 0 } else { rows[0].len() };
                let mut data = Vec::with_capacity(r * c);
                for row in rows {
                    assert_eq!(row.len(), c, "ragged rows");
                    data.extend_from_slice(row);
                }
                $name {
                    rows: r,
                    cols: c,
                    data,
                }
            }

            /// Number of rows.
            #[inline]
            pub fn rows(&self) -> usize {
                self.rows
            }

            /// Number of columns.
            #[inline]
            pub fn cols(&self) -> usize {
                self.cols
            }

            /// Shape as `(rows, cols)`.
            #[inline]
            pub fn shape(&self) -> (usize, usize) {
                (self.rows, self.cols)
            }

            /// Returns `true` for a square matrix.
            #[inline]
            pub fn is_square(&self) -> bool {
                self.rows == self.cols
            }

            /// Immutable element access.
            ///
            /// # Panics
            ///
            /// Panics if out of bounds.
            #[inline]
            pub fn at(&self, r: usize, c: usize) -> $elem {
                self.data[r * self.cols + c]
            }

            /// Sets one element.
            ///
            /// # Panics
            ///
            /// Panics if out of bounds.
            #[inline]
            pub fn set(&mut self, r: usize, c: usize, v: $elem) {
                self.data[r * self.cols + c] = v;
            }

            /// Row-major backing slice.
            #[inline]
            pub fn as_slice(&self) -> &[$elem] {
                &self.data
            }

            /// One row as a slice.
            ///
            /// # Panics
            ///
            /// Panics if `r` is out of bounds.
            #[inline]
            pub fn row(&self, r: usize) -> &[$elem] {
                &self.data[r * self.cols..(r + 1) * self.cols]
            }

            fn check_same_shape(&self, other: &Self) -> Result<(), MatrixError> {
                if self.shape() != other.shape() {
                    return Err(MatrixError::DimMismatch {
                        left: self.shape(),
                        right: other.shape(),
                    });
                }
                Ok(())
            }

            /// Shape-checked matrix product.
            ///
            /// # Errors
            ///
            /// Returns [`MatrixError::DimMismatch`] if `self.cols != rhs.rows`.
            pub fn matmul(&self, rhs: &Self) -> Result<Self, MatrixError> {
                if self.cols != rhs.rows {
                    return Err(MatrixError::DimMismatch {
                        left: self.shape(),
                        right: rhs.shape(),
                    });
                }
                let mut out = Self::zeros(self.rows, rhs.cols);
                for i in 0..self.rows {
                    for k in 0..self.cols {
                        let aik = self.at(i, k);
                        let lhs_row = i * rhs.cols;
                        let rhs_row = k * rhs.cols;
                        for j in 0..rhs.cols {
                            out.data[lhs_row + j] =
                                out.data[lhs_row + j] + aik * rhs.data[rhs_row + j];
                        }
                    }
                }
                Ok(out)
            }

            /// Kronecker (tensor) product `self (x) rhs`.
            pub fn kron(&self, rhs: &Self) -> Self {
                let rows = self.rows * rhs.rows;
                let cols = self.cols * rhs.cols;
                let mut out = Self::zeros(rows, cols);
                for i in 0..self.rows {
                    for j in 0..self.cols {
                        let a = self.at(i, j);
                        for k in 0..rhs.rows {
                            for l in 0..rhs.cols {
                                out.set(i * rhs.rows + k, j * rhs.cols + l, a * rhs.at(k, l));
                            }
                        }
                    }
                }
                out
            }

            /// Trace of a square matrix.
            ///
            /// # Panics
            ///
            /// Panics if the matrix is not square.
            pub fn trace(&self) -> $elem {
                assert!(self.is_square(), "trace requires a square matrix");
                let mut t = $zero;
                for i in 0..self.rows {
                    t = t + self.at(i, i);
                }
                t
            }

            /// Scales every element by a real factor.
            pub fn scaled(&self, k: f64) -> Self {
                let mut out = self.clone();
                for v in &mut out.data {
                    *v = *v * k;
                }
                out
            }
        }

        impl Add for &$name {
            type Output = $name;
            fn add(self, rhs: &$name) -> $name {
                self.check_same_shape(rhs).expect("matrix add shape");
                let mut out = self.clone();
                for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
                    *o = *o + *r;
                }
                out
            }
        }

        impl Sub for &$name {
            type Output = $name;
            fn sub(self, rhs: &$name) -> $name {
                self.check_same_shape(rhs).expect("matrix sub shape");
                let mut out = self.clone();
                for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
                    *o = *o - *r;
                }
                out
            }
        }

        impl Mul for &$name {
            type Output = $name;
            fn mul(self, rhs: &$name) -> $name {
                self.matmul(rhs).expect("matrix mul shape")
            }
        }
    };
}

/// Dense row-major real matrix.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::RMatrix;
/// let a = RMatrix::identity(3);
/// let b = a.scaled(2.0);
/// assert_eq!((&a * &b).trace(), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl_matrix_common!(RMatrix, f64, 0.0, 1.0);

impl RMatrix {
    /// Transpose.
    pub fn transpose(&self) -> RMatrix {
        let mut out = RMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Mutable row-major backing slice (the eigensolvers' in-place sweeps).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns `true` if `|a - b| <= tol` element-wise (same shape required).
    pub fn approx_eq(&self, other: &RMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            let base = i * self.cols;
            for j in 0..self.cols {
                acc += self.data[base + j] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Symmetrizes in place: `A <- (A + A^T) / 2`. Useful to clean up
    /// round-off drift before eigensolves.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self.at(i, j) + self.at(j, i));
                self.set(i, j, m);
                self.set(j, i, m);
            }
        }
    }
}

/// Dense row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::{CMatrix, Complex64};
/// let x = CMatrix::from_rows(&[
///     &[Complex64::ZERO, Complex64::ONE],
///     &[Complex64::ONE, Complex64::ZERO],
/// ]);
/// assert!(x.is_hermitian(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl_matrix_common!(CMatrix, Complex64, Complex64::ZERO, Complex64::ONE);

impl CMatrix {
    /// Conjugate transpose (adjoint).
    pub fn adjoint(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.at(i, j).conj());
            }
        }
        out
    }

    /// Plain transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        out
    }

    /// Real part as an [`RMatrix`].
    pub fn real_part(&self) -> RMatrix {
        let mut out = RMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(i, j, self.at(i, j).re);
            }
        }
        out
    }

    /// Imaginary part as an [`RMatrix`].
    pub fn imag_part(&self) -> RMatrix {
        let mut out = RMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(i, j, self.at(i, j).im);
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Checks Hermiticity within an absolute tolerance.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            if self.at(i, i).im.abs() > tol {
                return false;
            }
            for j in (i + 1)..self.cols {
                if !self.at(i, j).approx_eq(self.at(j, i).conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks unitarity (`U^dagger U = I`) within an absolute tolerance.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.adjoint().matmul(self).expect("square");
        let id = CMatrix::identity(self.rows);
        prod.approx_eq(&id, tol)
    }

    /// Returns `true` if `|a - b| <= tol` element-wise (same shape required).
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.cols, "matvec dimension");
        let mut out = vec![Complex64::ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = Complex64::ZERO;
            let base = i * self.cols;
            for j in 0..self.cols {
                acc += self.data[base + j] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Scales by a complex factor.
    pub fn scaled_c(&self, k: Complex64) -> CMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = *v * k;
        }
        out
    }

    /// The expectation value `<v| A |v>`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn expectation(&self, v: &[Complex64]) -> Complex64 {
        let av = self.matvec(v);
        v.iter()
            .zip(av.iter())
            .map(|(vi, avi)| vi.conj() * *avi)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = RMatrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn matmul_known_product() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = RMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let expect = RMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert_eq!(&a * &b, expect);
    }

    #[test]
    fn matmul_shape_error() {
        let a = RMatrix::zeros(2, 3);
        let b = RMatrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(MatrixError::DimMismatch { .. })));
    }

    #[test]
    fn from_vec_shape_error() {
        assert!(matches!(
            RMatrix::from_vec(2, 2, vec![1.0; 3]),
            Err(MatrixError::BadShape { .. })
        ));
    }

    #[test]
    fn kron_of_identities() {
        let i2 = RMatrix::identity(2);
        let k = i2.kron(&i2);
        assert_eq!(k, RMatrix::identity(4));
    }

    #[test]
    fn kron_pauli_xz() {
        let x = RMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let z = RMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
        let xz = x.kron(&z);
        // X (x) Z has blocks [[0, Z],[Z, 0]].
        assert_eq!(xz.at(0, 2), 1.0);
        assert_eq!(xz.at(1, 3), -1.0);
        assert_eq!(xz.at(2, 0), 1.0);
        assert_eq!(xz.at(3, 1), -1.0);
        assert_eq!(xz.at(0, 0), 0.0);
    }

    #[test]
    fn complex_adjoint_and_hermiticity() {
        let y = CMatrix::from_rows(&[&[c(0.0, 0.0), c(0.0, -1.0)], &[c(0.0, 1.0), c(0.0, 0.0)]]);
        assert!(y.is_hermitian(1e-15));
        assert!(y.is_unitary(1e-15));
        let yh = y.adjoint();
        assert!(y.approx_eq(&yh, 1e-15));
    }

    #[test]
    fn expectation_of_pauli_z() {
        let z = CMatrix::from_rows(&[&[c(1.0, 0.0), c(0.0, 0.0)], &[c(0.0, 0.0), c(-1.0, 0.0)]]);
        let zero = [c(1.0, 0.0), c(0.0, 0.0)];
        let one = [c(0.0, 0.0), c(1.0, 0.0)];
        let plus = [c(std::f64::consts::FRAC_1_SQRT_2, 0.0); 2];
        assert!((z.expectation(&zero).re - 1.0).abs() < 1e-15);
        assert!((z.expectation(&one).re + 1.0).abs() < 1e-15);
        assert!(z.expectation(&plus).re.abs() < 1e-15);
    }

    #[test]
    fn trace_and_scale() {
        let a = RMatrix::from_rows(&[&[1.0, 5.0], &[9.0, 3.0]]);
        assert_eq!(a.trace(), 4.0);
        assert_eq!(a.scaled(2.0).trace(), 8.0);
    }

    #[test]
    fn transpose_involution() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetrize_cleans_asymmetry() {
        let mut a = RMatrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        a.symmetrize();
        assert_eq!(a.at(0, 1), 3.0);
        assert_eq!(a.at(1, 0), 3.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = [5.0, 6.0];
        assert_eq!(a.matvec(&v), vec![17.0, 39.0]);
    }

    #[test]
    fn real_imag_split_roundtrip() {
        let m = CMatrix::from_rows(&[&[c(1.0, 2.0), c(3.0, -4.0)]]);
        let re = m.real_part();
        let im = m.imag_part();
        assert_eq!(re.at(0, 1), 3.0);
        assert_eq!(im.at(0, 1), -4.0);
    }
}
