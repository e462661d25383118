//! Linear system solving via partial-pivot LU.
//!
//! Used by the second-order SPSA proposer to solve its preconditioned
//! Newton step. Its systems are parameter-count sized (tens of unknowns),
//! so a textbook LU is appropriate.

// Dense index arithmetic reads clearest with explicit loop indices; the
// iterator rewrites clippy suggests obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use crate::matrix::{MatrixError, RMatrix};

/// LU decomposition with partial pivoting: `P A = L U`.
#[derive(Debug, Clone)]
struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: RMatrix,
    /// Row permutation applied to the input.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`MatrixError::NotSquare`] for non-square input.
    /// * [`MatrixError::Singular`] if a pivot underflows.
    fn factor(a: &RMatrix) -> Result<Lu, MatrixError> {
        if !a.is_square() {
            return Err(MatrixError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Pivot selection.
            let mut pivot_row = col;
            let mut pivot_val = lu.at(col, col).abs();
            for r in (col + 1)..n {
                let v = lu.at(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(MatrixError::Singular);
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = lu.at(col, c);
                    lu.set(col, c, lu.at(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(col, pivot_row);
            }
            let inv_p = 1.0 / lu.at(col, col);
            for r in (col + 1)..n {
                let factor = lu.at(r, col) * inv_p;
                lu.set(r, col, factor);
                for c in (col + 1)..n {
                    let v = lu.at(r, c) - factor * lu.at(col, c);
                    lu.set(r, c, v);
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "rhs length");
        // Apply permutation, then forward/back substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu.at(i, j) * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu.at(i, j) * x[j];
            }
            x[i] = acc / self.lu.at(i, i);
        }
        x
    }
}

/// Solves `A x = b` for a single right-hand side.
///
/// # Errors
///
/// Propagates factorization failures ([`MatrixError::Singular`] etc.).
///
/// # Examples
///
/// ```
/// use qismet_mathkit::{solve, RMatrix};
/// let a = RMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
/// let x = solve(&a, &[2.0, 8.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// ```
pub fn solve(a: &RMatrix, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
    Ok(Lu::factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_2x2() {
        let a = RMatrix::from_rows(&[&[3.0, 2.0], &[1.0, 4.0]]);
        let x = solve(&a, &[7.0, 9.0]).unwrap();
        // 3x + 2y = 7; x + 4y = 9 => x = 1, y = 2.
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        let a = RMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(solve(&a, &[1.0, 2.0]).unwrap_err(), MatrixError::Singular);
    }

    #[test]
    fn non_square_rejected() {
        let a = RMatrix::zeros(2, 3);
        assert!(matches!(Lu::factor(&a), Err(MatrixError::NotSquare { .. })));
    }

    #[test]
    fn larger_random_system() {
        let n = 16;
        let mut a = RMatrix::zeros(n, n);
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, next());
            }
            // Diagonal dominance to guarantee non-singularity.
            let v = a.at(i, i);
            a.set(i, i, v + 4.0);
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let x = solve(&a, &b).unwrap();
        let ax = a.matvec(&x);
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-9);
        }
    }
}
