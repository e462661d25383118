//! Eigensolvers for the small dense matrices used across the workspace.
//!
//! * [`sym_eig`] — cyclic Jacobi for real symmetric matrices.
//! * [`herm_eig`] — complex Hermitian eigensolver via the standard real
//!   `2n x 2n` embedding `[[X, -Y], [Y, X]]` of `A = X + iY`.
//! * [`generalized_sym_eig`] — `F C = S C e` through symmetric (Loewdin)
//!   orthogonalization, as needed by the restricted Hartree-Fock solver.
//!
//! Matrices in this project top out around `128 x 128` real (6-qubit
//! Hamiltonians embedded to `2n`), for which Jacobi is accurate and fast
//! enough while being simple to verify.

use crate::complex::Complex64;
use crate::matrix::{CMatrix, MatrixError, RMatrix};

/// Result of a symmetric/Hermitian eigendecomposition.
///
/// Eigenvalues are sorted ascending; `vectors.column(k)` (i.e. the k-th
/// column) is the eigenvector for `values[k]`.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors stored column-wise.
    pub vectors: RMatrix,
}

/// Result of a complex Hermitian eigendecomposition.
#[derive(Debug, Clone)]
pub struct HermEig {
    /// Eigenvalues, ascending (all real for Hermitian input).
    pub values: Vec<f64>,
    /// Eigenvectors stored column-wise.
    pub vectors: CMatrix,
}

/// Error from eigensolvers.
#[derive(Debug, Clone, PartialEq)]
pub enum EigError {
    /// Input must be square.
    NotSquare {
        /// Offending shape.
        shape: (usize, usize),
    },
    /// Input must be (numerically) symmetric / Hermitian.
    NotSymmetric,
    /// Jacobi sweep limit exceeded before reaching tolerance.
    NoConvergence {
        /// Residual off-diagonal magnitude when the solver gave up.
        offdiag: f64,
    },
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NotSquare { shape } => {
                write!(
                    f,
                    "eigensolver requires square input, got {}x{}",
                    shape.0, shape.1
                )
            }
            EigError::NotSymmetric => write!(f, "matrix is not symmetric/Hermitian"),
            EigError::NoConvergence { offdiag } => {
                write!(f, "jacobi failed to converge (offdiag {offdiag:e})")
            }
        }
    }
}

impl std::error::Error for EigError {}

impl From<MatrixError> for EigError {
    fn from(e: MatrixError) -> Self {
        match e {
            MatrixError::NotSquare { shape } => EigError::NotSquare { shape },
            _ => EigError::NotSymmetric,
        }
    }
}

const MAX_SWEEPS: usize = 100;
const SYM_TOL: f64 = 1e-9;

/// Eigendecomposition of a real symmetric matrix by cyclic Jacobi rotations.
///
/// # Errors
///
/// * [`EigError::NotSquare`] for non-square input.
/// * [`EigError::NotSymmetric`] if `|A - A^T|` exceeds an internal tolerance.
/// * [`EigError::NoConvergence`] if the sweep budget is exhausted.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::{sym_eig, RMatrix};
/// let a = RMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = sym_eig(&a).unwrap();
/// assert!((eig.values[0] - 1.0).abs() < 1e-10);
/// assert!((eig.values[1] - 3.0).abs() < 1e-10);
/// ```
pub fn sym_eig(a: &RMatrix) -> Result<SymEig, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            if (a.at(i, j) - a.at(j, i)).abs() > SYM_TOL {
                return Err(EigError::NotSymmetric);
            }
        }
    }

    let mut m = a.clone();
    m.symmetrize();
    let mut v = RMatrix::identity(n);
    let scale = m.frobenius_norm().max(1.0);
    let tol = 1e-14 * scale;

    for _sweep in 0..MAX_SWEEPS {
        let off = m.max_offdiag_abs();
        if off <= tol {
            return Ok(sorted_sym(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.at(p, q);
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = m.at(p, p);
                let aqq = m.at(q, q);
                // Rotation angle that zeroes element (p, q).
                let theta = 0.5 * (2.0 * apq).atan2(aqq - app);
                let c = theta.cos();
                let s = theta.sin();
                // Update rows/columns p and q of M = J^T M J.
                for k in 0..n {
                    let mkp = m.at(k, p);
                    let mkq = m.at(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.at(p, k);
                    let mqk = m.at(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate eigenvectors: V = V J.
                for k in 0..n {
                    let vkp = v.at(k, p);
                    let vkq = v.at(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let off = m.max_offdiag_abs();
    if off <= 1e-8 * scale {
        return Ok(sorted_sym(m, v));
    }
    Err(EigError::NoConvergence { offdiag: off })
}

fn sorted_sym(m: RMatrix, v: RMatrix) -> SymEig {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| {
        m.at(i, i)
            .partial_cmp(&m.at(j, j))
            .expect("finite eigenvalues")
    });
    let mut values = Vec::with_capacity(n);
    let mut vectors = RMatrix::zeros(n, n);
    for (new_col, &old_col) in idx.iter().enumerate() {
        values.push(m.at(old_col, old_col));
        for r in 0..n {
            vectors.set(r, new_col, v.at(r, old_col));
        }
    }
    SymEig { values, vectors }
}

/// Eigendecomposition of a complex Hermitian matrix.
///
/// Implemented by embedding `A = X + iY` into the real symmetric
/// `[[X, -Y], [Y, X]]` whose spectrum is that of `A` doubled; eigenvalues are
/// deduplicated by taking every second entry of the sorted embedded spectrum
/// and the complex eigenvector is recovered as `u + iv` from the embedded
/// vector `(u; v)`.
///
/// # Errors
///
/// * [`EigError::NotSquare`] / [`EigError::NotSymmetric`] for bad input.
/// * [`EigError::NoConvergence`] if the underlying Jacobi solver stalls.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::{herm_eig, CMatrix, Complex64};
/// // Pauli Y has eigenvalues -1 and +1.
/// let y = CMatrix::from_rows(&[
///     &[Complex64::ZERO, Complex64::new(0.0, -1.0)],
///     &[Complex64::new(0.0, 1.0), Complex64::ZERO],
/// ]);
/// let eig = herm_eig(&y).unwrap();
/// assert!((eig.values[0] + 1.0).abs() < 1e-10);
/// assert!((eig.values[1] - 1.0).abs() < 1e-10);
/// ```
pub fn herm_eig(a: &CMatrix) -> Result<HermEig, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare { shape: a.shape() });
    }
    if !a.is_hermitian(SYM_TOL) {
        return Err(EigError::NotSymmetric);
    }
    let n = a.rows();
    let x = a.real_part();
    let y = a.imag_part();
    // M = [[X, -Y], [Y, X]]
    let mut m = RMatrix::zeros(2 * n, 2 * n);
    for i in 0..n {
        for j in 0..n {
            m.set(i, j, x.at(i, j));
            m.set(i, j + n, -y.at(i, j));
            m.set(i + n, j, y.at(i, j));
            m.set(i + n, j + n, x.at(i, j));
        }
    }
    let emb = sym_eig(&m)?;
    // Every eigenvalue of A appears twice; take indices 0, 2, 4, ...
    let mut values = Vec::with_capacity(n);
    let mut vectors = CMatrix::zeros(n, n);
    for k in 0..n {
        let src = 2 * k;
        values.push(emb.values[src]);
        for r in 0..n {
            let u = emb.vectors.at(r, src);
            let w = emb.vectors.at(r + n, src);
            vectors.set(r, k, Complex64::new(u, w));
        }
    }
    Ok(HermEig { values, vectors })
}

/// Smallest eigenvalue of a complex Hermitian matrix (the VQE target).
///
/// # Errors
///
/// Same as [`herm_eig`].
pub fn ground_energy(a: &CMatrix) -> Result<f64, EigError> {
    Ok(herm_eig(a)?.values[0])
}

/// Solves the generalized symmetric eigenproblem `F C = S C e` with `S`
/// positive definite, via Loewdin orthogonalization `S^{-1/2}`.
///
/// Returns eigenvalues ascending and coefficient columns `C` in the original
/// (non-orthogonal) basis. Used by the restricted Hartree-Fock solver where
/// `F` is the Fock matrix and `S` the overlap matrix.
///
/// # Errors
///
/// Propagates eigensolver failures; also returns [`EigError::NotSymmetric`]
/// if `S` is not positive definite (non-positive eigenvalue).
pub fn generalized_sym_eig(f: &RMatrix, s: &RMatrix) -> Result<SymEig, EigError> {
    let se = sym_eig(s)?;
    let n = s.rows();
    if se.values.iter().any(|&v| v <= 0.0) {
        return Err(EigError::NotSymmetric);
    }
    // S^{-1/2} = U diag(1/sqrt(lambda)) U^T
    let mut d = RMatrix::zeros(n, n);
    for i in 0..n {
        d.set(i, i, 1.0 / se.values[i].sqrt());
    }
    let s_inv_half = &(&se.vectors * &d) * &se.vectors.transpose();
    let f_prime = &(&s_inv_half * f) * &s_inv_half;
    let mut fp = f_prime.clone();
    fp.symmetrize();
    let fe = sym_eig(&fp)?;
    let c = &s_inv_half * &fe.vectors;
    Ok(SymEig {
        values: fe.values,
        vectors: c,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn diagonal_matrix_spectrum() {
        let a = RMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] + 2.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_known_eigs() {
        // [[2,1],[1,2]] -> {1, 3}
        let a = RMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        // Eigenvector for 1 is (1,-1)/sqrt(2) up to sign.
        let v0 = (e.vectors.at(0, 0), e.vectors.at(1, 0));
        assert!((v0.0 + v0.1).abs() < 1e-10);
    }

    #[test]
    fn residual_is_small_for_random_symmetric() {
        // Deterministic pseudo-random symmetric matrix.
        let n = 12;
        let mut a = RMatrix::zeros(n, n);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        let e = sym_eig(&a).unwrap();
        // Check A v = lambda v for each pair.
        for k in 0..n {
            let v: Vec<f64> = (0..n).map(|r| e.vectors.at(r, k)).collect();
            let av = a.matvec(&v);
            for r in 0..n {
                assert!(
                    (av[r] - e.values[k] * v[r]).abs() < 1e-8,
                    "residual too large at ({r},{k})"
                );
            }
        }
        // Trace is preserved.
        let tr: f64 = e.values.iter().sum();
        assert!((tr - a.trace()).abs() < 1e-8);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = RMatrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.2], &[0.5, -0.2, 1.0]]);
        let e = sym_eig(&a).unwrap();
        let vt_v = &e.vectors.transpose() * &e.vectors;
        assert!(vt_v.approx_eq(&RMatrix::identity(3), 1e-10));
    }

    #[test]
    fn hermitian_pauli_y() {
        let y = CMatrix::from_rows(&[&[c(0.0, 0.0), c(0.0, -1.0)], &[c(0.0, 1.0), c(0.0, 0.0)]]);
        let e = herm_eig(&y).unwrap();
        assert!((e.values[0] + 1.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Verify A v = lambda v in complex arithmetic.
        for k in 0..2 {
            let v: Vec<Complex64> = (0..2).map(|r| e.vectors.at(r, k)).collect();
            let av = y.matvec(&v);
            for r in 0..2 {
                assert!(av[r].approx_eq(v[r] * e.values[k], 1e-9));
            }
        }
    }

    #[test]
    fn rejects_nonsymmetric() {
        let a = RMatrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]]);
        assert_eq!(sym_eig(&a).unwrap_err(), EigError::NotSymmetric);
    }

    #[test]
    fn rejects_nonsquare() {
        let a = RMatrix::zeros(2, 3);
        assert!(matches!(sym_eig(&a), Err(EigError::NotSquare { .. })));
    }

    #[test]
    fn generalized_problem_reduces_to_standard_for_identity_overlap() {
        let f = RMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let s = RMatrix::identity(2);
        let e = generalized_sym_eig(&f, &s).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn generalized_problem_with_overlap() {
        // F C = S C e with S = [[1, 0.5],[0.5, 1]], F = [[1,0],[0,2]].
        let f = RMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let s = RMatrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]);
        let e = generalized_sym_eig(&f, &s).unwrap();
        // Verify F c = e S c for the lowest pair.
        let c0: Vec<f64> = (0..2).map(|r| e.vectors.at(r, 0)).collect();
        let fc = f.matvec(&c0);
        let sc = s.matvec(&c0);
        for r in 0..2 {
            assert!((fc[r] - e.values[0] * sc[r]).abs() < 1e-9);
        }
    }

    #[test]
    fn herm_eig_larger_random_matrix() {
        let n = 8;
        let mut a = CMatrix::zeros(n, n);
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for i in 0..n {
            let d = next();
            a.set(i, i, c(d, 0.0));
            for j in (i + 1)..n {
                let z = c(next(), next());
                a.set(i, j, z);
                a.set(j, i, z.conj());
            }
        }
        let e = herm_eig(&a).unwrap();
        for k in 0..n {
            let v: Vec<Complex64> = (0..n).map(|r| e.vectors.at(r, k)).collect();
            let av = a.matvec(&v);
            for r in 0..n {
                assert!(
                    av[r].approx_eq(v[r] * e.values[k], 1e-8),
                    "residual at ({r},{k})"
                );
            }
        }
        // Eigenvalues ascending.
        for k in 1..n {
            assert!(e.values[k] >= e.values[k - 1] - 1e-12);
        }
    }
}
