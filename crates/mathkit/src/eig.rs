//! Eigensolvers for the small dense matrices used across the workspace.
//!
//! * [`sym_eig`] — cyclic Jacobi for real symmetric matrices, with
//!   eigenvectors.
//! * [`herm_eig`] — eigenvalues of a complex Hermitian `A = X + iY`, via
//!   the standard real `2n x 2n` embedding `[[X, -Y], [Y, X]]`, or on `X`
//!   alone when `Y` is zero.
//! * [`generalized_sym_eig`] — `F C = S C e` through symmetric (Loewdin)
//!   orthogonalization, as needed by the restricted Hartree-Fock solver.
//!
//! One Jacobi loop serves all three. TFIM Hamiltonians are real, so a
//! 6-qubit one is solved on its `64 x 64` real part without eigenvectors,
//! in 2-3.5 ms on one core of a 2-vCPU host: about a tenth of the time the
//! `128 x 128` embedding with eigenvectors takes for the same bits.

use crate::matrix::{CMatrix, MatrixError, RMatrix};

/// Result of a real symmetric eigendecomposition.
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
    let mut m = symmetrized(a)?;
    let mut v = RMatrix::identity(m.rows());
    let scale = m.frobenius_norm().max(1.0);
    jacobi(&mut m, Some(&mut v), scale)?;
    Ok(sorted_sym(m, v))
}

/// Checks that `a` is square and symmetric within [`SYM_TOL`] and returns
/// `(A + A^T) / 2`.
fn symmetrized(a: &RMatrix) -> Result<RMatrix, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    let skew = |i: usize, j: usize| (a.at(i, j) - a.at(j, i)).abs();
    if (0..n).any(|i| (i + 1..n).any(|j| skew(i, j) > SYM_TOL)) {
        return Err(EigError::NotSymmetric);
    }
    let mut m = a.clone();
    m.symmetrize();
    Ok(m)
}

/// Cyclic Jacobi in place on the symmetric `m` until its largest
/// off-diagonal entry is at most `1e-14 * scale`; the diagonal then holds
/// the eigenvalues. When `v` is given, it accumulates the rotations
/// (`V = V J`).
fn jacobi(m: &mut RMatrix, mut v: Option<&mut RMatrix>, scale: f64) -> Result<(), EigError> {
    let n = m.rows();
    let m = m.as_mut_slice();
    let tol = 1e-14 * scale;
    for _sweep in 0..MAX_SWEEPS {
        if max_offdiag(m, n) <= tol {
            return Ok(());
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                // Rotation angle that zeroes element (p, q).
                let theta = 0.5 * (2.0 * apq).atan2(aqq - app);
                let c = theta.cos();
                let s = theta.sin();
                // M = J^T M J: columns p and q, then rows p and q.
                rotate_columns(m, n, p, q, c, s);
                let (head, tail) = m.split_at_mut(q * n);
                for (mpk, mqk) in head[p * n..(p + 1) * n].iter_mut().zip(&mut tail[..n]) {
                    rotate(mpk, mqk, c, s);
                }
                if let Some(v) = v.as_deref_mut() {
                    rotate_columns(v.as_mut_slice(), n, p, q, c, s);
                }
            }
        }
    }
    let off = max_offdiag(m, n);
    if off <= 1e-8 * scale {
        return Ok(());
    }
    Err(EigError::NoConvergence { offdiag: off })
}

/// `(x, y) <- (c x - s y, s x + c y)`.
fn rotate(x: &mut f64, y: &mut f64, c: f64, s: f64) {
    (*x, *y) = (c * *x - s * *y, s * *x + c * *y);
}

/// Rotates columns `p < q` of the row-major `n`-column `a`.
fn rotate_columns(a: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in a.chunks_exact_mut(n) {
        let (head, tail) = row.split_at_mut(q);
        rotate(&mut head[p], &mut tail[0], c, s);
    }
}

/// Largest |entry| off the diagonal of the row-major `n x n` `m` (the
/// convergence metric); diagonal entries sit at multiples of `n + 1`.
fn max_offdiag(m: &[f64], n: usize) -> f64 {
    let off = m.iter().enumerate().filter(|(k, _)| k % (n + 1) != 0);
    off.fold(0.0, |max: f64, (_, v)| max.max(v.abs()))
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

/// Eigenvalues of a complex Hermitian matrix, ascending.
///
/// `A = X + iY` is solved through the real symmetric embedding
/// `[[X, -Y], [Y, X]]`, whose spectrum is that of `A` doubled; every second
/// entry of its sorted spectrum is kept. When `Y` is all zero (every TFIM
/// Hamiltonian) the embedding is two copies of `X` with exact-zero cross
/// blocks, which Jacobi never rotates: both copies go through the same
/// rotations in the same order, so the solve runs on `X` alone and returns
/// the same bits. It keeps the embedding's tolerance: the Frobenius sum
/// over `X` taken twice.
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
/// let values = herm_eig(&y).unwrap();
/// assert!((values[0] + 1.0).abs() < 1e-10);
/// assert!((values[1] - 1.0).abs() < 1e-10);
/// ```
pub fn herm_eig(a: &CMatrix) -> Result<Vec<f64>, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare { shape: a.shape() });
    }
    if !a.is_hermitian(SYM_TOL) {
        return Err(EigError::NotSymmetric);
    }
    let n = a.rows();
    let mut x = a.real_part();
    // The solved matrix, its tolerance scale, and the stride that takes
    // each eigenvalue of `A` once from its sorted diagonal.
    let (mut m, scale, stride) = if a.as_slice().iter().all(|z| z.im == 0.0) {
        x.symmetrize();
        let twice = x.as_slice().iter().chain(x.as_slice());
        let scale = twice.map(|v| v * v).sum::<f64>().sqrt();
        (x, scale, 1)
    } else {
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
        let m = symmetrized(&m)?;
        let scale = m.frobenius_norm();
        (m, scale, 2)
    };
    jacobi(&mut m, None, scale.max(1.0))?;
    let mut values: Vec<f64> = (0..m.rows()).map(|i| m.at(i, i)).collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite eigenvalues"));
    Ok(values.into_iter().step_by(stride).collect())
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
    use crate::complex::Complex64;

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
        let values = herm_eig(&y).unwrap();
        assert_eq!(values.len(), 2);
        assert!((values[0] + 1.0).abs() < 1e-10, "{values:?}");
        assert!((values[1] - 1.0).abs() < 1e-10, "{values:?}");
    }

    #[test]
    fn degenerate_spectrum_is_repeated() {
        // 2 I takes the real path; a tiny imaginary off-diagonal forces the
        // embedding. Both have the one eigenvalue 2, twice.
        let two = CMatrix::identity(2).scaled(2.0);
        assert_eq!(herm_eig(&two).unwrap(), vec![2.0, 2.0]);
        let mut cplx = two.clone();
        cplx.set(0, 1, c(0.0, 1e-300));
        cplx.set(1, 0, c(0.0, -1e-300));
        let values = herm_eig(&cplx).unwrap();
        assert!(values.iter().all(|v| (v - 2.0).abs() < 1e-12), "{values:?}");
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
        let values = herm_eig(&a).unwrap();
        assert_eq!(values.len(), n);
        // Eigenvalues ascending.
        for k in 1..n {
            assert!(values[k] >= values[k - 1], "{values:?}");
        }
        // tr A = sum of eigenvalues and ||A||_F^2 = tr A^2 = sum of squares.
        let sum: f64 = values.iter().sum();
        assert!(
            (sum - a.trace().re).abs() < 1e-10,
            "{sum} vs {:?}",
            a.trace()
        );
        let squares: f64 = values.iter().map(|v| v * v).sum();
        let frob2 = a.frobenius_norm().powi(2);
        assert!((squares - frob2).abs() < 1e-10, "{squares} vs {frob2}");
    }

    /// The reference for the real shortcut: every second eigenvalue of the
    /// embedding `[[X, 0], [0, X]]` of real symmetric `x`, by `sym_eig`.
    fn block_embedding_values(x: &RMatrix) -> Vec<f64> {
        let n = x.rows();
        let mut m = RMatrix::zeros(2 * n, 2 * n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, x.at(i, j));
                m.set(i + n, j + n, x.at(i, j));
            }
        }
        sym_eig(&m).unwrap().values.into_iter().step_by(2).collect()
    }

    fn assert_real_shortcut_is_bitwise(a: &CMatrix, what: &str) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let got = bits(herm_eig(a).unwrap());
        let want = bits(block_embedding_values(&a.real_part()));
        assert_eq!(got, want, "{what}");
    }

    /// `H = -J sum Z_i Z_{i+1} - h sum X_i` on `n` spins, summed term by
    /// term like a Pauli-sum Hamiltonian.
    fn tfim(n: usize, j: f64, h: f64, periodic: bool) -> CMatrix {
        let z = CMatrix::from_rows(&[&[c(1.0, 0.0), c(0.0, 0.0)], &[c(0.0, 0.0), c(-1.0, 0.0)]]);
        let x = CMatrix::from_rows(&[&[c(0.0, 0.0), c(1.0, 0.0)], &[c(1.0, 0.0), c(0.0, 0.0)]]);
        let id = CMatrix::identity(2);
        let term = |ops: &[(usize, &CMatrix)]| {
            (0..n).fold(CMatrix::identity(1), |acc, q| {
                let op = ops.iter().find(|(site, _)| *site == q);
                acc.kron(op.map_or(&id, |(_, m)| *m))
            })
        };
        let mut m = CMatrix::zeros(1 << n, 1 << n);
        let couplings = if periodic { n } else { n - 1 };
        for i in 0..couplings {
            m = &m + &term(&[(i, &z), ((i + 1) % n, &z)]).scaled(-j);
        }
        for i in 0..n {
            m = &m + &term(&[(i, &x)]).scaled(-h);
        }
        m
    }

    #[test]
    fn real_shortcut_is_bitwise_on_tfim_hamiltonians() {
        for n in [2, 4, 5, 6] {
            for periodic in [false, true] {
                for (j, h) in [(1.0, 1.0), (0.05, 2.0), (2.0, 0.05)] {
                    let what = format!("n={n} periodic={periodic} J={j} h={h}");
                    assert_real_shortcut_is_bitwise(&tfim(n, j, h, periodic), &what);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn real_shortcut_is_bitwise_on_random_symmetric(
            n in 1usize..25,
            entries in proptest::collection::vec(-1.0f64..1.0, 300..301),
        ) {
            let mut a = CMatrix::zeros(n, n);
            let mut next = entries.into_iter();
            for i in 0..n {
                for j in i..n {
                    let v = c(next.next().unwrap(), 0.0);
                    a.set(i, j, v);
                    a.set(j, i, v);
                }
            }
            assert_real_shortcut_is_bitwise(&a, &format!("n={n}"));
        }
    }
}
