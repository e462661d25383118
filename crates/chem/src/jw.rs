//! Jordan-Wigner fermion-to-qubit mapping, with the small complex-weighted
//! Pauli algebra it needs.
//!
//! Ladder operators map as
//! `a_p = (X_p + i Y_p)/2 * Z_{p-1} ... Z_0` (and the conjugate for
//! `a^dag_p`), so products of ladder operators become sums of Pauli strings
//! with complex intermediate coefficients. A Hermitian molecular Hamiltonian
//! always lands on real coefficients, which we assert before handing back a
//! [`PauliSum`].

// Dense index arithmetic reads clearest with explicit loop indices; the
// iterator rewrites clippy suggests obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use qismet_mathkit::Complex64;
use qismet_qsim::{Pauli, PauliString, PauliSum};
use std::collections::BTreeMap;

/// Multiplies two single-qubit Paulis: returns `(phase, product)` with
/// `phase` in `{1, i, -1, -i}`.
pub fn pauli_mul(a: Pauli, b: Pauli) -> (Complex64, Pauli) {
    use Pauli::*;
    let one = Complex64::ONE;
    let i = Complex64::I;
    match (a, b) {
        (I, p) => (one, p),
        (p, I) => (one, p),
        (X, X) | (Y, Y) | (Z, Z) => (one, I),
        (X, Y) => (i, Z),
        (Y, X) => (-i, Z),
        (Y, Z) => (i, X),
        (Z, Y) => (-i, X),
        (Z, X) => (i, Y),
        (X, Z) => (-i, Y),
    }
}

/// A sum of Pauli strings with complex coefficients, closed under addition
/// and multiplication. The intermediate representation of the JW transform.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CPauliSum {
    n_qubits: usize,
    terms: BTreeMap<Vec<char>, Complex64>,
}

impl CPauliSum {
    /// The zero operator over `n` qubits.
    pub fn zero(n_qubits: usize) -> Self {
        CPauliSum {
            n_qubits,
            terms: BTreeMap::new(),
        }
    }

    /// The identity with a coefficient.
    pub fn identity(n_qubits: usize, coeff: Complex64) -> Self {
        let mut s = Self::zero(n_qubits);
        s.add_term(coeff, &vec![Pauli::I; n_qubits]);
        s
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of stored terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when no terms are stored.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    fn key(paulis: &[Pauli]) -> Vec<char> {
        paulis.iter().map(|p| p.to_char()).collect()
    }

    fn paulis_of_key(key: &[char]) -> Vec<Pauli> {
        key.iter()
            .map(|&c| Pauli::from_char(c).expect("internal key is valid"))
            .collect()
    }

    /// Adds `coeff * paulis`, merging like terms.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add_term(&mut self, coeff: Complex64, paulis: &[Pauli]) {
        assert_eq!(paulis.len(), self.n_qubits, "pauli width");
        let entry = self
            .terms
            .entry(Self::key(paulis))
            .or_insert(Complex64::ZERO);
        *entry += coeff;
    }

    /// Adds another sum in place.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add_assign(&mut self, other: &CPauliSum) {
        assert_eq!(self.n_qubits, other.n_qubits, "width");
        for (k, &c) in &other.terms {
            let entry = self.terms.entry(k.clone()).or_insert(Complex64::ZERO);
            *entry += c;
        }
    }

    /// Scales all coefficients by a complex factor.
    pub fn scaled(&self, k: Complex64) -> CPauliSum {
        CPauliSum {
            n_qubits: self.n_qubits,
            terms: self
                .terms
                .iter()
                .map(|(s, &c)| (s.clone(), c * k))
                .collect(),
        }
    }

    /// Operator product `self * other` with full phase tracking.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn mul(&self, other: &CPauliSum) -> CPauliSum {
        assert_eq!(self.n_qubits, other.n_qubits, "width");
        let mut out = CPauliSum::zero(self.n_qubits);
        for (ka, &ca) in &self.terms {
            let pa = Self::paulis_of_key(ka);
            for (kb, &cb) in &other.terms {
                let pb = Self::paulis_of_key(kb);
                let mut phase = Complex64::ONE;
                let mut prod = Vec::with_capacity(self.n_qubits);
                for q in 0..self.n_qubits {
                    let (ph, p) = pauli_mul(pa[q], pb[q]);
                    phase *= ph;
                    prod.push(p);
                }
                out.add_term(ca * cb * phase, &prod);
            }
        }
        out.prune(0.0);
        out
    }

    /// Drops terms with |coeff| <= tol.
    pub fn prune(&mut self, tol: f64) {
        self.terms.retain(|_, c| c.abs() > tol);
    }

    /// Converts to a real [`PauliSum`].
    ///
    /// # Errors
    ///
    /// Returns the largest offending imaginary magnitude if any coefficient
    /// has `|Im| > tol` — a Hermitian operator must be real in the Pauli
    /// basis, so a failure here indicates an algebra bug upstream.
    pub fn into_real(mut self, tol: f64) -> Result<PauliSum, f64> {
        self.prune(1e-14);
        let max_imag = self
            .terms
            .values()
            .map(|c| c.im.abs())
            .fold(0.0f64, f64::max);
        if max_imag > tol {
            return Err(max_imag);
        }
        let mut out = PauliSum::zero(self.n_qubits);
        for (k, c) in self.terms {
            out.add_term(c.re, PauliString::new(Self::paulis_of_key(&k)));
        }
        Ok(out)
    }
}

/// The JW image of the annihilation operator `a_p` on an `n`-qubit register:
/// `Z_0 .. Z_{p-1} (X_p + i Y_p) / 2`.
pub fn annihilation(n: usize, p: usize) -> CPauliSum {
    assert!(p < n, "orbital index out of range");
    let mut x_string = vec![Pauli::I; n];
    let mut y_string = vec![Pauli::I; n];
    for q in 0..p {
        x_string[q] = Pauli::Z;
        y_string[q] = Pauli::Z;
    }
    x_string[p] = Pauli::X;
    y_string[p] = Pauli::Y;
    let mut s = CPauliSum::zero(n);
    s.add_term(Complex64::from_re(0.5), &x_string);
    s.add_term(Complex64::new(0.0, 0.5), &y_string);
    s
}

/// The JW image of the creation operator `a^dag_p`.
pub fn creation(n: usize, p: usize) -> CPauliSum {
    assert!(p < n, "orbital index out of range");
    let mut x_string = vec![Pauli::I; n];
    let mut y_string = vec![Pauli::I; n];
    for q in 0..p {
        x_string[q] = Pauli::Z;
        y_string[q] = Pauli::Z;
    }
    x_string[p] = Pauli::X;
    y_string[p] = Pauli::Y;
    let mut s = CPauliSum::zero(n);
    s.add_term(Complex64::from_re(0.5), &x_string);
    s.add_term(Complex64::new(0.0, -0.5), &y_string);
    s
}

/// Maps a second-quantized Hamiltonian
/// `H = sum_pq h[p][q] a+_p a_q + 1/2 sum_pqrs g[p][q][r][s] a+_p a+_q a_s a_r`
/// (physicist-notation two-body tensor `g[p][q][r][s] = <pq|rs>`) onto
/// qubits via Jordan-Wigner.
///
/// # Errors
///
/// Returns the residual imaginary magnitude if the result fails to be real
/// (indicating a non-Hermitian input tensor).
pub fn jordan_wigner(h_one: &[Vec<f64>], h_two: &[Vec<Vec<Vec<f64>>>]) -> Result<PauliSum, f64> {
    let n = h_one.len();
    let mut acc = CPauliSum::zero(n);
    for p in 0..n {
        for q in 0..n {
            let coeff = h_one[p][q];
            if coeff.abs() < 1e-14 {
                continue;
            }
            let term = creation(n, p).mul(&annihilation(n, q));
            acc.add_assign(&term.scaled(Complex64::from_re(coeff)));
        }
    }
    for p in 0..n {
        for q in 0..n {
            for r in 0..n {
                for s in 0..n {
                    let coeff = h_two[p][q][r][s];
                    if coeff.abs() < 1e-14 {
                        continue;
                    }
                    // 1/2 a+_p a+_q a_s a_r
                    let term = creation(n, p)
                        .mul(&creation(n, q))
                        .mul(&annihilation(n, s))
                        .mul(&annihilation(n, r));
                    acc.add_assign(&term.scaled(Complex64::from_re(0.5 * coeff)));
                }
            }
        }
    }
    let mut sum = acc.into_real(1e-9)?;
    sum.prune(1e-12);
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_multiplication_table() {
        use Pauli::*;
        let (ph, p) = pauli_mul(X, Y);
        assert_eq!(p, Z);
        assert!(ph.approx_eq(Complex64::I, 1e-15));
        let (ph, p) = pauli_mul(Y, X);
        assert_eq!(p, Z);
        assert!(ph.approx_eq(-Complex64::I, 1e-15));
        let (ph, p) = pauli_mul(Z, Z);
        assert_eq!(p, I);
        assert!(ph.approx_eq(Complex64::ONE, 1e-15));
    }

    #[test]
    fn pauli_mul_matches_dense_matrices() {
        use Pauli::*;
        for a in [I, X, Y, Z] {
            for b in [I, X, Y, Z] {
                let (phase, p) = pauli_mul(a, b);
                let dense = a.matrix().matmul(&b.matrix()).unwrap();
                let expect = p.matrix().scaled_c(phase);
                assert!(dense.approx_eq(&expect, 1e-14), "{a:?} * {b:?}");
            }
        }
    }

    #[test]
    fn anticommutation_relations() {
        // {a_p, a+_q} = delta_pq.
        let n = 3;
        for p in 0..n {
            for q in 0..n {
                let mut anti = annihilation(n, p).mul(&creation(n, q));
                anti.add_assign(&creation(n, q).mul(&annihilation(n, p)));
                anti.prune(1e-12);
                if p == q {
                    assert_eq!(anti.len(), 1, "p={p}, q={q}: {anti:?}");
                    let real = anti.into_real(1e-12).unwrap();
                    assert_eq!(real.terms().len(), 1);
                    assert!((real.terms()[0].0 - 1.0).abs() < 1e-12);
                    assert!(real.terms()[0].1.is_identity());
                } else {
                    assert!(anti.is_empty(), "p={p}, q={q}");
                }
            }
        }
    }

    #[test]
    fn a_squared_is_zero() {
        let n = 2;
        let aa = annihilation(n, 1).mul(&annihilation(n, 1));
        assert!(aa.is_empty());
        let cc = creation(n, 0).mul(&creation(n, 0));
        assert!(cc.is_empty());
    }

    #[test]
    fn number_operator_is_projector_form() {
        // n_p = a+_p a_p = (I - Z_p)/2.
        let op = creation(2, 1)
            .mul(&annihilation(2, 1))
            .into_real(1e-12)
            .unwrap();
        let mut found_i = false;
        let mut found_z = false;
        for (c, s) in op.terms() {
            if s.is_identity() {
                assert!((c - 0.5).abs() < 1e-12);
                found_i = true;
            } else {
                assert_eq!(s.label(), "ZI");
                assert!((c + 0.5).abs() < 1e-12);
                found_z = true;
            }
        }
        assert!(found_i && found_z);
    }

    #[test]
    fn single_mode_hamiltonian() {
        // H = e * a+_0 a_0 on one qubit -> e/2 (I - Z).
        let h_one = vec![vec![1.5]];
        let h_two = vec![vec![vec![vec![0.0]]]];
        let sum = jordan_wigner(&h_one, &h_two).unwrap();
        let m = sum.to_matrix();
        // Eigenvalues 0 (empty) and 1.5 (occupied).
        let values = qismet_mathkit::herm_eig(&m).unwrap();
        assert!((values[0] - 0.0).abs() < 1e-10);
        assert!((values[1] - 1.5).abs() < 1e-10);
    }

    #[test]
    fn hopping_hamiltonian_spectrum() {
        // H = -t (a+_0 a_1 + a+_1 a_0): single-particle eigenvalues -t, +t;
        // two-particle sector (both sites filled) has energy 0.
        let t = 0.7;
        let h_one = vec![vec![0.0, -t], vec![-t, 0.0]];
        let h_two = vec![vec![vec![vec![0.0; 2]; 2]; 2]; 2];
        let sum = jordan_wigner(&h_one, &h_two).unwrap();
        let vals = qismet_mathkit::herm_eig(&sum.to_matrix()).unwrap();
        assert!((vals[0] + t).abs() < 1e-10, "{vals:?}");
        assert!((vals[3] - t).abs() < 1e-10, "{vals:?}");
    }

    #[test]
    fn hubbard_interaction_energy() {
        // H = U n_0 n_1: occupation of both modes costs U.
        // In physicist convention, g[p][q][r][s] = <pq|rs> with
        // n_0 n_1 = a+_0 a+_1 a_1 a_0 appearing twice (pq and qp orderings),
        // so set <01|01> = <10|10> = U and the 1/2 restores U n_0 n_1.
        let u = 2.0;
        let mut h_two = vec![vec![vec![vec![0.0; 2]; 2]; 2]; 2];
        h_two[0][1][0][1] = u;
        h_two[1][0][1][0] = u;
        let h_one = vec![vec![0.0; 2]; 2];
        let sum = jordan_wigner(&h_one, &h_two).unwrap();
        let values = qismet_mathkit::herm_eig(&sum.to_matrix()).unwrap();
        // Spectrum: 0, 0, 0, U.
        assert!((values[3] - u).abs() < 1e-10, "{values:?}");
        assert!(values[2].abs() < 1e-10);
    }

    #[test]
    fn rejects_non_hermitian_input() {
        let h_one = vec![vec![0.0, 1.0], vec![0.0, 0.0]]; // not symmetric
        let h_two = vec![vec![vec![vec![0.0; 2]; 2]; 2]; 2];
        // a+_0 a_1 alone is not Hermitian -> imaginary Pauli coefficients.
        assert!(jordan_wigner(&h_one, &h_two).is_err());
    }
}
