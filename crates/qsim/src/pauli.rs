//! Pauli strings and real-weighted Pauli sums (Hamiltonians).
//!
//! VQE objective functions are expectation values of a Hamiltonian expressed
//! as `H = sum_j c_j P_j` with real coefficients and tensor products of Pauli
//! operators `P_j`. This module provides the algebra, dense materialization
//! (for exact reference energies), and measurement-basis grouping used by the
//! sampling pipeline.

use qismet_mathkit::{herm_eig, CMatrix, Complex64, EigError};
use std::fmt;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    /// The 2x2 matrix.
    pub fn matrix(self) -> CMatrix {
        use Complex64 as C;
        let o = C::ZERO;
        let l = C::ONE;
        let i = C::I;
        match self {
            Pauli::I => CMatrix::identity(2),
            Pauli::X => CMatrix::from_rows(&[&[o, l], &[l, o]]),
            Pauli::Y => CMatrix::from_rows(&[&[o, -i], &[i, o]]),
            Pauli::Z => CMatrix::from_rows(&[&[l, o], &[o, -l]]),
        }
    }

    /// Parses from a character.
    pub fn from_char(c: char) -> Option<Pauli> {
        match c.to_ascii_uppercase() {
            'I' => Some(Pauli::I),
            'X' => Some(Pauli::X),
            'Y' => Some(Pauli::Y),
            'Z' => Some(Pauli::Z),
            _ => None,
        }
    }

    /// Single-character label.
    pub fn to_char(self) -> char {
        match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }
}

/// Errors when parsing or combining Pauli strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PauliError {
    /// Unknown character in a Pauli label.
    BadLabel {
        /// The offending character.
        ch: char,
    },
    /// Operands of different widths combined.
    WidthMismatch {
        /// Left width.
        left: usize,
        /// Right width.
        right: usize,
    },
}

impl fmt::Display for PauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PauliError::BadLabel { ch } => write!(f, "invalid Pauli character '{ch}'"),
            PauliError::WidthMismatch { left, right } => {
                write!(f, "pauli width mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for PauliError {}

/// A tensor product of single-qubit Paulis over `n` qubits.
///
/// Internally index 0 is **qubit 0** (least significant bit of computational
/// basis states). The text label convention follows physics notation where
/// the leftmost character is the highest-index qubit, matching Qiskit.
///
/// # Examples
///
/// ```
/// use qismet_qsim::PauliString;
/// let p = PauliString::from_label("XIZ").unwrap(); // X on qubit 2, Z on qubit 0
/// assert_eq!(p.n_qubits(), 3);
/// assert_eq!(p.weight(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    paulis: Vec<Pauli>,
}

impl PauliString {
    /// The all-identity string over `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            paulis: vec![Pauli::I; n],
        }
    }

    /// Builds from per-qubit operators, index 0 = qubit 0.
    pub fn new(paulis: Vec<Pauli>) -> Self {
        PauliString { paulis }
    }

    /// Builds a string that applies `p` on `qubit` and identity elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    pub fn single(n: usize, qubit: usize, p: Pauli) -> Self {
        assert!(qubit < n, "qubit out of range");
        let mut paulis = vec![Pauli::I; n];
        paulis[qubit] = p;
        PauliString { paulis }
    }

    /// Parses a Qiskit-style label: leftmost char is the **highest** qubit.
    ///
    /// # Errors
    ///
    /// [`PauliError::BadLabel`] on characters outside `IXYZ`.
    pub fn from_label(label: &str) -> Result<Self, PauliError> {
        let mut paulis = Vec::with_capacity(label.len());
        for ch in label.chars().rev() {
            paulis.push(Pauli::from_char(ch).ok_or(PauliError::BadLabel { ch })?);
        }
        Ok(PauliString { paulis })
    }

    /// The Qiskit-style label (leftmost char = highest qubit).
    pub fn label(&self) -> String {
        self.paulis.iter().rev().map(|p| p.to_char()).collect()
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.paulis.len()
    }

    /// Operator on a specific qubit.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn pauli(&self, qubit: usize) -> Pauli {
        self.paulis[qubit]
    }

    /// Per-qubit operators, index 0 = qubit 0.
    pub fn paulis(&self) -> &[Pauli] {
        &self.paulis
    }

    /// Number of non-identity factors.
    pub fn weight(&self) -> usize {
        self.paulis.iter().filter(|&&p| p != Pauli::I).count()
    }

    /// `true` if every factor is the identity.
    pub fn is_identity(&self) -> bool {
        self.weight() == 0
    }

    /// Bit mask of qubits where the string acts with X or Y (bit-flip part).
    pub fn x_mask(&self) -> u64 {
        let mut m = 0u64;
        for (q, &p) in self.paulis.iter().enumerate() {
            if matches!(p, Pauli::X | Pauli::Y) {
                m |= 1 << q;
            }
        }
        m
    }

    /// Bit mask of qubits where the string acts with Z or Y (phase part).
    pub fn z_mask(&self) -> u64 {
        let mut m = 0u64;
        for (q, &p) in self.paulis.iter().enumerate() {
            if matches!(p, Pauli::Z | Pauli::Y) {
                m |= 1 << q;
            }
        }
        m
    }

    /// Number of Y factors (needed for the `i` phases when splitting Y into
    /// X and Z parts).
    pub fn y_count(&self) -> usize {
        self.paulis.iter().filter(|&&p| p == Pauli::Y).count()
    }

    /// Dense matrix of dimension `2^n`.
    ///
    /// The Kronecker order places qubit `n-1` as the most significant factor
    /// so that matrix row/column indices equal computational basis indices
    /// with qubit 0 in the least significant bit.
    pub fn to_matrix(&self) -> CMatrix {
        let mut m = CMatrix::identity(1);
        for p in self.paulis.iter().rev() {
            m = m.kron(&p.matrix());
        }
        m
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A real-weighted sum of Pauli strings — the Hamiltonian form used by VQE.
///
/// # Examples
///
/// ```
/// use qismet_qsim::PauliSum;
/// // H = X I X + Z Z I  (the Fig. 8 example Hamiltonian of the paper)
/// let h = PauliSum::from_labels(&[(1.0, "XIX"), (1.0, "ZZI")]).unwrap();
/// assert_eq!(h.n_qubits(), 3);
/// assert_eq!(h.terms().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PauliSum {
    n_qubits: usize,
    terms: Vec<(f64, PauliString)>,
}

impl PauliSum {
    /// The zero operator over `n` qubits.
    pub fn zero(n_qubits: usize) -> Self {
        PauliSum {
            n_qubits,
            terms: Vec::new(),
        }
    }

    /// Builds from `(coefficient, label)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates label parse failures; widths must agree.
    pub fn from_labels(pairs: &[(f64, &str)]) -> Result<Self, PauliError> {
        let mut terms = Vec::with_capacity(pairs.len());
        let mut n = 0;
        for &(c, label) in pairs {
            let p = PauliString::from_label(label)?;
            if n == 0 {
                n = p.n_qubits();
            } else if p.n_qubits() != n {
                return Err(PauliError::WidthMismatch {
                    left: n,
                    right: p.n_qubits(),
                });
            }
            terms.push((c, p));
        }
        Ok(PauliSum { n_qubits: n, terms })
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The `(coefficient, string)` terms.
    pub fn terms(&self) -> &[(f64, PauliString)] {
        &self.terms
    }

    /// Adds a term, merging with an existing identical string.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add_term(&mut self, coeff: f64, string: PauliString) -> &mut Self {
        assert_eq!(
            string.n_qubits(),
            self.n_qubits,
            "pauli width must match sum width"
        );
        if let Some(entry) = self.terms.iter_mut().find(|(_, s)| *s == string) {
            entry.0 += coeff;
        } else {
            self.terms.push((coeff, string));
        }
        self
    }

    /// Removes terms with |coeff| below `tol` and returns the count removed.
    pub fn prune(&mut self, tol: f64) -> usize {
        let before = self.terms.len();
        self.terms.retain(|(c, _)| c.abs() > tol);
        before - self.terms.len()
    }

    /// Coefficient of the all-identity term (energy offset).
    pub fn identity_coefficient(&self) -> f64 {
        self.terms
            .iter()
            .filter(|(_, s)| s.is_identity())
            .map(|(c, _)| *c)
            .sum()
    }

    /// Sum of |coefficients| — an upper bound on `|<H>|` useful for sanity
    /// checks and normalization.
    pub fn one_norm(&self) -> f64 {
        self.terms.iter().map(|(c, _)| c.abs()).sum()
    }

    /// Dense `2^n x 2^n` Hermitian matrix.
    pub fn to_matrix(&self) -> CMatrix {
        let dim = 1usize << self.n_qubits;
        let mut m = CMatrix::zeros(dim, dim);
        for (c, s) in &self.terms {
            let pm = s.to_matrix().scaled(*c);
            m = &m + &pm;
        }
        m
    }

    /// Exact smallest eigenvalue (the VQE target energy).
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn ground_energy(&self) -> Result<f64, EigError> {
        Ok(herm_eig(&self.to_matrix())?[0])
    }

    /// Scales all coefficients.
    pub fn scaled(&self, k: f64) -> PauliSum {
        PauliSum {
            n_qubits: self.n_qubits,
            terms: self.terms.iter().map(|(c, s)| (c * k, s.clone())).collect(),
        }
    }
}

impl fmt::Display for PauliSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (k, (c, s)) in self.terms.iter().enumerate() {
            if k > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c:+.6}*{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_roundtrip_respects_qubit_order() {
        let p = PauliString::from_label("XIZ").unwrap();
        // Leftmost char is qubit 2.
        assert_eq!(p.pauli(2), Pauli::X);
        assert_eq!(p.pauli(1), Pauli::I);
        assert_eq!(p.pauli(0), Pauli::Z);
        assert_eq!(p.label(), "XIZ");
    }

    #[test]
    fn bad_label_rejected() {
        assert!(matches!(
            PauliString::from_label("XQZ"),
            Err(PauliError::BadLabel { ch: 'Q' })
        ));
    }

    #[test]
    fn masks_and_weight() {
        let p = PauliString::from_label("YXZI").unwrap();
        // qubit3=Y, qubit2=X, qubit1=Z, qubit0=I
        assert_eq!(p.weight(), 3);
        assert_eq!(p.x_mask(), 0b1100);
        assert_eq!(p.z_mask(), 0b1010);
        assert_eq!(p.y_count(), 1);
    }

    #[test]
    fn single_constructor() {
        let p = PauliString::single(3, 1, Pauli::X);
        assert_eq!(p.label(), "IXI");
    }

    #[test]
    fn pauli_matrices_square_to_identity() {
        for p in [Pauli::X, Pauli::Y, Pauli::Z, Pauli::I] {
            let m = p.matrix();
            assert!((&m * &m).approx_eq(&CMatrix::identity(2), 1e-15));
        }
    }

    #[test]
    fn string_matrix_is_hermitian_and_unitary() {
        let p = PauliString::from_label("XYZ").unwrap();
        let m = p.to_matrix();
        assert!(m.is_hermitian(1e-12));
        assert!(m.is_unitary(1e-12));
        assert_eq!(m.rows(), 8);
    }

    #[test]
    fn matrix_qubit_order_convention() {
        // Z on qubit 0 of a 2-qubit register: diag(1, -1, 1, -1) since basis
        // index bit 0 is qubit 0.
        let p = PauliString::from_label("IZ").unwrap();
        let m = p.to_matrix();
        assert!((m.at(0, 0).re - 1.0).abs() < 1e-15);
        assert!((m.at(1, 1).re + 1.0).abs() < 1e-15);
        assert!((m.at(2, 2).re - 1.0).abs() < 1e-15);
        assert!((m.at(3, 3).re + 1.0).abs() < 1e-15);
    }

    #[test]
    fn sum_ground_energy_of_zz() {
        // H = Z Z has ground energy -1.
        let h = PauliSum::from_labels(&[(1.0, "ZZ")]).unwrap();
        assert!((h.ground_energy().unwrap() + 1.0).abs() < 1e-10);
    }

    #[test]
    fn sum_ground_energy_tfim_2q() {
        // H = -ZZ - 0.5(XI + IX): ground energy -sqrt(1 + ... )
        // For 2-qubit TFIM with J=1, h=0.5 ground energy is -(1 + h^2).sqrt()
        // ... verified numerically against dense eig instead of formula:
        let h = PauliSum::from_labels(&[(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")]).unwrap();
        let e = h.ground_energy().unwrap();
        // Dense check.
        let m = h.to_matrix();
        let values = qismet_mathkit::herm_eig(&m).unwrap();
        assert!((e - values[0]).abs() < 1e-12);
        assert!(e < -1.0);
    }

    #[test]
    fn add_term_merges() {
        let mut h = PauliSum::zero(2);
        h.add_term(1.0, PauliString::from_label("ZZ").unwrap());
        h.add_term(0.5, PauliString::from_label("ZZ").unwrap());
        assert_eq!(h.terms().len(), 1);
        assert_eq!(h.terms()[0].0, 1.5);
    }

    #[test]
    fn prune_drops_tiny_terms() {
        let mut h = PauliSum::from_labels(&[(1e-14, "XX"), (1.0, "ZZ")]).unwrap();
        assert_eq!(h.prune(1e-12), 1);
        assert_eq!(h.terms().len(), 1);
    }

    #[test]
    fn identity_coefficient_extracted() {
        let h = PauliSum::from_labels(&[(0.25, "II"), (1.0, "ZZ")]).unwrap();
        assert_eq!(h.identity_coefficient(), 0.25);
        assert_eq!(h.one_norm(), 1.25);
    }

    #[test]
    fn width_mismatch_in_from_labels() {
        assert!(matches!(
            PauliSum::from_labels(&[(1.0, "ZZ"), (1.0, "ZZZ")]),
            Err(PauliError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn display_shows_terms() {
        let h = PauliSum::from_labels(&[(1.0, "XIX"), (-0.5, "ZZI")]).unwrap();
        let s = h.to_string();
        assert!(s.contains("XIX"));
        assert!(s.contains("ZZI"));
    }
}
