//! Density-matrix simulation with Kraus-channel noise.
//!
//! This is the physically faithful backend used to (a) reproduce circuit
//! fidelity experiments (Fig. 4), and (b) calibrate/validate the cheap
//! contraction-factor objective model used in the long VQA sweeps.

// Dense index arithmetic reads clearest with explicit loop indices; the
// iterator rewrites clippy suggests obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use crate::circuit::Circuit;
use crate::gate::{Gate, GateError};
use crate::pauli::{PauliString, PauliSum};
use crate::statevector::StateVector;
use qismet_mathkit::Complex64;

/// A mixed quantum state over `n` qubits, stored as a dense `2^n x 2^n`
/// complex matrix (row-major in a flat vector).
///
/// # Examples
///
/// ```
/// use qismet_qsim::{Circuit, DensityMatrix, KrausChannel};
///
/// let mut c = Circuit::new(1);
/// c.h(0);
/// let mut rho = DensityMatrix::from_circuit(&c).unwrap();
/// rho.apply_channel(&KrausChannel::phase_damping(1.0).unwrap(), &[0]).unwrap();
/// // Full dephasing: off-diagonals vanish, diagonal stays uniform.
/// assert!((rho.probabilities()[0] - 0.5).abs() < 1e-12);
/// assert!(rho.purity() < 0.51);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    rho: Vec<Complex64>,
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 13` (the matrix would exceed memory budgets).
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits <= 13, "density matrix limited to 13 qubits");
        let dim = 1usize << n_qubits;
        let mut rho = vec![Complex64::ZERO; dim * dim];
        rho[0] = Complex64::ONE;
        DensityMatrix { n_qubits, dim, rho }
    }

    /// Builds the pure-state density matrix `|psi><psi|`.
    pub fn from_statevector(sv: &StateVector) -> Self {
        let n_qubits = sv.n_qubits();
        let dim = 1usize << n_qubits;
        let amps = sv.amplitudes();
        let mut rho = vec![Complex64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                rho[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        DensityMatrix { n_qubits, dim, rho }
    }

    /// Runs a bound, noise-free circuit from `|0...0>`.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] for unbound circuits.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, GateError> {
        let mut rho = DensityMatrix::new(circuit.n_qubits());
        rho.apply_circuit(circuit)?;
        Ok(rho)
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2^n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One matrix element.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn at(&self, r: usize, c: usize) -> Complex64 {
        self.rho[r * self.dim + c]
    }

    /// Trace (should be 1 up to round-off).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.rho[i * self.dim + i].re).sum()
    }

    /// Purity `tr(rho^2)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // tr(rho^2) = sum_{r,c} rho_rc * rho_cr = sum |rho_rc|^2 (Hermitian).
        self.rho.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Diagonal as measurement probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.rho[i * self.dim + i].re.max(0.0))
            .collect()
    }

    /// Applies every gate of a bound circuit.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] for unbound gates.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), GateError> {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "width mismatch");
        for op in circuit.ops() {
            self.apply_gate(op.gate, op.operands())?;
        }
        Ok(())
    }

    /// Applies a unitary gate: `rho -> U rho U^dag`.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] for unbound gates.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), GateError> {
        let m = gate.matrix()?;
        match gate.arity() {
            1 => {
                let u = [[m.at(0, 0), m.at(0, 1)], [m.at(1, 0), m.at(1, 1)]];
                self.apply_1q_left(&u, qubits[0]);
                self.apply_1q_right(&u, qubits[0]);
            }
            _ => {
                let mut u = [[Complex64::ZERO; 4]; 4];
                for r in 0..4 {
                    for c in 0..4 {
                        u[r][c] = m.at(r, c);
                    }
                }
                self.apply_2q_left(&u, qubits[0], qubits[1]);
                self.apply_2q_right(&u, qubits[0], qubits[1]);
            }
        }
        Ok(())
    }

    /// Left multiplication `rho -> U rho` for a 1-qubit operator (acts on row
    /// indices).
    fn apply_1q_left(&mut self, u: &[[Complex64; 2]; 2], qubit: usize) {
        let stride = 1usize << qubit;
        let dim = self.dim;
        for col in 0..dim {
            let mut base = 0usize;
            while base < dim {
                for r0 in base..base + stride {
                    let i0 = r0 * dim + col;
                    let i1 = (r0 + stride) * dim + col;
                    let a0 = self.rho[i0];
                    let a1 = self.rho[i1];
                    self.rho[i0] = u[0][0] * a0 + u[0][1] * a1;
                    self.rho[i1] = u[1][0] * a0 + u[1][1] * a1;
                }
                base += stride << 1;
            }
        }
    }

    /// Right multiplication `rho -> rho U^dag` for a 1-qubit operator (acts
    /// on column indices with conjugated matrix).
    fn apply_1q_right(&mut self, u: &[[Complex64; 2]; 2], qubit: usize) {
        let stride = 1usize << qubit;
        let dim = self.dim;
        for row in 0..dim {
            let row_base = row * dim;
            let mut base = 0usize;
            while base < dim {
                for c0 in base..base + stride {
                    let i0 = row_base + c0;
                    let i1 = row_base + c0 + stride;
                    let a0 = self.rho[i0];
                    let a1 = self.rho[i1];
                    // (rho U^dag)_{r, c} = sum_k rho_{r, k} conj(U_{c, k})
                    self.rho[i0] = a0 * u[0][0].conj() + a1 * u[0][1].conj();
                    self.rho[i1] = a0 * u[1][0].conj() + a1 * u[1][1].conj();
                }
                base += stride << 1;
            }
        }
    }

    fn gather_indices(qa: usize, qb: usize, dim: usize) -> Vec<[usize; 4]> {
        // All base indices with bits qa and qb clear, expanded to the 4-dim
        // subspace (operand 0 = LSB of the 4-index).
        let abit = 1usize << qa;
        let bbit = 1usize << qb;
        let mut out = Vec::with_capacity(dim / 4);
        for i in 0..dim {
            if i & abit == 0 && i & bbit == 0 {
                out.push([i, i | abit, i | bbit, i | abit | bbit]);
            }
        }
        out
    }

    fn apply_2q_left(&mut self, u: &[[Complex64; 4]; 4], qa: usize, qb: usize) {
        let dim = self.dim;
        let groups = Self::gather_indices(qa, qb, dim);
        for col in 0..dim {
            for g in &groups {
                let idx = [
                    g[0] * dim + col,
                    g[1] * dim + col,
                    g[2] * dim + col,
                    g[3] * dim + col,
                ];
                let a = [
                    self.rho[idx[0]],
                    self.rho[idx[1]],
                    self.rho[idx[2]],
                    self.rho[idx[3]],
                ];
                for r in 0..4 {
                    let mut acc = Complex64::ZERO;
                    for k in 0..4 {
                        acc += u[r][k] * a[k];
                    }
                    self.rho[idx[r]] = acc;
                }
            }
        }
    }

    fn apply_2q_right(&mut self, u: &[[Complex64; 4]; 4], qa: usize, qb: usize) {
        let dim = self.dim;
        let groups = Self::gather_indices(qa, qb, dim);
        for row in 0..dim {
            let row_base = row * dim;
            for g in &groups {
                let idx = [
                    row_base + g[0],
                    row_base + g[1],
                    row_base + g[2],
                    row_base + g[3],
                ];
                let a = [
                    self.rho[idx[0]],
                    self.rho[idx[1]],
                    self.rho[idx[2]],
                    self.rho[idx[3]],
                ];
                for c in 0..4 {
                    let mut acc = Complex64::ZERO;
                    for k in 0..4 {
                        acc += a[k] * u[c][k].conj();
                    }
                    self.rho[idx[c]] = acc;
                }
            }
        }
    }

    /// Applies a Kraus channel on the given qubits:
    /// `rho -> sum_k K rho K^dag`.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::UnboundParameter`] never; the `Result` matches
    /// the gate path for uniform call sites. Operand count must match the
    /// channel's qubit count.
    ///
    /// # Panics
    ///
    /// Panics if operand count does not match the channel arity or indices
    /// are out of range.
    pub fn apply_channel(
        &mut self,
        channel: &crate::kraus::KrausChannel,
        qubits: &[usize],
    ) -> Result<(), GateError> {
        assert_eq!(qubits.len(), channel.n_qubits(), "channel arity");
        let dim = self.dim;
        let mut acc = vec![Complex64::ZERO; dim * dim];
        for k in channel.ops() {
            let mut tmp = self.clone();
            match channel.n_qubits() {
                1 => {
                    let u = [[k.at(0, 0), k.at(0, 1)], [k.at(1, 0), k.at(1, 1)]];
                    tmp.apply_1q_left(&u, qubits[0]);
                    tmp.apply_1q_right(&u, qubits[0]);
                }
                2 => {
                    let mut u = [[Complex64::ZERO; 4]; 4];
                    for r in 0..4 {
                        for c in 0..4 {
                            u[r][c] = k.at(r, c);
                        }
                    }
                    tmp.apply_2q_left(&u, qubits[0], qubits[1]);
                    tmp.apply_2q_right(&u, qubits[0], qubits[1]);
                }
                n => panic!("unsupported channel arity {n}"),
            }
            for (a, t) in acc.iter_mut().zip(tmp.rho.iter()) {
                *a += *t;
            }
        }
        self.rho = acc;
        Ok(())
    }

    /// Expectation `tr(rho P)` of a Pauli string.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn pauli_expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(p.n_qubits(), self.n_qubits, "pauli width");
        let x_mask = p.x_mask() as usize;
        let z_mask = p.z_mask() as usize;
        let y_count = p.y_count();
        // tr(rho P) = sum_c rho[c ^ x, c] * lambda_c, where
        // P|c> = lambda_c |c ^ x>.
        let mut acc = Complex64::ZERO;
        let i_pow = match y_count % 4 {
            0 => Complex64::ONE,
            1 => Complex64::I,
            2 => -Complex64::ONE,
            _ => -Complex64::I,
        };
        for c in 0..self.dim {
            let sign = if (c & z_mask).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            let lambda = i_pow.scale(sign);
            acc += self.rho[(c ^ x_mask) * self.dim + c] * lambda;
        }
        acc.re
    }

    /// Expectation of a Pauli-sum Hamiltonian.
    pub fn expectation(&self, h: &PauliSum) -> f64 {
        h.terms()
            .iter()
            .map(|(c, s)| c * self.pauli_expectation(s))
            .sum()
    }

    /// Fidelity against a pure reference state: `<psi| rho |psi>`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(psi.n_qubits(), self.n_qubits, "width mismatch");
        let amps = psi.amplitudes();
        let mut acc = Complex64::ZERO;
        for r in 0..self.dim {
            for c in 0..self.dim {
                acc += amps[r].conj() * self.rho[r * self.dim + c] * amps[c];
            }
        }
        acc.re.clamp(0.0, 1.0 + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kraus::KrausChannel;

    const TOL: f64 = 1e-10;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn pure_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0)
            .ry(0.7, 1)
            .cx(0, 1)
            .rz(0.3, 2)
            .cx(1, 2)
            .rx(1.1, 0)
            .swap(0, 2)
            .cz(0, 1);
        let sv = StateVector::from_circuit(&c).unwrap();
        let rho = DensityMatrix::from_circuit(&c).unwrap();
        // rho should equal |psi><psi|.
        let expect = DensityMatrix::from_statevector(&sv);
        for (a, b) in rho.rho.iter().zip(expect.rho.iter()) {
            assert!(a.approx_eq(*b, 1e-9));
        }
        assert!((rho.purity() - 1.0).abs() < TOL);
        assert!((rho.trace() - 1.0).abs() < TOL);
    }

    #[test]
    fn expectations_match_statevector() {
        let mut c = Circuit::new(3);
        c.ry(0.4, 0).cx(0, 1).ry(1.3, 2).cx(1, 2).h(0);
        let sv = StateVector::from_circuit(&c).unwrap();
        let rho = DensityMatrix::from_circuit(&c).unwrap();
        for label in ["ZZZ", "XIX", "YXZ", "IZI"] {
            let p = PauliString::from_label(label).unwrap();
            assert!(
                (sv.pauli_expectation(&p) - rho.pauli_expectation(&p)).abs() < 1e-9,
                "{label}"
            );
        }
    }

    #[test]
    fn depolarizing_contracts_expectations() {
        let c = bell();
        let mut rho = DensityMatrix::from_circuit(&c).unwrap();
        let zz = PauliString::from_label("ZZ").unwrap();
        let before = rho.pauli_expectation(&zz);
        rho.apply_channel(&KrausChannel::depolarizing(0.2).unwrap(), &[0])
            .unwrap();
        let after = rho.pauli_expectation(&zz);
        assert!(before > after);
        assert!((rho.trace() - 1.0).abs() < TOL);
        // Depolarizing with p contracts single-qubit Bloch components by
        // (1 - p); ZZ picks up the factor once.
        assert!((after - (1.0 - 0.2) * before).abs() < 1e-9);
    }

    #[test]
    fn amplitude_damping_pumps_toward_ground() {
        let mut c = Circuit::new(1);
        c.x(0);
        let mut rho = DensityMatrix::from_circuit(&c).unwrap();
        rho.apply_channel(&KrausChannel::amplitude_damping(0.3).unwrap(), &[0])
            .unwrap();
        let probs = rho.probabilities();
        assert!((probs[0] - 0.3).abs() < TOL);
        assert!((probs[1] - 0.7).abs() < TOL);
        // Full damping returns to |0>.
        rho.apply_channel(&KrausChannel::amplitude_damping(1.0).unwrap(), &[0])
            .unwrap();
        assert!((rho.probabilities()[0] - 1.0).abs() < TOL);
    }

    #[test]
    fn maximally_mixed_purity() {
        let mut rho = DensityMatrix::new(2);
        // Fully depolarize both qubits several times.
        let dep = KrausChannel::depolarizing(1.0).unwrap();
        for q in 0..2 {
            rho.apply_channel(&dep, &[q]).unwrap();
        }
        assert!((rho.purity() - 0.25).abs() < 1e-9);
        for p in rho.probabilities() {
            assert!((p - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn two_qubit_channel_on_bell() {
        let c = bell();
        let mut rho = DensityMatrix::from_circuit(&c).unwrap();
        rho.apply_channel(&KrausChannel::two_qubit_depolarizing(0.1).unwrap(), &[0, 1])
            .unwrap();
        assert!((rho.trace() - 1.0).abs() < TOL);
        let zz = PauliString::from_label("ZZ").unwrap();
        let e = rho.pauli_expectation(&zz);
        // Two-qubit depolarizing contracts all non-identity Paulis by
        // (1 - 16p/15 * 15/16)... i.e. exactly (1 - p) in this normalization.
        assert!((e - (1.0 - 16.0 * 0.1 / 16.0 * 1.0)).abs() < 0.07);
        assert!(e < 1.0);
    }

    #[test]
    fn fidelity_with_pure_tracks_noise() {
        let c = bell();
        let ideal = StateVector::from_circuit(&c).unwrap();
        let mut rho = DensityMatrix::from_circuit(&c).unwrap();
        assert!((rho.fidelity_with_pure(&ideal) - 1.0).abs() < TOL);
        rho.apply_channel(&KrausChannel::depolarizing(0.5).unwrap(), &[0])
            .unwrap();
        let f = rho.fidelity_with_pure(&ideal);
        assert!(f < 1.0 && f > 0.4, "fidelity {f}");
    }

    #[test]
    fn thermal_relaxation_reduces_excited_population() {
        let mut c = Circuit::new(1);
        c.x(0);
        let mut rho = DensityMatrix::from_circuit(&c).unwrap();
        // t = T1: population decays by 1/e.
        rho.apply_channel(
            &KrausChannel::thermal_relaxation(50.0, 50.0, 60.0).unwrap(),
            &[0],
        )
        .unwrap();
        let p1 = rho.probabilities()[1];
        assert!((p1 - (-1.0f64).exp()).abs() < 1e-6, "p1 = {p1}");
    }
}
