//! Ideal (noise-free) state-vector simulation.
//!
//! This backend evaluates circuits exactly and provides both analytic
//! expectation values and finite-shot sampling. It is the reference against
//! which the noisy backends and the contraction-factor objective model are
//! validated.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateError};
use crate::kernels;
use crate::pauli::{PauliString, PauliSum};
use qismet_mathkit::Complex64;

/// A pure quantum state over `n` qubits (qubit 0 = least significant bit of
/// the amplitude index).
///
/// # Examples
///
/// Preparing a Bell pair and checking its Z-parity:
///
/// ```
/// use qismet_qsim::{Circuit, PauliString, StateVector};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let sv = StateVector::from_circuit(&c).unwrap();
/// let zz = PauliString::from_label("ZZ").unwrap();
/// assert!((sv.pauli_expectation(&zz) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 26` (amplitude vector would not fit in memory).
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits <= 26, "state vector limited to 26 qubits");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Runs a bound circuit from `|0...0>`.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if the circuit has free parameters.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, GateError> {
        let mut sv = StateVector::new(circuit.n_qubits());
        sv.apply_circuit(circuit)?;
        Ok(sv)
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Resets the state to `|0...0>` in place, reusing the amplitude
    /// buffer. This is the allocation-free path the cached execution
    /// backend uses between circuit evaluations.
    pub fn reset(&mut self) {
        self.amps.fill(Complex64::ZERO);
        self.amps[0] = Complex64::ONE;
    }

    /// Amplitudes (basis index bit `q` = qubit `q`).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutable amplitude slice — the seam the compiled-plan executor uses to
    /// run slice kernels directly on the state.
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Squared-norm of the state (should be 1 up to round-off).
    pub fn norm_sqr(&self) -> f64 {
        self.amps
            .chunks(kernels::BLOCK)
            .map(kernels::norm_sqr_block)
            .sum()
    }

    /// Applies every gate of a bound circuit in order.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] if any gate has a free parameter.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), GateError> {
        assert_eq!(
            circuit.n_qubits(),
            self.n_qubits,
            "circuit width must match state width"
        );
        for op in circuit.ops() {
            self.apply_gate(op.gate, op.operands())?;
        }
        Ok(())
    }

    /// Applies a single gate.
    ///
    /// # Errors
    ///
    /// [`GateError::UnboundParameter`] for unbound parameterized gates.
    ///
    /// # Panics
    ///
    /// Panics if operand indices are out of range or of wrong arity.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), GateError> {
        assert_eq!(qubits.len(), gate.arity(), "operand arity");
        match gate {
            Gate::Cx => {
                self.apply_cx(qubits[0], qubits[1]);
                Ok(())
            }
            Gate::Cz => {
                self.apply_cz(qubits[0], qubits[1]);
                Ok(())
            }
            Gate::Swap => {
                self.apply_swap(qubits[0], qubits[1]);
                Ok(())
            }
            Gate::Rzz(p) => {
                let theta = p.value().ok_or(GateError::UnboundParameter)?;
                self.apply_rzz(theta, qubits[0], qubits[1]);
                Ok(())
            }
            g => {
                let m = g.matrix()?;
                let u = [[m.at(0, 0), m.at(0, 1)], [m.at(1, 0), m.at(1, 1)]];
                self.apply_1q(&u, qubits[0]);
                Ok(())
            }
        }
    }

    /// Applies an arbitrary 2x2 unitary on `qubit` (shared with the
    /// compiled-plan executor, so interpreted and compiled execution use
    /// identical kernel arithmetic).
    pub(crate) fn apply_1q(&mut self, u: &[[Complex64; 2]; 2], qubit: usize) {
        assert!(qubit < self.n_qubits, "qubit out of range");
        kernels::apply_1q(&mut self.amps, u, 1usize << qubit);
    }

    pub(crate) fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n_qubits && target < self.n_qubits && control != target);
        kernels::apply_cx(&mut self.amps, 1usize << control, 1usize << target);
    }

    pub(crate) fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        kernels::apply_cz(&mut self.amps, 1usize << a, 1usize << b);
    }

    pub(crate) fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        kernels::apply_swap(&mut self.amps, 1usize << a, 1usize << b);
    }

    fn apply_rzz(&mut self, theta: f64, a: usize, b: usize) {
        let minus = Complex64::cis(-theta / 2.0);
        let plus = Complex64::cis(theta / 2.0);
        self.apply_rzz_phases(minus, plus, a, b);
    }

    /// RZZ with the diagonal phases supplied by the caller — the compiled
    /// plan precomputes them once per rebinding instead of per application.
    pub(crate) fn apply_rzz_phases(
        &mut self,
        minus: Complex64,
        plus: Complex64,
        a: usize,
        b: usize,
    ) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        kernels::apply_rzz_phases(&mut self.amps, minus, plus, 1usize << a, 1usize << b);
    }

    /// Probability of each computational basis outcome.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.amps.len()];
        for (amps, probs) in self
            .amps
            .chunks(kernels::BLOCK)
            .zip(out.chunks_mut(kernels::BLOCK))
        {
            kernels::write_probabilities(amps, probs);
        }
        out
    }

    /// Analytic expectation value `<psi| P |psi>` of a Pauli string.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn pauli_expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(p.n_qubits(), self.n_qubits, "pauli width");
        let x_mask = p.x_mask() as usize;
        let z_mask = p.z_mask() as usize;
        // P|c> = (i)^{y} * (-1)^{(c & z_mask).popcount} |c ^ x_mask>: each Y
        // contributes i * (-1)^{bit}, each Z contributes (-1)^{bit}. We
        // accumulate <psi|P|psi> = sum_c conj(amp[c^x]) * phase(c) * amp[c].
        // The i^y factor is loop-invariant, so it is hoisted out of the
        // per-amplitude loop (multiplying the +/-1 sign by the constant is
        // exact, so this matches the original in-loop arithmetic); the dense
        // states this simulator produces make a zero-amplitude skip a branch
        // misprediction, not a saving, so every index is visited.
        let iy = match p.y_count() % 4 {
            0 => Complex64::ONE,
            1 => Complex64::I,
            2 => -Complex64::ONE,
            _ => -Complex64::I,
        };
        let mut acc = Complex64::ZERO;
        for (c, &amp) in self.amps.iter().enumerate() {
            let phase = if (c & z_mask).count_ones().is_multiple_of(2) {
                iy
            } else {
                -iy
            };
            let dst = c ^ x_mask;
            acc += self.amps[dst].conj() * phase * amp;
        }
        acc.re
    }

    /// Analytic expectation of a Pauli-sum Hamiltonian.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn expectation(&self, h: &PauliSum) -> f64 {
        h.terms()
            .iter()
            .map(|(c, s)| c * self.pauli_expectation(s))
            .sum()
    }

    /// Inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn inner_product(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }
}

pub mod reference {
    //! The legacy (pre-compilation) expectation kernels, kept verbatim.
    //!
    //! These are the semantics baseline for the fused
    //! [`crate::CompiledObservable`] kernel and the hoisted-phase
    //! [`StateVector::pauli_expectation`]: one full `2^n` sweep per
    //! Hamiltonian term, with the `i^y` phase recomputed inside the inner
    //! loop and zero amplitudes skipped. Slow by design — the
    //! `compiled_equivalence` proptest suite pins the fast paths to these
    //! to `<= 1e-12`.

    use super::StateVector;
    use crate::pauli::{PauliString, PauliSum};
    use qismet_mathkit::Complex64;

    /// Pre-optimization `<psi| P |psi>`, bit-identical to the original
    /// per-term kernel.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn pauli_expectation(sv: &StateVector, p: &PauliString) -> f64 {
        assert_eq!(p.n_qubits(), sv.n_qubits, "pauli width");
        let x_mask = p.x_mask() as usize;
        let z_mask = p.z_mask() as usize;
        let y_count = p.y_count();
        let mut acc = Complex64::ZERO;
        for (c, &amp) in sv.amps.iter().enumerate() {
            if amp == Complex64::ZERO {
                continue;
            }
            let sign_bits = (c & z_mask).count_ones();
            let mut phase = if sign_bits.is_multiple_of(2) {
                Complex64::ONE
            } else {
                -Complex64::ONE
            };
            // Global i^y factor, recomputed per amplitude as the original
            // kernel did.
            phase *= match y_count % 4 {
                0 => Complex64::ONE,
                1 => Complex64::I,
                2 => -Complex64::ONE,
                _ => -Complex64::I,
            };
            let dst = c ^ x_mask;
            acc += sv.amps[dst].conj() * phase * amp;
        }
        acc.re
    }

    /// Pre-optimization `<psi| H |psi>`: one full state sweep per term.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn expectation(sv: &StateVector, h: &PauliSum) -> f64 {
        h.terms()
            .iter()
            .map(|(c, s)| c * pauli_expectation(sv, s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Param;
    use qismet_mathkit::rng_from_seed;
    use rand::Rng;

    const TOL: f64 = 1e-12;

    #[test]
    fn initial_state_is_zero_ket() {
        let sv = StateVector::new(3);
        assert_eq!(sv.amplitudes()[0], Complex64::ONE);
        assert!((sv.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips() {
        let mut sv = StateVector::new(2);
        sv.apply_gate(Gate::X, &[1]).unwrap();
        // |q1 q0> = |10> -> index 2.
        assert!(sv.amplitudes()[2].approx_eq(Complex64::ONE, TOL));
    }

    #[test]
    fn hadamard_makes_uniform() {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.h(q);
        }
        let sv = StateVector::from_circuit(&c).unwrap();
        for p in sv.probabilities() {
            assert!((p - 0.125).abs() < TOL);
        }
    }

    #[test]
    fn bell_state_amplitudes() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c).unwrap();
        let f = std::f64::consts::FRAC_1_SQRT_2;
        assert!(sv.amplitudes()[0].approx_eq(Complex64::from_re(f), TOL));
        assert!(sv.amplitudes()[3].approx_eq(Complex64::from_re(f), TOL));
        assert!(sv.amplitudes()[1].approx_eq(Complex64::ZERO, TOL));
        assert!(sv.amplitudes()[2].approx_eq(Complex64::ZERO, TOL));
    }

    #[test]
    fn ghz_state_via_chain() {
        let mut c = Circuit::new(4);
        c.h(0);
        for q in 0..3 {
            c.cx(q, q + 1);
        }
        let sv = StateVector::from_circuit(&c).unwrap();
        let probs = sv.probabilities();
        assert!((probs[0] - 0.5).abs() < TOL);
        assert!((probs[15] - 0.5).abs() < TOL);
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        let mut c = Circuit::new(5);
        let mut rng = rng_from_seed(3);
        for layer in 0..10 {
            for q in 0..5 {
                c.ry(rng.gen::<f64>() * std::f64::consts::TAU, q);
                c.rz(rng.gen::<f64>() * std::f64::consts::TAU, q);
            }
            for q in 0..4 {
                if (layer + q) % 2 == 0 {
                    c.cx(q, q + 1);
                } else {
                    c.cz(q, q + 1);
                }
            }
        }
        let sv = StateVector::from_circuit(&c).unwrap();
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gate_matrix_paths_agree() {
        // Apply SWAP via the dedicated path and via CX decomposition.
        let mut a = StateVector::new(3);
        let mut rngc = Circuit::new(3);
        rngc.h(0).rz(0.3, 0).ry(1.1, 1).h(2).cx(0, 2);
        a.apply_circuit(&rngc).unwrap();
        let mut b = a.clone();

        a.apply_gate(Gate::Swap, &[0, 2]).unwrap();
        // SWAP = CX(0,2) CX(2,0) CX(0,2).
        b.apply_gate(Gate::Cx, &[0, 2]).unwrap();
        b.apply_gate(Gate::Cx, &[2, 0]).unwrap();
        b.apply_gate(Gate::Cx, &[0, 2]).unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    #[test]
    fn rzz_matches_cx_rz_cx() {
        let theta = 0.77;
        let mut prep = Circuit::new(2);
        prep.h(0).ry(0.4, 1);
        let mut a = StateVector::from_circuit(&prep).unwrap();
        let mut b = a.clone();
        a.apply_gate(Gate::Rzz(theta.into()), &[0, 1]).unwrap();
        // RZZ(theta) = CX(0,1) RZ(theta on q1) CX(0,1).
        b.apply_gate(Gate::Cx, &[0, 1]).unwrap();
        b.apply_gate(Gate::Rz(theta.into()), &[1]).unwrap();
        b.apply_gate(Gate::Cx, &[0, 1]).unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    #[test]
    fn pauli_expectation_bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c).unwrap();
        let zz = PauliString::from_label("ZZ").unwrap();
        let xx = PauliString::from_label("XX").unwrap();
        let yy = PauliString::from_label("YY").unwrap();
        let zi = PauliString::from_label("ZI").unwrap();
        assert!((sv.pauli_expectation(&zz) - 1.0).abs() < TOL);
        assert!((sv.pauli_expectation(&xx) - 1.0).abs() < TOL);
        assert!((sv.pauli_expectation(&yy) + 1.0).abs() < TOL);
        assert!(sv.pauli_expectation(&zi).abs() < TOL);
    }

    #[test]
    fn pauli_expectation_matches_dense_matrix() {
        let mut c = Circuit::new(3);
        c.h(0).ry(0.9, 1).cx(0, 1).rz(0.4, 2).cx(1, 2).rx(1.3, 0);
        let sv = StateVector::from_circuit(&c).unwrap();
        for label in ["XYZ", "ZZI", "IXY", "YYY", "XIX", "IIZ"] {
            let p = PauliString::from_label(label).unwrap();
            let dense = p.to_matrix();
            let want = dense.expectation(sv.amplitudes()).re;
            let got = sv.pauli_expectation(&p);
            assert!(
                (want - got).abs() < 1e-10,
                "{label}: dense {want} vs fast {got}"
            );
        }
    }

    #[test]
    fn hamiltonian_expectation_bounded_by_one_norm() {
        let h = PauliSum::from_labels(&[(1.0, "XIX"), (1.0, "ZZI")]).unwrap();
        let mut c = Circuit::new(3);
        c.ry(0.3, 0).ry(1.2, 1).cx(0, 1).ry(2.2, 2);
        let sv = StateVector::from_circuit(&c).unwrap();
        let e = sv.expectation(&h);
        assert!(e.abs() <= h.one_norm() + TOL);
    }

    /// Pre-optimization reference kernels (the original branch-over-all-2^n
    /// loops), kept verbatim so the stride-skipping specializations can be
    /// regression-tested for exact bit identity.
    mod reference {
        use super::*;

        pub fn apply_cx(sv: &mut StateVector, control: usize, target: usize) {
            let cbit = 1usize << control;
            let tbit = 1usize << target;
            for i in 0..sv.amps.len() {
                if i & cbit != 0 && i & tbit == 0 {
                    sv.amps.swap(i, i | tbit);
                }
            }
        }

        pub fn apply_cz(sv: &mut StateVector, a: usize, b: usize) {
            let abit = 1usize << a;
            let bbit = 1usize << b;
            for i in 0..sv.amps.len() {
                if i & abit != 0 && i & bbit != 0 {
                    sv.amps[i] = -sv.amps[i];
                }
            }
        }

        pub fn apply_swap(sv: &mut StateVector, a: usize, b: usize) {
            let abit = 1usize << a;
            let bbit = 1usize << b;
            for i in 0..sv.amps.len() {
                if i & abit != 0 && i & bbit == 0 {
                    sv.amps.swap(i, (i & !abit) | bbit);
                }
            }
        }

        pub fn apply_rzz(sv: &mut StateVector, theta: f64, a: usize, b: usize) {
            let abit = 1usize << a;
            let bbit = 1usize << b;
            let minus = Complex64::cis(-theta / 2.0);
            let plus = Complex64::cis(theta / 2.0);
            for i in 0..sv.amps.len() {
                let pa = i & abit != 0;
                let pb = i & bbit != 0;
                sv.amps[i] *= if pa == pb { minus } else { plus };
            }
        }
    }

    /// A dense random state for kernel regression tests.
    fn random_state(n: usize, seed: u64) -> StateVector {
        let mut c = Circuit::new(n);
        let mut rng = rng_from_seed(seed);
        for _ in 0..3 {
            for q in 0..n {
                c.ry(rng.gen::<f64>() * std::f64::consts::TAU, q);
                c.rz(rng.gen::<f64>() * std::f64::consts::TAU, q);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
        }
        StateVector::from_circuit(&c).unwrap()
    }

    #[test]
    fn two_qubit_kernels_bit_identical_to_reference() {
        for n in [2usize, 3, 5, 7] {
            let mut seed = 100;
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    seed += 1;
                    let base = random_state(n, seed);
                    let theta = 0.1 + 0.37 * seed as f64;

                    let mut fast = base.clone();
                    let mut slow = base.clone();
                    fast.apply_cx(a, b);
                    reference::apply_cx(&mut slow, a, b);
                    assert_eq!(fast.amps, slow.amps, "cx({a},{b}) on {n}q");

                    let mut fast = base.clone();
                    let mut slow = base.clone();
                    fast.apply_cz(a, b);
                    reference::apply_cz(&mut slow, a, b);
                    assert_eq!(fast.amps, slow.amps, "cz({a},{b}) on {n}q");

                    let mut fast = base.clone();
                    let mut slow = base.clone();
                    fast.apply_swap(a, b);
                    reference::apply_swap(&mut slow, a, b);
                    assert_eq!(fast.amps, slow.amps, "swap({a},{b}) on {n}q");

                    let mut fast = base.clone();
                    let mut slow = base.clone();
                    fast.apply_rzz(theta, a, b);
                    reference::apply_rzz(&mut slow, theta, a, b);
                    assert_eq!(fast.amps, slow.amps, "rzz({a},{b}) on {n}q");
                }
            }
        }
    }

    #[test]
    fn hoisted_phase_expectation_matches_legacy_kernel() {
        // The optimized pauli_expectation (i^y hoisted, no zero-skip) against
        // the retained legacy kernel, including sparse states with exact
        // zeros (Bell/GHZ) where the dropped branch could matter.
        let mut ghz = Circuit::new(4);
        ghz.h(0);
        for q in 0..3 {
            ghz.cx(q, q + 1);
        }
        let sparse = StateVector::from_circuit(&ghz).unwrap();
        let dense = random_state(4, 77);
        for label in [
            "ZZZZ", "XXXX", "YYII", "XYZI", "IIII", "YIYI", "ZXIY", "IIZX",
        ] {
            let p = PauliString::from_label(label).unwrap();
            for sv in [&sparse, &dense] {
                let fast = sv.pauli_expectation(&p);
                let slow = super::reference::pauli_expectation(sv, &p);
                assert!((fast - slow).abs() < TOL, "{label}: {fast} vs {slow}");
            }
        }
        let h = PauliSum::from_labels(&[(0.7, "XIXI"), (-1.2, "ZZII"), (0.4, "YYYI")]).unwrap();
        let fast = dense.expectation(&h);
        let slow = super::reference::expectation(&dense, &h);
        assert!((fast - slow).abs() < TOL);
    }

    #[test]
    fn unbound_circuit_is_error() {
        let mut c = Circuit::new(1);
        c.ry(Param::Free(0), 0);
        assert!(StateVector::from_circuit(&c).is_err());
    }
}
