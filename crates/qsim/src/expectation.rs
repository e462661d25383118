//! Measurement planning for Pauli-sum expectation values, and the exact
//! energy.
//!
//! This is the measurement pipeline a real VQE runs (Fig. 8 of the paper):
//! the Hamiltonian is split into qubit-wise commuting groups, the ansatz
//! circuit is extended with basis-change gates per group, the rotated circuit
//! is sampled, and each term's expectation is a parity average over the
//! counts. [`exact_energy`] is the infinite-shot reference.

use crate::circuit::Circuit;
use crate::gate::GateError;
use crate::pauli::{Pauli, PauliSum};
use crate::statevector::StateVector;

/// The measurement plan for one qubit-wise commuting group.
#[derive(Debug, Clone)]
pub struct MeasurementGroup {
    /// Indices into the Hamiltonian's term list.
    pub term_indices: Vec<usize>,
    /// Per-qubit measurement basis.
    pub basis: Vec<Pauli>,
}

/// A compiled measurement plan for a Hamiltonian.
#[derive(Debug, Clone)]
pub struct MeasurementPlan {
    groups: Vec<MeasurementGroup>,
    identity_offset: f64,
}

impl MeasurementPlan {
    /// Compiles the qubit-wise commuting grouping for `h`.
    pub fn compile(h: &PauliSum) -> Self {
        let groups = h
            .measurement_groups()
            .into_iter()
            .map(|idxs| {
                let basis = h.group_basis(&idxs);
                MeasurementGroup {
                    term_indices: idxs,
                    basis,
                }
            })
            .collect();
        MeasurementPlan {
            groups,
            identity_offset: h.identity_coefficient(),
        }
    }

    /// The measurement groups.
    pub fn groups(&self) -> &[MeasurementGroup] {
        &self.groups
    }

    /// Constant (identity-term) energy offset.
    pub fn identity_offset(&self) -> f64 {
        self.identity_offset
    }

    /// Number of distinct circuits one energy evaluation requires.
    pub fn n_circuits(&self) -> usize {
        self.groups.len()
    }
}

/// Builds the basis-rotation suffix circuit for a group.
pub fn basis_change_circuit(n_qubits: usize, basis: &[Pauli]) -> Circuit {
    let mut c = Circuit::new(n_qubits);
    for (q, &p) in basis.iter().enumerate() {
        match p {
            Pauli::X => {
                c.h(q);
            }
            Pauli::Y => {
                c.sdg(q).h(q);
            }
            Pauli::Z | Pauli::I => {}
        }
    }
    c
}

/// Exact (infinite-shot) energy from the state vector — the reference a
/// sampled estimate converges to.
///
/// # Errors
///
/// [`GateError::UnboundParameter`] if the circuit is unbound.
pub fn exact_energy(circuit: &Circuit, h: &PauliSum) -> Result<f64, GateError> {
    let sv = StateVector::from_circuit(circuit)?;
    Ok(sv.expectation(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_groups_and_offset() {
        let h = PauliSum::from_labels(&[(0.5, "III"), (1.0, "XIX"), (1.0, "ZZI")]).unwrap();
        let plan = MeasurementPlan::compile(&h);
        assert_eq!(plan.identity_offset(), 0.5);
        assert_eq!(plan.n_circuits(), 2);
    }

    #[test]
    fn basis_change_gate_counts() {
        let c = basis_change_circuit(3, &[Pauli::X, Pauli::Z, Pauli::Y]);
        // X -> 1 gate (H), Z -> none, Y -> 2 gates (Sdg, H).
        assert_eq!(c.len(), 3);
    }
}
