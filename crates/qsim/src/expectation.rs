//! The exact energy of a circuit's output state.
//!
//! The objective scores every point from the exact expectation
//! (paper Section 6.2): finite shots enter as Gaussian noise on top of it,
//! not as sampled bitstrings. [`exact_energy`] is that infinite-shot value.

use crate::circuit::Circuit;
use crate::gate::GateError;
use crate::pauli::PauliSum;
use crate::statevector::StateVector;

/// Exact (infinite-shot) energy from the state vector.
///
/// # Errors
///
/// [`GateError::UnboundParameter`] if the circuit is unbound.
pub fn exact_energy(circuit: &Circuit, h: &PauliSum) -> Result<f64, GateError> {
    let sv = StateVector::from_circuit(circuit)?;
    Ok(sv.expectation(h))
}
