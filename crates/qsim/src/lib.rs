//! # qismet-qsim
//!
//! Quantum circuit simulation substrate for the QISMET reproduction
//! (ASPLOS 2023). The paper evaluates on IBMQ hardware and the Qiskit Aer
//! simulator; this crate provides the equivalent execution backends built
//! from scratch:
//!
//! * [`Circuit`] / [`Gate`] — parameterized circuits over a NISQ-style gate
//!   alphabet (rotations, Clifford staples, `CX`/`CZ`/`SWAP`/`RZZ`).
//! * [`StateVector`] — exact pure-state evolution with analytic expectation
//!   values and finite-shot sampling.
//! * [`CompiledCircuit`] / [`CompiledObservable`] — the compile-once,
//!   rebind-forever execution plans behind the allocation-free objective
//!   hot path (fused single-qubit runs, entangler ladders as one
//!   permutation table, single-sweep diagonal expectation, Hermitian
//!   pair-skipping for off-diagonal terms).
//! * [`Backend`] — the execution seam every objective evaluates through.
//!   Its one implementation, [`StatevectorBackend`], runs compiled plans on
//!   a scratch statevector reused across calls.
//! * [`DensityMatrix`] + [`KrausChannel`] — mixed-state evolution under the
//!   standard NISQ error channels (amplitude/phase damping, depolarizing),
//!   used for circuit-fidelity studies (paper Fig. 4) and for validating the
//!   fast objective model.
//! * [`PauliString`] / [`PauliSum`] — Hamiltonians as real-weighted Pauli
//!   sums with dense materialization and exact ground energies.
//! * [`MeasurementPlan`] and [`basis_change_circuit`] — the basis-rotation
//!   measurement pipeline of a real VQE (paper Fig. 8).
//! * [`hellinger_fidelity`] — the circuit fidelity metric.
//!
//! # Examples
//!
//! A two-qubit VQE energy evaluation:
//!
//! ```
//! use qismet_qsim::{exact_energy, Circuit, PauliSum};
//!
//! let h = PauliSum::from_labels(&[(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")]).unwrap();
//! let mut ansatz = Circuit::new(2);
//! ansatz.ry(0.4, 0).ry(0.4, 1).cx(0, 1);
//! let energy = exact_energy(&ansatz, &h).unwrap();
//! // A variational energy never undercuts the ground energy.
//! assert!(energy >= h.ground_energy().unwrap() - 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod circuit;
mod compile;
mod counts;
mod density;
mod expectation;
mod fidelity;
mod gate;
mod kernels;
mod kraus;
mod pauli;
pub mod statevector;

pub use backend::{Backend, BackendPool, StatevectorBackend};
pub use circuit::{Circuit, CircuitError, Op};
pub use compile::{CompiledCircuit, CompiledObservable};
pub use counts::Counts;
pub use density::DensityMatrix;
pub use expectation::{basis_change_circuit, exact_energy, MeasurementGroup, MeasurementPlan};
pub use fidelity::hellinger_fidelity;
pub use gate::{Gate, GateError, Param};
pub use kraus::{ChannelError, KrausChannel};
pub use pauli::{Pauli, PauliError, PauliString, PauliSum};
pub use statevector::StateVector;
