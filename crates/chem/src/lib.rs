//! # qismet-chem
//!
//! Electronic-structure substrate for the QISMET reproduction's molecular
//! experiments (paper Fig. 18: H2 potential energy over bond length).
//!
//! Everything is computed from first principles — no embedded third-party
//! integral tables:
//!
//! * [`BasisFunction`] — STO-3G hydrogen 1s contractions.
//! * [`h2_integrals`] — closed-form s-orbital Gaussian integrals (overlap,
//!   kinetic, nuclear attraction via the Boys function, electron repulsion).
//! * [`run_rhf`] — restricted Hartree-Fock SCF.
//! * [`run_fci`] — full CI in the 2-electron / 2-orbital space (the exact
//!   reference energy).
//! * [`jordan_wigner`] — fermion-to-qubit mapping with a complex-weighted
//!   Pauli algebra ([`CPauliSum`]), validated against FCI.
//! * [`H2Problem`] / [`dissociation_curve`] — geometry-to-Hamiltonian
//!   assembly for the VQE experiments.
//!
//! # Examples
//!
//! ```
//! use qismet_chem::H2Problem;
//!
//! let problem = H2Problem::at_bond_length(0.735).unwrap();
//! let e_exact = problem.fci.energy;        // -1.137306 hartree
//! let e_qubit = problem.qubit_ground_energy().unwrap();
//! assert!((e_exact - e_qubit).abs() < 1e-7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod fci;
mod h2;
mod integrals;
mod jw;
mod scf;
mod second_q;

pub use basis::{BasisFunction, Primitive, STO3G_H_COEFFS, STO3G_H_EXPONENTS};
pub use fci::{fci_from_integrals, run_fci, transform_to_mo, FciSolution, MoIntegrals};
pub use h2::{
    dissociation_curve, fig18_bond_lengths, CurvePoint, H2Error, H2Problem, ANGSTROM_TO_BOHR,
};
pub use integrals::{
    electron_repulsion, h2_integrals, kinetic, nuclear_attraction, overlap, H2Integrals,
};
pub use jw::{annihilation, creation, jordan_wigner, pauli_mul, CPauliSum};
pub use scf::{run_rhf, ScfError, ScfSolution};
pub use second_q::{to_spin_orbitals, SpinOrbitalHamiltonian};
