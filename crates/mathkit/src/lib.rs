//! # qismet-mathkit
//!
//! Self-contained numerical foundation for the QISMET reproduction
//! (ASPLOS 2023, "Navigating the Dynamic Noise Landscape of Variational
//! Quantum Algorithms with QISMET").
//!
//! The crate deliberately re-implements the small amount of numerics the
//! project needs instead of pulling heavyweight linear-algebra dependencies:
//!
//! * [`Complex64`] — double-precision complex arithmetic.
//! * [`RMatrix`] / [`CMatrix`] — dense row-major matrices with the usual
//!   algebra plus Kronecker products (the workhorse for building Pauli-string
//!   operators).
//! * [`sym_eig`] / [`herm_eig`] — Jacobi eigensolvers, used for exact ground
//!   energies of TFIM / H2 Hamiltonians and for Loewdin orthogonalization in
//!   the Hartree-Fock solver.
//! * [`solve`] — LU-based linear algebra for readout-error calibration
//!   matrices.
//! * [`percentile`], [`geomean`], ... — the statistics the paper's evaluation
//!   quotes (percentile thresholds, geometric-mean improvements), and
//!   [`SortedWindow`], the sliding |Tm| history behind the online thresholds.
//! * [`erf`], [`boys_f0`] — special functions for closed-form Gaussian
//!   integrals in the H2 chemistry substrate.
//! * [`derive_seed`], [`standard_normal`], ... — deterministic seeding and
//!   distribution sampling so every experiment is reproducible.
//!
//! # Examples
//!
//! Building a two-qubit operator from Pauli matrices and extracting its
//! ground energy:
//!
//! ```
//! use qismet_mathkit::{herm_eig, CMatrix, Complex64};
//!
//! let z = CMatrix::from_rows(&[
//!     &[Complex64::ONE, Complex64::ZERO],
//!     &[Complex64::ZERO, Complex64::new(-1.0, 0.0)],
//! ]);
//! let zz = z.kron(&z);
//! let values = herm_eig(&zz).unwrap();
//! assert!((values[0] + 1.0).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod eig;
mod linsolve;
mod matrix;
mod rng;
mod special;
mod stats;

pub use complex::Complex64;
pub use eig::{generalized_sym_eig, herm_eig, sym_eig, EigError, SymEig};
pub use linsolve::{solve, Lu};
pub use matrix::{CMatrix, MatrixError, RMatrix};
pub use rng::{
    bernoulli, derive_seed, exponential, geometric, normal, pareto, rng_from_seed, standard_normal,
};
pub use special::{boys_f0, erf};
pub use stats::{
    geomean, max, mean, median, min, pearson, percentile, percentile_sorted, stddev, variance,
    SortedWindow,
};
