//! End-to-end H2 molecule assembly: geometry to qubit Hamiltonian.
//!
//! This drives the paper's Fig. 18 experiment: VQE potential-energy
//! estimation of H2 over bond lengths 0.4-2.0 angstrom, one Hamiltonian per
//! geometry.

use crate::fci::{fci_from_integrals, FciSolution};
use crate::integrals::h2_integrals;
use crate::scf::{ScfError, ScfSolution};
use crate::second_q::to_spin_orbitals;
use qismet_qsim::{PauliString, PauliSum};

/// Conversion constant: 1 angstrom in bohr.
pub const ANGSTROM_TO_BOHR: f64 = 1.889_726_124_626_2;

/// A fully solved H2 problem at one geometry.
#[derive(Debug, Clone)]
pub struct H2Problem {
    /// Bond length in angstrom.
    pub bond_angstrom: f64,
    /// The 4-qubit Jordan-Wigner Hamiltonian **including** the nuclear
    /// repulsion as an identity term, so its ground energy is the total
    /// molecular energy.
    pub hamiltonian: PauliSum,
    /// Restricted Hartree-Fock solution.
    pub scf: ScfSolution,
    /// FCI solution (the exact answer VQE chases).
    pub fci: FciSolution,
}

/// Errors from problem assembly.
#[derive(Debug)]
pub enum H2Error {
    /// SCF failure.
    Scf(ScfError),
    /// Jordan-Wigner produced residual imaginary coefficients.
    NonHermitian {
        /// Largest offending |Im|.
        residual: f64,
    },
}

impl std::fmt::Display for H2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            H2Error::Scf(e) => write!(f, "H2 SCF failure: {e}"),
            H2Error::NonHermitian { residual } => {
                write!(f, "JW residual imaginary coefficient {residual:e}")
            }
        }
    }
}

impl std::error::Error for H2Error {}

impl From<ScfError> for H2Error {
    fn from(e: ScfError) -> Self {
        H2Error::Scf(e)
    }
}

impl H2Problem {
    /// Solves the H2 electronic structure at a bond length (angstrom) and
    /// assembles the qubit Hamiltonian.
    ///
    /// # Errors
    ///
    /// * [`H2Error::Scf`] if Hartree-Fock does not converge.
    /// * [`H2Error::NonHermitian`] if the JW algebra leaves imaginary
    ///   residue (indicates an integral symmetry violation).
    ///
    /// # Panics
    ///
    /// Panics if `bond_angstrom` is not strictly positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use qismet_chem::H2Problem;
    /// let p = H2Problem::at_bond_length(0.735).unwrap();
    /// // STO-3G FCI total energy at equilibrium: -1.137306 hartree.
    /// assert!((p.fci.energy + 1.137306).abs() < 1e-6);
    /// assert_eq!(p.hamiltonian.n_qubits(), 4);
    /// ```
    pub fn at_bond_length(bond_angstrom: f64) -> Result<H2Problem, H2Error> {
        assert!(bond_angstrom > 0.0, "bond length must be positive");
        let r_bohr = bond_angstrom * ANGSTROM_TO_BOHR;
        let ints = h2_integrals(r_bohr);
        let (scf, mo, fci) = fci_from_integrals(&ints)?;
        let so = to_spin_orbitals(&mo);
        let mut hamiltonian = crate::jw::jordan_wigner(&so.h_one, &so.h_two)
            .map_err(|residual| H2Error::NonHermitian { residual })?;
        hamiltonian.add_term(so.e_nuc, PauliString::identity(4));
        Ok(H2Problem {
            bond_angstrom,
            hamiltonian,
            scf,
            fci,
        })
    }

    /// Exact ground energy of the qubit Hamiltonian (equals FCI by
    /// construction; exposed for sanity checking).
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn qubit_ground_energy(&self) -> Result<f64, qismet_mathkit::EigError> {
        self.hamiltonian.ground_energy()
    }
}

/// One point of a dissociation curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Bond length in angstrom.
    pub bond_angstrom: f64,
    /// FCI (exact) total energy, hartree.
    pub fci_energy: f64,
    /// RHF total energy, hartree.
    pub hf_energy: f64,
}

/// Computes the exact dissociation curve over the given bond lengths.
///
/// # Errors
///
/// Propagates per-geometry failures.
pub fn dissociation_curve(bond_lengths_angstrom: &[f64]) -> Result<Vec<CurvePoint>, H2Error> {
    bond_lengths_angstrom
        .iter()
        .map(|&r| {
            let p = H2Problem::at_bond_length(r)?;
            Ok(CurvePoint {
                bond_angstrom: r,
                fci_energy: p.fci.energy,
                hf_energy: p.scf.energy,
            })
        })
        .collect()
}

/// The paper's Fig. 18 grid: 10 bond lengths covering 0.4-2.0 angstrom.
pub fn fig18_bond_lengths() -> Vec<f64> {
    (0..10).map(|k| 0.4 + 0.177_777_78 * k as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equilibrium_energy_reference() {
        let p = H2Problem::at_bond_length(0.735).unwrap();
        // The STO-3G FCI reference at R = 0.735 A is -1.137306 Ha.
        assert!(
            (p.fci.energy + 1.137306).abs() < 1e-6,
            "E_FCI = {}",
            p.fci.energy
        );
        assert!(p.scf.energy > p.fci.energy);
    }

    #[test]
    fn qubit_hamiltonian_matches_fci() {
        for r in [0.5, 0.735, 1.2, 1.8] {
            let p = H2Problem::at_bond_length(r).unwrap();
            let eq = p.qubit_ground_energy().unwrap();
            assert!(
                (eq - p.fci.energy).abs() < 1e-7,
                "r = {r}: qubit {eq} vs fci {}",
                p.fci.energy
            );
        }
    }

    #[test]
    fn hamiltonian_is_compact() {
        // The JW H2 Hamiltonian has 15 distinct Pauli terms (incl. identity)
        // in the standard interleaved ordering.
        let p = H2Problem::at_bond_length(0.735).unwrap();
        let n_terms = p.hamiltonian.terms().len();
        assert!(
            (10..=20).contains(&n_terms),
            "unexpected term count {n_terms}"
        );
        // All terms act on 4 qubits with even weight (number-conserving).
        for (_, s) in p.hamiltonian.terms() {
            assert_eq!(s.n_qubits(), 4);
        }
    }

    #[test]
    fn curve_shape_matches_fig18() {
        let curve = dissociation_curve(&fig18_bond_lengths()).unwrap();
        assert_eq!(curve.len(), 10);
        // Energy decreases to a minimum near 0.735 A then rises toward the
        // dissociation plateau.
        let energies: Vec<f64> = curve.iter().map(|p| p.fci_energy).collect();
        let (imin, &emin) = energies
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let rmin = curve[imin].bond_angstrom;
        assert!((0.55..=0.95).contains(&rmin), "minimum at {rmin} A");
        assert!(emin < -1.10, "minimum energy {emin}");
        // Monotone rise after the minimum.
        for k in (imin + 1)..curve.len() {
            assert!(energies[k] >= energies[k - 1] - 1e-9);
        }
        // HF deviates from FCI increasingly with bond length.
        let gap_short = curve[1].hf_energy - curve[1].fci_energy;
        let gap_long = curve[9].hf_energy - curve[9].fci_energy;
        assert!(gap_long > gap_short);
    }

    #[test]
    fn fig18_grid_spans_paper_range() {
        let grid = fig18_bond_lengths();
        assert_eq!(grid.len(), 10);
        assert!((grid[0] - 0.4).abs() < 1e-9);
        assert!((grid[9] - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_geometry() {
        let _ = H2Problem::at_bond_length(-1.0);
    }
}
