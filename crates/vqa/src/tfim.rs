//! The one-dimensional Transverse Field Ising Model (TFIM).
//!
//! The paper's primary VQE target (Section 6.1): "an ubiquitous model that
//! has applications in understanding phase transitions in magnetic
//! materials. The TFIM is a desirable system since it is exactly solvable
//! via classical means."
//!
//! `H = -J sum_i Z_i Z_{i+1} - h sum_i X_i` over an open or periodic chain.

use qismet_qsim::{Pauli, PauliString, PauliSum};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Chain boundary conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// Open chain: `n - 1` coupling terms.
    Open,
    /// Periodic chain: `n` coupling terms (wraps around).
    Periodic,
}

/// TFIM specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tfim {
    /// Number of spins.
    pub n: usize,
    /// Ising coupling strength.
    pub j: f64,
    /// Transverse field strength.
    pub h: f64,
    /// Boundary conditions.
    pub boundary: Boundary,
}

impl Tfim {
    /// The paper-scale instance: 6 spins at the critical point `J = h = 1`,
    /// open boundary.
    pub fn paper_6q() -> Self {
        Tfim {
            n: 6,
            j: 1.0,
            h: 1.0,
            boundary: Boundary::Open,
        }
    }

    /// Builds the Pauli-sum Hamiltonian.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn hamiltonian(&self) -> PauliSum {
        assert!(self.n >= 2, "TFIM needs at least two spins");
        let mut sum = PauliSum::zero(self.n);
        let couplings = match self.boundary {
            Boundary::Open => self.n - 1,
            Boundary::Periodic => self.n,
        };
        for i in 0..couplings {
            let a = i;
            let b = (i + 1) % self.n;
            let mut paulis = vec![Pauli::I; self.n];
            paulis[a] = Pauli::Z;
            paulis[b] = Pauli::Z;
            sum.add_term(-self.j, PauliString::new(paulis));
        }
        for i in 0..self.n {
            sum.add_term(-self.h, PauliString::single(self.n, i, Pauli::X));
        }
        sum
    }

    /// Exact ground energy by dense diagonalization (fine for `n <= 10`),
    /// memoized process-wide.
    ///
    /// The memo is keyed by `(n, j.to_bits(), h.to_bits(), boundary)`, so
    /// only the first call per key per process pays the dense solve; every
    /// later call returns the same bits. The memo lock is held across the
    /// solve, so threads racing on one key solve it exactly once. Only
    /// successful solves are cached. The `vqa.ground_energy.solves` and
    /// `vqa.ground_energy.hits` telemetry counters record both outcomes.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn exact_ground_energy(&self) -> Result<f64, qismet_mathkit::EigError> {
        type Key = (usize, u64, u64, Boundary);
        static MEMO: OnceLock<Mutex<HashMap<Key, f64>>> = OnceLock::new();
        let key = (self.n, self.j.to_bits(), self.h.to_bits(), self.boundary);
        let mut memo = MEMO
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(&e) = memo.get(&key) {
            qismet_telemetry::counter!("vqa.ground_energy.hits").inc();
            return Ok(e);
        }
        qismet_telemetry::counter!("vqa.ground_energy.solves").inc();
        let e = self.hamiltonian().ground_energy()?;
        memo.insert(key, e);
        Ok(e)
    }

    /// Analytic ground energy of the **periodic** chain via the
    /// free-fermion (Jordan-Wigner) solution:
    /// `E = -sum_k eps(k)` over the fermion modes with
    /// `eps(k) = 2 sqrt(J^2 + h^2 - 2 J h cos k)`.
    ///
    /// Exact in the thermodynamic limit and for finite even chains in the
    /// dominant (odd-parity-free) sector; used as a cross-check of the dense
    /// solver at small `n` (agreement to finite-size corrections) and as the
    /// scalable reference at large `n`.
    ///
    /// # Panics
    ///
    /// Panics if called on an open-boundary instance.
    pub fn free_fermion_energy(&self) -> f64 {
        assert_eq!(
            self.boundary,
            Boundary::Periodic,
            "free-fermion formula applies to the periodic chain"
        );
        // Anti-periodic (Neveu-Schwarz) momenta for the even-parity sector:
        // k = pi (2m + 1) / n, m = 0..n-1.
        let n = self.n as f64;
        let mut e = 0.0;
        for m in 0..self.n {
            let k = std::f64::consts::PI * (2.0 * m as f64 + 1.0) / n;
            let eps =
                2.0 * (self.j * self.j + self.h * self.h - 2.0 * self.j * self.h * k.cos()).sqrt();
            e -= eps / 2.0;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_counts() {
        let open = Tfim {
            n: 6,
            j: 1.0,
            h: 0.5,
            boundary: Boundary::Open,
        };
        assert_eq!(open.hamiltonian().terms().len(), 5 + 6);
        let periodic = Tfim {
            boundary: Boundary::Periodic,
            ..open
        };
        assert_eq!(periodic.hamiltonian().terms().len(), 6 + 6);
    }

    #[test]
    fn two_site_exact_energy() {
        // H = -J Z0 Z1 - h (X0 + X1): ground energy -sqrt(J^2 + ...) known:
        // eigenvalues of the 4x4 are -+ sqrt(J^2 + 4h^2) and -+ J... ground
        // = -sqrt(J^2 + 4 h^2).
        let t = Tfim {
            n: 2,
            j: 1.0,
            h: 0.5,
            boundary: Boundary::Open,
        };
        let e = t.exact_ground_energy().unwrap();
        assert!((e + (1.0f64 + 4.0 * 0.25).sqrt()).abs() < 1e-9, "E = {e}");
    }

    #[test]
    fn paper_instance_ground_energy() {
        // 6-qubit critical open TFIM: ground energy approximately -7.2958
        // (cross-checked against dense diagonalization).
        let t = Tfim::paper_6q();
        let e = t.exact_ground_energy().unwrap();
        assert!(e < -7.0 && e > -7.6, "E = {e}");
        // The Hamiltonian norm bounds it.
        assert!(e.abs() <= t.hamiltonian().one_norm());
    }

    #[test]
    fn free_fermion_matches_dense_for_periodic_chain() {
        for (n, j, h) in [(4, 1.0, 1.0), (6, 1.0, 0.5), (8, 0.7, 1.3)] {
            let t = Tfim {
                n,
                j,
                h,
                boundary: Boundary::Periodic,
            };
            let dense = t.exact_ground_energy().unwrap();
            let analytic = t.free_fermion_energy();
            assert!(
                (dense - analytic).abs() < 1e-8,
                "n={n} J={j} h={h}: dense {dense} vs analytic {analytic}"
            );
        }
    }

    /// The uncached dense solve the memo must reproduce bit for bit.
    fn dense(t: &Tfim) -> f64 {
        t.hamiltonian().ground_energy().unwrap()
    }

    #[test]
    fn memoized_energy_is_bit_identical_to_dense_solve() {
        // Every boundary x regime (critical, field-, coupling-dominated) up
        // to 6 spins, plus one 7-spin case: a debug-build dense solve takes
        // seconds at 7 spins and ~30 s at 8.
        let mut cases = vec![Tfim::paper_6q()];
        for n in 2..=6 {
            for boundary in [Boundary::Open, Boundary::Periodic] {
                for (j, h) in [(1.0, 1.0), (0.05, 2.0), (2.0, 0.05)] {
                    cases.push(Tfim { n, j, h, boundary });
                }
            }
        }
        cases.push(Tfim {
            n: 7,
            j: 0.05,
            h: 2.0,
            boundary: Boundary::Periodic,
        });
        for t in cases {
            let want = dense(&t).to_bits();
            // First call may solve or hit (the memo is process-wide and
            // other tests share it); the second call always hits.
            assert_eq!(t.exact_ground_energy().unwrap().to_bits(), want, "{t:?}");
            assert_eq!(t.exact_ground_energy().unwrap().to_bits(), want, "{t:?}");
        }
    }

    #[test]
    fn memo_keys_do_not_alias() {
        let open = Tfim {
            n: 5,
            j: 1.0,
            h: 0.4,
            boundary: Boundary::Open,
        };
        let periodic = Tfim {
            boundary: Boundary::Periodic,
            ..open
        };
        let swapped = Tfim {
            j: open.h,
            h: open.j,
            ..open
        };
        let cases = [open, periodic, swapped];
        let energies: Vec<f64> = cases
            .iter()
            .map(|t| t.exact_ground_energy().unwrap())
            .collect();
        for (t, e) in cases.iter().zip(&energies) {
            assert_eq!(e.to_bits(), dense(t).to_bits(), "{t:?}");
        }
        assert_ne!(energies[0], energies[1], "open vs periodic");
        assert_ne!(energies[0], energies[2], "swapped (j, h)");
    }

    #[test]
    fn field_dominated_limit() {
        // h >> J: ground state ~ |+...+> with E ~ -n h.
        let t = Tfim {
            n: 4,
            j: 0.01,
            h: 2.0,
            boundary: Boundary::Open,
        };
        let e = t.exact_ground_energy().unwrap();
        assert!((e + 8.0).abs() < 0.05, "E = {e}");
    }

    #[test]
    fn coupling_dominated_limit() {
        // J >> h: ground state ~ ferromagnet with E ~ -(n-1) J.
        let t = Tfim {
            n: 4,
            j: 2.0,
            h: 0.01,
            boundary: Boundary::Open,
        };
        let e = t.exact_ground_energy().unwrap();
        assert!((e + 6.0).abs() < 0.05, "E = {e}");
    }

    #[test]
    fn measurement_groups_are_two() {
        // All ZZ terms share the Z basis; all X terms share the X basis.
        let h = Tfim::paper_6q().hamiltonian();
        assert_eq!(h.measurement_groups().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least two spins")]
    fn tiny_chain_rejected() {
        let t = Tfim {
            n: 1,
            j: 1.0,
            h: 1.0,
            boundary: Boundary::Open,
        };
        let _ = t.hamiltonian();
    }
}
