//! Workspace-level property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use qismet::TransientEstimate;
use qismet_mathkit::Complex64;
use qismet_qsim::{Circuit, Gate, PauliString, PauliSum, StateVector};

fn arb_angle() -> impl Strategy<Value = f64> {
    -std::f64::consts::PI..std::f64::consts::PI
}

fn arb_circuit(n_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    // A sequence of (gate selector, qubit, angle) tuples.
    proptest::collection::vec((0usize..6, 0usize..n_qubits, arb_angle()), 1..max_gates).prop_map(
        move |ops| {
            let mut c = Circuit::new(n_qubits);
            for (kind, q, theta) in ops {
                match kind {
                    0 => {
                        c.h(q);
                    }
                    1 => {
                        c.rx(theta, q);
                    }
                    2 => {
                        c.ry(theta, q);
                    }
                    3 => {
                        c.rz(theta, q);
                    }
                    4 => {
                        c.cx(q, (q + 1) % n_qubits);
                    }
                    _ => {
                        c.cz(q, (q + 1) % n_qubits);
                    }
                }
            }
            c
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unitarity: every random circuit preserves the state norm.
    #[test]
    fn circuits_preserve_norm(c in arb_circuit(4, 40)) {
        let sv = StateVector::from_circuit(&c).unwrap();
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Pauli expectations of pure states always lie in [-1, 1].
    #[test]
    fn pauli_expectations_bounded(c in arb_circuit(3, 30), label_idx in 0usize..4) {
        let labels = ["ZZZ", "XIX", "YZI", "XYZ"];
        let p = PauliString::from_label(labels[label_idx]).unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let e = sv.pauli_expectation(&p);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&e), "e = {e}");
    }

    /// Hamiltonian expectations are bounded by the one-norm and never below
    /// the exact ground energy (variational principle).
    #[test]
    fn variational_bound_holds(c in arb_circuit(3, 25)) {
        let h = PauliSum::from_labels(&[(-1.0, "ZZI"), (-1.0, "IZZ"),
                                        (-0.7, "XII"), (-0.7, "IXI"), (-0.7, "IIX")]).unwrap();
        let gs = h.ground_energy().unwrap();
        let sv = StateVector::from_circuit(&c).unwrap();
        let e = sv.expectation(&h);
        prop_assert!(e >= gs - 1e-9, "e = {e} below ground {gs}");
        prop_assert!(e.abs() <= h.one_norm() + 1e-9);
    }

    /// The inverse circuit really inverts: U^-1 U |0> = |0>.
    #[test]
    fn inverse_circuit_roundtrip(c in arb_circuit(3, 25)) {
        let mut sv = StateVector::from_circuit(&c).unwrap();
        sv.apply_circuit(&c.inverse().unwrap()).unwrap();
        prop_assert!(sv.amplitudes()[0].approx_eq(Complex64::ONE, 1e-8)
            || (sv.amplitudes()[0].abs() - 1.0).abs() < 1e-8,
            "|0> amplitude {}", sv.amplitudes()[0]);
    }

    /// Fig. 8 estimator identities hold for arbitrary measurements.
    #[test]
    fn estimator_identities(em_prev in -10.0f64..10.0,
                            em_rerun in -10.0f64..10.0,
                            em_curr in -10.0f64..10.0) {
        let est = TransientEstimate::new(em_prev, em_rerun, em_curr);
        prop_assert!((est.gp() - (est.gm() - est.tm())).abs() < 1e-12);
        prop_assert!((est.ep() - (em_curr - est.tm())).abs() < 1e-12);
        // No transient estimate -> prediction equals machine value.
        let clean = TransientEstimate::new(em_prev, em_prev, em_curr);
        prop_assert_eq!(clean.gm(), clean.gp());
    }

    /// Gate matrices stay unitary for arbitrary angles.
    #[test]
    fn parameterized_gates_unitary(theta in arb_angle()) {
        for g in [Gate::Rx(theta.into()), Gate::Ry(theta.into()),
                  Gate::Rz(theta.into()), Gate::Phase(theta.into()),
                  Gate::Rzz(theta.into())] {
            prop_assert!(g.matrix().unwrap().is_unitary(1e-10));
        }
    }
}
