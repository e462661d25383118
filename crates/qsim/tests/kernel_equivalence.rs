//! Property tests for the fused statevector kernels: circuit shapes that
//! drive the lowering into its k-qubit superop and permutation-table paths
//! must agree with interpreted gate-by-gate dispatch and with the
//! `statevector::reference` expectation kernels to `<= 1e-12`.

use proptest::prelude::*;
use qismet_qsim::statevector::reference;
use qismet_qsim::{Circuit, CompiledCircuit, CompiledObservable, PauliSum, StateVector};

const TOL: f64 = 1e-12;

/// Superop-heavy shape: dense one-qubit runs interleaved with entanglers on
/// overlapping pairs, which drives the lowering into k<=3 dense superops.
fn superop_circuit(n: usize, draws: &[(usize, usize, f64)]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, sel, angle) in draws {
        let q = sel % n;
        let q2 = (q + 1 + kind % (n - 1)) % n;
        match kind % 8 {
            0 => c.ry(angle, q),
            1 => c.rz(angle, q),
            2 => c.h(q),
            3 => c.rx(angle, q),
            4 => c.cx(q, q2),
            5 => c.cz(q, q2),
            6 => c.rzz(angle, q, q2),
            _ => c.swap(q, q2),
        };
    }
    c
}

/// Ladder-heavy shape: long pure-entangler runs (the permutation-table
/// path) separated by sparse one-qubit gates.
fn ladder_circuit(n: usize, draws: &[(usize, usize, f64)]) -> Circuit {
    let mut c = Circuit::new(n);
    for (i, &(kind, sel, angle)) in draws.iter().enumerate() {
        let q = sel % n;
        let q2 = (q + 1 + kind % (n - 1)) % n;
        if i % 7 == 6 {
            c.ry(angle, q);
        } else {
            match kind % 4 {
                0 => c.cx(q, q2),
                1 => c.cz(q, q2),
                2 => c.swap(q, q2),
                _ => c.rzz(angle, q, q2),
            };
        }
    }
    c
}

/// A TFIM-style Hamiltonian mixing diagonal (ZZ) and off-diagonal (X) terms.
fn tfim(n: usize) -> PauliSum {
    let mut labels: Vec<(f64, String)> = Vec::new();
    for q in 0..n - 1 {
        let mut l = vec!['I'; n];
        l[q] = 'Z';
        l[q + 1] = 'Z';
        labels.push((-1.0, l.into_iter().collect()));
    }
    for q in 0..n {
        let mut l = vec!['I'; n];
        l[q] = 'X';
        labels.push((-0.7, l.into_iter().collect()));
    }
    let refs: Vec<(f64, &str)> = labels.iter().map(|(c, s)| (*c, s.as_str())).collect();
    PauliSum::from_labels(&refs).unwrap()
}

fn arb_draws(max: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0usize..64, 0usize..64, -3.2f64..3.2), 1..max)
}

fn assert_state_and_energy(c: &Circuit, h: &PauliSum) {
    let interpreted = StateVector::from_circuit(c).unwrap();
    let plan = CompiledCircuit::compile(c);
    let compiled = plan.state().unwrap();
    for (i, (a, b)) in interpreted
        .amplitudes()
        .iter()
        .zip(compiled.amplitudes())
        .enumerate()
    {
        prop_assert!(a.approx_eq(*b, TOL), "amplitude {i}: {a} vs {b}");
    }
    let want = reference::expectation(&interpreted, h);
    let got = CompiledObservable::compile(h).expectation(&compiled);
    prop_assert!((want - got).abs() < TOL, "reference {want} vs fused {got}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Superop-heavy circuits: fused k-qubit matrices must reproduce
    // interpreted dispatch and the reference expectation kernels.
    #[test]
    fn superop_path_matches_reference(
        n in 2usize..7,
        draws in arb_draws(48),
    ) {
        assert_state_and_energy(&superop_circuit(n, &draws), &tfim(n));
    }

    // Ladder-heavy circuits: the permutation+phase tables must reproduce
    // interpreted dispatch and the reference expectation kernels.
    #[test]
    fn table_path_matches_reference(
        n in 2usize..7,
        draws in arb_draws(64),
    ) {
        assert_state_and_energy(&ladder_circuit(n, &draws), &tfim(n));
    }
}

// The real-amplitude fast path: a ry+cx circuit preserves real amplitudes,
// so `run` evolves an f64 scratch and writes it back. Pin that path against
// the interpreted reference, and pin that an rzz (complex) circuit both
// opts out of the mode and still matches.
#[test]
fn real_amplitude_run_matches_reference() {
    let n = 7;
    let mut real = Circuit::new(n);
    for layer in 0..4 {
        for q in 0..n {
            real.ry(0.3 + 0.11 * (layer * n + q) as f64, q);
        }
        for q in 0..n - 1 {
            real.cx(q, q + 1);
        }
    }
    let plan = CompiledCircuit::compile(&real);
    assert!(
        plan.runs_real(),
        "ry+cx circuit should take the real-run path"
    );
    let interpreted = StateVector::from_circuit(&real).unwrap();
    let mut sv = StateVector::new(n);
    plan.run(&mut sv).unwrap();
    for (i, (a, b)) in interpreted
        .amplitudes()
        .iter()
        .zip(sv.amplitudes())
        .enumerate()
    {
        assert!(a.approx_eq(*b, TOL), "amplitude {i}: {a} vs {b}");
        assert_eq!(b.im, 0.0, "amplitude {i} must be exactly real");
    }

    // The fused run+expectation (energy computed on the f64 scratch) must
    // be bitwise identical to the two-call complex sequence.
    let obs = CompiledObservable::compile(&tfim(n));
    let two_call = obs.expectation(&sv);
    let fused = plan.run_expectation(&mut sv, &obs).unwrap();
    assert_eq!(
        two_call.to_bits(),
        fused.to_bits(),
        "fused expectation must match bitwise"
    );

    let mut complex = real.clone();
    complex.rzz(0.4, 0, 1);
    let plan = CompiledCircuit::compile(&complex);
    assert!(
        !plan.runs_real(),
        "rzz circuit must opt out of the real-run path"
    );
    let interpreted = StateVector::from_circuit(&complex).unwrap();
    let mut sv = StateVector::new(n);
    plan.run(&mut sv).unwrap();
    for (i, (a, b)) in interpreted
        .amplitudes()
        .iter()
        .zip(sv.amplitudes())
        .enumerate()
    {
        assert!(a.approx_eq(*b, TOL), "amplitude {i}: {a} vs {b}");
    }
}
