//! Property tests pinning the compiled execution path to the reference
//! kernels: random circuits and random `PauliSum`s must evaluate identically
//! (to <= 1e-12) through every path — interpreted gate dispatch with the
//! legacy per-term expectation sweeps, compiled plans with the fused
//! observable kernel, and the backend plan caches — in-place rebinding
//! must equal a fresh compile-and-bind, and a plan batch must equal a loop
//! of single plan evaluations bit for bit.

use proptest::prelude::*;
use qismet_qsim::statevector::reference;
use qismet_qsim::{
    Backend, CachedStatevectorBackend, Circuit, CompiledCircuit, CompiledObservable, Gate, Param,
    PauliString, PauliSum, StateVector, StatevectorBackend,
};

const TOL: f64 = 1e-12;

/// Builds a circuit from raw draws: each gate is (kind, operand selector,
/// second-operand selector, angle). Selectors are reduced modulo the width,
/// with two-qubit operands forced distinct.
fn build_circuit(n: usize, gates: &[(usize, usize, usize, f64)]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, b, angle) in gates {
        let q = a % n;
        let q2 = if n > 1 { (q + 1 + b % (n - 1)) % n } else { 0 };
        match kind % 17 {
            0 => c.h(q),
            1 => c.x(q),
            2 => c.y(q),
            3 => c.z(q),
            4 => c.s(q),
            5 => c.sdg(q),
            6 => c.append(Gate::T, &[q]),
            7 => c.append(Gate::Tdg, &[q]),
            8 => c.append(Gate::Sx, &[q]),
            9 => c.rx(angle, q),
            10 => c.ry(angle, q),
            11 => c.rz(angle, q),
            12 => c.append(Gate::Phase(angle.into()), &[q]),
            13 if n > 1 => c.cx(q, q2),
            14 if n > 1 => c.cz(q, q2),
            15 if n > 1 => c.swap(q, q2),
            16 if n > 1 => c.rzz(angle, q, q2),
            _ => c.ry(angle, q),
        };
    }
    c
}

/// Builds a Pauli sum from raw draws: each term is (coefficient, packed
/// per-qubit operator codes, 2 bits per qubit).
fn build_pauli_sum(n: usize, terms: &[(f64, u64)]) -> PauliSum {
    let mut h = PauliSum::zero(n);
    for &(coeff, packed) in terms {
        let label: String = (0..n)
            .rev()
            .map(|q| match (packed >> (2 * q)) & 3 {
                0 => 'I',
                1 => 'X',
                2 => 'Y',
                _ => 'Z',
            })
            .collect();
        h.add_term(coeff, PauliString::from_label(&label).unwrap());
    }
    h
}

/// Promotes every `free_stride`-th parameterized gate of `fixed` to the
/// next free parameter slot.
fn with_free_params(fixed: &Circuit, free_stride: usize) -> Circuit {
    let mut c = Circuit::new(fixed.n_qubits());
    let mut next_free = 0usize;
    for (i, op) in fixed.ops().iter().enumerate() {
        let gate = match (op.gate, i % free_stride == 0) {
            (Gate::Rx(_), true) => Gate::Rx(Param::Free(next_free)),
            (Gate::Ry(_), true) => Gate::Ry(Param::Free(next_free)),
            (Gate::Rz(_), true) => Gate::Rz(Param::Free(next_free)),
            (Gate::Phase(_), true) => Gate::Phase(Param::Free(next_free)),
            (Gate::Rzz(_), true) => Gate::Rzz(Param::Free(next_free)),
            (g, _) => g,
        };
        if gate.param() == Some(Param::Free(next_free)) {
            next_free += 1;
        }
        c.append(gate, op.operands());
    }
    c
}

/// `count` random parameter points of width `n_params`.
fn random_points(n_params: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..count as u64)
        .map(|k| {
            let mut rng = qismet_mathkit::rng_from_seed(seed + k);
            (0..n_params)
                .map(|_| rand::Rng::gen::<f64>(&mut rng) * 6.0 - 3.0)
                .collect()
        })
        .collect()
}

fn arb_gates() -> impl Strategy<Value = Vec<(usize, usize, usize, f64)>> {
    proptest::collection::vec((0usize..17, 0usize..64, 0usize..64, -3.2f64..3.2), 1..48)
}

fn arb_terms() -> impl Strategy<Value = Vec<(f64, u64)>> {
    proptest::collection::vec((-2.0f64..2.0, 0u64..16384), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A compiled plan prepares the same state as interpreted gate-by-gate
    // execution, despite single-qubit fusion reordering the arithmetic.
    #[test]
    fn compiled_state_matches_interpreted(
        n in 1usize..7,
        gates in arb_gates(),
    ) {
        let c = build_circuit(n, &gates);
        let interpreted = StateVector::from_circuit(&c).unwrap();
        let compiled = CompiledCircuit::compile(&c).state().unwrap();
        for (i, (a, b)) in interpreted
            .amplitudes()
            .iter()
            .zip(compiled.amplitudes())
            .enumerate()
        {
            prop_assert!(a.approx_eq(*b, TOL), "amplitude {i}: {a} vs {b}");
        }
    }

    // The fused observable kernel agrees with the legacy one-sweep-per-term
    // kernel on random states and random Hamiltonians.
    #[test]
    fn compiled_observable_matches_reference(
        n in 1usize..7,
        gates in arb_gates(),
        terms in arb_terms(),
    ) {
        let sv = StateVector::from_circuit(&build_circuit(n, &gates)).unwrap();
        let h = build_pauli_sum(n, &terms);
        let want = reference::expectation(&sv, &h);
        let got = CompiledObservable::compile(&h).expectation(&sv);
        prop_assert!((want - got).abs() < TOL, "reference {want} vs compiled {got}");
    }

    // End-to-end through the backend plan caches: both backends agree with
    // the reference kernels and bitwise with each other.
    #[test]
    fn backends_match_reference_and_each_other(
        n in 1usize..6,
        gates in arb_gates(),
        terms in arb_terms(),
    ) {
        let c = build_circuit(n, &gates);
        let h = build_pauli_sum(n, &terms);
        let sv = StateVector::from_circuit(&c).unwrap();
        let want = reference::expectation(&sv, &h);
        let fresh = StatevectorBackend::new().evaluate(&c, &h).unwrap();
        let cached = CachedStatevectorBackend::new().evaluate(&c, &h).unwrap();
        prop_assert!((want - fresh).abs() < TOL, "reference {want} vs backend {fresh}");
        prop_assert_eq!(fresh.to_bits(), cached.to_bits());
    }

    // The single-string fast path (hoisted i^y, no zero-skip) agrees with
    // the retained legacy kernel.
    #[test]
    fn pauli_expectation_matches_legacy(
        n in 1usize..7,
        gates in arb_gates(),
        packed in 0u64..16384,
    ) {
        let sv = StateVector::from_circuit(&build_circuit(n, &gates)).unwrap();
        let h = build_pauli_sum(n, &[(1.0, packed)]);
        let (_, string) = &h.terms()[0];
        let fast = sv.pauli_expectation(string);
        let slow = reference::pauli_expectation(&sv, string);
        prop_assert!((fast - slow).abs() < TOL, "{fast} vs {slow}");
    }

    // Rebinding a plan in place is exactly equivalent to compiling fresh and
    // binding once — bitwise, since the arithmetic is identical.
    #[test]
    fn rebind_equals_fresh_bind(
        n in 1usize..6,
        gates in arb_gates(),
        free_stride in 1usize..4,
        p_seed in 0u64..1_000_000,
    ) {
        let c = with_free_params(&build_circuit(n, &gates), free_stride);
        let points = random_points(c.n_params(), 3, p_seed);

        let mut reused = CompiledCircuit::compile(&c);
        for point in &points {
            reused.rebind(point).unwrap();
            let rebound = reused.state().unwrap();
            let mut fresh = CompiledCircuit::compile(&c);
            fresh.rebind(point).unwrap();
            let once = fresh.state().unwrap();
            prop_assert_eq!(rebound.amplitudes(), once.amplitudes());
        }
    }

    // The backend seam: evaluate_plan_batch on the cached and fresh backends
    // agrees bitwise with a loop of evaluate_plan calls at any point count.
    // `real_only` restricts the gates to ry/cx/cz/swap, so wide enough
    // plans take the real-amplitude run mode.
    #[test]
    fn backend_plan_batch_matches_singles_bitwise(
        n in 1usize..7,
        gates in arb_gates(),
        real_only in 0usize..2,
        count in 1usize..23,
        p_seed in 0u64..1_000_000,
    ) {
        let gates: Vec<_> = if real_only == 1 {
            gates.iter().map(|&(kind, a, b, t)| ([10, 13, 14, 15][kind % 4], a, b, t)).collect()
        } else {
            gates
        };
        let c = with_free_params(&build_circuit(n, &gates), 1);
        let h = build_pauli_sum(n, &[(-1.0, 0b1111), (0.7, 0b0101), (-0.4, 0b1001)]);
        let obs = CompiledObservable::compile(&h);
        let points = random_points(c.n_params(), count, p_seed);
        let mut cached = CachedStatevectorBackend::new();
        let mut fresh = StatevectorBackend::new();
        let mut plan = CompiledCircuit::compile(&c);
        let singles: Vec<f64> = points
            .iter()
            .map(|p| cached.evaluate_plan(&mut plan, p, &obs).unwrap())
            .collect();
        let via_cached = cached.evaluate_plan_batch(&mut plan, &points, &obs).unwrap();
        let via_fresh = fresh.evaluate_plan_batch(&mut plan, &points, &obs).unwrap();
        for (i, s) in singles.iter().enumerate() {
            prop_assert_eq!(s.to_bits(), via_cached[i].to_bits(), "cached point {}", i);
            prop_assert_eq!(s.to_bits(), via_fresh[i].to_bits(), "fresh point {}", i);
        }
    }
}

// Deterministic spot checks that do not need random exploration.

#[test]
fn plan_path_agrees_with_interpreted_objective_evaluation() {
    // The exact shape the VQA objective uses: a parameterized ansatz plus a
    // TFIM-style Hamiltonian, evaluated through evaluate_plan vs the full
    // interpreted pipeline.
    let n = 5;
    let mut ansatz = Circuit::new(n);
    let mut k = 0usize;
    for layer in 0..3 {
        for q in 0..n {
            ansatz.ry(Param::Free(k), q);
            k += 1;
        }
        for q in 0..n - 1 {
            if (layer + q) % 2 == 0 {
                ansatz.cx(q, q + 1);
            }
        }
    }
    let h = PauliSum::from_labels(&[
        (-1.0, "IIIZZ"),
        (-1.0, "IIZZI"),
        (-1.0, "IZZII"),
        (-1.0, "ZZIII"),
        (-1.0, "IIIIX"),
        (-1.0, "XIIII"),
    ])
    .unwrap();
    let mut plan = CompiledCircuit::compile(&ansatz);
    let obs = CompiledObservable::compile(&h);
    let mut backend = CachedStatevectorBackend::new();
    for seed in 0..8u64 {
        let mut rng = qismet_mathkit::rng_from_seed(seed);
        let params: Vec<f64> = (0..k)
            .map(|_| rand::Rng::gen::<f64>(&mut rng) * 2.0 - 1.0)
            .collect();
        let fast = backend.evaluate_plan(&mut plan, &params, &obs).unwrap();
        let bound = ansatz.bind(&params).unwrap();
        let sv = StateVector::from_circuit(&bound).unwrap();
        let slow = reference::expectation(&sv, &h);
        assert!((fast - slow).abs() < TOL, "seed {seed}: {fast} vs {slow}");
    }
}

#[test]
fn rebind_then_evaluate_matches_bind_then_evaluate_through_backend() {
    let mut c = Circuit::new(3);
    c.ry(Param::Free(0), 0)
        .rz(Param::Free(1), 0)
        .cx(0, 1)
        .rzz(Param::Free(2), 1, 2)
        .ry(Param::Free(3), 2);
    let h = PauliSum::from_labels(&[(0.8, "ZZI"), (-0.6, "IXX"), (0.3, "YIY")]).unwrap();
    let mut plan = CompiledCircuit::compile(&c);
    let obs = CompiledObservable::compile(&h);
    let mut backend = CachedStatevectorBackend::new();
    for seed in 0..6u64 {
        let mut rng = qismet_mathkit::rng_from_seed(100 + seed);
        let params: Vec<f64> = (0..4)
            .map(|_| rand::Rng::gen::<f64>(&mut rng) * 4.0 - 2.0)
            .collect();
        let via_plan = backend.evaluate_plan(&mut plan, &params, &obs).unwrap();
        let via_bind = backend.evaluate(&c.bind(&params).unwrap(), &h).unwrap();
        // Same compiled kernels underneath: bitwise identical.
        assert_eq!(via_plan.to_bits(), via_bind.to_bits(), "seed {seed}");
    }
}
