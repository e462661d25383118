//! Cost breakdown for the compiled objective path at 4/8/12 qubits —
//! phases (rebind/run/expectation) and per-op-kind isolation.
use qismet_qsim::{CompiledCircuit, CompiledObservable, StateVector};
use qismet_vqa::{Ansatz, AnsatzKind, Boundary, Entanglement, Tfim};
use std::time::Instant;

fn mean_ns(mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    let mut calls = 0u64;
    while warm.elapsed().as_millis() < 150 {
        f();
        calls += 1;
    }
    let per_call = warm.elapsed().as_secs_f64() / calls.max(1) as f64;
    let reps = ((0.6) / per_call.max(1e-9)) as u64;
    let reps = reps.clamp(1, 10_000_000);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn op_isolation(n: usize) {
    use qismet_qsim::{Circuit, Param};
    // Pure CX-ladder plan: 4 ladders of n-1 CX gates -> permutation tables.
    let mut ladders = Circuit::new(n);
    for _ in 0..4 {
        for q in 0..n - 1 {
            ladders.cx(q, q + 1);
        }
    }
    let mut plan = CompiledCircuit::compile(&ladders);
    plan.rebind(&[]).unwrap();
    let mut sv = StateVector::new(n);
    let table_ns = mean_ns(|| {
        plan.run(&mut sv).unwrap();
        std::hint::black_box(&sv);
    });
    let table_len = plan.len();

    // Pure free-1q plan: one fused segment per wire.
    let mut rys = Circuit::new(n);
    for q in 0..n {
        rys.ry(Param::Free(q), q);
    }
    let mut plan1 = CompiledCircuit::compile(&rys);
    let thetas: Vec<f64> = (0..n).map(|k| 0.1 + k as f64).collect();
    plan1.rebind(&thetas).unwrap();
    let oneq_ns = mean_ns(|| {
        plan1.run(&mut sv).unwrap();
        std::hint::black_box(&sv);
    });
    println!(
        "  [{n}q isolation] {} tables: run {table_ns:.0} ns ({:.0} ns/table); {} one-q segs: run {oneq_ns:.0} ns ({:.0} ns/seg)",
        table_len,
        table_ns / table_len.max(1) as f64,
        plan1.len(),
        oneq_ns / plan1.len().max(1) as f64
    );
}

fn main() {
    for n in [4usize, 8, 12] {
        let tfim = Tfim {
            n,
            j: 1.0,
            h: 1.0,
            boundary: Boundary::Open,
        };
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, n, 4, Entanglement::Linear);
        let params = ansatz.initial_params_wide(17);
        let h = tfim.hamiltonian();
        let mut plan = CompiledCircuit::compile(ansatz.circuit());
        let obs = CompiledObservable::compile(&h);
        plan.rebind(&params).unwrap();
        let mut sv = StateVector::new(n);

        let rebind_ns = mean_ns(|| {
            plan.rebind(std::hint::black_box(&params)).unwrap();
        });
        let run_ns = mean_ns(|| {
            plan.run(&mut sv).unwrap();
            std::hint::black_box(&sv);
        });
        let exp_ns = mean_ns(|| {
            std::hint::black_box(obs.expectation(&sv));
        });
        println!(
            "{n}q: plan_len={} rebind {rebind_ns:.0} ns, run {run_ns:.0} ns, expectation {exp_ns:.0} ns, total {:.0} ns",
            plan.len(),
            rebind_ns + run_ns + exp_ns
        );
        op_isolation(n);
    }
}
