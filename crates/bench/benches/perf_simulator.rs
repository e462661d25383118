//! Criterion performance benches for the simulation substrate: state-vector
//! gate application, density-matrix channels, sampling, energy estimation,
//! the compiled-vs-interpreted objective hot path, SPSA proposals, the
//! QISMET controller decision, and the campaign sweep engine itself.
//!
//! The `compiled_vs_interpreted` group additionally writes `BENCH_qsim.json`
//! (mean ns per objective evaluation at 4..20 qubits: interpreted vs the
//! fused compiled kernels) so successive PRs accumulate a perf trajectory;
//! set `QISMET_PERF_SMOKE=1` for the short-measurement CI variant.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qismet::{decide, TransientEstimate};
use qismet_bench::{Campaign, ScenarioSpec, Scheme, SweepExecutor};
use qismet_mathkit::rng_from_seed;
use qismet_optim::{GainSchedule, Proposer, Spsa};
use qismet_qsim::{
    statevector, Backend, CachedStatevectorBackend, Circuit, CompiledCircuit, CompiledObservable,
    DensityMatrix, KrausChannel, StateVector,
};
use qismet_vqa::{Ansatz, AnsatzKind, Boundary, Entanglement, Tfim};
use std::time::Instant;

fn perf_smoke() -> bool {
    std::env::var("QISMET_PERF_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn ghz_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    for n in [6usize, 10] {
        let ansatz = Ansatz::new(AnsatzKind::EfficientSu2, n, 4, Entanglement::Linear);
        let params: Vec<f64> = (0..ansatz.n_params()).map(|k| 0.1 * k as f64).collect();
        let bound = ansatz.bind(&params).unwrap();
        group.bench_function(format!("su2_reps4_{n}q"), |b| {
            b.iter(|| StateVector::from_circuit(&bound).unwrap())
        });
    }
    let h = Tfim::paper_6q().hamiltonian();
    let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 4, Entanglement::Linear);
    let bound = ansatz.bind(&vec![0.3; ansatz.n_params()]).unwrap();
    let sv = StateVector::from_circuit(&bound).unwrap();
    group.bench_function("tfim6_expectation", |b| b.iter(|| sv.expectation(&h)));
    let mut rng = rng_from_seed(1);
    group.bench_function("sample_8192_shots_6q", |b| {
        b.iter(|| sv.sample_counts(&mut rng, 8192))
    });
    group.finish();
}

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_matrix");
    let circuit = ghz_circuit(6);
    group.bench_function("ghz6_unitary", |b| {
        b.iter(|| DensityMatrix::from_circuit(&circuit).unwrap())
    });
    let ch = KrausChannel::thermal_relaxation(300.0, 100_000.0, 80_000.0).unwrap();
    group.bench_function("thermal_channel_6q", |b| {
        b.iter_batched(
            || DensityMatrix::from_circuit(&circuit).unwrap(),
            |mut rho| {
                rho.apply_channel(&ch, &[3]).unwrap();
                rho
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_vqa_stack(c: &mut Criterion) {
    let mut group = c.benchmark_group("vqa_stack");
    let h = Tfim::paper_6q().hamiltonian();
    group.bench_function("tfim6_ground_energy_dense", |b| {
        b.iter(|| h.ground_energy().unwrap())
    });
    let mut spsa = Spsa::new(30, GainSchedule::vqa_paper(), 3);
    let theta = vec![0.2; 30];
    group.bench_function("spsa_proposal_quadratic", |b| {
        b.iter(|| {
            let mut f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
            spsa.propose(&theta, &mut f)
        })
    });
    group.bench_function("controller_decision", |b| {
        b.iter(|| {
            let est = TransientEstimate::new(-1.0, -0.7, -0.5);
            decide(&est, 0.05)
        })
    });
    group.finish();
}

/// Mean ns per call of `f`, measured with a calibrated repetition count —
/// the numbers recorded into `BENCH_qsim.json` (the criterion group prints
/// the same comparison interactively).
fn mean_ns(mut f: impl FnMut()) -> f64 {
    let (warm_ms, budget_ms) = if perf_smoke() { (20, 80) } else { (150, 600) };
    let warm = Instant::now();
    let mut calls = 0u64;
    while warm.elapsed().as_millis() < warm_ms {
        f();
        calls += 1;
    }
    let per_call = warm.elapsed().as_secs_f64() / calls.max(1) as f64;
    let reps = ((budget_ms as f64 / 1e3) / per_call.max(1e-9)) as u64;
    let reps = reps.clamp(1, 10_000_000);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// The paper-shaped objective workload at `n` qubits: RealAmplitudes
/// (reps=4) over the critical-point TFIM.
fn objective_workload(n: usize) -> (Ansatz, qismet_qsim::PauliSum, Vec<f64>) {
    let tfim = Tfim {
        n,
        j: 1.0,
        h: 1.0,
        boundary: Boundary::Open,
    };
    let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, n, 4, Entanglement::Linear);
    let params = ansatz.initial_params_wide(17);
    (ansatz, tfim.hamiltonian(), params)
}

/// One trajectory row: objective-evaluation means at `n` qubits.
struct PerfRow {
    n: usize,
    interpreted_ns: f64,
    compiled_ns: f64,
}

fn bench_compiled_vs_interpreted(c: &mut Criterion) {
    let smoke = perf_smoke();
    let mut group = c.benchmark_group("compiled_vs_interpreted");
    let mut rows: Vec<PerfRow> = Vec::new();
    for n in [4usize, 6, 8, 12, 16, 20] {
        let (ansatz, h, params) = objective_workload(n);
        let heavy = n >= 12;

        // Big states get fewer criterion samples so the interactive run
        // stays bounded; the JSON means below use their own calibrated
        // budget either way.
        group.sample_size(match (heavy, smoke) {
            (false, false) => 20,
            (false, true) => 5,
            (true, false) => 5,
            (true, true) => 2,
        });

        // Interpreted: the pre-compilation hot path — bind a fresh circuit,
        // dispatch gate by gate, then one full state sweep per term. At 16q+
        // one evaluation costs whole seconds, so the smoke run leaves the
        // interactive bench to the JSON mean below.
        if !(smoke && n >= 16) {
            group.bench_function(format!("interpreted_{n}q"), |b| {
                b.iter(|| {
                    let bound = ansatz.bind(&params).unwrap();
                    let sv = StateVector::from_circuit(&bound).unwrap();
                    statevector::reference::expectation(&sv, &h)
                })
            });
        }

        // Compiled: rebind the plan in place, reuse the scratch state, and
        // run the fused superop/permutation-table kernels with the blocked
        // single-sweep expectation.
        let mut plan = CompiledCircuit::compile(ansatz.circuit());
        let obs = CompiledObservable::compile(&h);
        let mut backend = CachedStatevectorBackend::new();
        group.bench_function(format!("compiled_{n}q"), |b| {
            b.iter(|| backend.evaluate_plan(&mut plan, &params, &obs).unwrap())
        });

        // Matching wall-clock means for the trajectory file.
        let interpreted_ns = mean_ns(|| {
            let bound = ansatz.bind(&params).unwrap();
            let sv = StateVector::from_circuit(&bound).unwrap();
            criterion::black_box(statevector::reference::expectation(&sv, &h));
        });
        let compiled_ns = mean_ns(|| {
            criterion::black_box(backend.evaluate_plan(&mut plan, &params, &obs).unwrap());
        });
        rows.push(PerfRow {
            n,
            interpreted_ns,
            compiled_ns,
        });
    }
    group.finish();

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n_qubits\": {}, \"interpreted_ns\": {:.1}, \"compiled_ns\": {:.1}, \"speedup\": {:.2}}}",
                r.n,
                r.interpreted_ns,
                r.compiled_ns,
                r.interpreted_ns / r.compiled_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"compiled_vs_interpreted\",\n  \"workload\": \"RealAmplitudes reps=4 ansatz over the open-boundary critical TFIM; mean ns per objective evaluation. speedup = interpreted/compiled\",\n  \"smoke\": {},\n  \"cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        smoke,
        entries.join(",\n")
    );
    // Default to the workspace root (cargo runs bench binaries from the
    // package directory); QISMET_BENCH_JSON overrides.
    let path = std::env::var("QISMET_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_qsim.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    for r in &rows {
        println!(
            "  {}q: interpreted {:.0} ns, compiled {:.0} ns ({:.2}x)",
            r.n,
            r.interpreted_ns,
            r.compiled_ns,
            r.interpreted_ns / r.compiled_ns
        );
    }
}

fn bench_campaign_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_engine");
    let app = qismet_vqa::AppSpec::by_id(1).unwrap();
    let campaign = Campaign::new("perf", 5)
        .with(ScenarioSpec::new(app.clone(), Scheme::Baseline, 20))
        .with(ScenarioSpec::new(app.clone(), Scheme::Qismet, 20))
        .with(ScenarioSpec::new(app, Scheme::Blocking, 20).with_trials(2));
    group.bench_function("expand_4_runs", |b| b.iter(|| campaign.expand()));
    group.bench_function("sweep_4_runs_20iter", |b| {
        b.iter(|| SweepExecutor::new().run(&campaign))
    });
    group.finish();
}

fn perf_config() -> Criterion {
    let (sample, warm_ms, meas_ms) = if perf_smoke() {
        (5, 50, 150)
    } else {
        (20, 300, 1000)
    };
    Criterion::default()
        .sample_size(sample)
        .warm_up_time(std::time::Duration::from_millis(warm_ms))
        .measurement_time(std::time::Duration::from_millis(meas_ms))
}

criterion_group! {
    name = benches;
    config = perf_config();
    targets = bench_statevector, bench_density, bench_vqa_stack,
        bench_compiled_vs_interpreted, bench_campaign_engine
}
criterion_main!(benches);
