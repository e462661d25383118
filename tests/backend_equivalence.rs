//! Integration: the pluggable `Backend` seam end-to-end — a full QISMET run
//! must not depend on the scratch state a backend carries between calls.

use qismet::{run_qismet, QismetConfig};
use qismet_mathkit::rng_from_seed;
use qismet_optim::{GainSchedule, Spsa};
use qismet_qnoise::{StaticNoiseModel, TransientModel};
use qismet_qsim::{Backend, CompiledCircuit, CompiledObservable, GateError, StatevectorBackend};
use qismet_vqa::{
    Ansatz, AnsatzKind, AppSpec, Entanglement, NoisyObjective, NoisyObjectiveConfig, Tfim,
};

/// The fresh-state reference: a new [`StatevectorBackend`] for every
/// evaluation, so no scratch state survives from one call to the next.
struct FreshPerCall;

impl Backend for FreshPerCall {
    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        StatevectorBackend::new().evaluate_plan(plan, params, observable)
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(FreshPerCall)
    }

    fn name(&self) -> &'static str {
        "fresh-per-call"
    }
}

fn objective_on(backend: Box<dyn Backend>, seed: u64) -> NoisyObjective {
    let tfim = Tfim::paper_6q();
    let gs = tfim.exact_ground_energy().unwrap();
    let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
    let trace = TransientModel::moderate(0.25).generate(&mut rng_from_seed(31), 2000);
    let cfg = NoisyObjectiveConfig {
        static_model: StaticNoiseModel::uniform(6, 120.0, 100.0, 2e-4, 5e-3),
        trace,
        magnitude_ref: gs.abs(),
        shot_sigma: 0.03,
        within_job_spread: 0.25,
        seed,
    };
    NoisyObjective::with_backend(ansatz, tfim.hamiltonian(), cfg, backend)
}

/// One reused backend and a new backend per evaluation must drive
/// `run_qismet` to bit-identical records: same seeds, same measured series,
/// same skip decisions.
#[test]
fn qismet_run_is_backend_invariant() {
    let run = |backend: Box<dyn Backend>| {
        let mut obj = objective_on(backend, 13);
        let theta0 = obj.exact().ansatz().initial_params(4);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        run_qismet(
            &mut spsa,
            &mut obj,
            theta0,
            80,
            QismetConfig::paper_default(),
        )
    };
    let reused = run(Box::new(StatevectorBackend::new()));
    let fresh = run(Box::new(FreshPerCall));
    assert_eq!(reused.record, fresh.record);
    assert_eq!(reused.decisions, fresh.decisions);
    for (a, b) in reused.record.measured.iter().zip(&fresh.record.measured) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The umbrella crate re-exports the backend layer for downstream users.
#[test]
fn umbrella_reexports_backend_layer() {
    let mut backend: Box<dyn qismet_repro::qsim::Backend> =
        Box::new(qismet_repro::qsim::StatevectorBackend::new());
    let h = qismet_repro::qsim::PauliSum::from_labels(&[(-1.0, "ZZ")]).unwrap();
    let mut c = qismet_repro::qsim::Circuit::new(2);
    c.ry(0.4, 0).cx(0, 1);
    let e = backend.evaluate(&c, &h).unwrap();
    assert!(e.is_finite());
}

/// Every Table 1 ansatz lowers to a fixed plan shape: fused one-qubit
/// segments plus one ladder table per entangling layer. The RealAmplitudes
/// apps (RY only) take the real-amplitude run mode; the EfficientSU2 apps
/// (RY+RZ) do not.
#[test]
fn table1_plan_shapes_are_pinned() {
    let want = [
        (1, 20, false),
        (2, 34, true),
        (3, 34, true),
        (4, 34, false),
        (5, 62, true),
        (6, 62, true),
    ];
    for (id, len, real) in want {
        let app = AppSpec::by_id(id).unwrap();
        let plan = CompiledCircuit::compile(app.build_ansatz().circuit());
        assert_eq!(plan.len(), len, "App{id} plan length");
        assert_eq!(plan.runs_real(), real, "App{id} real-run mode");
    }
}
