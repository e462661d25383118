//! The ideal-energy memo in `ExactObjective`: the tuning loops simulate
//! each distinct parameter point once, and a remembered energy carries the
//! same bits as a new simulation.

use proptest::prelude::*;
use qismet::{run_qismet_budgeted, QismetConfig, QismetRecord};
use qismet_optim::{GainSchedule, Spsa};
use qismet_qnoise::{StaticNoiseModel, TransientTrace};
use qismet_qsim::{Backend, CompiledCircuit, CompiledObservable, GateError, StatevectorBackend};
use qismet_vqa::{
    run_tuning, Ansatz, AnsatzKind, Entanglement, ExactObjective, NoisyObjective,
    NoisyObjectiveConfig, Tfim, TuningScheme,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A statevector backend that counts the plan evaluations it runs.
#[derive(Clone)]
struct CountingBackend {
    inner: StatevectorBackend,
    points: Arc<AtomicUsize>,
}

impl Backend for CountingBackend {
    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        self.points.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate_plan(plan, params, observable)
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "counting"
    }
}

fn ansatz() -> Ansatz {
    Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear)
}

/// A noisy TFIM objective on a counting backend, plus its simulation count.
fn counted_objective(trace: TransientTrace, seed: u64) -> (NoisyObjective, Arc<AtomicUsize>) {
    let tfim = Tfim::paper_6q();
    let cfg = NoisyObjectiveConfig {
        static_model: StaticNoiseModel::uniform(6, 100.0, 90.0, 3e-4, 8e-3),
        trace,
        magnitude_ref: tfim.exact_ground_energy().unwrap().abs(),
        shot_sigma: 0.02,
        within_job_spread: 0.25,
        seed,
    };
    let points = Arc::new(AtomicUsize::new(0));
    let backend = CountingBackend {
        inner: StatevectorBackend::new(),
        points: Arc::clone(&points),
    };
    let objective =
        NoisyObjective::with_backend(ansatz(), tfim.hamiltonian(), cfg, Box::new(backend));
    (objective, points)
}

#[test]
fn baseline_simulates_three_points_per_iteration() {
    let iterations = 60;
    let (mut objective, points) = counted_objective(TransientTrace::zeros(4 * iterations + 8), 3);
    let theta0 = objective.exact().ansatz().initial_params(1);
    let mut spsa = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), 1);
    let record = run_tuning(
        &mut spsa,
        &mut objective,
        theta0,
        iterations,
        TuningScheme::Baseline,
    );
    assert_eq!(record.measured.len(), iterations);
    // θ+, θ− and the candidate are new each iteration; the candidate's
    // exact energy is remembered.
    assert_eq!(
        points.load(Ordering::Relaxed),
        3 * record.measured.len() + 1
    );
    // Noisy measurements are still counted one per measure.
    assert_eq!(record.evals, 1 + 3 * iterations as u64);
}

/// Runs QISMET for `iterations` on a counted objective; returns the record
/// and the number of simulated points.
fn counted_qismet(trace: TransientTrace, seed: u64, iterations: usize) -> (QismetRecord, usize) {
    let (mut objective, points) = counted_objective(trace, seed);
    let theta0 = objective.exact().ansatz().initial_params(2);
    let mut spsa = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), 2);
    let rec = run_qismet_budgeted(
        &mut spsa,
        &mut objective,
        theta0,
        iterations,
        usize::MAX,
        QismetConfig::paper_default(),
    );
    assert_eq!(rec.record.measured.len(), iterations);
    let attempts = (iterations + rec.skips) as u64;
    // Noisy measurements: θ+, θ−, the rerun and the candidate per attempt.
    assert_eq!(rec.record.evals, 1 + 4 * attempts);
    (rec, points.load(Ordering::Relaxed))
}

#[test]
fn qismet_reruns_cost_no_simulation() {
    let iterations = 60;
    let (rec, points) = counted_qismet(TransientTrace::zeros(2 * iterations), 3, iterations);
    assert_eq!(
        rec.skips, 0,
        "a quiet trace gives the controller nothing to skip"
    );
    // The rerun is last iteration's candidate and the exact energy is this
    // iteration's: only θ+, θ− and the candidate are simulated.
    assert_eq!(points, 3 * rec.record.measured.len() + 1);
}

#[test]
fn a_retry_simulates_only_its_new_candidate() {
    let iterations = 80;
    // A quiet trace with a transient burst every 15th job after the
    // controller's warmup: the |Tm| threshold calibrates on shot noise, so
    // a burst job's attempt is rejected and repeated under the next job.
    let values = (0..8 * iterations)
        .map(|job| if job >= 30 && job % 15 == 0 { 0.5 } else { 0.0 })
        .collect();
    let (rec, points) = counted_qismet(TransientTrace::from_values(values), 4, iterations);
    assert!(rec.skips > 0, "the burst trace must force retries");
    // A retry re-proposes the same θ+ and θ− and reruns the same incumbent,
    // all remembered; its candidate comes from the retry's own noisy
    // gradient, so it is a new point.
    assert_eq!(points, 3 * rec.record.measured.len() + 1 + rec.skips);
}

/// Parameter values that exercise the key's bit equality: signed zeros,
/// subnormals and ordinary angles.
fn arb_param() -> impl Strategy<Value = f64> {
    (0usize..6, -3.0f64..3.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1 + (x.to_bits() & 0xff)),
        3 => -f64::MIN_POSITIVE / 4.0,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A memoized objective returns the bits a fresh one simulates, on a
    /// sequence with repeats and more distinct points than the memo holds.
    #[test]
    fn memoized_eval_matches_a_fresh_objective_bitwise(
        pool in proptest::collection::vec(proptest::collection::vec(arb_param(), 1..3), 10..14),
        picks in proptest::collection::vec(0usize..64, 40..60),
    ) {
        let tfim = Tfim::paper_6q();
        let memoized = ExactObjective::new(ansatz(), tfim.hamiltonian());
        let n = memoized.ansatz().n_params();
        // Each pool entry is a short pattern tiled over the width, with a
        // distinct angle at a position that moves with the entry, plus
        // all-`0.0`, all-`-0.0` and all-subnormal points: at least 13
        // distinct points, two of them differing only in the sign of zero.
        let mut points: Vec<Vec<f64>> = pool
            .iter()
            .enumerate()
            .map(|(k, pattern)| {
                let mut p: Vec<f64> = (0..n).map(|i| pattern[i % pattern.len()]).collect();
                p[k % n] = 0.25 * (k + 1) as f64;
                p
            })
            .collect();
        for value in [0.0, -0.0, f64::from_bits(1)] {
            points.push(vec![value; n]);
        }
        for &pick in &picks {
            let p = &points[pick % points.len()];
            let fresh = ExactObjective::new(ansatz(), tfim.hamiltonian());
            prop_assert_eq!(memoized.eval(p).to_bits(), fresh.eval(p).to_bits());
        }
    }
}
