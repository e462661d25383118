//! VQE objective evaluators, from ideal to transient-noisy.
//!
//! The noisy evaluator mirrors the paper's simulation methodology
//! (Section 6.2): the ideal expectation is computed exactly, the **static**
//! device noise enters as a multiplicative attenuation of the traceless part
//! (the global-depolarizing contraction validated against the density-matrix
//! backend), finite shots add Gaussian estimator noise, and the **transient**
//! component is looked up from a [`TransientTrace`] keyed by the quantum-job
//! counter and applied as an extra attenuation of the signal, "normalized to
//! the magnitude of the VQA estimations".
//!
//! Evaluations within one job share the job's transient value up to a
//! within-job spread — the same physical event hits every circuit in the
//! job, but not perfectly identically (paper Fig. 6: individual candidates
//! are perturbed differently). QISMET's estimator feeds on exactly this
//! structure.

use crate::ansatz::{Ansatz, CompiledAnsatz};
use crate::job::{JobLayout, JobRequest, JobResult};
use qismet_mathkit::{normal, rng_from_seed};
use qismet_qnoise::{StaticNoiseModel, TransientTrace};
use qismet_qsim::{Backend, CachedStatevectorBackend, CompiledObservable, PauliSum};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::fmt;

/// Typed failure of a noisy measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectiveError {
    /// The transient trace has no slot for the requested quantum job.
    /// Allocate traces with headroom for QISMET retries (the harnesses use
    /// ~4x the iteration count) or stop the run when
    /// [`NoisyObjective::jobs_remaining`] hits zero.
    TraceExhausted {
        /// The job index that was requested.
        job: usize,
        /// The trace's capacity in jobs.
        capacity: usize,
    },
}

impl fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveError::TraceExhausted { job, capacity } => write!(
                f,
                "transient trace exhausted: job {job} requested but the trace holds \
                 {capacity} slots (allocate headroom for retries)"
            ),
        }
    }
}

impl std::error::Error for ObjectiveError {}

/// Exact, noise-free objective (the paper's "Noise-free" reference).
///
/// The ansatz is lowered once into a [`CompiledAnsatz`] and the Hamiltonian
/// into a [`CompiledObservable`] at construction; each evaluation then
/// rebinds the plan in place and executes it through the pluggable
/// [`Backend`] — no circuit binding, no gate re-dispatch, no per-term state
/// sweeps, and (with the default buffer-reusing
/// [`CachedStatevectorBackend`]) no allocation at all per parameter point.
pub struct ExactObjective {
    ansatz: Ansatz,
    hamiltonian: PauliSum,
    compiled: RefCell<CompiledAnsatz>,
    observable: CompiledObservable,
    backend: RefCell<Box<dyn Backend>>,
}

impl Clone for ExactObjective {
    fn clone(&self) -> Self {
        ExactObjective {
            ansatz: self.ansatz.clone(),
            hamiltonian: self.hamiltonian.clone(),
            compiled: RefCell::new(self.compiled.borrow().clone()),
            observable: self.observable.clone(),
            backend: RefCell::new(self.backend.borrow().clone()),
        }
    }
}

impl fmt::Debug for ExactObjective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExactObjective")
            .field("ansatz", &self.ansatz)
            .field("hamiltonian", &self.hamiltonian)
            .field("backend", &self.backend.borrow().name())
            .finish()
    }
}

impl ExactObjective {
    /// Creates the evaluator on the default cached statevector backend.
    ///
    /// # Panics
    ///
    /// Panics on qubit-width mismatch.
    pub fn new(ansatz: Ansatz, hamiltonian: PauliSum) -> Self {
        Self::with_backend(
            ansatz,
            hamiltonian,
            Box::new(CachedStatevectorBackend::new()),
        )
    }

    /// Creates the evaluator on an explicit execution backend.
    ///
    /// # Panics
    ///
    /// Panics on qubit-width mismatch.
    pub fn with_backend(ansatz: Ansatz, hamiltonian: PauliSum, backend: Box<dyn Backend>) -> Self {
        assert_eq!(
            ansatz.n_qubits(),
            hamiltonian.n_qubits(),
            "ansatz and Hamiltonian width"
        );
        let compiled = RefCell::new(ansatz.compile());
        let observable = CompiledObservable::compile(&hamiltonian);
        ExactObjective {
            ansatz,
            hamiltonian,
            compiled,
            observable,
            backend: RefCell::new(backend),
        }
    }

    /// The ansatz.
    pub fn ansatz(&self) -> &Ansatz {
        &self.ansatz
    }

    /// The Hamiltonian.
    pub fn hamiltonian(&self) -> &PauliSum {
        &self.hamiltonian
    }

    /// Name of the execution backend in use.
    pub fn backend_name(&self) -> &'static str {
        self.backend.borrow().name()
    }

    /// Evaluates `<psi(theta)| H |psi(theta)>` exactly, by rebinding the
    /// compiled plan in place — the allocation-free hot path.
    ///
    /// # Panics
    ///
    /// Panics if `params` is shorter than the ansatz requires.
    pub fn eval(&self, params: &[f64]) -> f64 {
        self.backend
            .borrow_mut()
            .evaluate_plan(
                self.compiled.borrow_mut().plan_mut(),
                params,
                &self.observable,
            )
            .expect("parameter count")
    }

    /// Evaluates many parameter vectors as **one backend batch**, in order.
    /// Results are bitwise identical to calling [`ExactObjective::eval`]
    /// per point (the [`Backend`] contract).
    ///
    /// # Panics
    ///
    /// Panics if any parameter vector is shorter than the ansatz requires.
    pub fn eval_batch(&self, params_list: &[Vec<f64>]) -> Vec<f64> {
        self.backend
            .borrow_mut()
            .evaluate_plan_batch(
                self.compiled.borrow_mut().plan_mut(),
                params_list,
                &self.observable,
            )
            .expect("parameter count")
    }
}

/// Configuration for the noisy objective.
#[derive(Debug, Clone)]
pub struct NoisyObjectiveConfig {
    /// Static device model (drives the attenuation factor).
    pub static_model: StaticNoiseModel,
    /// Transient trace keyed by job index.
    pub trace: TransientTrace,
    /// Reference magnitude the trace is normalized to; typically the |exact
    /// ground energy| of the target Hamiltonian.
    pub magnitude_ref: f64,
    /// Standard deviation of shot (sampling) noise on each evaluation.
    pub shot_sigma: f64,
    /// Relative spread of the transient across evaluations within one job.
    pub within_job_spread: f64,
    /// RNG seed for shot noise and within-job spread.
    pub seed: u64,
}

/// The transient-noisy objective of the paper's simulator.
///
/// # Examples
///
/// ```
/// use qismet_vqa::{Ansatz, AnsatzKind, Entanglement, NoisyObjective,
///                  NoisyObjectiveConfig, Tfim};
/// use qismet_qnoise::{StaticNoiseModel, TransientModel};
/// use qismet_mathkit::rng_from_seed;
///
/// let tfim = Tfim::paper_6q();
/// let h = tfim.hamiltonian();
/// let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
/// let trace = TransientModel::moderate(0.1).generate(&mut rng_from_seed(1), 100);
/// let cfg = NoisyObjectiveConfig {
///     static_model: StaticNoiseModel::uniform(6, 100.0, 90.0, 3e-4, 8e-3, 0.02),
///     trace,
///     magnitude_ref: tfim.exact_ground_energy().unwrap().abs(),
///     shot_sigma: 0.02,
///     within_job_spread: 0.25,
///     seed: 7,
/// };
/// let mut obj = NoisyObjective::new(ansatz, h, cfg);
/// let params = vec![0.0; obj.exact().ansatz().n_params()];
/// let noisy = obj.measure(&params);
/// assert!(noisy.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct NoisyObjective {
    exact: ExactObjective,
    attenuation: f64,
    identity_offset: f64,
    trace: TransientTrace,
    magnitude_ref: f64,
    shot_sigma: f64,
    within_job_spread: f64,
    rng: StdRng,
    job: usize,
    evals: u64,
}

impl NoisyObjective {
    /// Builds the noisy evaluator on the default cached statevector
    /// backend. The static attenuation factor is computed once from the
    /// ansatz shape (gate counts and durations do not depend on the bound
    /// angles).
    pub fn new(ansatz: Ansatz, hamiltonian: PauliSum, cfg: NoisyObjectiveConfig) -> Self {
        Self::with_backend(
            ansatz,
            hamiltonian,
            cfg,
            Box::new(CachedStatevectorBackend::new()),
        )
    }

    /// Like [`NoisyObjective::new`] but on an explicit circuit-execution
    /// [`Backend`].
    pub fn with_backend(
        ansatz: Ansatz,
        hamiltonian: PauliSum,
        cfg: NoisyObjectiveConfig,
        backend: Box<dyn Backend>,
    ) -> Self {
        let bound = ansatz
            .bind(&vec![0.0; ansatz.n_params()])
            .expect("zero binding");
        let attenuation = cfg.static_model.attenuation_factor(&bound);
        let identity_offset = hamiltonian.identity_coefficient();
        NoisyObjective {
            exact: ExactObjective::with_backend(ansatz, hamiltonian, backend),
            attenuation,
            identity_offset,
            trace: cfg.trace,
            magnitude_ref: cfg.magnitude_ref,
            shot_sigma: cfg.shot_sigma,
            within_job_spread: cfg.within_job_spread,
            rng: rng_from_seed(cfg.seed),
            job: 0,
            evals: 0,
        }
    }

    /// The underlying exact evaluator.
    pub fn exact(&self) -> &ExactObjective {
        &self.exact
    }

    /// The static attenuation factor in effect.
    pub fn attenuation(&self) -> f64 {
        self.attenuation
    }

    /// The objective-magnitude reference the transient trace was normalized
    /// to (metadata; the multiplicative injection uses the instantaneous
    /// signal, which equals this scale near convergence).
    pub fn magnitude_ref(&self) -> f64 {
        self.magnitude_ref
    }

    /// Current job index (transient-trace key).
    pub fn job(&self) -> usize {
        self.job
    }

    /// Total objective evaluations performed (overhead accounting).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Advances to the next quantum job (next transient-trace slot).
    pub fn advance_job(&mut self) {
        self.job += 1;
    }

    /// The raw trace value for a job.
    ///
    /// # Panics
    ///
    /// Panics if the trace is exhausted.
    pub fn transient_at(&self, job: usize) -> f64 {
        self.trace.value(job)
    }

    /// Remaining trace capacity in jobs.
    pub fn jobs_remaining(&self) -> usize {
        self.trace.len().saturating_sub(self.job)
    }

    /// Noise-free expectation (for analysis plots; not available to tuners
    /// on real hardware).
    pub fn eval_exact(&self, params: &[f64]) -> f64 {
        self.exact.eval(params)
    }

    /// Static-noise-only measurement (the paper's unrealistic "static only"
    /// blue line): attenuated signal plus shot noise, no transient term.
    pub fn measure_static_only(&mut self, params: &[f64]) -> f64 {
        self.evals += 1;
        let ideal = self.exact.eval(params);
        let signal = self.attenuation * (ideal - self.identity_offset);
        self.identity_offset + signal + normal(&mut self.rng, 0.0, self.shot_sigma)
    }

    /// Full measurement at the current job: static attenuation, transient
    /// attenuation from the trace, and shot noise.
    ///
    /// # Panics
    ///
    /// Panics if the transient trace is exhausted (allocate ~4x the
    /// iteration count to cover QISMET retries). Use
    /// [`NoisyObjective::try_measure`] to handle exhaustion as a typed
    /// error instead.
    pub fn measure(&mut self, params: &[f64]) -> f64 {
        self.try_measure(params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`NoisyObjective::measure`], but reports trace exhaustion as
    /// [`ObjectiveError::TraceExhausted`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::TraceExhausted`] when the current job index has no
    /// transient-trace slot; the measurement is not counted and no
    /// randomness is consumed.
    pub fn try_measure(&mut self, params: &[f64]) -> Result<f64, ObjectiveError> {
        let job = self.job;
        self.try_measure_at_job(params, job)
    }

    /// Full measurement pinned to an explicit job index (QISMET's executor
    /// uses this to evaluate reference reruns inside the current job).
    ///
    /// The transient acts as an **extra attenuation of the signal** — a
    /// temporary additional depolarization, exactly what a T1/T2 dip does to
    /// an expectation value. A trace value `v` (fraction of the objective
    /// magnitude, Section 6.2's normalization) multiplies the signal by
    /// `1 - v * wobble`, clamped to the physical band
    /// `[-0.25, 1.25]` (a transient cannot produce signal out of thin air;
    /// small overshoot accounts for readout artifacts).
    ///
    /// # Panics
    ///
    /// Panics if `job` exceeds the trace length; see
    /// [`NoisyObjective::try_measure_at_job`] for the typed variant.
    pub fn measure_at_job(&mut self, params: &[f64], job: usize) -> f64 {
        self.try_measure_at_job(params, job)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`NoisyObjective::measure_at_job`], but reports trace
    /// exhaustion as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::TraceExhausted`] when `job` has no trace slot.
    pub fn try_measure_at_job(
        &mut self,
        params: &[f64],
        job: usize,
    ) -> Result<f64, ObjectiveError> {
        let ideal = self.exact.eval(params);
        self.noisy_from_ideal(ideal, job)
    }

    /// Applies the noise stack (static attenuation, transient attenuation,
    /// shot noise) to an ideal expectation at `job`. Shared by the per-call
    /// and batched paths so both consume the RNG identically.
    fn noisy_from_ideal(&mut self, ideal: f64, job: usize) -> Result<f64, ObjectiveError> {
        let v_job = self.trace.get(job).ok_or(ObjectiveError::TraceExhausted {
            job,
            capacity: self.trace.len(),
        })?;
        self.evals += 1;
        let signal = self.attenuation * (ideal - self.identity_offset);
        // Per-evaluation wobble of the shared job transient.
        let wobble = 1.0 + self.within_job_spread * qismet_mathkit::standard_normal(&mut self.rng);
        let tau = (1.0 - v_job * wobble).clamp(-0.25, 1.25);
        Ok(self.identity_offset + signal * tau + normal(&mut self.rng, 0.0, self.shot_sigma))
    }

    /// Executes a whole [`JobRequest`] — the unit the runners assemble per
    /// iteration (optimizer evaluations, plus the rerun circuit for
    /// QISMET) — as **one batched backend call**, then applies the noise
    /// stack to each result in submission order.
    ///
    /// The RNG is consumed in exactly the order a sequence of
    /// [`NoisyObjective::measure`] calls would consume it, so batched and
    /// per-call execution produce bit-identical measured series.
    ///
    /// Under [`JobLayout::JobPerEval`] the job counter advances after every
    /// point; under [`JobLayout::SharedJob`] all points read the current
    /// job's transient slot and the caller advances the counter once the
    /// iteration concludes.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::TraceExhausted`] if the trace runs out mid-batch
    /// (evaluations before the failing point are already accounted, exactly
    /// as the sequential path would have).
    pub fn execute(&mut self, request: &JobRequest) -> Result<JobResult, ObjectiveError> {
        let ideals = self.exact.eval_batch(request.points());
        let mut values = Vec::with_capacity(ideals.len());
        for ideal in ideals {
            let job = self.job;
            values.push(self.noisy_from_ideal(ideal, job)?);
            if request.layout() == JobLayout::JobPerEval {
                self.advance_job();
            }
        }
        Ok(JobResult::new(values, request.rerun_index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{AnsatzKind, Entanglement};
    use crate::tfim::Tfim;

    fn setup(trace: TransientTrace, seed: u64) -> (NoisyObjective, f64) {
        let tfim = Tfim::paper_6q();
        let h = tfim.hamiltonian();
        let gs = tfim.exact_ground_energy().unwrap();
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
        let cfg = NoisyObjectiveConfig {
            static_model: StaticNoiseModel::uniform(6, 100.0, 90.0, 3e-4, 8e-3, 0.02),
            trace,
            magnitude_ref: gs.abs(),
            shot_sigma: 0.02,
            within_job_spread: 0.25,
            seed,
        };
        (NoisyObjective::new(ansatz, h, cfg), gs)
    }

    #[test]
    fn exact_objective_reaches_ground_energy_bound() {
        let tfim = Tfim::paper_6q();
        let gs = tfim.exact_ground_energy().unwrap();
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
        let obj = ExactObjective::new(ansatz, tfim.hamiltonian());
        let e0 = obj.eval(&vec![0.0; obj.ansatz().n_params()]);
        // Variational bound.
        assert!(e0 >= gs - 1e-9);
    }

    #[test]
    fn static_attenuation_contracts_toward_offset() {
        let trace = TransientTrace::zeros(10);
        let (mut obj, _) = setup(trace, 1);
        let params = obj.exact().ansatz().initial_params(5);
        let ideal = obj.eval_exact(&params);
        let mut noisy = Vec::new();
        for _ in 0..64 {
            noisy.push(obj.measure_static_only(&params));
        }
        let mean_noisy = qismet_mathkit::mean(&noisy);
        // TFIM identity offset is zero; attenuated |E| must shrink.
        assert!(mean_noisy.abs() < ideal.abs());
        assert!(
            (mean_noisy - obj.attenuation() * ideal).abs() < 0.05,
            "mean {mean_noisy} vs predicted {}",
            obj.attenuation() * ideal
        );
    }

    #[test]
    fn quiet_trace_measurement_matches_static_only() {
        let trace = TransientTrace::zeros(100);
        let (mut obj, _) = setup(trace, 2);
        let params = obj.exact().ansatz().initial_params(6);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..50 {
            a.push(obj.measure(&params));
            b.push(obj.measure_static_only(&params));
        }
        let ma = qismet_mathkit::mean(&a);
        let mb = qismet_mathkit::mean(&b);
        assert!((ma - mb).abs() < 0.02, "with-trace {ma} vs static {mb}");
    }

    #[test]
    fn adverse_transient_raises_energy_estimate() {
        // A trace pinned at +0.3 (30% of magnitude, adverse) on every job.
        let trace = TransientTrace::from_values(vec![0.3; 10]);
        let (mut obj, gs) = setup(trace, 3);
        // Use parameters that give a decently negative energy.
        let params = obj.exact().ansatz().initial_params(7);
        let ideal = obj.eval_exact(&params);
        let mut vals = Vec::new();
        for _ in 0..64 {
            vals.push(obj.measure(&params));
        }
        let mean = qismet_mathkit::mean(&vals);
        let static_pred = obj.attenuation() * ideal;
        assert!(
            mean > static_pred + 0.1,
            "transient should push energy up: {mean} vs {static_pred} (gs {gs})"
        );
    }

    #[test]
    fn job_advancement_changes_transient() {
        let mut values = vec![0.0; 10];
        values[3] = 0.5;
        let trace = TransientTrace::from_values(values);
        let (mut obj, _) = setup(trace, 4);
        let params = obj.exact().ansatz().initial_params(8);
        assert_eq!(obj.job(), 0);
        let quiet = obj.measure(&params);
        obj.advance_job();
        obj.advance_job();
        obj.advance_job();
        assert_eq!(obj.job(), 3);
        let burst: Vec<f64> = (0..32).map(|_| obj.measure(&params)).collect();
        let mean_burst = qismet_mathkit::mean(&burst);
        assert!(
            mean_burst > quiet + 0.2,
            "burst mean {mean_burst} vs quiet {quiet}"
        );
    }

    #[test]
    fn measure_at_job_pins_the_slot() {
        let mut values = vec![0.0; 10];
        values[5] = 0.8;
        let trace = TransientTrace::from_values(values);
        let (mut obj, _) = setup(trace, 5);
        let params = obj.exact().ansatz().initial_params(9);
        let at5: Vec<f64> = (0..32).map(|_| obj.measure_at_job(&params, 5)).collect();
        let at0: Vec<f64> = (0..32).map(|_| obj.measure_at_job(&params, 0)).collect();
        assert!(qismet_mathkit::mean(&at5) > qismet_mathkit::mean(&at0) + 0.2);
        // Pinning does not advance the job counter.
        assert_eq!(obj.job(), 0);
    }

    #[test]
    fn eval_counter_tracks_overhead() {
        let trace = TransientTrace::zeros(10);
        let (mut obj, _) = setup(trace, 6);
        let params = obj.exact().ansatz().initial_params(10);
        assert_eq!(obj.evals(), 0);
        let _ = obj.measure(&params);
        let _ = obj.measure_static_only(&params);
        assert_eq!(obj.evals(), 2);
    }

    #[test]
    fn exhausted_trace_is_a_typed_error_not_a_panic() {
        // Regression: trace exhaustion used to be an index-out-of-bounds
        // panic deep inside TransientTrace; it must surface as
        // ObjectiveError::TraceExhausted at the measure* boundary.
        let trace = TransientTrace::zeros(2);
        let (mut obj, _) = setup(trace, 8);
        let params = obj.exact().ansatz().initial_params(1);
        assert!(obj.try_measure(&params).is_ok());
        obj.advance_job();
        obj.advance_job();
        let evals_before = obj.evals();
        let err = obj.try_measure(&params).unwrap_err();
        assert_eq!(
            err,
            ObjectiveError::TraceExhausted {
                job: 2,
                capacity: 2
            }
        );
        assert!(err.to_string().contains("transient trace exhausted"));
        // A failed measurement is not accounted as an evaluation.
        assert_eq!(obj.evals(), evals_before);
        // Pinned lookups report the requested job.
        assert_eq!(
            obj.try_measure_at_job(&params, 7),
            Err(ObjectiveError::TraceExhausted {
                job: 7,
                capacity: 2
            })
        );
        // Batched execution surfaces the same typed error.
        let req = JobRequest::shared_job(vec![params.clone()]);
        assert!(matches!(
            obj.execute(&req),
            Err(ObjectiveError::TraceExhausted { job: 2, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "transient trace exhausted")]
    fn measure_still_panics_on_exhaustion_with_the_typed_message() {
        let trace = TransientTrace::zeros(1);
        let (mut obj, _) = setup(trace, 9);
        let params = obj.exact().ansatz().initial_params(2);
        obj.advance_job();
        let _ = obj.measure(&params);
    }

    #[test]
    fn batched_execution_matches_sequential_measures_bitwise() {
        let trace = TransientTrace::from_values(vec![0.0, 0.3, -0.1, 0.5, 0.0, 0.2]);
        let params: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                let (obj, _) = setup(TransientTrace::zeros(1), 1);
                obj.exact().ansatz().initial_params(40 + k)
            })
            .collect();

        // Sequential shared-job: measure each point at the current job.
        let (mut seq, _) = setup(trace.clone(), 11);
        let sequential: Vec<f64> = params.iter().map(|p| seq.measure(p)).collect();

        // Batched shared-job on an identically seeded objective.
        let (mut batched, _) = setup(trace.clone(), 11);
        let result = batched
            .execute(&JobRequest::shared_job(params.clone()))
            .unwrap();
        assert_eq!(result.values().len(), sequential.len());
        for (i, (a, b)) in sequential.iter().zip(result.values()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "shared-job point {i}: {a} vs {b}");
        }
        assert_eq!(batched.job(), seq.job());
        assert_eq!(batched.evals(), seq.evals());

        // Sequential job-per-eval: measure + advance per point.
        let (mut seq, _) = setup(trace.clone(), 11);
        let sequential: Vec<f64> = params
            .iter()
            .map(|p| {
                let e = seq.measure(p);
                seq.advance_job();
                e
            })
            .collect();
        let (mut batched, _) = setup(trace, 11);
        let result = batched
            .execute(&JobRequest::job_per_eval(params.clone()))
            .unwrap();
        for (i, (a, b)) in sequential.iter().zip(result.values()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "job-per-eval point {i}");
        }
        assert_eq!(batched.job(), seq.job());
    }

    #[test]
    fn explicit_backends_agree_with_the_default() {
        use qismet_qsim::StatevectorBackend;
        let tfim = Tfim::paper_6q();
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
        let cached = ExactObjective::new(ansatz.clone(), tfim.hamiltonian());
        let fresh = ExactObjective::with_backend(
            ansatz,
            tfim.hamiltonian(),
            Box::new(StatevectorBackend::new()),
        );
        assert_eq!(cached.backend_name(), "cached-statevector");
        assert_eq!(fresh.backend_name(), "statevector");
        let params = cached.ansatz().initial_params(12);
        assert_eq!(
            cached.eval(&params).to_bits(),
            fresh.eval(&params).to_bits()
        );
        let batch = vec![params.clone(), cached.ansatz().initial_params(13)];
        let a = cached.eval_batch(&batch);
        let b = fresh.eval_batch(&batch);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Cloning an objective clones its backend.
        let cloned = cached.clone();
        assert_eq!(cloned.backend_name(), "cached-statevector");
        assert_eq!(
            cloned.eval(&params).to_bits(),
            cached.eval(&params).to_bits()
        );
    }

    #[test]
    fn extreme_trace_values_saturate() {
        // A pathological +5.0 trace value must not send the estimate to
        // -infinity or invert the landscape beyond the clamp.
        let trace = TransientTrace::from_values(vec![5.0; 4]);
        let (mut obj, _) = setup(trace, 7);
        let params = obj.exact().ansatz().initial_params(11);
        let ideal = obj.eval_exact(&params);
        let v = obj.measure(&params);
        assert!(v.is_finite());
        // Clamped to at most 1.5x the signal beyond the offset.
        assert!(v.abs() < 3.0 * ideal.abs().max(1.0) + 1.0);
    }
}
