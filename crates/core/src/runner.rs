//! The QISMET tuning loop (Fig. 7) and the comparison-scheme loops.
//!
//! Per iteration, one quantum job carries the optimizer's evaluations for
//! the new candidate, a **rerun** of the previous iteration's circuit, and
//! (implicitly) support circuits. The controller compares the machine
//! gradient against the predicted transient-free gradient and either lets
//! the VQA proceed or repeats the job under fresh noise, up to the retry
//! budget.

use crate::config::QismetConfig;
use crate::controller::{decide, DecisionReason};
use crate::estimator::TransientEstimate;
use crate::threshold::ThresholdCalibrator;
use qismet_filters::{OnlyTransientsPolicy, SeriesFilter};
use qismet_optim::Proposer;
use qismet_vqa::{JobRequest, NoisyObjective, RunRecord};

/// Full record of a QISMET (or Only-Transients) run.
#[derive(Debug, Clone, PartialEq)]
pub struct QismetRecord {
    /// The underlying run record (measured/exact series, jobs, evals).
    pub record: RunRecord,
    /// Rejected attempts (jobs that were re-executed).
    pub skips: usize,
    /// Iterations where the retry budget ran out and the last attempt was
    /// force-accepted (Section 8.1's adaptation escape hatch).
    pub forced_accepts: usize,
    /// The controller's final decision reason per iteration.
    pub decisions: Vec<DecisionReason>,
    /// The calibrated threshold at each iteration (NaN during warmup).
    pub threshold_trace: Vec<f64>,
}

impl QismetRecord {
    /// Fraction of attempts that were skipped.
    pub fn skip_rate(&self) -> f64 {
        let attempts = self.record.measured.len() + self.skips;
        if attempts == 0 {
            return 0.0;
        }
        self.skips as f64 / attempts as f64
    }
}

/// Runs QISMET-controlled VQA tuning.
///
/// # Panics
///
/// Panics if the config is invalid or the objective's transient trace is too
/// short (worst case `iterations * (retry_budget + 1) + 1` jobs).
pub fn run_qismet(
    proposer: &mut dyn Proposer,
    objective: &mut NoisyObjective,
    theta0: Vec<f64>,
    iterations: usize,
    config: QismetConfig,
) -> QismetRecord {
    run_qismet_budgeted(proposer, objective, theta0, iterations, usize::MAX, config)
}

/// Like [`run_qismet`] but with a hard **job budget**: the run stops when
/// either `iterations` complete or `max_jobs` quantum jobs have been
/// consumed. This is the machine-time accounting of the paper's Fig. 19
/// threshold study — skipped (repeated) jobs spend the same device budget as
/// productive ones, which is why over-aggressive skipping *delays
/// convergence* under low transient noise.
pub fn run_qismet_budgeted(
    proposer: &mut dyn Proposer,
    objective: &mut NoisyObjective,
    theta0: Vec<f64>,
    iterations: usize,
    max_jobs: usize,
    config: QismetConfig,
) -> QismetRecord {
    config.validate().expect("invalid QISMET config");
    let mut calibrator = ThresholdCalibrator::new(config.skip_target, config.warmup);
    run_controlled(
        proposer,
        objective,
        theta0,
        iterations,
        max_jobs,
        config.retry_budget,
        move |est| {
            calibrator.observe(est.tm());
            let thr = calibrator.threshold();
            let d = decide(est, thr);
            calibrator.record_decision(!d.accept);
            (d.accept, d.reason, thr)
        },
    )
}

/// Runs the Section 5.3 "Only-Transients" alternative: skip whenever the
/// |Tm| estimate breaches the policy's percentile threshold, regardless of
/// gradient direction.
///
/// # Panics
///
/// Same trace-capacity requirement as [`run_qismet`].
pub fn run_only_transients(
    proposer: &mut dyn Proposer,
    objective: &mut NoisyObjective,
    theta0: Vec<f64>,
    iterations: usize,
    policy: OnlyTransientsPolicy,
    retry_budget: usize,
) -> QismetRecord {
    run_only_transients_budgeted(
        proposer,
        objective,
        theta0,
        iterations,
        usize::MAX,
        policy,
        retry_budget,
    )
}

/// Job-budgeted variant of [`run_only_transients`]; see
/// [`run_qismet_budgeted`] for the budget semantics.
pub fn run_only_transients_budgeted(
    proposer: &mut dyn Proposer,
    objective: &mut NoisyObjective,
    theta0: Vec<f64>,
    iterations: usize,
    max_jobs: usize,
    mut policy: OnlyTransientsPolicy,
    retry_budget: usize,
) -> QismetRecord {
    run_controlled(
        proposer,
        objective,
        theta0,
        iterations,
        max_jobs,
        retry_budget,
        move |est| {
            let skip = policy.observe_and_decide(est.tm());
            let reason = if skip {
                // Only-Transients does not inspect direction; report the
                // magnitude-flip reason closest in spirit.
                DecisionReason::FlipBadDisguisedAsGood
            } else {
                DecisionReason::WithinThreshold
            };
            (!skip, reason, policy.threshold())
        },
    )
}

/// Shared controlled-loop skeleton. `verdict` returns
/// `(accept, reason, threshold_now)` for each attempt.
fn run_controlled(
    proposer: &mut dyn Proposer,
    objective: &mut NoisyObjective,
    theta0: Vec<f64>,
    iterations: usize,
    max_jobs: usize,
    retry_budget: usize,
    mut verdict: impl FnMut(&TransientEstimate) -> (bool, DecisionReason, f64),
) -> QismetRecord {
    let mut theta = theta0;
    let mut measured = Vec::with_capacity(iterations);
    let mut exact = Vec::with_capacity(iterations);
    let mut decisions = Vec::with_capacity(iterations);
    let mut threshold_trace = Vec::with_capacity(iterations);
    let mut skips = 0usize;
    let mut forced_accepts = 0usize;

    // Em(0): the incumbent's energy from its own job.
    let mut em_prev = objective.measure(&theta);
    objective.advance_job();

    for _ in 0..iterations {
        if objective.job() >= max_jobs {
            break;
        }
        let mut attempts = 0usize;
        let (candidate, em_curr, reason, thr) = loop {
            // The job: optimizer evaluations + rerun of the previous
            // iteration's circuit + candidate energy, all under this job's
            // noise. When the optimizer names its query points up front,
            // the evaluations and the rerun are assembled into one
            // JobRequest; the candidate (whose parameters depend on the
            // request's results) follows as a second wave of the same job.
            // The rerun and a retry's gradient points are remembered by the
            // objective, so they cost no simulation.
            let (proposal, em_rerun) = match proposer.eval_points(&theta) {
                Some(points) => {
                    let request = JobRequest::shared_job(points).with_rerun(theta.clone());
                    let result = objective
                        .execute(&request)
                        .unwrap_or_else(|e| panic!("{e}"));
                    let em_rerun = result.rerun_value().expect("rerun was attached");
                    (
                        proposer.propose_from(&theta, result.eval_values()),
                        em_rerun,
                    )
                }
                None => {
                    let proposal = {
                        let obj = &mut *objective;
                        proposer.propose(&theta, &mut |p: &[f64]| obj.measure(p))
                    };
                    let em_rerun = objective.measure(&theta);
                    (proposal, em_rerun)
                }
            };
            let em_curr = objective.measure(&proposal.candidate);
            let est = TransientEstimate::new(em_prev, em_rerun, em_curr);
            let (accept, reason, thr) = verdict(&est);
            if accept {
                break (proposal.candidate, em_curr, reason, thr);
            }
            attempts += 1;
            skips += 1;
            if attempts >= retry_budget {
                // Max-out: accept so that persistent device changes are
                // adapted to rather than fought (Section 8.1).
                forced_accepts += 1;
                break (proposal.candidate, em_curr, reason, thr);
            }
            // Repeat the job under fresh noise.
            objective.advance_job();
        };
        theta = candidate;
        em_prev = em_curr;
        measured.push(em_curr);
        exact.push(objective.eval_exact(&theta));
        decisions.push(reason);
        threshold_trace.push(thr);
        proposer.advance();
        objective.advance_job();
    }

    let accepted = measured.len();
    QismetRecord {
        record: RunRecord {
            measured,
            exact,
            final_params: theta,
            jobs: objective.job(),
            evals: objective.evals(),
            accepted,
            rejected: skips,
        },
        skips,
        forced_accepts,
        decisions,
        threshold_trace,
    }
}

/// Runs a plain baseline but reports a filtered view of the measured series
/// (the paper's Kalman comparison, Section 7.4: filtering "applied on top of
/// the noisy VQA tuning performed with SPSA"). Returns `(raw, filtered)`.
pub fn run_filtered_baseline(
    proposer: &mut dyn Proposer,
    objective: &mut NoisyObjective,
    theta0: Vec<f64>,
    iterations: usize,
    filter: &mut dyn SeriesFilter,
) -> (RunRecord, Vec<f64>) {
    let record = qismet_vqa::run_tuning(
        proposer,
        objective,
        theta0,
        iterations,
        qismet_vqa::TuningScheme::Baseline,
    );
    let filtered = filter.filter_series(&record.measured);
    (record, filtered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qismet_mathkit::rng_from_seed;
    use qismet_optim::{GainSchedule, Spsa};
    use qismet_qnoise::{StaticNoiseModel, TransientModel, TransientTrace};
    use qismet_vqa::{Ansatz, AnsatzKind, Entanglement, NoisyObjectiveConfig, Tfim};

    fn objective_with(trace: TransientTrace, seed: u64) -> (NoisyObjective, f64) {
        let tfim = Tfim::paper_6q();
        let gs = tfim.exact_ground_energy().unwrap();
        let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
        let cfg = NoisyObjectiveConfig {
            static_model: StaticNoiseModel::uniform(6, 120.0, 100.0, 2e-4, 5e-3),
            trace,
            magnitude_ref: gs.abs(),
            shot_sigma: 0.03,
            within_job_spread: 0.25,
            seed,
        };
        (NoisyObjective::new(ansatz, tfim.hamiltonian(), cfg), gs)
    }

    #[test]
    fn qismet_runs_and_skips_under_transients() {
        let trace = TransientModel::severe(0.35).generate(&mut rng_from_seed(21), 4000);
        let (mut obj, _) = objective_with(trace, 31);
        let theta0 = obj.exact().ansatz().initial_params(4);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let rec = run_qismet(
            &mut spsa,
            &mut obj,
            theta0,
            300,
            QismetConfig::paper_default(),
        );
        assert_eq!(rec.record.measured.len(), 300);
        assert!(rec.skips > 0, "no skips under severe transients");
        // Skip rate should be loosely bounded by the 90p target plus retry
        // amplification.
        assert!(rec.skip_rate() < 0.35, "skip rate {}", rec.skip_rate());
        assert_eq!(rec.decisions.len(), 300);
        // Jobs exceed iterations by the skip count (plus the initial job).
        assert_eq!(rec.record.jobs, 300 + rec.skips + 1);
    }

    #[test]
    fn qismet_without_transients_matches_baseline_closely() {
        let quiet = TransientTrace::zeros(3000);
        let (mut obj_q, _) = objective_with(quiet.clone(), 7);
        let theta0 = obj_q.exact().ansatz().initial_params(4);
        let mut spsa_q = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let qrec = run_qismet(
            &mut spsa_q,
            &mut obj_q,
            theta0.clone(),
            250,
            QismetConfig::paper_default(),
        );
        let (mut obj_b, _) = objective_with(quiet, 7);
        let mut spsa_b = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let brec = qismet_vqa::run_tuning(
            &mut spsa_b,
            &mut obj_b,
            theta0,
            250,
            qismet_vqa::TuningScheme::Baseline,
        );
        // With no transients, QISMET should rarely skip...
        assert!(
            qrec.skip_rate() < 0.12,
            "quiet skip rate {}",
            qrec.skip_rate()
        );
        // ...and end up at a comparable exact energy.
        let qe = qrec.record.final_exact_energy(25);
        let be = brec.final_exact_energy(25);
        assert!(
            (qe - be).abs() < 0.8,
            "quiet-case divergence: qismet {qe} vs baseline {be}"
        );
    }

    #[test]
    fn qismet_beats_baseline_under_transients() {
        // The headline claim, at test scale.
        let trace = TransientModel::severe(0.4).generate(&mut rng_from_seed(77), 8000);
        let (mut obj_q, gs) = objective_with(trace.clone(), 13);
        let theta0 = obj_q.exact().ansatz().initial_params(4);
        let mut spsa_q = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let qrec = run_qismet(
            &mut spsa_q,
            &mut obj_q,
            theta0.clone(),
            500,
            QismetConfig::paper_default(),
        );
        let (mut obj_b, _) = objective_with(trace, 13);
        let mut spsa_b = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let brec = qismet_vqa::run_tuning(
            &mut spsa_b,
            &mut obj_b,
            theta0,
            500,
            qismet_vqa::TuningScheme::Baseline,
        );
        let q_final = qrec.record.final_energy(50);
        let b_final = brec.final_energy(50);
        assert!(
            q_final < b_final,
            "qismet {q_final} should beat baseline {b_final} (ground {gs})"
        );
    }

    #[test]
    fn forced_accepts_bounded_by_retry_budget() {
        // A trace that is *always* bursting: the controller keeps rejecting,
        // so every iteration should exhaust its retries and force-accept.
        let hostile = TransientTrace::from_values(
            (0..2000)
                .map(|k| if k % 2 == 0 { 0.8 } else { -0.8 })
                .collect(),
        );
        let (mut obj, _) = objective_with(hostile, 3);
        let theta0 = obj.exact().ansatz().initial_params(4);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let cfg = QismetConfig {
            warmup: 4,
            ..QismetConfig::paper_default()
        };
        let rec = run_qismet(&mut spsa, &mut obj, theta0, 40, cfg);
        // Alternating-sign transients flip gradients constantly; expect many
        // forced accepts but never more than one per iteration.
        assert!(rec.forced_accepts <= 40);
        assert!(rec.skips <= 40 * 5);
    }

    /// Forwards a proposer while hiding `eval_points`, forcing
    /// `run_controlled` onto the legacy per-call evaluation path.
    struct Unbatched<P: Proposer>(P);

    impl<P: Proposer> Proposer for Unbatched<P> {
        fn propose(
            &mut self,
            theta: &[f64],
            objective: &mut dyn FnMut(&[f64]) -> f64,
        ) -> qismet_optim::Proposal {
            self.0.propose(theta, objective)
        }
        fn advance(&mut self) {
            self.0.advance()
        }
        fn iteration(&self) -> usize {
            self.0.iteration()
        }
        fn evals_per_proposal(&self) -> usize {
            self.0.evals_per_proposal()
        }
        fn name(&self) -> &'static str {
            "unbatched"
        }
    }

    #[test]
    fn qismet_record_identical_through_batched_and_per_call_paths() {
        // Acceptance criterion of the Backend refactor: run_qismet must
        // produce an identical QismetRecord whether each iteration's job
        // executes as one batched JobRequest or as per-call evaluations —
        // same seeds => same measured series, decisions, and thresholds.
        let trace = TransientModel::severe(0.35).generate(&mut rng_from_seed(55), 6000);
        let run = |batched: bool| {
            let (mut obj, _) = objective_with(trace.clone(), 17);
            let theta0 = obj.exact().ansatz().initial_params(4);
            let spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
            let cfg = QismetConfig::paper_default();
            if batched {
                let mut p = spsa;
                run_qismet(&mut p, &mut obj, theta0, 150, cfg)
            } else {
                let mut p = Unbatched(spsa);
                run_qismet(&mut p, &mut obj, theta0, 150, cfg)
            }
        };
        let via_batch = run(true);
        let via_calls = run(false);
        // Field-by-field: the threshold trace is NaN during warmup, so the
        // float series are compared bitwise rather than through PartialEq.
        assert_eq!(via_batch.record, via_calls.record);
        assert_eq!(via_batch.skips, via_calls.skips);
        assert_eq!(via_batch.forced_accepts, via_calls.forced_accepts);
        assert_eq!(via_batch.decisions, via_calls.decisions);
        assert!(via_batch.skips > 0, "want a transient-rich comparison");
        for (a, b) in via_batch
            .record
            .measured
            .iter()
            .zip(&via_calls.record.measured)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            via_batch.threshold_trace.len(),
            via_calls.threshold_trace.len()
        );
        for (a, b) in via_batch
            .threshold_trace
            .iter()
            .zip(&via_calls.threshold_trace)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn only_transients_skips_more_blindly() {
        let trace = TransientModel::moderate(0.3).generate(&mut rng_from_seed(17), 6000);
        let (mut obj, _) = objective_with(trace, 19);
        let theta0 = obj.exact().ansatz().initial_params(4);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let rec = run_only_transients(
            &mut spsa,
            &mut obj,
            theta0,
            300,
            OnlyTransientsPolicy::new(50.0),
            5,
        );
        // A 50p threshold skips roughly half of all attempts.
        assert!(
            rec.skip_rate() > 0.25,
            "50p policy skip rate {}",
            rec.skip_rate()
        );
    }

    #[test]
    fn filtered_baseline_returns_both_series() {
        let trace = TransientModel::moderate(0.2).generate(&mut rng_from_seed(23), 600);
        let (mut obj, _) = objective_with(trace, 29);
        let theta0 = obj.exact().ansatz().initial_params(4);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::spall_default(), 5);
        let mut kalman = qismet_filters::KalmanFilter::new(1.0, 0.1, 1e-4);
        let (record, filtered) =
            run_filtered_baseline(&mut spsa, &mut obj, theta0, 150, &mut kalman);
        assert_eq!(record.measured.len(), 150);
        assert_eq!(filtered.len(), 150);
        // The filtered series has lower variance than the raw one.
        let raw_var = qismet_mathkit::variance(&record.measured[50..]);
        let fil_var = qismet_mathkit::variance(&filtered[50..]);
        assert!(
            fil_var < raw_var,
            "filter should smooth: {fil_var} vs {raw_var}"
        );
    }
}
