//! The proposer interface shared by all optimizers.
//!
//! QISMET must be able to **veto** and **retry** optimizer steps (Fig. 7 of
//! the paper), so optimizers here do not run their own loops. Instead they
//! expose `propose` — evaluate whatever the algorithm needs and return a
//! candidate parameter vector — and `advance` — commit internal state once
//! the surrounding controller accepts an iteration. Calling `propose` again
//! without `advance` (a QISMET retry) re-evaluates the same logical
//! iteration under fresh noise, holding algorithm randomness (e.g. the SPSA
//! perturbation direction) fixed.

/// One objective evaluation record: the parameters queried and the value
/// returned by the (noisy) objective.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Parameters evaluated.
    pub params: Vec<f64>,
    /// Objective value observed.
    pub value: f64,
}

/// The outcome of one proposed optimizer step.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// The proposed next parameter vector.
    pub candidate: Vec<f64>,
    /// The gradient estimate used (empty for gradient-free proposals).
    pub gradient: Vec<f64>,
    /// Every objective evaluation made while forming the proposal.
    pub evals: Vec<EvalRecord>,
}

impl Proposal {
    /// Number of objective evaluations consumed.
    pub fn n_evals(&self) -> usize {
        self.evals.len()
    }
}

/// A steppable optimizer.
///
/// Implementations must make `propose` *re-callable*: invoking it twice at
/// the same iteration index (without an intervening [`Proposer::advance`])
/// must use the same internal randomness, so that a retry differs only
/// through the objective's noise.
pub trait Proposer {
    /// Evaluates the objective as needed and proposes the next parameters.
    fn propose(&mut self, theta: &[f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> Proposal;

    /// The parameter points this iteration's [`Proposer::propose`] would
    /// evaluate, in evaluation order — or `None` when the optimizer's
    /// queries depend on intermediate objective values and cannot be known
    /// up front.
    ///
    /// When `Some`, callers may evaluate the whole list as **one batched
    /// quantum job** and feed the results to [`Proposer::propose_from`];
    /// the pair must produce exactly the proposal `propose` would have. All
    /// optimizers in this crate support this (their query points depend
    /// only on `theta` and frozen per-iteration randomness).
    fn eval_points(&mut self, _theta: &[f64]) -> Option<Vec<Vec<f64>>> {
        None
    }

    /// Builds the proposal from pre-computed objective values for
    /// [`Proposer::eval_points`], in the same order.
    ///
    /// The default implementation replays `propose` with the supplied
    /// values, which guarantees bitwise-identical proposals for any
    /// optimizer whose evaluation order is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if fewer values are supplied than `propose` consumes.
    fn propose_from(&mut self, theta: &[f64], values: &[f64]) -> Proposal {
        let mut next = 0usize;
        let mut replay = |_params: &[f64]| {
            let v = values
                .get(next)
                .copied()
                .expect("propose_from: fewer values than the proposer evaluates");
            next += 1;
            v
        };
        self.propose(theta, &mut replay)
    }

    /// Commits the current iteration (called when the controller accepts).
    fn advance(&mut self);

    /// Current iteration index (number of `advance` calls so far).
    fn iteration(&self) -> usize;

    /// Objective evaluations per proposal (for overhead accounting).
    fn evals_per_proposal(&self) -> usize;

    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Runs a plain optimization loop (no transient mitigation): propose,
/// always accept, `advance`, for `iterations` steps. Returns the parameter
/// trajectory's final point and the per-iteration candidate energies.
///
/// This is the **Baseline** configuration of the paper's Section 6.3 (when
/// driven with a noisy objective) and the "Noise-free" reference (when
/// driven with an exact objective).
pub fn run_baseline(
    proposer: &mut dyn Proposer,
    theta0: Vec<f64>,
    objective: &mut dyn FnMut(&[f64]) -> f64,
    iterations: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut theta = theta0;
    let mut energies = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let proposal = proposer.propose(&theta, objective);
        theta = proposal.candidate;
        let e = objective(&theta);
        energies.push(e);
        proposer.advance();
    }
    (theta, energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsa::Spsa;
    use crate::GainSchedule;

    fn quadratic(x: &[f64]) -> f64 {
        x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum()
    }

    #[test]
    fn baseline_loop_descends_quadratic() {
        let mut spsa = Spsa::new(3, GainSchedule::spall_default(), 7);
        let mut f = |x: &[f64]| quadratic(x);
        let theta0 = vec![3.0, -2.0, 0.5];
        let start = quadratic(&theta0);
        let (theta, energies) = run_baseline(&mut spsa, theta0, &mut f, 300);
        let end = quadratic(&theta);
        assert!(end < start * 0.05, "start {start} end {end}");
        assert_eq!(energies.len(), 300);
    }

    #[test]
    fn proposal_records_evals() {
        let mut spsa = Spsa::new(2, GainSchedule::spall_default(), 3);
        let mut f = |x: &[f64]| quadratic(x);
        let p = spsa.propose(&[0.0, 0.0], &mut f);
        assert_eq!(p.n_evals(), 2);
        assert_eq!(p.gradient.len(), 2);
        assert_eq!(p.candidate.len(), 2);
    }

    /// `eval_points` + `propose_from` must reproduce `propose` bitwise for
    /// every optimizer in the crate — that equivalence is what lets the
    /// runners batch a whole iteration into one quantum job.
    #[test]
    fn batched_proposal_path_matches_callback_path() {
        let gains = GainSchedule::spall_default();
        let proposers: Vec<Box<dyn Proposer>> = vec![
            Box::new(Spsa::new(3, gains, 7)),
            Box::new(Spsa::with_resampling(3, gains, 7, 3)),
            Box::new(crate::SecondOrderSpsa::new(3, gains, 7)),
        ];
        let theta = vec![0.4, -0.9, 0.2];
        for mut proposer in proposers {
            // Run a couple of iterations so k > 0 paths are covered too.
            for _ in 0..3 {
                let mut queried: Vec<Vec<f64>> = Vec::new();
                let direct = {
                    let mut f = |x: &[f64]| {
                        queried.push(x.to_vec());
                        quadratic(x)
                    };
                    proposer.propose(&theta, &mut f)
                };
                let points = proposer
                    .eval_points(&theta)
                    .expect("all in-crate optimizers support batching");
                assert_eq!(points, queried, "{}: points mismatch", proposer.name());
                let values: Vec<f64> = points.iter().map(|p| quadratic(p)).collect();
                let batched = proposer.propose_from(&theta, &values);
                assert_eq!(direct, batched, "{}: proposal mismatch", proposer.name());
                for (a, b) in direct.candidate.iter().zip(&batched.candidate) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", proposer.name());
                }
                proposer.advance();
            }
        }
    }

    #[test]
    #[should_panic(expected = "fewer values")]
    fn propose_from_rejects_short_value_lists() {
        let mut spsa = Spsa::new(2, GainSchedule::spall_default(), 1);
        let _ = spsa.propose_from(&[0.0, 0.0], &[1.0]);
    }
}
