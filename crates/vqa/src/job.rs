//! Batched job assembly for the execution layer.
//!
//! The paper's Fig. 7 structures each QISMET iteration as **one quantum
//! job**: the optimizer's evaluations, a rerun of the previous iteration's
//! circuit, and the candidate evaluation all execute under the same noise
//! environment. [`JobRequest`] is that structure made explicit: the runner
//! assembles every parameter point an iteration needs, and
//! `NoisyObjective::execute` measures them in order, simulating only the
//! points its `ExactObjective` does not remember.
//!
//! Two layouts cover both execution models in the workspace:
//!
//! * [`JobLayout::SharedJob`] — all points share the current quantum job
//!   (QISMET's co-scheduled iteration; the caller advances the job once).
//! * [`JobLayout::JobPerEval`] — every point is its own quantum job (the
//!   traditional VQA stack, where each energy estimation is a separate
//!   submission landing in an independent noise environment).

/// How a batch of evaluations maps onto quantum jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobLayout {
    /// All evaluations share the objective's current job (and its transient
    /// slot); the caller advances the job counter afterwards.
    SharedJob,
    /// Each evaluation consumes its own job: the objective advances the job
    /// counter after every point.
    JobPerEval,
}

/// One iteration's worth of objective evaluations, assembled before
/// execution so they share one job's noise environment.
///
/// # Examples
///
/// ```
/// use qismet_vqa::{JobLayout, JobRequest};
///
/// let req = JobRequest::shared_job(vec![vec![0.1, 0.2], vec![0.3, 0.4]])
///     .with_rerun(vec![0.0, 0.0]);
/// assert_eq!(req.len(), 3);
/// assert_eq!(req.layout(), JobLayout::SharedJob);
/// assert_eq!(req.rerun_index(), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    points: Vec<Vec<f64>>,
    rerun: Option<usize>,
    layout: JobLayout,
}

impl JobRequest {
    /// A batch whose evaluations all share the current quantum job
    /// (QISMET's Fig. 7 co-scheduling).
    pub fn shared_job(points: Vec<Vec<f64>>) -> Self {
        JobRequest {
            points,
            rerun: None,
            layout: JobLayout::SharedJob,
        }
    }

    /// A batch where every evaluation is its own quantum job (the
    /// traditional VQA submission model).
    pub fn job_per_eval(points: Vec<Vec<f64>>) -> Self {
        JobRequest {
            points,
            rerun: None,
            layout: JobLayout::JobPerEval,
        }
    }

    /// Appends the previous iteration's parameters as the trailing
    /// **rerun** circuit (the transient reference of Fig. 8).
    pub fn with_rerun(mut self, params: Vec<f64>) -> Self {
        self.rerun = Some(self.points.len());
        self.points.push(params);
        self
    }

    /// The parameter points, in submission order (rerun last, if present).
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// The batch layout.
    pub fn layout(&self) -> JobLayout {
        self.layout
    }

    /// Index of the rerun point, when one was attached.
    pub fn rerun_index(&self) -> Option<usize> {
        self.rerun
    }

    /// Total points in the batch.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The measured values for one executed [`JobRequest`], in point order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    values: Vec<f64>,
    rerun: Option<usize>,
}

impl JobResult {
    pub(crate) fn new(values: Vec<f64>, rerun: Option<usize>) -> Self {
        JobResult { values, rerun }
    }

    /// Every measured value, in submission order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The optimizer-evaluation values (everything before the rerun).
    pub fn eval_values(&self) -> &[f64] {
        match self.rerun {
            Some(idx) => &self.values[..idx],
            None => &self.values,
        }
    }

    /// The rerun circuit's measured value, when one was requested.
    pub fn rerun_value(&self) -> Option<f64> {
        self.rerun.map(|idx| self.values[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rerun_is_appended_last() {
        let req = JobRequest::shared_job(vec![vec![1.0], vec![2.0]]).with_rerun(vec![9.0]);
        assert_eq!(req.len(), 3);
        assert_eq!(req.points()[2], vec![9.0]);
        assert_eq!(req.rerun_index(), Some(2));
        assert!(!req.is_empty());
    }

    #[test]
    fn result_splits_evals_and_rerun() {
        let res = JobResult::new(vec![0.1, 0.2, 0.9], Some(2));
        assert_eq!(res.eval_values(), &[0.1, 0.2]);
        assert_eq!(res.rerun_value(), Some(0.9));
        assert_eq!(res.values().len(), 3);
    }

    #[test]
    fn result_without_rerun() {
        let res = JobResult::new(vec![0.1, 0.2], None);
        assert_eq!(res.eval_values(), &[0.1, 0.2]);
        assert_eq!(res.rerun_value(), None);
    }

    #[test]
    fn layouts_are_preserved() {
        assert_eq!(
            JobRequest::job_per_eval(vec![]).layout(),
            JobLayout::JobPerEval
        );
        assert_eq!(
            JobRequest::shared_job(vec![]).layout(),
            JobLayout::SharedJob
        );
        assert!(JobRequest::shared_job(vec![]).is_empty());
    }
}
