//! The sweep executor: runs a campaign's independent grid points
//! sequentially (the default) or fanned across `std::thread::scope`
//! workers ([`SweepExecutor::with_threads`]).
//!
//! Determinism contract: every [`RunSpec`] is pure data (its seed is
//! resolved at expansion time from the campaign seed and grid coordinates),
//! and the scheme runners are pure functions of that data. Workers pull
//! specs off a shared atomic counter and write results back into the spec's
//! own slot, so parallel execution returns **bit-identical** records in the
//! same order as a sequential run — wall clock is bounded by cores, not by
//! the longest sequential loop.

use crate::report::{CampaignReport, ReportMeta, RunRecord};
use crate::scenario::{Campaign, RunKind, RunSpec};
use crate::{run_kalman_instance, run_scheme};
use std::panic::AssertUnwindSafe;

/// A typed failure from a fallible sweep ([`SweepExecutor::try_run_specs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// The run function panicked on one spec. Carries the spec's position
    /// in the input slice and the panic payload text.
    RunPanicked {
        /// Index of the failing spec in the input slice.
        index: usize,
        /// The panic message, if it was a string payload.
        message: String,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::RunPanicked { index, message } => {
                write!(f, "campaign run {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Renders a panic payload (`&str` or `String`, else a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into [`ExecutorError::RunPanicked`].
fn catch_run<R>(index: usize, f: impl FnOnce() -> R) -> Result<R, ExecutorError> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| ExecutorError::RunPanicked {
        index,
        message: panic_message(payload),
    })
}

/// The worker count a thread request stands for: `0` means all cores (as
/// [`std::thread::available_parallelism`] reports them, 1 if unknown), any
/// other value is taken as given. Every `--threads`/`threads` knob in the
/// harness resolves through this one rule.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Executes campaigns. Construct via [`SweepExecutor::new`] (sequential),
/// [`SweepExecutor::sequential`], or [`SweepExecutor::with_threads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepExecutor {
    threads: usize,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        SweepExecutor::new()
    }
}

impl SweepExecutor {
    /// The default executor: sequential, like [`SweepExecutor::sequential`].
    pub fn new() -> Self {
        SweepExecutor::sequential()
    }

    /// A strictly sequential executor.
    pub fn sequential() -> Self {
        SweepExecutor { threads: 1 }
    }

    /// An executor with an explicit worker count (`0` = all cores, see
    /// [`resolve_threads`]).
    pub fn with_threads(threads: usize) -> Self {
        SweepExecutor { threads }
    }

    /// The worker count this executor will actually use for `n` tasks.
    pub fn effective_threads(&self, n: usize) -> usize {
        resolve_threads(self.threads).min(n.max(1))
    }

    /// Expands and runs a campaign through the default scheme runner.
    ///
    /// # Panics
    ///
    /// Panics if a run panics; use [`SweepExecutor::try_run`] to get a
    /// typed error instead.
    pub fn run(&self, campaign: &Campaign) -> CampaignReport {
        self.try_run(campaign).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SweepExecutor::run`]: a panicking run surfaces as
    /// [`ExecutorError::RunPanicked`] instead of aborting the process.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed run failure.
    pub fn try_run(&self, campaign: &Campaign) -> Result<CampaignReport, ExecutorError> {
        let records = self.try_run_specs(&campaign.expand(), run_one)?;
        Ok(CampaignReport {
            name: campaign.name.clone(),
            seed: campaign.seed,
            meta: ReportMeta::current(),
            records,
        })
    }

    /// Runs an arbitrary per-spec function over a slice of independent
    /// specs, preserving input order in the output. This is the generic
    /// engine the figure harnesses use for workloads that are not plain
    /// scheme runs (H2 dissociation, fidelity batches, trace generation).
    ///
    /// # Panics
    ///
    /// Panics if `run` panics on any spec; use
    /// [`SweepExecutor::try_run_specs`] for a typed error.
    pub fn run_specs<S, R, F>(&self, specs: &[S], run: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&S) -> R + Sync,
    {
        self.try_run_specs(specs, run)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SweepExecutor::run_specs`]: a panic inside `run`
    /// is caught (on whichever worker thread it happens) and returned as a
    /// typed [`ExecutorError`] naming the failing spec, instead of tearing
    /// down the whole process via a worker-join abort.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failure when one or more runs panic;
    /// remaining work is abandoned as soon as the failure is observed.
    pub fn try_run_specs<S, R, F>(&self, specs: &[S], run: F) -> Result<Vec<R>, ExecutorError>
    where
        S: Sync,
        R: Send,
        F: Fn(&S) -> R + Sync,
    {
        let workers = self.effective_threads(specs.len());
        if workers <= 1 || specs.len() <= 1 {
            return specs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    qismet_telemetry::gauge!("sweep.queue_depth").set((specs.len() - i) as i64);
                    catch_run(i, || run(s))
                })
                .collect();
        }
        self.try_run_specs_parallel(specs, &run, workers)
    }

    fn try_run_specs_parallel<S, R, F>(
        &self,
        specs: &[S],
        run: &F,
        workers: usize,
    ) -> Result<Vec<R>, ExecutorError>
    where
        S: Sync,
        R: Send,
        F: Fn(&S) -> R + Sync,
    {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let mut collected: Vec<Result<Vec<(usize, R)>, ExecutorError>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let next = &next;
                let abort = &abort;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        qismet_telemetry::gauge!("sweep.queue_depth")
                            .set(specs.len().saturating_sub(i + 1) as i64);
                        match catch_run(i, || run(&specs[i])) {
                            Ok(r) => local.push((i, r)),
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                return Err(e);
                            }
                        }
                    }
                    Ok(local)
                }));
            }
            for h in handles {
                collected.push(h.join().expect("campaign worker thread died"));
            }
        });
        // Deterministic error selection: the lowest-indexed failure wins,
        // independent of worker interleaving.
        let mut first_error: Option<ExecutorError> = None;
        let mut successes: Vec<(usize, R)> = Vec::with_capacity(specs.len());
        for worker_result in collected {
            match worker_result {
                Ok(local) => successes.extend(local),
                Err(e) => {
                    let replace = match (&first_error, &e) {
                        (None, _) => true,
                        (
                            Some(ExecutorError::RunPanicked { index: a, .. }),
                            ExecutorError::RunPanicked { index: b, .. },
                        ) => b < a,
                    };
                    if replace {
                        first_error = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        // Reassemble in input order.
        let mut slots: Vec<Option<R>> = (0..specs.len()).map(|_| None).collect();
        for (i, r) in successes {
            slots[i] = Some(r);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every spec produced a result"))
            .collect())
    }
}

/// Fallible form of [`run_one`]: a panicking scheme run (bad hyper-params,
/// trace exhaustion escalated to a panic) becomes a typed error carrying
/// the spec's campaign index. This is the per-spec entry point the cluster
/// worker loop uses, so one poisoned spec fails its assignment instead of
/// killing the worker process.
///
/// # Errors
///
/// Returns [`ExecutorError::RunPanicked`] if the run panics.
pub fn try_run_one(spec: &RunSpec) -> Result<RunRecord, ExecutorError> {
    catch_run(spec.index, || run_one(spec))
}

/// Runs one fully-resolved spec through the scheme runners and packages the
/// outcome as a [`RunRecord`].
pub fn run_one(spec: &RunSpec) -> RunRecord {
    let t0 = qismet_telemetry::enabled().then(std::time::Instant::now);
    let outcome = match &spec.kind {
        RunKind::Scheme(s) => run_scheme(&spec.app, *s, spec.iterations, spec.magnitude, spec.seed),
        RunKind::Kalman(k) => run_kalman_instance(
            &spec.app,
            k.clone(),
            spec.iterations,
            spec.magnitude,
            spec.seed,
        ),
    };
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        qismet_telemetry::counter!("sweep.specs_done").inc();
        qismet_telemetry::counter!("sweep.eval_ns").add(ns);
        qismet_telemetry::histogram!("sweep.spec_ns").record(ns);
    }
    RunRecord {
        label: spec.label.clone(),
        app: spec.app.name(),
        machine: spec.app.machine.name().to_string(),
        scheme: spec.kind.name(),
        scenario: spec.scenario,
        trial: spec.trial,
        iterations: spec.iterations,
        magnitude: spec.magnitude,
        seed: spec.seed,
        final_energy: outcome.final_energy,
        jobs: outcome.jobs,
        evals: outcome.evals,
        skips: outcome.skips,
        series: outcome.series,
    }
}

/// Convenience: runs `campaign` with the default executor.
pub fn run_campaign(campaign: &Campaign) -> CampaignReport {
    SweepExecutor::new().run(campaign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;
    use crate::Scheme;
    use qismet_vqa::AppSpec;

    fn tiny_campaign() -> Campaign {
        Campaign::new("tiny", 11)
            .with(ScenarioSpec::new(
                AppSpec::by_id(1).unwrap(),
                Scheme::Baseline,
                25,
            ))
            .with(ScenarioSpec::new(
                AppSpec::by_id(1).unwrap(),
                Scheme::Qismet,
                25,
            ))
    }

    #[test]
    fn run_specs_preserves_order() {
        let specs: Vec<usize> = (0..97).collect();
        let out = SweepExecutor::new().run_specs(&specs, |&i| i * 3);
        assert_eq!(out, specs.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_matches_default_executor_bitwise() {
        let campaign = tiny_campaign();
        let seq = SweepExecutor::sequential().run(&campaign);
        let par = SweepExecutor::with_threads(4).run(&campaign);
        assert_eq!(seq, par);
        for (a, b) in seq.records.iter().zip(par.records.iter()) {
            for (x, y) in a.series.iter().zip(b.series.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn try_run_specs_reports_the_lowest_indexed_panic() {
        let specs: Vec<usize> = (0..20).collect();
        let run = |&i: &usize| {
            if i == 7 || i == 13 {
                panic!("boom at {i}");
            }
            i * 2
        };
        for executor in [SweepExecutor::sequential(), SweepExecutor::with_threads(4)] {
            let err = executor.try_run_specs(&specs, run).unwrap_err();
            match err {
                ExecutorError::RunPanicked { index, message } => {
                    assert_eq!(index, 7, "lowest-indexed failure must win");
                    assert!(message.contains("boom at 7"), "message: {message}");
                }
            }
        }
    }

    #[test]
    fn try_run_specs_succeeds_without_panics() {
        let specs: Vec<usize> = (0..33).collect();
        let out = SweepExecutor::with_threads(4)
            .try_run_specs(&specs, |&i| i + 1)
            .unwrap();
        assert_eq!(out, (1..34).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_one_matches_run_one_on_healthy_specs() {
        let spec = &tiny_campaign().expand()[0];
        let fallible = try_run_one(spec).unwrap();
        let infallible = run_one(spec);
        assert_eq!(fallible, infallible);
        assert_eq!(fallible.series.len(), 25);
    }

    #[test]
    fn try_run_matches_run_bitwise() {
        let campaign = tiny_campaign();
        let a = SweepExecutor::sequential().try_run(&campaign).unwrap();
        let b = SweepExecutor::sequential().run(&campaign);
        assert_eq!(a, b);
    }

    #[test]
    fn records_carry_grid_identity() {
        let report = run_campaign(&tiny_campaign());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].scenario, 0);
        assert_eq!(report.records[1].scheme, "QISMET");
        assert_eq!(report.records[0].app, "App1");
        assert!(report.records.iter().all(|r| r.series.len() == 25));
    }
}
