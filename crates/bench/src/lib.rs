//! Shared harness utilities for the per-figure/table benchmark binaries.
//!
//! Every figure and table in the paper's evaluation has a bench target in
//! `benches/` that declares its sweep as a [`Campaign`] (or a custom spec
//! list for non-scheme workloads) and runs it through the [`SweepExecutor`]
//! — sequentially, or across threads under the `parallel` feature. This
//! crate hosts the engine ([`scenario`], [`executor`], [`report`]), the
//! scheme runners, and the iteration-scale control (`QISMET_BENCH_SCALE`)
//! for quick smoke runs.

pub mod cli;
pub mod distributed;
pub mod executor;
pub mod report;
pub mod scenario;
pub mod service;

pub use distributed::{
    run_campaign_distributed, serve_campaign, serve_session, serve_worker, DistributedOptions,
    DistributedStats, SessionOutcome, WorkerOptions, DROP_AFTER_ENV, EXIT_AFTER_ENV,
    MAX_SESSIONS_ENV,
};
pub use executor::{run_campaign, run_one, try_run_one, ExecutorError, SweepExecutor};
pub use report::{
    bootstrap_ci, downsample, f2, f4, final_window, geomean_ratios, paired_scheme_test,
    print_table, read_runs_jsonl, reaggregate_runs_jsonl, results_dir, trailing_mean, write_csv,
    BootstrapCi, CampaignReport, PairedTest, ReportMeta, RunRecord, RunsJsonlWriter,
};
pub use scenario::{
    parse_scheme, parse_threshold, run_seed, Campaign, CampaignGrid, RunKind, RunSpec,
    ScenarioSpec, SeedSpec,
};
pub use service::{
    cancel_job, drain_service, job_status, machine_by_name, register_worker, scheme_cli_name,
    submit_job, CampaignPlanner, GridSpec, RegisterOptions, RegisterStats, ServiceError,
};

use qismet::{
    run_filtered_baseline, run_only_transients_budgeted, run_qismet_budgeted, QismetConfig,
};
use qismet_filters::{KalmanFilter, OnlyTransientsPolicy};
use qismet_optim::{BlockingPolicy, GainSchedule, SecondOrderSpsa, Spsa};
use qismet_qsim::BackendPool;
use qismet_vqa::{run_tuning, AppInstance, AppSpec, NoisyObjective, TuningScheme};
use std::cell::RefCell;

thread_local! {
    // One backend pool per worker thread (the sweep executor's workers are
    // plain scoped threads, so `thread_local!` is exactly per-worker): every
    // run on a worker shares one scratch statevector and one compiled-plan
    // cache per qubit count, instead of allocating a fresh
    // CachedStatevectorBackend per run (ROADMAP "cross-run backend
    // sharing"). Results are unchanged by the sharing — the Backend
    // contract — which `campaign_engine` pins by test.
    static WORKER_BACKENDS: RefCell<BackendPool> = RefCell::new(BackendPool::new());
}

/// Scale factor for iteration counts, read from `QISMET_BENCH_SCALE`
/// (e.g. `0.1` for a 10x faster smoke run). Defaults to 1.
pub fn bench_scale() -> f64 {
    std::env::var("QISMET_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Applies the bench scale to an iteration count (minimum 20).
pub fn scaled(iterations: usize) -> usize {
    ((iterations as f64 * bench_scale()) as usize).max(20)
}

/// The comparison schemes of Section 6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Traditional VQA (measurement-error-mitigated, no transient handling).
    Baseline,
    /// QISMET at the paper's default 90p threshold.
    Qismet,
    /// QISMET-conservative (99p).
    QismetConservative,
    /// QISMET-aggressive (75p).
    QismetAggressive,
    /// Blocking SPSA.
    Blocking,
    /// Resampling SPSA (2 gradient samples).
    Resampling,
    /// 2nd-order SPSA.
    SecondOrder,
    /// Best Kalman instance from the Fig. 16 grid (oracle-tuned).
    KalmanBest,
    /// Only-Transients skipping at a percentile.
    OnlyTransients(u32),
    /// QISMET at an arbitrary |Tm| threshold percentile in `1..=99` (the
    /// Fig. 19 sensitivity axis, generalized). The paper's named points
    /// map onto their presets exactly: `QismetAt(90)` runs bit-identically
    /// to [`Scheme::Qismet`], 99 to conservative, 75 to aggressive.
    QismetAt(u32),
}

impl Scheme {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            Scheme::Baseline => "Baseline".into(),
            Scheme::Qismet => "QISMET".into(),
            Scheme::QismetConservative => "QISMET-conservative (99p)".into(),
            Scheme::QismetAggressive => "QISMET-aggressive (75p)".into(),
            Scheme::Blocking => "Blocking".into(),
            Scheme::Resampling => "Resampling".into(),
            Scheme::SecondOrder => "2nd-order".into(),
            Scheme::KalmanBest => "Kalman (Best)".into(),
            Scheme::OnlyTransients(p) => format!("Only-transients {p}p"),
            Scheme::QismetAt(p) => format!("QISMET ({p}p)"),
        }
    }
}

/// Outcome of one scheme run.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Scheme identity.
    pub scheme: Scheme,
    /// Per-iteration measured (or filtered, for Kalman) energies.
    pub series: Vec<f64>,
    /// Final energy (trailing-window mean of `series`).
    pub final_energy: f64,
    /// Quantum jobs consumed.
    pub jobs: usize,
    /// Circuit-level evaluations consumed.
    pub evals: u64,
    /// Skipped/rejected attempts.
    pub skips: usize,
}

fn fresh_app(spec: &AppSpec, iterations: usize, magnitude: Option<f64>, seed: u64) -> AppInstance {
    // Trace capacity: every iteration may burn 1 + retry_budget jobs.
    let capacity = iterations * 7 + 16;
    let backend = WORKER_BACKENDS.with(|pool| pool.borrow_mut().backend_for(spec.n_qubits));
    spec.build_with_backend(capacity, magnitude, seed, backend)
}

fn spsa_for(app: &AppInstance, seed: u64) -> Spsa {
    Spsa::new(app.theta0.len(), GainSchedule::vqa_paper(), seed)
}

/// Runs one scheme on a fresh instance of `spec` (same seed => same
/// transient trace and theta0 across schemes, so results are directly
/// comparable).
pub fn run_scheme(
    spec: &AppSpec,
    scheme: Scheme,
    iterations: usize,
    magnitude: Option<f64>,
    seed: u64,
) -> SchemeOutcome {
    let window = final_window(iterations);
    let mut app = fresh_app(spec, iterations, magnitude, seed);
    let opt_seed = qismet_mathkit::derive_seed(seed, 0xa11);
    match scheme {
        Scheme::Baseline => {
            let mut spsa = spsa_for(&app, opt_seed);
            let rec = run_tuning(
                &mut spsa,
                &mut app.objective,
                app.theta0.clone(),
                iterations,
                TuningScheme::Baseline,
            );
            outcome(scheme, rec.measured.clone(), window, rec.jobs, rec.evals, 0)
        }
        Scheme::Qismet
        | Scheme::QismetConservative
        | Scheme::QismetAggressive
        | Scheme::QismetAt(_) => {
            let cfg = match scheme {
                Scheme::QismetConservative => QismetConfig::conservative(),
                Scheme::QismetAggressive => QismetConfig::aggressive(),
                // The paper's named percentiles snap to their presets so
                // e.g. QismetAt(90) is bit-identical to Qismet; other
                // percentiles become custom skip targets.
                Scheme::QismetAt(99) => QismetConfig::conservative(),
                Scheme::QismetAt(75) => QismetConfig::aggressive(),
                Scheme::QismetAt(p) if p != 90 => QismetConfig {
                    skip_target: qismet::SkipTarget::Custom((100 - p.clamp(1, 99)) as f64 / 100.0),
                    ..QismetConfig::paper_default()
                },
                _ => QismetConfig::paper_default(),
            };
            let mut spsa = spsa_for(&app, opt_seed);
            // Job-budgeted: skipped (repeated) jobs consume the same device
            // budget as productive iterations, as in the paper's accounting.
            let rec = run_qismet_budgeted(
                &mut spsa,
                &mut app.objective,
                app.theta0.clone(),
                iterations,
                iterations + 1,
                cfg,
            );
            outcome(
                scheme,
                rec.record.measured.clone(),
                window,
                rec.record.jobs,
                rec.record.evals,
                rec.skips,
            )
        }
        Scheme::Blocking => {
            let mut spsa = spsa_for(&app, opt_seed);
            let rec = run_tuning(
                &mut spsa,
                &mut app.objective,
                app.theta0.clone(),
                iterations,
                TuningScheme::Blocking(BlockingPolicy::adaptive(0.05)),
            );
            outcome(
                scheme,
                rec.measured.clone(),
                window,
                rec.jobs,
                rec.evals,
                rec.rejected,
            )
        }
        Scheme::Resampling => {
            let mut spsa =
                Spsa::with_resampling(app.theta0.len(), GainSchedule::vqa_paper(), opt_seed, 2);
            let rec = run_tuning(
                &mut spsa,
                &mut app.objective,
                app.theta0.clone(),
                iterations,
                TuningScheme::Baseline,
            );
            outcome(scheme, rec.measured.clone(), window, rec.jobs, rec.evals, 0)
        }
        Scheme::SecondOrder => {
            let mut opt =
                SecondOrderSpsa::new(app.theta0.len(), GainSchedule::vqa_paper(), opt_seed);
            let rec = run_tuning(
                &mut opt,
                &mut app.objective,
                app.theta0.clone(),
                iterations,
                TuningScheme::Baseline,
            );
            outcome(scheme, rec.measured.clone(), window, rec.jobs, rec.evals, 0)
        }
        Scheme::KalmanBest => {
            let mut best: Option<SchemeOutcome> = None;
            for filter in KalmanFilter::fig16_grid() {
                let out = run_kalman_instance(spec, filter, iterations, magnitude, seed);
                if best
                    .as_ref()
                    .map(|b| out.final_energy < b.final_energy)
                    .unwrap_or(true)
                {
                    best = Some(out);
                }
            }
            let mut b = best.expect("non-empty grid");
            b.scheme = Scheme::KalmanBest;
            b
        }
        Scheme::OnlyTransients(pct) => {
            let mut spsa = spsa_for(&app, opt_seed);
            let rec = run_only_transients_budgeted(
                &mut spsa,
                &mut app.objective,
                app.theta0.clone(),
                iterations,
                iterations + 1,
                OnlyTransientsPolicy::new(pct as f64),
                5,
            );
            outcome(
                scheme,
                rec.record.measured.clone(),
                window,
                rec.record.jobs,
                rec.record.evals,
                rec.skips,
            )
        }
    }
}

/// Runs one specific Kalman instance (for the Fig. 16 grid plot).
pub fn run_kalman_instance(
    spec: &AppSpec,
    mut filter: KalmanFilter,
    iterations: usize,
    magnitude: Option<f64>,
    seed: u64,
) -> SchemeOutcome {
    let window = final_window(iterations);
    let mut app = fresh_app(spec, iterations, magnitude, seed);
    let opt_seed = qismet_mathkit::derive_seed(seed, 0xa11);
    let mut spsa = spsa_for(&app, opt_seed);
    let (rec, filtered) = run_filtered_baseline(
        &mut spsa,
        &mut app.objective,
        app.theta0.clone(),
        iterations,
        &mut filter,
    );
    outcome(Scheme::KalmanBest, filtered, window, rec.jobs, rec.evals, 0)
}

fn outcome(
    scheme: Scheme,
    series: Vec<f64>,
    window: usize,
    jobs: usize,
    evals: u64,
    skips: usize,
) -> SchemeOutcome {
    let n = series.len();
    let final_energy = qismet_mathkit::mean(&series[n.saturating_sub(window)..]);
    SchemeOutcome {
        scheme,
        series,
        final_energy,
        jobs,
        evals,
        skips,
    }
}

/// Exposes the underlying noisy objective for custom harnesses.
pub fn build_objective(
    spec: &AppSpec,
    iterations: usize,
    magnitude: Option<f64>,
    seed: u64,
) -> NoisyObjective {
    fresh_app(spec, iterations, magnitude, seed).objective
}
