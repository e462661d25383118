//! # qismet
//!
//! **QISMET: Quantum Iteration Skipping to Mitigate Error Transients** —
//! the core library of this reproduction of Ravi et al., ASPLOS 2023
//! (DOI 10.1145/3575693.3575739).
//!
//! NISQ devices exhibit *transient* noise: sudden, short-lived shifts in
//! qubit characteristics (TLS defects, thermal fluctuations) that flip the
//! per-iteration gradient directions a variational quantum algorithm's
//! classical tuner relies on. QISMET defends the tuner:
//!
//! 1. **Estimate** ([`TransientEstimate`], Fig. 8): each job re-runs the
//!    previous iteration's circuit; the difference between its two
//!    executions estimates the transient `Tm`, from which a transient-free
//!    energy `Ep` and gradient `Gp` are predicted.
//! 2. **Decide** ([`decide`], Fig. 9): accept the iteration only when the
//!    machine gradient `Gm` and prediction `Gp` agree in direction (or both
//!    sit inside the calibrated threshold band).
//! 3. **Retry** ([`run_qismet`], Fig. 7): rejected iterations re-execute in
//!    a fresh job, at most [`QismetConfig::retry_budget`] times, then
//!    force-accept so genuine device drift is adapted to.
//!
//! Thresholds calibrate online from the |Tm| history to a target skip rate
//! ([`ThresholdCalibrator`]; the paper's `99p`/`90p`/`75p`). The crate also
//! ships the comparison machinery the paper evaluates against
//! ([`run_only_transients`], [`run_filtered_baseline`]).
//!
//! # Examples
//!
//! Running QISMET against the paper's App2 at reduced scale:
//!
//! ```
//! use qismet::{run_qismet, QismetConfig};
//! use qismet_optim::{GainSchedule, Spsa};
//! use qismet_vqa::AppSpec;
//!
//! let mut app = AppSpec::by_id(2).unwrap().build(400, Some(0.2), 42);
//! let mut spsa = Spsa::new(app.theta0.len(), GainSchedule::spall_default(), 1);
//! let record = run_qismet(
//!     &mut spsa,
//!     &mut app.objective,
//!     app.theta0.clone(),
//!     50,
//!     QismetConfig::paper_default(),
//! );
//! assert_eq!(record.record.measured.len(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod controller;
mod estimator;
mod runner;
mod threshold;

pub use config::QismetConfig;
pub use controller::{decide, Decision, DecisionReason};
pub use estimator::TransientEstimate;
pub use runner::{
    run_filtered_baseline, run_only_transients, run_only_transients_budgeted, run_qismet,
    run_qismet_budgeted, QismetRecord,
};
pub use threshold::{SkipTarget, ThresholdCalibrator};
