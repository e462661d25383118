//! # qismet-optim
//!
//! Classical optimizers for the QISMET reproduction (ASPLOS 2023). The
//! paper tunes its VQAs with SPSA and compares against the SPSA variants a
//! practitioner would reach for when fighting noise (Section 6.3):
//!
//! * [`Spsa`] — standard Spall SPSA, the **Baseline** tuner, including the
//!   **Resampling** variant via [`Spsa::with_resampling`].
//! * [`SecondOrderSpsa`] — the **2nd-order** (2-SPSA) scheme with smoothed,
//!   regularized Hessian preconditioning.
//! * [`BlockingPolicy`] — the **Blocking** acceptance rule (fixed or
//!   adaptive tolerance).
//!
//! The central design point is the [`Proposer`] trait: optimizers do not own
//! their loops. QISMET's controller needs to veto and retry iterations
//! (paper Fig. 7), so `propose` must be re-callable with frozen algorithm
//! randomness, and internal state commits only on `advance`.
//!
//! # Examples
//!
//! ```
//! use qismet_optim::{run_baseline, GainSchedule, Proposer, Spsa};
//!
//! let mut spsa = Spsa::new(2, GainSchedule::spall_default(), 1);
//! let mut objective = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
//! let (theta, _) = run_baseline(&mut spsa, vec![1.0, -1.0], &mut objective, 200);
//! assert!(objective(&theta) < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod schedule;
mod second_order;
mod spsa;
mod traits;

pub use blocking::BlockingPolicy;
pub use schedule::GainSchedule;
pub use second_order::SecondOrderSpsa;
pub use spsa::Spsa;
pub use traits::{run_baseline, EvalRecord, Proposal, Proposer};
