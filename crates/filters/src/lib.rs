//! # qismet-filters
//!
//! Classical filtering baselines for the QISMET reproduction (ASPLOS 2023).
//! Sections 5.3 and 7.3-7.4 of the paper compare QISMET against approaches a
//! signal-processing practitioner would try first:
//!
//! * [`KalmanFilter`] — the scalar Kalman filter with the paper's
//!   Transition-Coefficient / Measurement-Variance hyper-parameters (the
//!   Fig. 16 grid).
//! * [`OnlyTransientsPolicy`] — the strawman "skip whenever |Tm| is large"
//!   controller of Fig. 15 with percentile thresholds (99p-50p).
//!
//! The shared [`SeriesFilter`] trait lets the evaluation harnesses treat
//! these interchangeably. The common limitation the paper identifies — these
//! methods treat all variance alike, while only *gradient-direction-flipping*
//! transients actually harm VQA tuning — is what the comparison benches
//! exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kalman;
mod only_transients;
mod traits;

pub use kalman::KalmanFilter;
pub use only_transients::OnlyTransientsPolicy;
pub use traits::SeriesFilter;
