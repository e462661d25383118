//! # qismet-qnoise
//!
//! Static **and transient** NISQ noise modeling for the QISMET reproduction
//! (ASPLOS 2023). The paper's thesis is that device noise has a dynamic,
//! transient component that static error-mitigation assumptions miss; this
//! crate provides both layers:
//!
//! * [`StaticNoiseModel`] — calibration-cycle noise: per-qubit T1/T2,
//!   per-gate depolarizing error, gate durations, plus the
//!   circuit-level *attenuation factor* used by the fast objective model.
//! * [`NoisySimulator`] — the faithful density-matrix executor that applies
//!   thermal-relaxation and depolarizing Kraus channels gate by gate.
//! * [`TlsBank`] / [`Fluctuator`] — telegraph-process TLS defects producing
//!   the T1(t) fluctuation traces of paper Fig. 3.
//! * [`CircuitFidelityModel`] — the Fig. 4 study: hourly batches of circuit
//!   fidelity under fluctuating T1.
//! * [`TransientModel`] / [`TransientTrace`] — the Section 6.2 per-iteration
//!   transient data structure injected into simulated VQA runs, with the
//!   quiet/burst generator that produces machine-like traces.
//! * [`Machine`] — synthetic stand-ins for the paper's IBMQ devices
//!   (Guadalupe, Toronto, Sydney, Casablanca, Jakarta, Mumbai, Cairo).
//!
//! # Examples
//!
//! Generating a Jakarta-like transient trace and asking how often it would
//! breach the paper's 90th-percentile skip threshold:
//!
//! ```
//! use qismet_qnoise::Machine;
//! use qismet_mathkit::rng_from_seed;
//!
//! let model = Machine::Jakarta.transient_model(0.2);
//! let trace = model.generate(&mut rng_from_seed(1), 2000);
//! let p90 = trace.magnitude_percentile(90.0);
//! let frac = trace.exceedance_fraction(p90);
//! assert!(frac <= 0.1 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channels;
mod impact;
mod machines;
mod static_model;
mod tls;
mod transient;

pub use channels::{NoisySimError, NoisySimulator};
pub use impact::{fig4_circuits, BatchFidelity, CircuitFidelityModel};
pub use machines::Machine;
pub use static_model::{QubitProfile, StaticNoiseModel};
pub use tls::{Fluctuator, TlsBank};
pub use transient::{TransientModel, TransientTrace};
