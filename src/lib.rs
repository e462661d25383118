//! Workspace umbrella crate for the QISMET reproduction.
//!
//! Re-exports all member crates so examples and integration tests can use a
//! single dependency root.

pub use qismet;
pub use qismet_bench as bench;
pub use qismet_chem as chem;
pub use qismet_filters as filters;
pub use qismet_mathkit as mathkit;
pub use qismet_optim as optim;
pub use qismet_qnoise as qnoise;
pub use qismet_qsim as qsim;
pub use qismet_telemetry as telemetry;
pub use qismet_vqa as vqa;
