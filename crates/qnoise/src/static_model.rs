//! Static (calibration-cycle) noise model.
//!
//! This is the per-device noise description that error-mitigation work
//! traditionally assumes stable: per-qubit T1/T2, per-gate depolarizing
//! error, and gate durations. The paper's point is that reality
//! adds a *transient* component on top (see [`crate::transient`]); this
//! module is the stable floor.

use qismet_qsim::Circuit;
use serde::{Deserialize, Serialize};

/// Calibration data for one qubit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QubitProfile {
    /// Amplitude (energy relaxation) time constant in microseconds.
    pub t1_us: f64,
    /// Phase coherence time constant in microseconds (`t2 <= 2 t1`).
    pub t2_us: f64,
}

/// The full static noise model of a device.
///
/// # Examples
///
/// ```
/// use qismet_qnoise::StaticNoiseModel;
/// let model = StaticNoiseModel::uniform(6, 100.0, 90.0, 3e-4, 8e-3);
/// assert_eq!(model.n_qubits(), 6);
/// assert!(model.gate_error_2q > model.gate_error_1q);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticNoiseModel {
    /// Per-qubit calibration.
    pub qubits: Vec<QubitProfile>,
    /// Depolarizing error probability per one-qubit gate.
    pub gate_error_1q: f64,
    /// Depolarizing error probability per two-qubit gate.
    pub gate_error_2q: f64,
    /// One-qubit gate duration in nanoseconds.
    pub gate_time_1q_ns: f64,
    /// Two-qubit gate duration in nanoseconds.
    pub gate_time_2q_ns: f64,
}

impl StaticNoiseModel {
    /// A noiseless model (useful as the ideal reference).
    pub fn noiseless(n_qubits: usize) -> Self {
        StaticNoiseModel {
            qubits: vec![
                QubitProfile {
                    t1_us: f64::INFINITY,
                    t2_us: f64::INFINITY,
                };
                n_qubits
            ],
            gate_error_1q: 0.0,
            gate_error_2q: 0.0,
            gate_time_1q_ns: 35.0,
            gate_time_2q_ns: 300.0,
        }
    }

    /// A uniform model where every qubit shares the same calibration.
    pub fn uniform(
        n_qubits: usize,
        t1_us: f64,
        t2_us: f64,
        gate_error_1q: f64,
        gate_error_2q: f64,
    ) -> Self {
        StaticNoiseModel {
            qubits: vec![QubitProfile { t1_us, t2_us }; n_qubits],
            gate_error_1q,
            gate_error_2q,
            gate_time_1q_ns: 35.0,
            gate_time_2q_ns: 300.0,
        }
    }

    /// Device width.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The expectation *attenuation factor* of a circuit under this model:
    /// the multiplicative contraction a traceless observable's expectation
    /// suffers relative to the ideal value, under a global-depolarizing
    /// approximation.
    ///
    /// Composition: every gate contributes its depolarizing survival
    /// probability, and every qubit contributes decoherence survival
    /// `exp(-t_active / T1_eff)` over the circuit's critical-path duration.
    /// The approximation is validated against the density-matrix backend in
    /// the workspace integration tests.
    pub fn attenuation_factor(&self, circuit: &Circuit) -> f64 {
        let mut f = 1.0;
        for op in circuit.ops() {
            f *= match op.gate.arity() {
                1 => 1.0 - self.gate_error_1q,
                _ => 1.0 - self.gate_error_2q,
            };
        }
        let duration_ns = circuit.duration(self.gate_time_1q_ns, self.gate_time_2q_ns);
        for q in &self.qubits[..circuit.n_qubits().min(self.qubits.len())] {
            if q.t1_us.is_finite() {
                let t1_ns = q.t1_us * 1e3;
                let t2_ns = q.t2_us * 1e3;
                // Combined amplitude + phase survival for one qubit.
                f *= (-duration_ns / t1_ns).exp().sqrt() * (-duration_ns / t2_ns).exp().sqrt();
            }
        }
        f.clamp(0.0, 1.0)
    }

    /// Same as [`Self::attenuation_factor`] but with the per-qubit T1 values
    /// overridden by a transient trace sample (used for Figs. 3-4, where
    /// fluctuating T1 drives circuit fidelity).
    ///
    /// # Panics
    ///
    /// Panics if `t1_overrides_us` is shorter than the circuit width.
    pub fn attenuation_with_t1(&self, circuit: &Circuit, t1_overrides_us: &[f64]) -> f64 {
        assert!(
            t1_overrides_us.len() >= circuit.n_qubits(),
            "need a T1 override per circuit qubit"
        );
        let mut scratch = self.clone();
        for (q, &t1) in scratch.qubits.iter_mut().zip(t1_overrides_us.iter()) {
            q.t1_us = t1;
            q.t2_us = q.t2_us.min(2.0 * t1);
        }
        scratch.attenuation_factor(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    #[test]
    fn noiseless_model_does_not_attenuate() {
        let m = StaticNoiseModel::noiseless(4);
        let c = ghz(4);
        assert!((m.attenuation_factor(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attenuation_decreases_with_depth() {
        let m = StaticNoiseModel::uniform(6, 100.0, 90.0, 3e-4, 8e-3);
        let shallow = ghz(6);
        let mut deep = ghz(6);
        for _ in 0..10 {
            for q in 0..5 {
                deep.cx(q, q + 1);
            }
        }
        let fs = m.attenuation_factor(&shallow);
        let fd = m.attenuation_factor(&deep);
        assert!(fs > fd, "shallow {fs} should exceed deep {fd}");
        assert!(fd > 0.0 && fs < 1.0);
    }

    #[test]
    fn low_t1_override_hurts_fidelity() {
        let m = StaticNoiseModel::uniform(4, 100.0, 90.0, 3e-4, 8e-3);
        let c = ghz(4);
        let healthy = m.attenuation_with_t1(&c, &[100.0; 4]);
        let sick = m.attenuation_with_t1(&c, &[100.0, 5.0, 100.0, 100.0]);
        assert!(healthy > sick);
    }

    #[test]
    fn serde_roundtrip() {
        let m = StaticNoiseModel::uniform(3, 80.0, 70.0, 1e-3, 1e-2);
        let json = serde_json::to_string(&m).unwrap();
        let back: StaticNoiseModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
