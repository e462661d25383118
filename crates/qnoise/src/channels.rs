//! Mapping the static noise model onto Kraus channels, and the noisy
//! density-matrix executor.
//!
//! This is the physically faithful execution path: after each gate the
//! operand qubits experience thermal relaxation over the gate duration plus
//! a depolarizing error at the calibrated gate error rate, mirroring how
//! Qiskit Aer builds device noise models from calibration data.

use crate::static_model::StaticNoiseModel;
use qismet_qsim::{ChannelError, Circuit, DensityMatrix, GateError, KrausChannel, PauliSum};

/// Errors from the noisy executor.
#[derive(Debug, Clone, PartialEq)]
pub enum NoisySimError {
    /// A gate still carries a free parameter.
    Unbound,
    /// Channel construction failed (bad calibration values).
    Channel(ChannelError),
}

impl std::fmt::Display for NoisySimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoisySimError::Unbound => write!(f, "circuit has unbound parameters"),
            NoisySimError::Channel(e) => write!(f, "channel construction failed: {e}"),
        }
    }
}

impl std::error::Error for NoisySimError {}

impl From<GateError> for NoisySimError {
    fn from(_: GateError) -> Self {
        NoisySimError::Unbound
    }
}

impl From<ChannelError> for NoisySimError {
    fn from(e: ChannelError) -> Self {
        NoisySimError::Channel(e)
    }
}

/// Density-matrix executor that interleaves the static model's error
/// channels with the circuit's gates.
///
/// # Examples
///
/// ```
/// use qismet_qnoise::{NoisySimulator, StaticNoiseModel};
/// use qismet_qsim::{Circuit, PauliSum};
///
/// let model = StaticNoiseModel::uniform(2, 100.0, 90.0, 1e-3, 1e-2);
/// let sim = NoisySimulator::new(model);
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let h = PauliSum::from_labels(&[(1.0, "ZZ")]).unwrap();
/// let noisy = sim.expectation(&bell, &h).unwrap();
/// assert!(noisy < 1.0 && noisy > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct NoisySimulator {
    model: StaticNoiseModel,
}

impl NoisySimulator {
    /// Creates an executor over a static model.
    pub fn new(model: StaticNoiseModel) -> Self {
        NoisySimulator { model }
    }

    /// The underlying model.
    pub fn model(&self) -> &StaticNoiseModel {
        &self.model
    }

    /// Runs a bound circuit to a noisy density matrix.
    ///
    /// # Errors
    ///
    /// * [`NoisySimError::Unbound`] for unbound circuits.
    /// * [`NoisySimError::Channel`] if calibration values are invalid.
    pub fn run(&self, circuit: &Circuit) -> Result<DensityMatrix, NoisySimError> {
        self.run_with_t1(circuit, None)
    }

    /// Runs with optional per-qubit T1 overrides (microseconds), used when a
    /// transient T1 trace drives the simulation (Fig. 4).
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_with_t1(
        &self,
        circuit: &Circuit,
        t1_overrides_us: Option<&[f64]>,
    ) -> Result<DensityMatrix, NoisySimError> {
        let mut rho = DensityMatrix::new(circuit.n_qubits());
        for op in circuit.ops() {
            rho.apply_gate(op.gate, op.operands())?;
            let (duration_ns, dep_error) = match op.gate.arity() {
                1 => (self.model.gate_time_1q_ns, self.model.gate_error_1q),
                _ => (self.model.gate_time_2q_ns, self.model.gate_error_2q),
            };
            for &q in op.operands() {
                let profile = &self.model.qubits[q];
                let t1_us = t1_overrides_us.map(|t| t[q]).unwrap_or(profile.t1_us);
                if t1_us.is_finite() {
                    let t1_ns = t1_us * 1e3;
                    let t2_ns = (profile.t2_us * 1e3).min(2.0 * t1_ns);
                    let ch = KrausChannel::thermal_relaxation(duration_ns, t1_ns, t2_ns)?;
                    rho.apply_channel(&ch, &[q])?;
                }
                if dep_error > 0.0 {
                    let ch = KrausChannel::depolarizing(dep_error)?;
                    rho.apply_channel(&ch, &[q])?;
                }
            }
        }
        Ok(rho)
    }

    /// Noisy expectation value `tr(rho H)`, taken analytically from the final
    /// state.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn expectation(&self, circuit: &Circuit, h: &PauliSum) -> Result<f64, NoisySimError> {
        Ok(self.run(circuit)?.expectation(h))
    }

    /// Output-distribution fidelity of a circuit against its ideal execution
    /// (Hellinger fidelity of the computational-basis distributions), with
    /// optional T1 overrides. This is the Fig. 4 metric.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn circuit_fidelity(
        &self,
        circuit: &Circuit,
        t1_overrides_us: Option<&[f64]>,
    ) -> Result<f64, NoisySimError> {
        let noisy = self.run_with_t1(circuit, t1_overrides_us)?;
        let ideal = qismet_qsim::StateVector::from_circuit(circuit)?;
        Ok(qismet_qsim::hellinger_fidelity(
            &noisy.probabilities(),
            &ideal.probabilities(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn noiseless_model_reproduces_ideal() {
        let sim = NoisySimulator::new(StaticNoiseModel::noiseless(2));
        let h = PauliSum::from_labels(&[(1.0, "ZZ")]).unwrap();
        let e = sim.expectation(&bell(), &h).unwrap();
        assert!((e - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gate_errors_contract_expectation() {
        let model = StaticNoiseModel::uniform(2, f64::INFINITY, f64::INFINITY, 1e-3, 1e-2);
        let mut model = model;
        for q in &mut model.qubits {
            q.t1_us = f64::INFINITY;
            q.t2_us = f64::INFINITY;
        }
        let sim = NoisySimulator::new(model);
        let h = PauliSum::from_labels(&[(1.0, "ZZ")]).unwrap();
        let e = sim.expectation(&bell(), &h).unwrap();
        assert!(e < 1.0 && e > 0.95, "e = {e}");
    }

    #[test]
    fn attenuation_factor_tracks_density_sim() {
        // The cheap contraction model should approximate the faithful
        // density-matrix result for a GHZ-parity observable.
        let model = StaticNoiseModel::uniform(3, 120.0, 100.0, 5e-4, 6e-3);
        let sim = NoisySimulator::new(model.clone());
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let h = PauliSum::from_labels(&[(1.0, "ZZI"), (1.0, "IZZ")]).unwrap();
        let ideal = qismet_qsim::exact_energy(&c, &h).unwrap();
        let noisy = sim.expectation(&c, &h).unwrap();
        let predicted = model.attenuation_factor(&c) * ideal;
        assert!(
            (noisy - predicted).abs() < 0.05 * ideal.abs().max(1.0),
            "noisy {noisy} vs predicted {predicted}"
        );
    }

    #[test]
    fn t1_override_reduces_fidelity() {
        let model = StaticNoiseModel::uniform(3, 150.0, 120.0, 3e-4, 6e-3);
        let sim = NoisySimulator::new(model);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).cx(0, 1).cx(1, 2);
        let healthy = sim.circuit_fidelity(&c, Some(&[150.0; 3])).unwrap();
        let sick = sim
            .circuit_fidelity(&c, Some(&[150.0, 2.0, 150.0]))
            .unwrap();
        assert!(healthy > sick + 0.02, "healthy {healthy} vs sick {sick}");
    }

    #[test]
    fn fidelity_in_unit_interval() {
        let model = StaticNoiseModel::uniform(2, 60.0, 50.0, 1e-3, 1e-2);
        let sim = NoisySimulator::new(model);
        let f = sim.circuit_fidelity(&bell(), None).unwrap();
        assert!((0.0..=1.0).contains(&f));
        assert!(f > 0.8, "bell pair should stay high fidelity, got {f}");
    }

    #[test]
    fn unbound_circuit_rejected() {
        let sim = NoisySimulator::new(StaticNoiseModel::noiseless(1));
        let mut c = Circuit::new(1);
        c.ry(qismet_qsim::Param::Free(0), 0);
        assert_eq!(sim.run(&c).unwrap_err(), NoisySimError::Unbound);
    }
}
