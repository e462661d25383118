//! Kraus operators for the standard NISQ error channels.
//!
//! These channels are the physical vocabulary of the static noise model
//! (Section 6.2 of the paper uses Qiskit's equivalents): amplitude damping
//! from T1 decay, phase damping from T2 dephasing, their combination as
//! thermal relaxation, and depolarizing noise for gate infidelity.

use qismet_mathkit::{CMatrix, Complex64};

/// A completely-positive trace-preserving map given by its Kraus operators.
///
/// # Examples
///
/// ```
/// use qismet_qsim::KrausChannel;
/// let ch = KrausChannel::amplitude_damping(0.1).unwrap();
/// assert!(ch.is_trace_preserving(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KrausChannel {
    ops: Vec<CMatrix>,
    dim: usize,
}

/// Errors when building channels.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// A probability/strength parameter is outside `[0, 1]`.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The Kraus set does not satisfy `sum K^dag K = I`.
    NotTracePreserving,
    /// Kraus operators have inconsistent dimensions.
    DimMismatch,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::BadParameter { name, value } => {
                write!(f, "channel parameter {name} = {value} outside [0, 1]")
            }
            ChannelError::NotTracePreserving => {
                write!(f, "kraus operators do not sum to identity")
            }
            ChannelError::DimMismatch => write!(f, "kraus operators have mixed dimensions"),
        }
    }
}

impl std::error::Error for ChannelError {}

fn check_unit(name: &'static str, v: f64) -> Result<(), ChannelError> {
    if !(0.0..=1.0).contains(&v) || !v.is_finite() {
        return Err(ChannelError::BadParameter { name, value: v });
    }
    Ok(())
}

impl KrausChannel {
    /// Builds a channel from explicit Kraus operators.
    ///
    /// # Errors
    ///
    /// * [`ChannelError::DimMismatch`] for ragged operator sizes.
    /// * [`ChannelError::NotTracePreserving`] if `sum K^dag K != I`.
    pub fn new(ops: Vec<CMatrix>) -> Result<Self, ChannelError> {
        let dim = ops.first().map(|m| m.rows()).unwrap_or(0);
        if dim == 0 {
            return Err(ChannelError::DimMismatch);
        }
        for op in &ops {
            if op.rows() != dim || op.cols() != dim {
                return Err(ChannelError::DimMismatch);
            }
        }
        let ch = KrausChannel { ops, dim };
        if !ch.is_trace_preserving(1e-9) {
            return Err(ChannelError::NotTracePreserving);
        }
        Ok(ch)
    }

    /// The Kraus operators.
    pub fn ops(&self) -> &[CMatrix] {
        &self.ops
    }

    /// Hilbert-space dimension the channel acts on (2 for 1-qubit channels).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of qubits (`log2(dim)`).
    pub fn n_qubits(&self) -> usize {
        self.dim.trailing_zeros() as usize
    }

    /// Verifies `sum K^dag K = I` within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let mut acc = CMatrix::zeros(self.dim, self.dim);
        for k in &self.ops {
            let kk = k.adjoint().matmul(k).expect("square kraus op");
            acc = &acc + &kk;
        }
        acc.approx_eq(&CMatrix::identity(self.dim), tol)
    }

    /// The identity channel on one qubit.
    pub fn identity() -> Self {
        KrausChannel {
            ops: vec![CMatrix::identity(2)],
            dim: 2,
        }
    }

    /// Amplitude damping with decay probability `gamma` (T1 relaxation over
    /// one gate duration: `gamma = 1 - exp(-t_gate / T1)`).
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadParameter`] if `gamma` is outside `[0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, ChannelError> {
        check_unit("gamma", gamma)?;
        let o = Complex64::ZERO;
        let k0 = CMatrix::from_rows(&[
            &[Complex64::ONE, o],
            &[o, Complex64::from_re((1.0 - gamma).sqrt())],
        ]);
        let k1 = CMatrix::from_rows(&[&[o, Complex64::from_re(gamma.sqrt())], &[o, o]]);
        Ok(KrausChannel {
            ops: vec![k0, k1],
            dim: 2,
        })
    }

    /// Pure phase damping with dephasing probability `lambda`
    /// (`lambda = 1 - exp(-t_gate / T_phi)` with `1/T_phi = 1/T2 - 1/(2 T1)`).
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadParameter`] if `lambda` is outside `[0, 1]`.
    pub fn phase_damping(lambda: f64) -> Result<Self, ChannelError> {
        check_unit("lambda", lambda)?;
        let o = Complex64::ZERO;
        let k0 = CMatrix::from_rows(&[
            &[Complex64::ONE, o],
            &[o, Complex64::from_re((1.0 - lambda).sqrt())],
        ]);
        let k1 = CMatrix::from_rows(&[&[o, o], &[o, Complex64::from_re(lambda.sqrt())]]);
        Ok(KrausChannel {
            ops: vec![k0, k1],
            dim: 2,
        })
    }

    /// Single-qubit depolarizing channel with error probability `p`:
    /// with probability `p` the state is replaced by the maximally mixed
    /// state (implemented via uniform X/Y/Z errors at `p/4` each... precisely
    /// the standard parameterization `rho -> (1 - 3p/4) rho + p/4 (XrhoX +
    /// YrhoY + ZrhoZ)`).
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadParameter`] if `p` is outside `[0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, ChannelError> {
        check_unit("p", p)?;
        let paulis = [
            crate::pauli::Pauli::I.matrix(),
            crate::pauli::Pauli::X.matrix(),
            crate::pauli::Pauli::Y.matrix(),
            crate::pauli::Pauli::Z.matrix(),
        ];
        let mut ops = Vec::with_capacity(4);
        let w_id = (1.0 - 3.0 * p / 4.0).max(0.0).sqrt();
        let w_err = (p / 4.0).sqrt();
        ops.push(paulis[0].scaled(w_id));
        for m in &paulis[1..] {
            ops.push(m.scaled(w_err));
        }
        Ok(KrausChannel { ops, dim: 2 })
    }

    /// Two-qubit depolarizing channel with error probability `p`, spanning
    /// the 15 non-identity two-qubit Paulis at equal weight.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadParameter`] if `p` is outside `[0, 1]`.
    pub fn two_qubit_depolarizing(p: f64) -> Result<Self, ChannelError> {
        check_unit("p", p)?;
        let singles = [
            crate::pauli::Pauli::I.matrix(),
            crate::pauli::Pauli::X.matrix(),
            crate::pauli::Pauli::Y.matrix(),
            crate::pauli::Pauli::Z.matrix(),
        ];
        let mut ops = Vec::with_capacity(16);
        let w_id = (1.0 - 15.0 * p / 16.0).max(0.0).sqrt();
        let w_err = (p / 16.0).sqrt();
        for (i, a) in singles.iter().enumerate() {
            for (j, b) in singles.iter().enumerate() {
                let m = b.kron(a); // operand 0 = LSB
                let w = if i == 0 && j == 0 { w_id } else { w_err };
                ops.push(m.scaled(w));
            }
        }
        Ok(KrausChannel { ops, dim: 4 })
    }

    /// Combined thermal relaxation over duration `t` with times `t1`, `t2`
    /// (`t2 <= 2 t1`): amplitude damping composed with pure dephasing.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadParameter`] for non-positive times or `t2 > 2 t1`.
    pub fn thermal_relaxation(t: f64, t1: f64, t2: f64) -> Result<Self, ChannelError> {
        if t < 0.0 || t1 <= 0.0 || t2 <= 0.0 {
            return Err(ChannelError::BadParameter {
                name: "t/t1/t2",
                value: -1.0,
            });
        }
        if t2 > 2.0 * t1 + 1e-12 {
            return Err(ChannelError::BadParameter {
                name: "t2",
                value: t2,
            });
        }
        let gamma = 1.0 - (-t / t1).exp();
        // Pure dephasing rate: 1/T_phi = 1/T2 - 1/(2 T1).
        let inv_tphi = (1.0 / t2 - 0.5 / t1).max(0.0);
        let lambda = 1.0 - (-t * inv_tphi).exp();
        let ad = Self::amplitude_damping(gamma)?;
        let pd = Self::phase_damping(lambda)?;
        ad.compose(&pd)
    }

    /// Sequential composition: `other` applied after `self`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::DimMismatch`] when dimensions differ.
    pub fn compose(&self, other: &KrausChannel) -> Result<KrausChannel, ChannelError> {
        if self.dim != other.dim {
            return Err(ChannelError::DimMismatch);
        }
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for b in &other.ops {
            for a in &self.ops {
                ops.push(b.matmul(a).expect("dims checked"));
            }
        }
        Ok(KrausChannel { ops, dim: self.dim })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_channels_are_trace_preserving() {
        for p in [0.0, 0.01, 0.3, 1.0] {
            assert!(KrausChannel::amplitude_damping(p)
                .unwrap()
                .is_trace_preserving(1e-12));
            assert!(KrausChannel::phase_damping(p)
                .unwrap()
                .is_trace_preserving(1e-12));
            assert!(KrausChannel::depolarizing(p)
                .unwrap()
                .is_trace_preserving(1e-12));
            assert!(KrausChannel::two_qubit_depolarizing(p)
                .unwrap()
                .is_trace_preserving(1e-12));
        }
    }

    #[test]
    fn parameters_validated() {
        assert!(KrausChannel::amplitude_damping(-0.1).is_err());
        assert!(KrausChannel::depolarizing(1.5).is_err());
        assert!(KrausChannel::phase_damping(f64::NAN).is_err());
    }

    #[test]
    fn thermal_relaxation_limits() {
        // t = 0 is the identity channel in effect.
        let ch = KrausChannel::thermal_relaxation(0.0, 50.0, 70.0).unwrap();
        assert!(ch.is_trace_preserving(1e-12));
        // t >> T1 fully damps.
        let ch = KrausChannel::thermal_relaxation(1e6, 50.0, 70.0).unwrap();
        assert!(ch.is_trace_preserving(1e-9));
        // Invalid T2.
        assert!(KrausChannel::thermal_relaxation(1.0, 50.0, 150.0).is_err());
    }

    #[test]
    fn compose_is_trace_preserving() {
        let a = KrausChannel::amplitude_damping(0.2).unwrap();
        let b = KrausChannel::phase_damping(0.1).unwrap();
        let c = a.compose(&b).unwrap();
        assert!(c.is_trace_preserving(1e-12));
        assert_eq!(c.ops().len(), 4);
    }

    #[test]
    fn new_rejects_non_tp_sets() {
        let bad = vec![CMatrix::identity(2).scaled(0.5)];
        assert_eq!(
            KrausChannel::new(bad).unwrap_err(),
            ChannelError::NotTracePreserving
        );
    }

    #[test]
    fn new_rejects_empty_and_ragged() {
        assert_eq!(
            KrausChannel::new(vec![]).unwrap_err(),
            ChannelError::DimMismatch
        );
        let ragged = vec![CMatrix::identity(2), CMatrix::identity(4)];
        assert_eq!(
            KrausChannel::new(ragged).unwrap_err(),
            ChannelError::DimMismatch
        );
    }

    #[test]
    fn dims_and_qubit_counts() {
        assert_eq!(KrausChannel::depolarizing(0.1).unwrap().n_qubits(), 1);
        assert_eq!(
            KrausChannel::two_qubit_depolarizing(0.1)
                .unwrap()
                .n_qubits(),
            2
        );
    }
}
