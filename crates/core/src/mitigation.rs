//! Measurement (readout) error mitigation.
//!
//! The paper's Baseline "employs measurement error mitigation" (Section 6.3)
//! via calibration circuits — the support circuits of Fig. 7. This module
//! implements the standard calibration-matrix approach: the assignment
//! matrix `A[measured][prepared]` is estimated (here: constructed from the
//! device model, as the calibration circuits would estimate it), and noisy
//! outcome distributions are corrected by solving `A x = p_noisy`, then
//! clipping and renormalizing the quasi-probabilities.
//!
//! Both the **full** `2^n x 2^n` inversion and the scalable **tensored**
//! per-qubit variant are provided.

use qismet_mathkit::{solve, RMatrix};
use qismet_qnoise::StaticNoiseModel;
use qismet_qsim::Counts;

/// Readout mitigation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationStrategy {
    /// Invert the full `2^n x 2^n` assignment matrix (exact for correlated
    /// models; exponential cost — fine at paper scale, n <= 6).
    Full,
    /// Invert per-qubit `2x2` matrices (assumes uncorrelated readout).
    Tensored,
}

/// A compiled mitigator for a device model.
#[derive(Debug, Clone)]
pub struct ReadoutMitigator {
    n_qubits: usize,
    strategy: MitigationStrategy,
    /// Per-qubit inverted 2x2 assignment matrices.
    inv_1q: Vec<[[f64; 2]; 2]>,
    /// Full assignment matrix (built lazily only for `Full`).
    full: Option<RMatrix>,
}

/// Errors from mitigation.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigationError {
    /// The calibration matrix is singular (pathological error rates).
    SingularCalibration,
    /// Width mismatch between counts and mitigator.
    WidthMismatch {
        /// Mitigator width.
        expected: usize,
        /// Counts width.
        got: usize,
    },
}

impl std::fmt::Display for MitigationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MitigationError::SingularCalibration => {
                write!(f, "readout calibration matrix is singular")
            }
            MitigationError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "mitigator built for {expected} qubits, counts have {got}"
                )
            }
        }
    }
}

impl std::error::Error for MitigationError {}

impl ReadoutMitigator {
    /// Builds a mitigator from the device model's readout probabilities for
    /// its first `n_qubits` qubits.
    ///
    /// # Errors
    ///
    /// [`MitigationError::SingularCalibration`] when a qubit's flip
    /// probabilities sum to ~1 (non-invertible 2x2).
    ///
    /// # Panics
    ///
    /// Panics if the model has fewer than `n_qubits` qubits.
    pub fn from_model(
        model: &StaticNoiseModel,
        n_qubits: usize,
        strategy: MitigationStrategy,
    ) -> Result<Self, MitigationError> {
        assert!(model.n_qubits() >= n_qubits, "model too narrow");
        let mut inv_1q = Vec::with_capacity(n_qubits);
        for q in 0..n_qubits {
            let a = model.assignment_matrix_1q(q);
            let det = a[0][0] * a[1][1] - a[0][1] * a[1][0];
            if det.abs() < 1e-9 {
                return Err(MitigationError::SingularCalibration);
            }
            inv_1q.push([
                [a[1][1] / det, -a[0][1] / det],
                [-a[1][0] / det, a[0][0] / det],
            ]);
        }
        let full = match strategy {
            MitigationStrategy::Tensored => None,
            MitigationStrategy::Full => {
                let dim = 1usize << n_qubits;
                let mut m = RMatrix::zeros(dim, dim);
                for measured in 0..dim {
                    for prepared in 0..dim {
                        let mut p = 1.0;
                        for q in 0..n_qubits {
                            let a = model.assignment_matrix_1q(q);
                            let mb = measured >> q & 1;
                            let pb = prepared >> q & 1;
                            p *= a[mb][pb];
                        }
                        m.set(measured, prepared, p);
                    }
                }
                Some(m)
            }
        };
        Ok(ReadoutMitigator {
            n_qubits,
            strategy,
            inv_1q,
            full,
        })
    }

    /// Width the mitigator was built for.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The strategy in use.
    pub fn strategy(&self) -> MitigationStrategy {
        self.strategy
    }

    /// Corrects a noisy outcome distribution, returning a clipped and
    /// renormalized probability vector of length `2^n`.
    ///
    /// # Errors
    ///
    /// * [`MitigationError::WidthMismatch`] for wrong-width counts.
    /// * [`MitigationError::SingularCalibration`] if the full matrix solve
    ///   fails.
    pub fn mitigate(&self, counts: &Counts) -> Result<Vec<f64>, MitigationError> {
        if counts.n_qubits() != self.n_qubits {
            return Err(MitigationError::WidthMismatch {
                expected: self.n_qubits,
                got: counts.n_qubits(),
            });
        }
        let p_noisy = counts.to_distribution();
        let mut quasi = match (&self.full, self.strategy) {
            (Some(a), MitigationStrategy::Full) => {
                solve(a, &p_noisy).map_err(|_| MitigationError::SingularCalibration)?
            }
            _ => self.tensored_apply(&p_noisy),
        };
        // Clip negatives and renormalize (the standard quasi-probability
        // projection).
        for v in &mut quasi {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let total: f64 = quasi.iter().sum();
        if total > 0.0 {
            for v in &mut quasi {
                *v /= total;
            }
        }
        Ok(quasi)
    }

    /// Applies the tensored inverse: for each qubit, the 2x2 inverse acts on
    /// the distribution along that qubit's axis.
    fn tensored_apply(&self, p: &[f64]) -> Vec<f64> {
        let mut cur = p.to_vec();
        let dim = cur.len();
        for (q, inv) in self.inv_1q.iter().enumerate() {
            let stride = 1usize << q;
            let mut base = 0usize;
            while base < dim {
                for off in base..base + stride {
                    let i0 = off;
                    let i1 = off + stride;
                    let a0 = cur[i0];
                    let a1 = cur[i1];
                    cur[i0] = inv[0][0] * a0 + inv[0][1] * a1;
                    cur[i1] = inv[1][0] * a0 + inv[1][1] * a1;
                }
                base += stride << 1;
            }
        }
        cur
    }

    /// Mitigated expectation of a Z-parity observable over `mask`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::mitigate`] failures.
    pub fn parity_expectation(&self, counts: &Counts, mask: u64) -> Result<f64, MitigationError> {
        let p = self.mitigate(counts)?;
        let mut acc = 0.0;
        for (idx, &prob) in p.iter().enumerate() {
            let parity = (idx as u64 & mask).count_ones() % 2;
            acc += if parity == 0 { prob } else { -prob };
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qismet_mathkit::rng_from_seed;
    use qismet_qsim::{Circuit, StateVector};

    fn model(readout: f64) -> StaticNoiseModel {
        StaticNoiseModel::uniform(3, 100.0, 90.0, 0.0, 0.0, readout)
    }

    fn bell3() -> Counts {
        // GHZ-ish distribution measured through readout errors.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let sv = StateVector::from_circuit(&c).unwrap();
        let mut rng = rng_from_seed(3);
        let clean = sv.sample_counts(&mut rng, 100_000);
        model(0.06).apply_readout_errors(&clean, &mut rng)
    }

    #[test]
    fn full_mitigation_recovers_ghz_distribution() {
        let noisy = bell3();
        // Unmitigated: probability mass leaked off 000/111.
        let raw = noisy.to_distribution();
        assert!(raw[0] < 0.47);
        let mit = ReadoutMitigator::from_model(&model(0.06), 3, MitigationStrategy::Full).unwrap();
        let fixed = mit.mitigate(&noisy).unwrap();
        assert!((fixed[0] - 0.5).abs() < 0.02, "p(000) = {}", fixed[0]);
        assert!((fixed[7] - 0.5).abs() < 0.02, "p(111) = {}", fixed[7]);
        let leak: f64 = fixed[1..7].iter().sum();
        assert!(leak < 0.03, "leaked mass {leak}");
    }

    #[test]
    fn tensored_matches_full_for_uncorrelated_noise() {
        let noisy = bell3();
        let full = ReadoutMitigator::from_model(&model(0.06), 3, MitigationStrategy::Full).unwrap();
        let tens =
            ReadoutMitigator::from_model(&model(0.06), 3, MitigationStrategy::Tensored).unwrap();
        let a = full.mitigate(&noisy).unwrap();
        let b = tens.mitigate(&noisy).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn parity_expectation_corrected() {
        let noisy = bell3();
        let raw_zz = noisy.parity_expectation(0b111);
        let mit =
            ReadoutMitigator::from_model(&model(0.06), 3, MitigationStrategy::Tensored).unwrap();
        let fixed = mit.parity_expectation(&noisy, 0b111).unwrap();
        // GHZ has <ZZZ> = 0 analytically? No: |000>+|111>: ZZZ parity:
        // 000 -> +, 111 -> odd popcount=3 -> -. Expectation = 0.
        assert!(fixed.abs() <= raw_zz.abs() + 0.02);
        // <ZZ over first two qubits> = +1 ideally.
        let fixed_zz = mit.parity_expectation(&noisy, 0b011).unwrap();
        let raw_zz2 = noisy.parity_expectation(0b011);
        assert!(
            fixed_zz > raw_zz2,
            "mitigation should raise {raw_zz2} -> {fixed_zz}"
        );
        assert!((fixed_zz - 1.0).abs() < 0.03, "fixed ZZ = {fixed_zz}");
    }

    #[test]
    fn mitigated_distribution_is_normalized_probability() {
        let noisy = bell3();
        let mit = ReadoutMitigator::from_model(&model(0.06), 3, MitigationStrategy::Full).unwrap();
        let p = mit.mitigate(&noisy).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn zero_error_model_is_identity() {
        let clean = Counts::from_pairs(3, [(0b101, 700), (0b010, 300)]);
        let mit = ReadoutMitigator::from_model(&model(0.0), 3, MitigationStrategy::Full).unwrap();
        let p = mit.mitigate(&clean).unwrap();
        assert!((p[0b101] - 0.7).abs() < 1e-9);
        assert!((p[0b010] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn width_mismatch_detected() {
        let mit = ReadoutMitigator::from_model(&model(0.01), 3, MitigationStrategy::Full).unwrap();
        let wrong = Counts::from_pairs(2, [(0, 10)]);
        assert!(matches!(
            mit.mitigate(&wrong),
            Err(MitigationError::WidthMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn singular_calibration_rejected() {
        let mut m = model(0.0);
        for q in &mut m.qubits {
            q.readout_p01 = 0.5;
            q.readout_p10 = 0.5;
        }
        assert_eq!(
            ReadoutMitigator::from_model(&m, 3, MitigationStrategy::Tensored).unwrap_err(),
            MitigationError::SingularCalibration
        );
    }
}
