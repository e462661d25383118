//! Distribution-level fidelity measures.
//!
//! The paper's circuit-level study (Fig. 4) quotes "circuit fidelity" for
//! batches of repeated circuits; we follow the common practice of computing
//! the Hellinger fidelity between the measured outcome distribution and the
//! ideal (noise-free) distribution.

/// Hellinger fidelity between two probability distributions:
/// `F = (sum_i sqrt(p_i q_i))^2`.
///
/// Inputs need not be perfectly normalized; they are renormalized defensively.
/// Returns 1 for identical distributions and 0 for disjoint support.
///
/// # Panics
///
/// Panics if lengths differ or any entry is negative.
///
/// # Examples
///
/// ```
/// use qismet_qsim::hellinger_fidelity;
/// let p = [0.5, 0.5];
/// let q = [0.5, 0.5];
/// assert!((hellinger_fidelity(&p, &q) - 1.0).abs() < 1e-12);
/// ```
pub fn hellinger_fidelity(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution lengths must match");
    assert!(
        p.iter().chain(q.iter()).all(|&x| x >= 0.0),
        "probabilities must be non-negative"
    );
    let sp: f64 = p.iter().sum();
    let sq: f64 = q.iter().sum();
    if sp <= 0.0 || sq <= 0.0 {
        return 0.0;
    }
    let bc: f64 = p
        .iter()
        .zip(q.iter())
        .map(|(&a, &b)| ((a / sp) * (b / sq)).sqrt())
        .sum();
    (bc * bc).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_unit_fidelity() {
        let p = [0.25, 0.25, 0.25, 0.25];
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_support_gives_zero() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert_eq!(hellinger_fidelity(&p, &q), 0.0);
    }

    #[test]
    fn renormalization_is_applied() {
        let p = [2.0, 2.0];
        let q = [0.5, 0.5];
        assert!((hellinger_fidelity(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_intermediate_value() {
        let p = [0.5, 0.5];
        let q = [0.9, 0.1];
        // BC = sqrt(0.45) + sqrt(0.05).
        let bc = 0.45f64.sqrt() + 0.05f64.sqrt();
        assert!((hellinger_fidelity(&p, &q) - bc * bc).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn length_mismatch_panics() {
        hellinger_fidelity(&[1.0], &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_probability_panics() {
        hellinger_fidelity(&[1.0, -0.1], &[0.5, 0.5]);
    }
}
