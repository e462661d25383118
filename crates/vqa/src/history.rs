//! Metrics over tuning histories — the quantities the paper's evaluation
//! reports.

/// The "VQE Expectation rel. Baseline" metric of Figs. 13 and 17: the ratio
/// of final energies, valid when both are negative (a minimization target
/// below zero). A value of 1.42 means the scheme's final expectation is
/// 1.42x more negative than the baseline's.
///
/// Returns `NaN` when either energy is non-negative (the ratio is
/// meaningless there).
pub fn relative_expectation(scheme_energy: f64, baseline_energy: f64) -> f64 {
    if scheme_energy >= 0.0 || baseline_energy >= 0.0 {
        return f64::NAN;
    }
    scheme_energy / baseline_energy
}

/// Percentage improvement of `scheme` over `baseline` toward more negative
/// energies, as quoted in Section 7.1 ("a 40% improvement in VQA
/// estimation"). Positive = scheme better.
pub fn improvement_percent(scheme_energy: f64, baseline_energy: f64) -> f64 {
    (relative_expectation(scheme_energy, baseline_energy) - 1.0) * 100.0
}

/// Counts the transient spikes in a measured series: iterations whose value
/// jumps more than `threshold` above the running median of the previous
/// `lookback` values. Used to quantify Fig. 5-style spike behavior.
pub fn count_spikes(measured: &[f64], lookback: usize, threshold: f64) -> usize {
    assert!(lookback > 0, "lookback must be positive");
    let mut spikes = 0;
    for i in lookback..measured.len() {
        let window = &measured[i - lookback..i];
        let med = qismet_mathkit::median(window);
        if measured[i] > med + threshold {
            spikes += 1;
        }
    }
    spikes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_expectation_ratio() {
        assert!((relative_expectation(-1.42, -1.0) - 1.42).abs() < 1e-12);
        assert!((relative_expectation(-0.8, -1.0) - 0.8).abs() < 1e-12);
        assert!(relative_expectation(0.5, -1.0).is_nan());
        assert!(relative_expectation(-1.0, 0.0).is_nan());
    }

    #[test]
    fn improvement_percent_matches_paper_style() {
        // Fig. 11: "a 40% improvement" == ratio 1.40.
        assert!((improvement_percent(-1.40, -1.0) - 40.0).abs() < 1e-9);
        assert!(improvement_percent(-0.9, -1.0) < 0.0);
    }

    #[test]
    fn spike_counting() {
        let mut series = vec![-1.0; 50];
        series[20] = 0.5; // spike
        series[35] = 0.2; // spike
        let n = count_spikes(&series, 5, 0.5);
        assert_eq!(n, 2);
        let quiet = vec![-1.0; 50];
        assert_eq!(count_spikes(&quiet, 5, 0.5), 0);
    }
}
