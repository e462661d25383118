//! The "Only-Transients" skipping policy (Section 5.3, Fig. 15).
//!
//! The strawman alternative to QISMET: skip a VQA iteration whenever the
//! estimated transient magnitude `|Tm|` exceeds a threshold, **regardless of
//! gradient direction**. The paper shows every threshold setting of this
//! policy lands *below* the baseline because constructive transients get
//! skipped too, wasting iterations and stalling convergence.
//!
//! The |Tm| history is a sorted 4096-sample FIFO window ([`SortedWindow`]),
//! so each decision costs an O(log n) search plus one shift, not a sort.

use qismet_mathkit::SortedWindow;

/// Threshold policy over |Tm| with an online percentile calibration.
///
/// The paper names configurations by the percentile that sets the
/// threshold: `99p` skips at most ~1% of iterations, `50p` up to half.
/// The history holds the latest 4096 estimates in a sorted FIFO window.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlyTransientsPolicy {
    /// Percentile (0-100) of observed |Tm| history used as the threshold.
    pub percentile: f64,
    history: SortedWindow,
    /// Minimum history before the threshold activates.
    warmup: usize,
}

impl OnlyTransientsPolicy {
    /// Creates a policy thresholding at the given |Tm| percentile.
    ///
    /// # Panics
    ///
    /// Panics if `percentile` is outside `[0, 100]`.
    pub fn new(percentile: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&percentile),
            "percentile out of range"
        );
        OnlyTransientsPolicy {
            percentile,
            history: SortedWindow::new(4096),
            warmup: 16,
        }
    }

    /// The paper's Fig. 15 threshold sweep: 99p, 95p, 90p, 80p, 70p, 50p.
    pub fn fig15_sweep() -> Vec<OnlyTransientsPolicy> {
        [99.0, 95.0, 90.0, 80.0, 70.0, 50.0]
            .into_iter()
            .map(OnlyTransientsPolicy::new)
            .collect()
    }

    /// Label like `"90p"`.
    pub fn label(&self) -> String {
        format!("{}p", self.percentile)
    }

    /// Current threshold (NaN during warmup).
    pub fn threshold(&self) -> f64 {
        if self.history.len() < self.warmup {
            return f64::NAN;
        }
        self.history.percentile(self.percentile)
    }

    /// Records a transient estimate and decides whether to skip the
    /// iteration. During warmup nothing is skipped.
    pub fn observe_and_decide(&mut self, tm: f64) -> bool {
        let mag = tm.abs();
        let threshold = self.threshold();
        let skip = threshold.is_finite() && mag > threshold;
        self.history.push(mag);
        skip
    }

    /// Number of observations so far.
    pub fn observations(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qismet_mathkit::{normal, rng_from_seed};

    #[test]
    fn warmup_never_skips() {
        let mut p = OnlyTransientsPolicy::new(50.0);
        for _ in 0..10 {
            assert!(!p.observe_and_decide(100.0));
        }
    }

    #[test]
    fn skip_rate_tracks_percentile() {
        let mut p = OnlyTransientsPolicy::new(90.0);
        let mut rng = rng_from_seed(3);
        let mut skips = 0;
        let n = 5000;
        for _ in 0..n {
            let tm = normal(&mut rng, 0.0, 1.0);
            if p.observe_and_decide(tm) {
                skips += 1;
            }
        }
        let rate = skips as f64 / n as f64;
        assert!(
            (rate - 0.10).abs() < 0.03,
            "90p policy should skip ~10%, got {rate}"
        );
    }

    #[test]
    fn aggressive_policy_skips_more() {
        let run = |pct: f64| {
            let mut p = OnlyTransientsPolicy::new(pct);
            let mut rng = rng_from_seed(4);
            let mut skips = 0;
            for _ in 0..3000 {
                if p.observe_and_decide(normal(&mut rng, 0.0, 1.0)) {
                    skips += 1;
                }
            }
            skips
        };
        assert!(run(50.0) > 3 * run(95.0));
    }

    #[test]
    fn fig15_sweep_labels() {
        let sweep = OnlyTransientsPolicy::fig15_sweep();
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0].label(), "99p");
        assert_eq!(sweep[5].label(), "50p");
    }

    #[test]
    fn skips_only_outliers() {
        let mut p = OnlyTransientsPolicy::new(90.0);
        // Feed tiny magnitudes to calibrate.
        for _ in 0..100 {
            p.observe_and_decide(0.01);
        }
        // A huge transient now gets skipped, a small one passes.
        assert!(p.observe_and_decide(10.0));
        assert!(!p.observe_and_decide(0.005));
    }

    #[test]
    fn history_is_bounded() {
        // Every 1.0 must be evicted by the 4096 later 2.0s; evicting the
        // newest sample instead of the oldest would keep a 1.0.
        let mut p = OnlyTransientsPolicy::new(90.0);
        for _ in 0..5000 {
            p.observe_and_decide(1.0);
        }
        for _ in 0..4096 {
            p.observe_and_decide(2.0);
        }
        assert_eq!(p.observations(), 4096);
        assert_eq!(p.history.percentile(0.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn invalid_percentile() {
        let _ = OnlyTransientsPolicy::new(120.0);
    }
}
