//! Error-threshold calibration from a target skip rate.
//!
//! Section 6.3: "The QISMET error threshold is set so as to skip at most 10%
//! of the iterations", with the conservative/aggressive variants at 1% / 25%
//! and Fig. 19 naming thresholds by the |Tm| percentile they correspond to
//! (99p / 90p / 75p). The calibrator keeps an online history of |Tm|
//! estimates and exposes the configured percentile as the controller's
//! threshold. The history is a sorted 4096-sample FIFO window
//! ([`SortedWindow`]), so recording an estimate costs an O(log n) search
//! plus one shift, and reading a percentile needs no sort.

use qismet_mathkit::SortedWindow;
use serde::{Deserialize, Serialize};

/// Skip-rate presets from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SkipTarget {
    /// Skip at most ~1% of iterations (`99p`, "QISMET-conservative").
    Conservative,
    /// Skip at most ~10% (`90p`, the paper's best trade-off).
    Best,
    /// Skip at most ~25% (`75p`, "QISMET-aggressive").
    Aggressive,
    /// Custom maximum skip fraction in `(0, 1)`.
    Custom(f64),
}

impl SkipTarget {
    /// The |Tm| percentile that realizes the target skip rate.
    pub fn percentile(self) -> f64 {
        match self {
            SkipTarget::Conservative => 99.0,
            SkipTarget::Best => 90.0,
            SkipTarget::Aggressive => 75.0,
            SkipTarget::Custom(f) => 100.0 * (1.0 - f.clamp(1e-6, 0.999)),
        }
    }

    /// Paper-style label (`"90p"`).
    pub fn label(self) -> String {
        format!("{:.0}p", self.percentile())
    }
}

/// Online threshold calibrator targeting a skip *rate*.
///
/// Section 6.3: "The QISMET error threshold is set so as to skip at most
/// 10% of the iterations." The calibrator realizes that spec directly:
/// starting from a percentile of the observed |Tm| history, it servoes the
/// threshold with a stochastic-approximation quantile tracker — every
/// skipped attempt nudges the threshold up (we are skipping, so demand more
/// evidence), every accepted one nudges it down, with step sizes balanced so
/// the long-run skip fraction settles at the target.
///
/// The |Tm| history holds the latest 4096 estimates in a sorted FIFO window,
/// so each attempt costs an O(log n) search plus one shift, not a sort.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdCalibrator {
    target: SkipTarget,
    history: SortedWindow,
    warmup: usize,
    adaptive: Option<f64>,
}

impl ThresholdCalibrator {
    /// Creates a calibrator; the threshold is `NaN` (accept-everything)
    /// until `warmup` observations arrive.
    pub fn new(target: SkipTarget, warmup: usize) -> Self {
        ThresholdCalibrator {
            target,
            history: SortedWindow::new(4096),
            warmup: warmup.max(2),
            adaptive: None,
        }
    }

    /// The configured target.
    pub fn target(&self) -> SkipTarget {
        self.target
    }

    /// The target skip fraction (e.g. 0.10 for [`SkipTarget::Best`]).
    pub fn target_fraction(&self) -> f64 {
        1.0 - self.target.percentile() / 100.0
    }

    /// Records one |Tm| observation.
    pub fn observe(&mut self, tm: f64) {
        self.history.push(tm.abs());
    }

    /// Feeds back the controller's decision for the current attempt so the
    /// threshold servoes toward the target skip rate.
    pub fn record_decision(&mut self, skipped: bool) {
        let Some(thr) = self.adaptive_threshold() else {
            return;
        };
        let target = self.target_fraction();
        // Quantile-tracking step: scale relative to the |Tm| spread.
        let scale = self.history.percentile(75.0).max(1e-9);
        let eta = 0.05 * scale;
        let next = if skipped {
            thr + eta * (1.0 - target)
        } else {
            thr - eta * target
        };
        self.adaptive = Some(next.max(0.0));
    }

    fn adaptive_threshold(&mut self) -> Option<f64> {
        if self.history.len() < self.warmup {
            return None;
        }
        if self.adaptive.is_none() {
            // Seed from the |Tm| percentile the paper names (99p/90p/75p).
            self.adaptive = Some(self.history.percentile(self.target.percentile()));
        }
        self.adaptive
    }

    /// The current threshold, or `NaN` during warmup.
    pub fn threshold(&mut self) -> f64 {
        self.adaptive_threshold().unwrap_or(f64::NAN)
    }

    /// Observations recorded so far.
    pub fn observations(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qismet_mathkit::{normal, rng_from_seed};

    #[test]
    fn preset_percentiles_match_paper() {
        assert_eq!(SkipTarget::Conservative.percentile(), 99.0);
        assert_eq!(SkipTarget::Best.percentile(), 90.0);
        assert_eq!(SkipTarget::Aggressive.percentile(), 75.0);
        assert_eq!(SkipTarget::Best.label(), "90p");
        assert!((SkipTarget::Custom(0.05).percentile() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_gives_nan() {
        let mut c = ThresholdCalibrator::new(SkipTarget::Best, 10);
        for _ in 0..9 {
            c.observe(1.0);
        }
        assert!(c.threshold().is_nan());
        c.observe(1.0);
        assert!(c.threshold().is_finite());
    }

    #[test]
    fn threshold_seeds_from_percentile_of_gaussian() {
        let mut c = ThresholdCalibrator::new(SkipTarget::Best, 16);
        let mut rng = rng_from_seed(5);
        for _ in 0..20_000 {
            c.observe(normal(&mut rng, 0.0, 1.0));
        }
        // 90th percentile of |N(0,1)| is ~1.6449.
        let thr = c.threshold();
        assert!((thr - 1.6449).abs() < 0.1, "threshold {thr}");
    }

    #[test]
    fn aggressive_threshold_is_lower() {
        let mut best = ThresholdCalibrator::new(SkipTarget::Best, 16);
        let mut aggr = ThresholdCalibrator::new(SkipTarget::Aggressive, 16);
        let mut cons = ThresholdCalibrator::new(SkipTarget::Conservative, 16);
        let mut rng = rng_from_seed(6);
        for _ in 0..5000 {
            let v = normal(&mut rng, 0.0, 1.0);
            best.observe(v);
            aggr.observe(v);
            cons.observe(v);
        }
        assert!(aggr.threshold() < best.threshold());
        assert!(best.threshold() < cons.threshold());
    }

    #[test]
    fn servo_converges_to_target_skip_rate() {
        // Simulate a controller that skips whenever |Tm| > threshold; the
        // servo should settle so ~10% of attempts are skipped.
        let mut c = ThresholdCalibrator::new(SkipTarget::Best, 16);
        let mut rng = rng_from_seed(7);
        let mut skips = 0usize;
        let n = 30_000;
        for _ in 0..n {
            let tm = normal(&mut rng, 0.0, 1.0);
            c.observe(tm);
            let thr = c.threshold();
            let skip = thr.is_finite() && tm.abs() > thr;
            if skip {
                skips += 1;
            }
            c.record_decision(skip);
        }
        let rate = skips as f64 / n as f64;
        assert!(
            (rate - 0.10).abs() < 0.03,
            "servo skip rate {rate}, want ~0.10"
        );
    }

    #[test]
    fn servo_raises_threshold_when_overskipping() {
        let mut c = ThresholdCalibrator::new(SkipTarget::Best, 4);
        for _ in 0..8 {
            c.observe(1.0);
        }
        let before = c.threshold();
        for _ in 0..50 {
            c.record_decision(true);
        }
        assert!(c.threshold() > before);
    }

    #[test]
    fn target_fractions() {
        let mut c = ThresholdCalibrator::new(SkipTarget::Best, 2);
        assert!((c.target_fraction() - 0.10).abs() < 1e-12);
        let _ = c.threshold();
        let c = ThresholdCalibrator::new(SkipTarget::Aggressive, 2);
        assert!((c.target_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn history_is_bounded() {
        // Every 1.0 must be evicted by the 4096 later 2.0s; evicting the
        // newest sample instead of the oldest would keep a 1.0.
        let mut c = ThresholdCalibrator::new(SkipTarget::Best, 4);
        for _ in 0..5000 {
            c.observe(1.0);
        }
        for _ in 0..4096 {
            c.observe(2.0);
        }
        assert_eq!(c.observations(), 4096);
        assert_eq!(c.history.percentile(0.0), 2.0);
    }
}
