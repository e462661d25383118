//! Replays a seeded |Tm| stream long enough to evict through the calibrator
//! and through a copy of its original implementation (a `Vec` history with
//! `remove(0)` eviction and a clone-and-sort percentile); every threshold
//! must agree bit for bit.

use qismet::{SkipTarget, ThresholdCalibrator};
use qismet_mathkit::{normal, rng_from_seed};

/// Clone-and-sort linear percentile, as it was before `SortedWindow`.
fn naive_percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The calibrator as it was before `SortedWindow`.
struct Reference {
    target: SkipTarget,
    history: Vec<f64>,
    warmup: usize,
    adaptive: Option<f64>,
}

impl Reference {
    fn new(target: SkipTarget, warmup: usize) -> Self {
        Reference {
            target,
            history: Vec::new(),
            warmup: warmup.max(2),
            adaptive: None,
        }
    }

    fn observe(&mut self, tm: f64) {
        self.history.push(tm.abs());
        if self.history.len() > 4096 {
            self.history.remove(0);
        }
    }

    fn record_decision(&mut self, skipped: bool) {
        let Some(thr) = self.adaptive_threshold() else {
            return;
        };
        let target = 1.0 - self.target.percentile() / 100.0;
        let scale = naive_percentile(&self.history, 75.0).max(1e-9);
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
            self.adaptive = Some(naive_percentile(&self.history, self.target.percentile()));
        }
        self.adaptive
    }

    fn threshold(&mut self) -> f64 {
        self.adaptive_threshold().unwrap_or(f64::NAN)
    }
}

#[test]
fn calibrator_matches_its_reference_through_eviction() {
    let mut rng = rng_from_seed(21);
    let mut fast = ThresholdCalibrator::new(SkipTarget::Best, 16);
    let mut slow = Reference::new(SkipTarget::Best, 16);
    for step in 0..10_000 {
        let tm = normal(&mut rng, 0.0, 1.0);
        fast.observe(tm);
        slow.observe(tm);
        let thr = fast.threshold();
        assert_eq!(thr.to_bits(), slow.threshold().to_bits(), "step {step}");
        let skip = thr.is_finite() && tm.abs() > thr;
        fast.record_decision(skip);
        slow.record_decision(skip);
    }
    assert_eq!(fast.observations(), 4096);
}
