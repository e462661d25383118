//! Replays a seeded |Tm| stream long enough to evict through the
//! Only-Transients policy and through a copy of its original implementation
//! (a `Vec` history with `remove(0)` eviction and a clone-and-sort
//! percentile); every threshold and skip decision must agree bit for bit.

use qismet_filters::OnlyTransientsPolicy;
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

/// The policy as it was before `SortedWindow`, at the 90th percentile.
#[derive(Default)]
struct Reference {
    history: Vec<f64>,
}

impl Reference {
    /// Returns the threshold the decision used along with the decision.
    fn observe_and_decide(&mut self, tm: f64) -> (f64, bool) {
        let mag = tm.abs();
        let threshold = if self.history.len() < 16 {
            f64::NAN
        } else {
            naive_percentile(&self.history, 90.0)
        };
        let skip = if threshold.is_finite() {
            mag > threshold
        } else {
            false
        };
        self.history.push(mag);
        if self.history.len() > 4096 {
            self.history.remove(0);
        }
        (threshold, skip)
    }
}

#[test]
fn policy_matches_its_reference_through_eviction() {
    let mut rng = rng_from_seed(31);
    let mut fast = OnlyTransientsPolicy::new(90.0);
    let mut slow = Reference::default();
    for step in 0..10_000 {
        let tm = normal(&mut rng, 0.0, 1.0);
        let threshold = fast.threshold();
        let skip = fast.observe_and_decide(tm);
        let (want_threshold, want_skip) = slow.observe_and_decide(tm);
        assert_eq!(threshold.to_bits(), want_threshold.to_bits(), "step {step}");
        assert_eq!(skip, want_skip, "step {step}");
    }
    assert_eq!(fast.observations(), 4096);
}
