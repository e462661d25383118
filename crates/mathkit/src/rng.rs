//! Deterministic randomness utilities.
//!
//! Everything stochastic in the workspace (shot sampling, transient bursts,
//! SPSA perturbations) is seeded through here so paper artifacts regenerate
//! bit-identically. The only external dependency is `rand`'s `StdRng`;
//! distribution sampling (Gaussian, exponential, geometric) is implemented
//! locally because `rand_distr` is not part of the approved dependency set.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent child seed from a parent seed and a stream label.
///
/// Uses SplitMix64 finalization so adjacent labels produce uncorrelated
/// streams. This is how, e.g., each VQA application/machine pair gets its own
/// transient-trace stream from one experiment master seed.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::derive_seed;
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0));
/// ```
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Creates a deterministic RNG from a `u64` seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a standard normal deviate via the Marsaglia polar method.
///
/// Stateless (no cached second deviate) so call sites stay simple; the
/// discarded half costs little at our scales.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = rng.gen::<f64>() * 2.0 - 1.0;
        let v = rng.gen::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples `N(mu, sigma^2)`.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    mu + sigma * standard_normal(rng)
}

/// Samples an exponential deviate with the given rate (`lambda`).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen::<f64>();
    // Guard the log against u == 0.
    -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate
}

/// Samples a geometric number of trials (support `1, 2, 3, ...`) with success
/// probability `p`.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1]`.
pub fn geometric<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    if p >= 1.0 {
        return 1;
    }
    let u: f64 = rng.gen::<f64>();
    let trials = (1.0 - u).max(f64::MIN_POSITIVE).ln() / (1.0 - p).ln();
    trials.ceil().max(1.0) as u64
}

/// Samples `true` with probability `p` (clamped to `[0, 1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

/// Samples a heavy-tailed magnitude from a Pareto distribution with minimum
/// `x_min` and tail index `alpha`. Used for transient-burst magnitudes, which
/// the paper characterizes as rare but occasionally extreme.
///
/// # Panics
///
/// Panics if `x_min <= 0` or `alpha <= 0`.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, x_min: f64, alpha: f64) -> f64 {
    assert!(
        x_min > 0.0 && alpha > 0.0,
        "pareto parameters must be positive"
    );
    let u: f64 = rng.gen::<f64>();
    x_min / (1.0 - u).max(f64::MIN_POSITIVE).powf(1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let s: Vec<u64> = (0..16).map(|k| derive_seed(1234, k)).collect();
        let again: Vec<u64> = (0..16).map(|k| derive_seed(1234, k)).collect();
        assert_eq!(s, again);
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                assert_ne!(s[i], s[j], "collision between streams {i} and {j}");
            }
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng_from_seed(7);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let m = crate::stats::mean(&xs);
        let v = crate::stats::variance(&xs);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((v - 9.0).abs() < 0.2, "variance {v}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = rng_from_seed(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| exponential(&mut rng, 2.0)).collect();
        let m = crate::stats::mean(&xs);
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn geometric_mean_trials() {
        let mut rng = rng_from_seed(9);
        let n = 100_000;
        let p = 0.25;
        let xs: Vec<f64> = (0..n).map(|_| geometric(&mut rng, p) as f64).collect();
        let m = crate::stats::mean(&xs);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
        assert!(xs.iter().all(|&x| x >= 1.0));
    }

    #[test]
    fn geometric_p_one_is_always_one() {
        let mut rng = rng_from_seed(10);
        for _ in 0..100 {
            assert_eq!(geometric(&mut rng, 1.0), 1);
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = rng_from_seed(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| bernoulli(&mut rng, 0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = rng_from_seed(13);
        for _ in 0..10_000 {
            assert!(pareto(&mut rng, 0.5, 2.0) >= 0.5);
        }
    }

    #[test]
    fn streams_reproduce() {
        let mut a = rng_from_seed(99);
        let mut b = rng_from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
