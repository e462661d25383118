//! Special functions for the chemistry substrate: the error function and the
//! zeroth Boys function `F0`, which appear in closed-form Gaussian integral
//! formulas for s-orbitals.
//!
//! Accuracy target is ~1e-13 relative, far below chemical accuracy, so the
//! H2 potential-energy surface (Fig. 18) is limited by the basis set rather
//! than by these routines.

use std::f64::consts::PI;

/// Error function `erf(x)`.
///
/// Uses the Maclaurin series for `|x| <= 2` and a Lentz-evaluated continued
/// fraction for `erfc` beyond, giving ~1e-14 absolute accuracy everywhere.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1e9) - 1.0).abs() < 1e-15);
/// ```
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x <= 2.0 {
        erf_series(x)
    } else if x >= 6.0 {
        1.0
    } else {
        1.0 - erfc_cf(x)
    }
}

/// Maclaurin series: `erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1))`.
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    for n in 1..200 {
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        sum += contrib;
        if contrib.abs() < 1e-17 * sum.abs().max(1e-300) {
            break;
        }
    }
    2.0 / PI.sqrt() * sum
}

/// Continued fraction for `erfc`, valid for x >~ 2:
/// `erfc(x) = exp(-x^2)/(x sqrt(pi)) * 1/(1 + 1/(2x^2 + 2/(1 + 3/(2x^2 + ...))))`
/// evaluated by the modified Lentz algorithm for the equivalent CF
/// `erfc(x) sqrt(pi) e^{x^2} = 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...))))`.
fn erfc_cf(x: f64) -> f64 {
    let tiny = 1e-300;
    let mut f = x.max(tiny);
    let mut c = f;
    let mut d = 0.0;
    for k in 1..300 {
        let a = k as f64 / 2.0;
        // CF: b_k = x, a_k = k/2.
        d = x + a * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = x + a / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x * x).exp() / (PI.sqrt() * f)
}

/// Zeroth Boys function
/// `F0(t) = integral_0^1 exp(-t u^2) du = 0.5 sqrt(pi/t) erf(sqrt(t))`.
///
/// Small arguments use the Maclaurin series to avoid the `0/0` form.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::boys_f0;
/// assert!((boys_f0(0.0) - 1.0).abs() < 1e-15);
/// ```
pub fn boys_f0(t: f64) -> f64 {
    assert!(t >= 0.0, "Boys function argument must be non-negative");
    if t < 1e-13 {
        return 1.0 - t / 3.0;
    }
    if t < 0.03 {
        // Series: F0(t) = sum_k (-t)^k / (k! (2k+1)).
        let mut term = 1.0;
        let mut sum = 1.0;
        for k in 1..30 {
            term *= -t / k as f64;
            let contrib = term / (2 * k + 1) as f64;
            sum += contrib;
            if contrib.abs() < 1e-17 {
                break;
            }
        }
        return sum;
    }
    0.5 * (PI / t).sqrt() * erf(t.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from standard tables (15+ digits).
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.1, 0.112462916018285),
        (0.5, 0.520499877813047),
        (1.0, 0.842700792949715),
        (1.5, 0.966105146475311),
        (2.0, 0.995322265018953),
        (2.5, 0.999593047982555),
        (3.0, 0.999977909503001),
        (4.0, 0.999999984582742),
    ];

    #[test]
    fn erf_matches_reference_table() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-12, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for &(x, _) in ERF_TABLE {
            assert!((erf(-x) + erf(x)).abs() < 1e-15);
        }
    }

    #[test]
    fn erf_limits() {
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(10.0) - 1.0).abs() < 1e-15);
        assert!((erf(-10.0) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn boys_at_zero_and_small() {
        assert!((boys_f0(0.0) - 1.0).abs() < 1e-15);
        // F0(t) ~ 1 - t/3 + t^2/10 for small t (truncation error ~ t^3/42).
        let t = 1e-4;
        let approx = 1.0 - t / 3.0 + t * t / 10.0;
        assert!((boys_f0(t) - approx).abs() < 1e-13);
    }

    #[test]
    fn boys_reference_values() {
        // Computed with mpmath: F0(t) = 0.5*sqrt(pi/t)*erf(sqrt(t)).
        let cases = [
            (0.1, 0.9676433126355918),
            (0.5, 0.8556243918921488),
            (1.0, 0.746_824_132_812_427),
            (5.0, 0.3957123096105135),
            (20.0, 0.19816636482997366),
        ];
        for (t, want) in cases {
            let got = boys_f0(t);
            assert!((got - want).abs() < 1e-10, "F0({t}) = {got}, want {want}");
        }
    }

    #[test]
    fn boys_is_monotone_decreasing() {
        let mut prev = boys_f0(0.0);
        for k in 1..200 {
            let t = k as f64 * 0.1;
            let cur = boys_f0(t);
            assert!(cur < prev, "F0 not decreasing at t = {t}");
            prev = cur;
        }
    }

    #[test]
    fn boys_series_cf_boundary_is_continuous() {
        // Check continuity across the series/closed-form switch at t = 0.03.
        // F0 slope is ~ -1/3 here, so shrink the straddle to isolate branch
        // disagreement from the function's own variation.
        let eps = 1e-12;
        let below = boys_f0(0.03 - eps);
        let above = boys_f0(0.03 + eps);
        assert!((below - above).abs() < 1e-11);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn boys_rejects_negative() {
        boys_f0(-1.0);
    }
}
