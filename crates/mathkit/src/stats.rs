//! Descriptive statistics used by the evaluation harnesses: means, variances,
//! percentiles (the `99p`/`90p`/`75p` thresholds of the paper), and the
//! geometric mean used in Figs. 13 and 17.
//!
//! [`percentile`] sorts a copy of its input and hands it to
//! [`percentile_sorted`], the one home of the interpolation formula. Online
//! thresholds that re-read a percentile after every sample keep their history
//! in a [`SortedWindow`] instead: a bounded FIFO window that stays sorted, so
//! a push costs a binary search plus one shift and a percentile read costs
//! no sort at all.

use std::collections::VecDeque;

/// Arithmetic mean. Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(qismet_mathkit::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (`n - 1` denominator). Returns `0.0` for fewer
/// than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Population variance (`n` denominator). Returns `0.0` for an empty slice.
pub fn variance_population(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Linearly interpolated percentile, `p` in `[0, 100]`.
///
/// Matches the common "linear" (NumPy default) definition. Returns `NaN` for
/// an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any element is NaN.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of a slice that is already sorted ascending.
///
/// Returns `NaN` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::percentile_sorted;
/// assert_eq!(percentile_sorted(&[10.0, 20.0, 30.0, 40.0, 50.0], 90.0), 46.0);
/// ```
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.is_empty() {
        return f64::NAN;
    }
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

/// The last `capacity` samples of a stream, kept both in arrival order and
/// sorted, so percentiles of a sliding window need no per-read sort.
///
/// The sorted copy is exactly what a stable sort of the window would give:
/// equal values (including `-0.0` and `0.0`) stay in arrival order. So
/// [`SortedWindow::percentile`] is bit-identical to [`percentile`] over the
/// window's samples in arrival order. A push is a binary search plus one
/// shift of the sorted copy; once the window is full it allocates nothing.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::SortedWindow;
/// let mut w = SortedWindow::new(3);
/// for x in [5.0, 1.0, 4.0, 2.0] {
///     w.push(x);
/// }
/// // The window now holds 1, 4, 2 (5 was evicted).
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.percentile(50.0), 2.0);
/// assert_eq!(w.percentile(100.0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SortedWindow {
    fifo: VecDeque<f64>,
    sorted: Vec<f64>,
    capacity: usize,
}

impl SortedWindow {
    /// An empty window that holds at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SortedWindow {
            fifo: VecDeque::new(),
            sorted: Vec::new(),
            capacity,
        }
    }

    /// Appends `x`, evicting the oldest sample when the window is full.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN in percentile input");
        if self.fifo.len() == self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                // The oldest sample is the first of its run of equal values.
                let at = self.sorted.partition_point(|&y| y < old);
                self.sorted.remove(at);
            }
        }
        // After every equal value, so equal values stay in arrival order.
        let at = self.sorted.partition_point(|&y| y <= x);
        self.sorted.insert(at, x);
        self.fifo.push_back(x);
    }

    /// [`percentile`] of the samples in the window (`NaN` when empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// Number of samples in the window.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Geometric mean of strictly positive values. Returns `NaN` if any value is
/// non-positive or the slice is empty.
///
/// # Examples
///
/// ```
/// use qismet_mathkit::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Minimum of a slice. Returns `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum of a slice. Returns `NaN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// Running (cumulative) minimum — useful for "best objective so far" curves.
pub fn running_min(xs: &[f64]) -> Vec<f64> {
    let mut best = f64::INFINITY;
    xs.iter()
        .map(|&x| {
            best = best.min(x);
            best
        })
        .collect()
}

/// Simple trailing moving average with window `w` (window is clipped at the
/// start of the series).
///
/// # Panics
///
/// Panics if `w == 0`.
pub fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    assert!(w > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0.0;
    for i in 0..xs.len() {
        acc += xs[i];
        if i >= w {
            acc -= xs[i - w];
        }
        let n = (i + 1).min(w);
        out.push(acc / n as f64);
    }
    out
}

/// Pearson correlation of two equal-length series. Returns `NaN` when either
/// series is constant or the lengths differ.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance_population(&xs) - 4.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert!(geomean(&[]).is_nan());
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 50.0), 30.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_range_checked() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentile_sorted_empty_is_nan() {
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_sorted_range_checked() {
        percentile_sorted(&[1.0], -0.5);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn sorted_window_rejects_nan() {
        SortedWindow::new(4).push(f64::NAN);
    }

    #[test]
    fn sorted_window_evicts_oldest() {
        let mut w = SortedWindow::new(2);
        assert!(w.is_empty() && w.percentile(50.0).is_nan());
        for x in [3.0, 1.0, 2.0] {
            w.push(x);
        }
        assert_eq!(w.len(), 2);
        assert_eq!(w.percentile(0.0), 1.0);
        assert_eq!(w.percentile(100.0), 2.0);
    }

    #[test]
    fn geomean_matches_paper_style_ratios() {
        // Fig. 13 style: per-machine improvement ratios.
        let ratios = [1.42, 1.50, 1.51, 1.29, 1.35, 1.27];
        let g = geomean(&ratios);
        assert!(g > 1.35 && g < 1.42, "geomean {g} out of expected band");
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        assert!(geomean(&[1.0, -1.0]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn running_min_is_monotone() {
        let xs = [3.0, 1.0, 2.0, 0.5, 4.0];
        assert_eq!(running_min(&xs), vec![3.0, 1.0, 1.0, 0.5, 0.5]);
    }

    #[test]
    fn moving_average_window() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(moving_average(&xs, 2), vec![1.0, 1.5, 2.5, 3.5]);
        assert_eq!(moving_average(&xs, 1), xs.to_vec());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_nan());
        assert!(pearson(&[1.0], &[2.0]).is_nan());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
