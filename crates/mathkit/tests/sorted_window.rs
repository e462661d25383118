//! `SortedWindow::percentile` must be bit-identical to `percentile` over the
//! same samples kept in a plain FIFO, on streams that evict and that mix
//! duplicates, signed zeros, infinities and tiny values.

use proptest::collection::vec;
use proptest::prelude::*;
use qismet_mathkit::{percentile, SortedWindow};
use std::collections::VecDeque;

const PERCENTILES: [f64; 8] = [0.0, 25.0, 33.3, 50.0, 75.0, 90.0, 99.0, 100.0];

/// Maps a (kind, uniform) draw to a sample; most kinds collide on purpose.
fn sample((kind, u): (u8, f64)) -> f64 {
    match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::MIN_POSITIVE * u,
        4 => 5e-324,
        5 => 1.0,
        6 => (u * 4.0).floor(),
        _ => u * 10.0 - 5.0,
    }
}

/// Pushes `stream` through a window and a naive FIFO of `capacity`, and
/// compares every percentile by bits after each push where `check(step)`.
fn replay(stream: &[f64], capacity: usize, check: impl Fn(usize) -> bool) {
    let mut window = SortedWindow::new(capacity);
    let mut naive = VecDeque::new();
    for (step, &x) in stream.iter().enumerate() {
        window.push(x);
        naive.push_back(x);
        if naive.len() > capacity {
            naive.pop_front();
        }
        assert_eq!(window.len(), naive.len());
        if check(step) || step + 1 == stream.len() {
            let fifo: Vec<f64> = naive.iter().copied().collect();
            for p in PERCENTILES {
                assert_eq!(
                    window.percentile(p).to_bits(),
                    percentile(&fifo, p).to_bits(),
                    "capacity {capacity}, step {step}, p {p}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn small_windows_match_naive_percentile(
        draws in vec((0u8..10, 0.0f64..1.0), 1..400)
    ) {
        let stream: Vec<f64> = draws.into_iter().map(sample).collect();
        for capacity in [1, 2, 3, 64] {
            replay(&stream, capacity, |_| true);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn full_size_window_matches_naive_percentile(
        draws in vec((0u8..10, 0.0f64..1.0), 4200..9000)
    ) {
        let stream: Vec<f64> = draws.into_iter().map(sample).collect();
        replay(&stream, 4096, |step| step % 307 == 0);
    }
}
