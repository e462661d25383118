//! The sweep executor's thread count means what it says in the one and only
//! build: `with_threads(n)` runs specs on `n` OS threads at once, and the
//! default executor stays sequential.

use qismet_repro::bench::executor::resolve_threads;
use qismet_repro::bench::SweepExecutor;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[test]
fn thread_counts_do_not_depend_on_the_host() {
    assert_eq!(SweepExecutor::with_threads(4).effective_threads(10), 4);
    assert_eq!(SweepExecutor::new().effective_threads(10), 1);
    assert_eq!(SweepExecutor::default().effective_threads(10), 1);
    assert_eq!(SweepExecutor::sequential().effective_threads(10), 1);
    // Never more workers than tasks, never fewer than one.
    assert_eq!(SweepExecutor::with_threads(4).effective_threads(3), 3);
    assert_eq!(SweepExecutor::with_threads(4).effective_threads(0), 1);
    // `0` = all cores, through the same rule the workers advertise.
    let all = resolve_threads(0);
    assert!(all >= 1);
    assert_eq!(resolve_threads(3), 3);
    assert_eq!(
        SweepExecutor::with_threads(0).effective_threads(10_000),
        all.min(10_000)
    );
}

/// Specs 0 and 1 each wait until both have started. That only succeeds if
/// two threads run them at the same time; a sequential run times out
/// after 10 s on spec 0 and fails instead of hanging.
#[test]
fn four_threads_run_two_specs_at_once() {
    let started = Mutex::new(0usize);
    let both = Condvar::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let specs: Vec<usize> = (0..8).collect();
    let met = SweepExecutor::with_threads(4).run_specs(&specs, |&i| {
        if i > 1 {
            return true;
        }
        let mut n = started.lock().unwrap();
        *n += 1;
        both.notify_all();
        while *n < 2 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            n = both.wait_timeout(n, left).unwrap().0;
        }
        true
    });
    assert_eq!(
        met[..2],
        [true, true],
        "specs 0 and 1 never ran concurrently under with_threads(4)"
    );
}
