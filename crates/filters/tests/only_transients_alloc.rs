//! Once its |Tm| window is full, the Only-Transients policy must decide an
//! iteration without touching the heap: no history clone, no sort buffer.
//!
//! This binary installs a counting global allocator that counts every
//! allocation made while armed, so it holds exactly one test (no other test
//! thread allocates while the counter is armed).

use qismet_filters::OnlyTransientsPolicy;
use qismet_mathkit::{normal, rng_from_seed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// guarantees `GlobalAlloc` callers give here are exactly the ones `System`
// needs; the only extra work is an atomic update that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_full_policy_decides_without_allocating() {
    let mut rng = rng_from_seed(11);
    let mut p = OnlyTransientsPolicy::new(90.0);
    for _ in 0..5000 {
        p.observe_and_decide(normal(&mut rng, 0.0, 1.0));
    }
    let stream: Vec<f64> = (0..1000).map(|_| normal(&mut rng, 0.0, 1.0)).collect();

    ARMED.store(true, Ordering::SeqCst);
    for &tm in &stream {
        p.observe_and_decide(tm);
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocations, 0,
        "1000 decisions made {allocations} allocations"
    );
}
