//! Once it has simulated a point, the exact objective must evaluate without
//! touching the heap, whether a point is remembered or simulated: a miss
//! overwrites the oldest slot in place.
//!
//! This binary installs a counting global allocator that counts every
//! allocation made while armed, so it holds exactly one test (no other test
//! thread allocates while the counter is armed).

use qismet_vqa::{Ansatz, AnsatzKind, Entanglement, ExactObjective, Tfim};
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
fn evaluations_allocate_nothing_once_the_ring_exists() {
    let tfim = Tfim::paper_6q();
    let ansatz = Ansatz::new(AnsatzKind::RealAmplitudes, 6, 2, Entanglement::Linear);
    let objective = ExactObjective::new(ansatz, tfim.hamiltonian());
    // Twelve points cycle through an eight-slot ring, so every call
    // misses, simulates and overwrites the oldest slot.
    let points: Vec<Vec<f64>> = (0..12)
        .map(|k| objective.ansatz().initial_params(k))
        .collect();
    let mut sum = objective.eval(&points[0]);

    ARMED.store(true, Ordering::SeqCst);
    for i in 0..1000 {
        sum += objective.eval(&points[i % points.len()]);
    }
    ARMED.store(false, Ordering::SeqCst);

    assert!(sum.is_finite());
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocations, 0,
        "1000 evaluations made {allocations} allocations"
    );
}
