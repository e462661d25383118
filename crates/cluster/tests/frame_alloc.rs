//! A frame's length header is untrusted input: `read_message` must not
//! allocate what the header claims before the body bytes arrive.
//!
//! This binary installs a counting global allocator that records the
//! largest single allocation made while armed, so it holds exactly one test
//! (no other test thread allocates while the counter is armed).

use qismet_cluster::read_message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// guarantees `GlobalAlloc` callers give here are exactly the ones `System`
// needs; the only extra work is an atomic update that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_huge_length_header_with_a_short_body_allocates_little() {
    // Just under the 1 GiB frame cap, followed by only 10 body bytes.
    let mut frame = b"1073741823\n".to_vec();
    frame.extend_from_slice(b"{\"Shutdown");
    let mut cursor = io::Cursor::new(frame);

    ARMED.store(true, Ordering::SeqCst);
    let result = read_message(&mut cursor);
    ARMED.store(false, Ordering::SeqCst);

    let err = result.expect_err("a 10-byte body cannot satisfy a 1 GiB header");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest < 64 * 1024,
        "largest single allocation was {largest} bytes"
    );
}
