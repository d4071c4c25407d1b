//! Live-heap test of the coarsening workspace's lifetime: a hierarchy
//! build keeps no heap once its hierarchy is dropped. The arenas it
//! grows (clustering state, connectivity scores, pin arena, recycled
//! builder) live only as long as the build, so the context it ran under
//! carries none of them into refinement or into the next start.
//!
//! The counter is a `#[global_allocator]` wrapper around [`System`]
//! that tracks live bytes: `alloc`, `alloc_zeroed` and `realloc` add
//! what they hand out, `dealloc` and `realloc` subtract what they take
//! back. Integration tests run on multiple threads, so this file holds
//! one `#[test]` — a sibling test allocating concurrently would corrupt
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use hypart::benchgen::ispd98_like;
use hypart::prelude::*;

/// Tracks the bytes currently allocated anywhere in the process.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    LIVE.fetch_add(bytes as i64, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every call goes to `System` unchanged; the counter only reads
// the sizes of what `System` hands out or takes back.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_hierarchy_build_keeps_no_heap_once_its_hierarchy_is_dropped() {
    let ml = MlPartitioner::new(MlConfig::ml_lifo());
    // ibm01 at a quarter of its size (3,188 cells) and ibm18 at 0.08
    // (16,849 cells), the netlists the daemon and `ml_ibm18` benchmarks
    // partition.
    for h in [ispd98_like(1, 0.25, 1), ispd98_like(18, 0.08, 1)] {
        let mut ctx = RunCtx::new(1);
        let before = live_bytes();
        let hierarchy = ml.coarsen_hierarchy_with(&h, &mut ctx);
        assert!(hierarchy.len() >= 2, "{}: too few levels", h.name());
        drop(hierarchy);
        let kept = live_bytes() - before;
        assert_eq!(
            kept,
            0,
            "{}: the context kept {kept} bytes of a dropped hierarchy's build",
            h.name()
        );
    }
}
