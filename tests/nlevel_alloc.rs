//! Allocation-counter test of the n-level workspace contract: after one
//! warm-up run has grown the arenas, the contract / uncontract /
//! localized-FM loop of a run performs **zero** heap allocations.
//!
//! The counter is a `#[global_allocator]` wrapper around [`System`]
//! that counts `alloc` / `alloc_zeroed` / `realloc` calls. Integration
//! tests run on multiple threads, so this file holds one `#[test]` — a
//! sibling test allocating concurrently would corrupt the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use hypart::core::nlevel::{
    refine_localized, select_contractions, ContractionLimits, NLevelWorkspace,
};
use hypart::prelude::*;

/// Counts every allocation (fresh, zeroed, or growing) made anywhere in
/// the process. Deallocations are free and uncounted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One full component-level n-level cycle on warm arenas: re-point the
/// view, run the contraction schedule, rebuild the partition from
/// alternating sides, then undo the whole memento stack with localized
/// refinement per step. Exactly the driver's loop, minus the coarse-core
/// materialization (which builds a fresh CSR by design).
fn component_cycle(
    h: &Hypergraph,
    limits: &ContractionLimits,
    lower: u64,
    upper: u64,
    ws: &mut NLevelWorkspace,
    ctx: &mut RunCtx<'_>,
) -> u64 {
    ws.dynhg.reset_from_csr(h);
    let mut probe = ctx.probe();
    select_contractions(&mut ws.dynhg, limits, None, 7, &mut ws.contract, &mut probe);
    ws.labels.clear();
    ws.labels
        .extend((0..ws.dynhg.num_slots()).map(|s| PartId::ALL[s % 2]));
    ws.partition.reset(&ws.dynhg, &ws.labels);
    let mut rng = SmallRng::seed_from_u64(9);
    while let Some(m) = ws.contract.mementos.pop() {
        ws.partition.begin_uncontract(&ws.dynhg, &m);
        ws.dynhg.uncontract(&m);
        refine_localized(
            &mut ws.partition,
            &ws.dynhg,
            &[m.u, m.v],
            lower,
            upper,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut ws.refine,
            ctx,
        );
    }
    ws.partition.cut()
}

#[test]
fn steady_state_nlevel_loop_is_allocation_free() {
    let h = hypart::benchgen::ispd98_like(1, 0.08, 3);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let (lower, upper) = (constraint.lower(), constraint.upper());
    let limits = ContractionLimits {
        stop_size: 30,
        max_net_size: 300,
        cluster_cap: h.total_vertex_weight(),
    };

    // The component loop, exactly zero after warm-up.
    let mut ctx = RunCtx::new(7);
    let mut ws = NLevelWorkspace::new();
    let first = component_cycle(&h, &limits, lower, upper, &mut ws, &mut ctx);
    let before = allocations();
    let second = component_cycle(&h, &limits, lower, upper, &mut ws, &mut ctx);
    let steady = allocations() - before;
    assert_eq!(second, first, "recycled arenas changed the result");
    assert_eq!(
        steady, 0,
        "steady-state contract/uncontract/refine cycle allocated {steady} times"
    );
}
