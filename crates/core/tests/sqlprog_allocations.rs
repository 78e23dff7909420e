//! Heap allocations on a SQL program's serving path.
//!
//! A warmed-up Figure 5 program serves 1 000 steady rounds, each an auction
//! (`on_query`) and a clicked settlement (`on_outcome`), and the test pins
//! how many allocations each makes. A count that rises means a clone or a
//! scratch vector came back to the hot path: a text copied to the heap, a
//! variable's slot reallocated, a row built twice.
//!
//! It is a test binary of its own, and one `#[test]`, because it installs a
//! counting global allocator. Only allocations on the thread that serves
//! the program count, so the harness's own threads cannot move the numbers,
//! and debug and release builds read the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[path = "support/figure5.rs"]
mod figure5;

use figure5::{click, compiled, ctx, program};
use ssa_core::Bidder;

/// The system allocator, counting what the current thread allocates while
/// its `COUNTING` flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread being torn down may still free and allocate.
    if COUNTING.try_with(Cell::get) == Ok(true) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_served_program_allocates_a_pinned_number_of_times() {
    const WARM_UP: u64 = 20;
    const ROUNDS: u64 = 1_000;
    let mut program = program(&compiled(), 0);
    for time in 1..=WARM_UP {
        assert!(!program.on_query(&ctx(time)).is_empty(), "the program bids");
        program.on_outcome(&ctx(time), &click());
    }
    let (mut queries, mut outcomes) = (0, 0);
    for time in WARM_UP + 1..=WARM_UP + ROUNDS {
        queries += allocations(|| {
            program.on_query(&ctx(time));
        });
        outcomes += allocations(|| program.on_outcome(&ctx(time), &click()));
    }
    assert!(program.last_error().is_none());
    let per_query = queries as f64 / ROUNDS as f64;
    let per_outcome = outcomes as f64 / ROUNDS as f64;
    // 21 per auction while a text was a `String`: the Bids formula the
    // correlated subquery reads and the one the host's SELECT returns
    // were each copied to the heap. 19 / 6 while every firing copied its
    // trigger list into a Vec.
    assert_eq!(per_query, 18.0, "allocations per on_query");
    assert_eq!(per_outcome, 5.0, "allocations per clicked on_outcome");
}
