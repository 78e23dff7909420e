//! Heap allocations of the wire codec on the messages the wire workloads
//! send most: decoding a `Serve` with the workloads' attribute bag, and
//! encoding a `Served` with fifteen placements.
//!
//! A count is exact and build-independent, where a timing of the same
//! call swings by more than half between runs of one binary, so a clone
//! or a growing buffer that comes back to the codec fails here first. A
//! count moves only with a change that says which way and why.
//!
//! It is a test binary of its own, and one `#[test]`, because it installs a
//! counting global allocator. Only allocations on the thread that runs the
//! call count, so the harness's own threads cannot move the numbers, and
//! debug and release builds read the same.

use ssa_core::UserAttrs;
use ssa_net::{Request, Response, WireAuction, WirePlacement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// What `f` returns, and the allocations it makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_codec_allocates_a_pinned_number_of_times() {
    // The wire workloads' query: a keyword and a three-attribute bag.
    let request = Request::Serve {
        keyword: 3,
        attrs: UserAttrs::new()
            .geo("us")
            .device("mobile")
            .set_int("age", 34),
    };
    let payload = request.encode();
    let (decoded, allocations) = counted(|| Request::decode(&payload));
    assert_eq!(decoded.expect("decodes"), request);
    // One for the bag's entry vector (its first insert makes room for
    // four), one for each of the three keys and one for each of the two
    // text values; the integer takes none. Six when first pinned; one
    // more clone of the decoded record reads twelve.
    assert_eq!(allocations, 6, "allocations decoding one Serve");

    // A full results page: fifteen placements, every third one clicked
    // and charged.
    let response = Response::Served(WireAuction {
        keyword: 3,
        time: 1_234_567,
        expected_revenue: 123.456,
        realized_cents: 35,
        placements: (0..15u16)
            .map(|slot| WirePlacement {
                slot_position: slot + 1,
                campaign_keyword: 3,
                campaign_index: 10 + u64::from(slot),
                advertiser: 10 + u64::from(slot),
                clicked: slot % 3 == 0,
                purchased: false,
                charge_cents: if slot % 3 == 0 { 7 } else { 0 },
            })
            .collect(),
        charges: (0..15u64)
            .step_by(3)
            .map(|slot| (3, 10 + slot, 7))
            .collect(),
    });
    let (encoded, allocations) = counted(|| response.encode());
    // 715 bytes framed, the benchmark's `net.bytes_per_serve_response`.
    assert_eq!(encoded.len(), 701, "payload bytes of one Served");
    // The payload buffer grows from empty by doubling: 8, 16, …, 1024
    // bytes, one allocation each. Eight when first pinned; a buffer
    // presized to the payload would read one.
    assert_eq!(allocations, 8, "allocations encoding one Served");
}
