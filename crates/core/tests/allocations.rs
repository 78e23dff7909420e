//! Heap allocations per operation on the `engine-solve` shape: a
//! steady-state `update_bid` and `serve`, one snapshot campaign record,
//! and an `update_bid` that takes a campaign record out of line.
//! `ssa_durable`'s `recovery_allocations` pins recovery the same way.
//!
//! A count is exact and build-independent, so a clone or a scratch vector
//! that comes back to one of these paths fails here before any timing can
//! see it. A count moves only with a change that says which way and why.
//!
//! It is a test binary of its own, and one `#[test]`, because it installs a
//! counting global allocator. Only allocations on the thread that runs the
//! operation count, so the harness's own threads cannot move the numbers,
//! and debug and release builds read the same.

mod support;

use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignId, QueryRequest};
use ssa_core::LogRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use support::{advertiser_row, served_market, KEYWORDS};

/// The `engine-solve` benchmark's advertisers.
const ADVERTISERS: usize = 5_000;

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
fn each_operation_allocates_a_pinned_number_of_times() {
    const ROUNDS: usize = 1_000;
    let mut market = served_market(ADVERTISERS, |adv, _| advertiser_row(adv, ADVERTISERS));
    let campaign = |round: usize| {
        let index = (round * 7_919) % ADVERTISERS;
        CampaignId::from_parts(round % KEYWORDS, index)
    };
    // The benchmark's loop: a bid write, then an auction on its keyword.
    let (mut writes, mut serves) = (0, 0);
    for round in 0..2 * ROUNDS {
        let id = campaign(round);
        let bid = Money::from_cents(1 + (round % 97) as i64);
        let (written, allocations) = counted(|| market.update_bid(id, bid));
        written.expect("per-click campaign");
        let query = QueryRequest::new(id.keyword());
        let (served, serve_allocations) = counted(|| market.serve(query));
        assert!(!served.expect("keyword in range").placements.is_empty());
        // The first half warms every keyword's scratch up.
        if round >= ROUNDS {
            writes += allocations;
            serves += serve_allocations;
        }
    }
    // None: the record is rewritten in line, and the engine's list of
    // written rows keeps its capacity (PR 54 moved nothing here).
    assert_eq!(writes, 0, "allocations in {ROUNDS} steady update_bids");
    // Two an auction, the response's placements and charges, read
    // straight out of the engine's scratch; one in the 16 auctions nobody
    // is charged in. 5 968 (≈ 6 an auction) while the engine first copied
    // its assignment, clicks, purchases and charges into a report.
    assert_eq!(serves, 1_984, "allocations in {ROUNDS} steady serves");

    // The snapshot writer's records borrow the market's names and rows.
    // 2 per campaign record from PR 48 to PR 53, while each copied its
    // click row and purchase row into an owned `AddCampaign`, and 1 per
    // advertiser record, while each copied the name.
    let mut log = market.compacted_log();
    let mut buf = Vec::with_capacity(4 << 10);
    let (mut campaigns, mut in_campaigns, mut others) = (0, 0, 0);
    loop {
        let (record, allocations) = counted(|| {
            let record = log.next()?;
            let record = record.expect("per-click campaigns only");
            record.encode_into(&mut buf);
            buf.clear();
            Some(record)
        });
        match record {
            None => break,
            Some(LogRecord::AddCampaign { .. }) => {
                campaigns += 1;
                in_campaigns += allocations;
            }
            Some(_) => others += allocations,
        }
    }
    drop(log);
    assert_eq!(campaigns, ADVERTISERS * KEYWORDS);
    assert_eq!(in_campaigns, 0, "allocations in campaign records");
    assert_eq!(others, 0, "allocations in other records");

    // A record moves out of line into one box, and back with none (PR 54;
    // a 32-byte record held every per-click campaign in line before).
    let id = campaign(0);
    let out_of_line = Money::from_cents(1 << 32);
    let (moved, allocations) = counted(|| market.update_bid(id, out_of_line));
    moved.expect("per-click campaign");
    assert_eq!(allocations, 1, "allocations moving a record out of line");
    let (moved, allocations) = counted(|| market.update_bid(id, Money::from_cents(5)));
    moved.expect("per-click campaign");
    assert_eq!(allocations, 0, "allocations moving a record back in line");
}
