//! Heap allocations and the live-heap peak of one recovery: a snapshot of
//! 200 advertisers × 10 keywords at 15 slots (2 000 per-click campaigns,
//! each with its own click row) and 2 000 WAL records past it, half bid
//! writes and half auctions.
//!
//! Both numbers are exact and build-independent, so a copy of the book or
//! a collected record list that comes back to recovery fails here before
//! any timing can see it. A number moves only with a change that says
//! which way and why.
//!
//! It is a test binary of its own, and one `#[test]`, because it installs a
//! counting global allocator. Only what the thread running `recover`
//! allocates and frees counts, so the harness's own threads cannot move
//! the numbers, and debug and release builds read the same.

use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignId, CampaignSpec, Marketplace, QueryRequest};
use ssa_durable::{recover, Durability, FsyncPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const ADVERTISERS: usize = 200;
const KEYWORDS: usize = 10;
const SLOTS: usize = 15;
const WAL_RECORDS: usize = 2_000;

/// The system allocator, counting what the current thread allocates, and
/// the bytes it holds, while its `COUNTING` flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes allocated less those freed since counting began.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Notes `grown` more requested bytes held, and an allocation if `fresh`.
fn note(grown: i64, fresh: bool) {
    // `try_with`: a thread being torn down may still free and allocate.
    if COUNTING.try_with(Cell::get) != Ok(true) {
        return;
    }
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + fresh as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, true);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), false);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, its allocations on this thread, the peak of the
/// requested bytes it held at once, and the bytes it still holds.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64, i64) {
    let before = ALLOCATIONS.with(Cell::get);
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (
        value,
        allocations,
        PEAK.with(Cell::get),
        LIVE.with(Cell::get),
    )
}

/// A log directory holding the snapshot and the WAL suffix. Its path is
/// relative to the temporary directory, and as long for every process:
/// recovery's paths are allocated too.
fn written_dir() -> std::path::PathBuf {
    std::env::set_current_dir(std::env::temp_dir()).expect("a temporary directory");
    let dir = std::path::PathBuf::from(format!("ssa-recovery-alloc-{:010}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).expect("fresh directory");
    let mut market = Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(7)
        .build()
        .expect("valid configuration");
    dur.log_configure(&market.config())
        .expect("configure logged");
    market.set_journal(dur.journal());
    for adv in 0..ADVERTISERS {
        let advertiser = market.register_advertiser(format!("advertiser-{adv}"));
        let quality = 0.2 + 0.7 * (adv + 1) as f64 / (ADVERTISERS + 1) as f64;
        for keyword in 0..KEYWORDS {
            let bid = Money::from_cents(1 + ((adv * 31 + keyword * 17) % 50) as i64);
            let row = (0..SLOTS).map(|j| quality / (j + 1 + keyword) as f64);
            let spec = CampaignSpec::per_click(bid).click_probs(row.collect());
            market
                .add_campaign(advertiser, keyword, spec)
                .expect("campaign accepted");
        }
    }
    dur.snapshot_now(&market).expect("snapshot written");
    for round in 0..WAL_RECORDS {
        let keyword = round % KEYWORDS;
        if round % 2 == 0 {
            let id = CampaignId::from_parts(keyword, (round * 7) % ADVERTISERS);
            let bid = Money::from_cents(1 + (round % 97) as i64);
            market.update_bid(id, bid).expect("per-click campaign");
        } else {
            market.serve(QueryRequest::new(keyword)).expect("in range");
        }
    }
    dir
}

#[test]
fn recovery_allocates_a_pinned_number_of_times_and_bytes() {
    let dir = written_dir();
    let (recovered, allocations, peak, held) = counted(|| recover(&dir));
    let (market, report) = recovered.expect("recovers").expect("state persisted");
    assert_eq!(report.wal_records, WAL_RECORDS as u64);
    assert!(report.snapshot_bytes > 0);
    assert_eq!(market.num_campaigns_total(), ADVERTISERS * KEYWORDS);
    let snapshot = report.snapshot_bytes;
    println!(
        "{{\"metric\":\"recovery_heap\",\"snapshot_bytes\":{snapshot},\
         \"allocations\":{allocations},\"peak_live_bytes\":{peak},\"held_bytes\":{held}}}"
    );
    drop(market);
    std::fs::remove_dir_all(&dir).expect("test directory");
    // Each record is decoded once and moved into the one replay step, so
    // at the peak recovery holds the snapshot's bytes (822 KB here, read
    // whole to check its checksum) and the market it is building. 14 542
    // allocations and a 2 037 671-byte peak while the snapshot was first
    // decoded into a whole `MarketState`, whose records were then cloned
    // into the market, and the WAL suffix was collected into a vector
    // before it was replayed. The market recovered holds 458 057 bytes
    // either way.
    assert_eq!(allocations, 6_606, "allocations in one recovery");
    assert_eq!(peak, 1_234_125, "peak live bytes in one recovery");
}
