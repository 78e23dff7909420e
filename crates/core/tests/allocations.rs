//! Heap allocations per operation on the `engine-solve` shape: a
//! steady-state `update_bid` and `serve`, a `serve` on the same shape with
//! every campaign targeted, one snapshot campaign record, an `update_bid`
//! that takes a campaign record out of line, and `ServeBatch` and
//! `AddCampaign` records applied with and without a journal.
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
use ssa_core::marketplace::{CampaignId, CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{LogRecord, MutationJournal, MutationRecord, UserAttrs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use support::{advertiser_row, served_market, KEYWORDS, SLOTS};

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

    // The same serves with every campaign targeted, each query carrying
    // the wire workloads' attribute bag (geo, device, age): every campaign
    // is evaluated at every auction, and the attributes are read where the
    // request holds them. As many as untargeted: two an auction, one in
    // the 12 auctions nobody is charged in (1 988 when first pinned; one
    // more clone of the attributes on the serve path reads 7 988).
    assert_eq!(
        targeted_serves(),
        1_988,
        "allocations in {TARGETED_SERVES} steady targeted serves"
    );

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

    // Records applied as records, on twin markets (ROADMAP 24). A journal
    // costs the market nothing: `Marketplace::apply` executes on the
    // record's fields and hands the journal the record itself. Before it
    // did, the parent of that change read 5 108 allocations in 50
    // journalled batches (≈ 102 a batch: the queries' attributes moved
    // into requests and copied back into a fresh record) and 295 in 50
    // journalled adds (three copies: click row, purchase row, targeting
    // text), against the same 258 and 145 unjournalled. A batch's ≈ 3 are
    // its list of 16 chunks, the chunks' reports and the per-keyword
    // totals; the list was grown three times more (258 in 50 batches)
    // until `run_batch` counted its chunks before allocating the list.
    let [unjournalled, journalled] = journalled_records();
    assert_eq!(
        unjournalled,
        (158, 145),
        "allocations in 50 unjournalled records of each kind"
    );
    assert_eq!(
        journalled, unjournalled,
        "allocations in 50 journalled records of each kind"
    );
}

/// A journal that keeps nothing: what journalling costs the market itself.
#[derive(Debug)]
struct Discard;

impl MutationJournal for Discard {
    fn record(&mut self, _: &MutationRecord) {}
}

/// Records applied as records on two twin markets of the same shape, one
/// unjournalled and one with a journal that keeps nothing: `RECORDS`
/// 16-query `ServeBatch`es whose queries carry three attributes each, then
/// `RECORDS` per-click `AddCampaign`s with a click row, a purchase row and
/// a targeting text. Each record is built before its count starts, as a
/// decoded one would be. Returns the allocations of the batches and of the
/// adds, unjournalled then journalled.
fn journalled_records() -> [(u64, u64); 2] {
    const ADVERTISERS: usize = 200;
    const RECORDS: usize = 50;
    let batch = |round: usize| MutationRecord::ServeBatch {
        queries: (0..16)
            .map(|i| {
                let attrs = UserAttrs::new()
                    .geo(if i % 2 == 0 { "us" } else { "de" })
                    .device("mobile")
                    .set_int("age", 20 + i as i64);
                (((round + i) % KEYWORDS) as u64, attrs)
            })
            .collect(),
    };
    let add = |round: usize| {
        let advertiser = (round * 37) % ADVERTISERS;
        MutationRecord::AddCampaign {
            advertiser: advertiser as u64,
            keyword: (round % KEYWORDS) as u64,
            bid_cents: 1 + (round % 50) as i64,
            click_value_cents: 40,
            roi_target: None,
            click_probs: Some(advertiser_row(advertiser, ADVERTISERS)),
            purchase_probs: Some(vec![(0.1, 0.01); SLOTS]),
            targeting: Some("geo = 'us' and device = 'mobile'".into()),
        }
    };
    let count = |journal: Option<Discard>| {
        let mut market = served_market(ADVERTISERS, |adv, _| advertiser_row(adv, ADVERTISERS));
        if let Some(journal) = journal {
            market.set_journal(Box::new(journal));
        }
        // The first targeted campaign compiles the text, and the next
        // auctions grow their scratch for it; later campaigns share it.
        market.apply(add(RECORDS)).expect("campaign accepted");
        market.apply(batch(RECORDS)).expect("keywords in range");
        let (mut batches, mut adds) = (0, 0);
        for round in 0..RECORDS {
            let record = batch(round);
            let (served, allocations) = counted(|| market.apply(record));
            served.expect("keywords in range");
            batches += allocations;
        }
        for round in 0..RECORDS {
            let record = add(round);
            let (added, allocations) = counted(|| market.apply(record));
            added.expect("campaign accepted");
            adds += allocations;
        }
        (batches, adds)
    };
    [count(None), count(Some(Discard))]
}

/// Steady serves [`targeted_serves`] counts.
const TARGETED_SERVES: usize = 1_000;

/// The `engine-solve` shape with every campaign targeted at US mobile
/// visitors, served `TARGETED_SERVES` times round the keywords after as
/// many serves warmed every keyword's scratch up; the allocations of those
/// serves. Each request
/// is built before its count starts, as a decoded one would be.
fn targeted_serves() -> u64 {
    let mut market = Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(7)
        .build()
        .expect("valid configuration");
    for adv in 0..ADVERTISERS {
        let advertiser = market.register_advertiser(format!("advertiser-{adv}"));
        for keyword in 0..KEYWORDS {
            let bid = Money::from_cents(1 + ((adv * 31 + keyword * 17) % 50) as i64);
            let spec = CampaignSpec::per_click(bid)
                .click_probs(advertiser_row(adv, ADVERTISERS))
                .targeting("geo = 'us' and device = 'mobile'");
            market
                .add_campaign(advertiser, keyword, spec)
                .expect("campaign accepted");
        }
    }
    let request = |round: usize| {
        let attrs = UserAttrs::new()
            .geo("us")
            .device("mobile")
            .set_int("age", 21 + (round % 49) as i64);
        QueryRequest::with_attrs(round % KEYWORDS, attrs)
    };
    for round in 0..TARGETED_SERVES {
        market.serve(request(round)).expect("keyword in range");
    }
    let mut serves = 0;
    for round in TARGETED_SERVES..2 * TARGETED_SERVES {
        let query = request(round);
        let (served, allocations) = counted(|| market.serve(query));
        assert_eq!(served.expect("keyword in range").placements.len(), SLOTS);
        serves += allocations;
    }
    serves
}
