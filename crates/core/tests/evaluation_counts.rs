//! Who is asked for a table, and when.
//!
//! A *standing* campaign (per-click or a fixed table) is read, not asked:
//! the keyword engine holds no copy of its table, reads it off the campaign
//! when it needs it, and re-solves after a write only if the write changed
//! it — it has no program to ask. A *program* is asked at every auction it
//! is matched and not paused, and told every outcome. The counters here are
//! on the programs themselves, so they count calls the engine actually
//! made.

use ssa_bidlang::targeting::UserAttrs;
use ssa_bidlang::{BidsTable, Money};
use ssa_core::marketplace::{CampaignId, CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{AuctionResponse, BatchReport, Bidder, BidderOutcome, QueryContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls the engine made to one program.
#[derive(Debug, Clone, Default)]
struct Calls {
    asked: Arc<AtomicU64>,
    told: Arc<AtomicU64>,
}

impl Calls {
    fn asked(&self) -> u64 {
        self.asked.load(Ordering::Relaxed)
    }

    fn told(&self) -> u64 {
        self.told.load(Ordering::Relaxed)
    }
}

/// A per-click program that counts the engine's questions and
/// notifications.
#[derive(Debug)]
struct Counting {
    cents: i64,
    calls: Calls,
}

impl Counting {
    fn new(cents: i64) -> (Self, Calls) {
        let calls = Calls::default();
        let bidder = Counting {
            cents,
            calls: calls.clone(),
        };
        (bidder, calls)
    }
}

impl Bidder for Counting {
    fn on_query(&mut self, _ctx: &QueryContext) -> BidsTable {
        self.calls.asked.fetch_add(1, Ordering::Relaxed);
        BidsTable::single_feature(Money::from_cents(self.cents))
    }

    fn on_outcome(&mut self, _ctx: &QueryContext, _outcome: &BidderOutcome) {
        self.calls.told.fetch_add(1, Ordering::Relaxed);
    }
}

const CLICKS: [f64; 2] = [0.6, 0.3];

/// A one-keyword market over two slots whose campaigns default to
/// [`CLICKS`].
fn small_market(warm_start: bool) -> Marketplace {
    Marketplace::builder()
        .slots(2)
        .keywords(1)
        .seed(1)
        .warm_start(warm_start)
        .default_click_probs(CLICKS.to_vec())
        .build()
        .expect("valid configuration")
}

fn add(market: &mut Marketplace, spec: CampaignSpec) -> CampaignId {
    let advertiser = market.register_advertiser("a");
    market.add_campaign(advertiser, 0, spec).expect("accepted")
}

fn per_click(cents: i64) -> CampaignSpec {
    CampaignSpec::per_click(Money::from_cents(cents))
}

/// Serves `auctions` queries on keyword 0 as one batch.
fn serve_run(market: &mut Marketplace, auctions: usize) -> BatchReport {
    let queries = vec![QueryRequest::new(0); auctions];
    market
        .serve_batch(&queries)
        .expect("keyword 0 exists")
        .total
}

#[test]
fn a_standing_bidder_is_read_not_asked_and_never_told() {
    let mut market = small_market(true);
    let a = add(&mut market, per_click(10));
    let b = add(&mut market, per_click(20));

    // The first auction reads everybody and solves; unchanged auctions
    // are warm.
    let first = serve_run(&mut market, 5);
    assert_eq!((first.phases.solves, first.phases.warm_solves), (1, 4));

    // A write that changes the table: the next auction solves.
    market.update_bid(a, Money::from_cents(30)).unwrap();
    let changed = serve_run(&mut market, 3);
    assert_eq!((changed.phases.solves, changed.phases.warm_solves), (1, 2));

    // Two writes before one auction are compared as one; writes that end
    // on the value already there dirty nothing.
    market.update_bid(b, Money::from_cents(25)).unwrap();
    market.update_bid(b, Money::from_cents(20)).unwrap();
    let same = serve_run(&mut market, 3);
    assert_eq!((same.phases.solves, same.phases.warm_solves), (0, 3));

    // A campaign added to the warm engine is read at the next auction.
    add(&mut market, per_click(5));
    let grown = serve_run(&mut market, 2);
    assert_eq!((grown.phases.solves, grown.phases.warm_solves), (1, 1));
    assert_eq!(grown.filled_slots, 4, "three campaigns, two slots");

    // A market built with warm starts off refills from every row and
    // solves at every auction.
    let mut cold_market = small_market(false);
    add(&mut cold_market, per_click(10));
    add(&mut cold_market, per_click(20));
    let cold = serve_run(&mut cold_market, 3);
    assert_eq!((cold.phases.solves, cold.phases.warm_solves), (3, 0));
}

#[test]
fn a_program_is_asked_at_every_auction_it_is_matched() {
    let mut market = small_market(true);
    add(&mut market, per_click(10));
    let (program, program_calls) = Counting::new(20);
    add(&mut market, CampaignSpec::program(Box::new(program)));
    // A targeted program and a targeted standing campaign join later.
    let mobile = "device = 'mobile'";
    let (targeted, targeted_calls) = Counting::new(30);
    add(
        &mut market,
        CampaignSpec::program(Box::new(targeted)).targeting(mobile),
    );
    add(&mut market, per_click(40).targeting(mobile));

    let mobile_user = UserAttrs::new().set_str("device", "mobile");
    let desktop_user = UserAttrs::new().set_str("device", "desktop");
    for (auction, attrs) in [&mobile_user, &desktop_user, &desktop_user, &mobile_user]
        .into_iter()
        .enumerate()
    {
        let request = QueryRequest::with_attrs(0, attrs.clone());
        let response = market.serve(request).expect("keyword 0 exists");
        let matched = attrs == &mobile_user;
        let shown: Vec<usize> = response
            .placements
            .iter()
            .map(|p| p.campaign.index())
            .collect();
        assert_eq!(
            shown,
            if matched { vec![3, 2] } else { vec![1, 0] },
            "auction {auction}"
        );
    }
    assert_eq!(
        program_calls.asked(),
        4,
        "an untargeted program: every auction"
    );
    assert_eq!(
        targeted_calls.asked(),
        2,
        "a targeted program: matched auctions"
    );
    // Programs hear every outcome, matched or not.
    assert_eq!(program_calls.told(), 4);
    assert_eq!(targeted_calls.told(), 4);
}

#[test]
fn a_paused_program_campaign_is_not_run() {
    let mut market = Marketplace::builder()
        .slots(2)
        .default_click_probs(CLICKS.to_vec())
        .build()
        .expect("valid configuration");
    let advertiser = market.register_advertiser("a");
    let (program, calls) = Counting::new(20);
    let id = market
        .add_campaign(advertiser, 0, CampaignSpec::program(Box::new(program)))
        .expect("accepted");
    market
        .add_campaign(advertiser, 0, CampaignSpec::per_click(Money::from_cents(5)))
        .expect("accepted");
    let serve = |market: &mut Marketplace| market.serve(QueryRequest::new(0)).expect("in range");

    assert_eq!(serve(&mut market).placements[0].campaign, id);
    serve(&mut market);
    assert_eq!((calls.asked(), calls.told()), (2, 2));

    market.pause_campaign(id).expect("known campaign");
    for _ in 0..3 {
        let response = serve(&mut market);
        assert!(response.placements.iter().all(|p| p.campaign != id));
    }
    assert_eq!((calls.asked(), calls.told()), (2, 2), "paused: not run");

    market.resume_campaign(id).expect("known campaign");
    assert_eq!(serve(&mut market).placements[0].campaign, id);
    assert_eq!((calls.asked(), calls.told()), (3, 3));
}

// ---------------------------------------------------------------------------
// What an auction evaluates at benchmark scale (5 000 campaigns, 15 slots).
// ---------------------------------------------------------------------------
//
// On its default path a keyword engine holds no revenue matrix: it keeps
// each slot's best rows current from the rows that changed and evaluates
// weights only for those rows and for rows that newly become candidates.
// The tests below count the cells it evaluated (`PhaseStats::cells_evaluated`,
// an exact count) and hold its candidates, assignment and charges against
// the dense oracle — `revenue_matrix` of the tables the engine must be
// holding.

use ssa_core::pricing::gsp_prices;
use ssa_core::{revenue_matrix, ClickModel, PhaseStats, PurchaseModel};
use ssa_matching::{reduced_assignment, reduced_candidates};

const N: usize = 5_000;
const K: usize = 15;

/// A seeded xorshift stream.
struct Stream(u64);

impl Stream {
    fn below(&mut self, m: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % m as u64) as usize
    }
}

fn table(cents: i64) -> BidsTable {
    BidsTable::single_feature(Money::from_cents(cents))
}

/// Campaign `row` of the one keyword.
fn id(row: usize) -> CampaignId {
    CampaignId::from_parts(0, row)
}

/// A one-keyword market of `N` per-click campaigns whose click
/// probabilities do not factor into advertiser × slot, so every slot ranks
/// them differently and the reduced graph has several dozen rows. The last
/// `targeted` of them bid for mobile visitors only. Returns the market, the
/// campaigns' bids and their click rows.
fn big_market(
    stream: &mut Stream,
    targeted: usize,
    pruned: bool,
    seed: u64,
) -> (Marketplace, Vec<i64>, Vec<Vec<f64>>) {
    let cents: Vec<i64> = (0..N).map(|_| 1 + stream.below(50) as i64).collect();
    let probs: Vec<Vec<f64>> = (0..N)
        .map(|_| {
            (0..K)
                .map(|j| {
                    (0.05 + 0.9 * stream.below(1 << 20) as f64 / (1 << 20) as f64) / (j + 1) as f64
                })
                .collect()
        })
        .collect();
    let mut market = Marketplace::builder()
        .slots(K)
        .keywords(1)
        .seed(seed)
        .pruned(pruned)
        .build()
        .expect("valid configuration");
    let advertiser = market.register_advertiser("a");
    for (row, (&c, probs)) in cents.iter().zip(&probs).enumerate() {
        let mut spec = per_click(c).click_probs(probs.clone());
        if row >= N - targeted {
            spec = spec.targeting("device = 'mobile'");
        }
        market.add_campaign(advertiser, 0, spec).expect("accepted");
    }
    (market, cents, probs)
}

/// Sets campaign `row` of `market` to bid `cents` per click, unpaused.
fn bid(market: &mut Marketplace, row: usize, cents: i64) {
    market.resume_campaign(id(row)).expect("known campaign");
    market
        .update_bid(id(row), Money::from_cents(cents))
        .expect("a per-click campaign");
}

/// Serves one query on `markets[0]` for its response and on its twin —
/// same campaigns, same writes, same RNG position — for the tallies.
fn serve_both(markets: &mut [Marketplace; 2], attrs: &UserAttrs) -> (AuctionResponse, PhaseStats) {
    let [solo, tallied] = markets;
    let request = QueryRequest::with_attrs(0, attrs.clone());
    let response = solo.serve(request.clone()).expect("keyword 0 exists");
    let report = tallied.serve_batch(&[request]).expect("keyword 0 exists");
    (response, report.total.phases)
}

/// Who sits in each of the `K` slots, by row, and whether each slot's ad
/// was clicked.
fn seats(response: &AuctionResponse) -> (Vec<Option<usize>>, Vec<bool>) {
    let (mut seated, mut clicked) = (vec![None; K], vec![false; K]);
    for placement in &response.placements {
        seated[placement.slot.index0()] = Some(placement.campaign.index());
        clicked[placement.slot.index0()] = placement.clicked;
    }
    (seated, clicked)
}

#[test]
fn an_auction_evaluates_the_changed_rows_and_the_newcomers_and_matches_the_dense_oracle() {
    const TARGETED: usize = 100;
    let mut stream = Stream(0x5EED_CAFE);
    let (solo, cents, probs) = big_market(&mut Stream(7), TARGETED, false, 5);
    let (tallied, ..) = big_market(&mut Stream(7), TARGETED, false, 5);
    let mut markets = [solo, tallied];
    let clicks = ClickModel::from_rows(&probs).unwrap();
    let purchases = PurchaseModel::never(N, K);
    let mobile = UserAttrs::new().set_str("device", "mobile");
    let desktop = UserAttrs::new().set_str("device", "desktop");

    // What each campaign would answer, and what the engine must be holding:
    // the answer, or nothing for a targeted campaign the query missed.
    let mut answers: Vec<BidsTable> = cents.iter().map(|&c| table(c)).collect();
    let mut held: Vec<BidsTable> = vec![BidsTable::empty(); N];
    let mut candidates: Vec<usize> = Vec::new();
    let (mut cold_auctions, mut rescans) = (0, 0);
    for auction in 0..160 {
        // A new bid, a pause, the first bid back, or nothing.
        let row = stream.below(N);
        match stream.below(10) {
            0..=5 => {
                let cents = 1 + stream.below(60) as i64;
                for market in &mut markets {
                    bid(market, row, cents);
                }
                answers[row] = table(cents);
            }
            6 => {
                for market in &mut markets {
                    market.pause_campaign(id(row)).expect("known campaign");
                }
                answers[row] = BidsTable::empty();
            }
            7 => {
                for market in &mut markets {
                    bid(market, row, cents[row]);
                }
                answers[row] = table(cents[row]);
            }
            _ => {}
        }
        let attrs = if stream.below(8) == 0 {
            &desktop
        } else {
            &mobile
        };
        let (response, phases) = serve_both(&mut markets, attrs);
        let (seated, clicked) = seats(&response);

        let now: Vec<BidsTable> = (0..N)
            .map(|i| {
                if i >= N - TARGETED && attrs == &desktop {
                    BidsTable::empty()
                } else {
                    answers[i].clone()
                }
            })
            .collect();
        let changed = (0..N).filter(|&i| now[i] != held[i]).count();
        held = now;

        // The dense oracle.
        let (matrix, base) = revenue_matrix(&held, &clicks, &purchases);
        let want = reduced_assignment(&matrix);
        assert_eq!(want.candidates, reduced_candidates(&matrix));
        assert_eq!(seated, want.assignment.slot_to_adv, "auction {auction}");
        assert_eq!(
            response.expected_revenue.to_bits(),
            (base.total_base + want.assignment.total_weight).to_bits()
        );
        let prices = gsp_prices(&matrix, &want.assignment, &|adv, slot| {
            clicks.row(adv)[slot]
        });
        let charges: Vec<(CampaignId, Money)> = prices
            .iter()
            .filter(|p| clicked[p.slot])
            .map(|p| (id(p.winner), Money::from_f64_rounded(p.amount)))
            .filter(|(_, m)| m.is_positive())
            .collect();
        assert_eq!(response.charges, charges, "auction {auction}");

        // The cells it took.
        let newcomers = want
            .candidates
            .iter()
            .filter(|id| candidates.binary_search(id).is_err())
            .count();
        if changed == 0 {
            assert_eq!((phases.solves, phases.warm_solves), (0, 1));
            assert_eq!(phases.cells_evaluated, 0, "auction {auction}");
        } else {
            assert_eq!(
                (phases.solves, phases.candidates),
                (1, want.candidates.len() as u64)
            );
            if auction == 0 {
                assert_eq!(phases.cells_evaluated, ((N + newcomers) * K) as u64);
                cold_auctions += 1;
            } else if phases.rescans == 0 {
                assert!(
                    phases.cells_evaluated <= ((changed + newcomers) * K) as u64,
                    "auction {auction}: {} cells for {changed} changed rows and {newcomers} newcomers",
                    phases.cells_evaluated
                );
            }
            candidates = want.candidates;
        }
        rescans += phases.rescans;
    }
    assert_eq!(cold_auctions, 1);
    // The targeted rows leave and rejoin the lists as visitors come and go;
    // with a hundred of them among five thousand no list runs short.
    assert_eq!(rescans, 0);
}

/// The exact cost counters of a tally: everything but the timings.
fn counters(p: &PhaseStats) -> [u64; 5] {
    [
        p.solves,
        p.warm_solves,
        p.candidates,
        p.cells_evaluated,
        p.rescans,
    ]
}

/// The `engine-solve` benchmark's traffic: one bid write, then one auction.
/// Exact counts of a seeded stream, printed for the `perf-smoke` CI job.
/// `rh` with pruning on serves the same stream off the same lists: its
/// counters are the unpruned market's, auction by auction.
#[test]
fn a_write_then_serve_stream_evaluates_a_few_rows_an_auction_and_rescans_rarely() {
    const AUCTIONS: u64 = 6_000;
    let mut stream = Stream(0xB1D_5EED);
    let (mut market, ..) = big_market(&mut Stream(11), 0, false, 9);
    let (mut pruned_market, ..) = big_market(&mut Stream(11), 0, true, 9);
    serve_run(&mut market, 1);
    serve_run(&mut pruned_market, 1);

    let mut total = PhaseStats::default();
    for auction in 0..AUCTIONS {
        let row = stream.below(N);
        let cents = Money::from_cents(1 + stream.below(60) as i64);
        market.update_bid(id(row), cents).unwrap();
        pruned_market.update_bid(id(row), cents).unwrap();
        let report = serve_run(&mut market, 1);
        let pruned_report = serve_run(&mut pruned_market, 1);
        assert_eq!(pruned_report, report, "auction {auction}");
        let phases = report.phases;
        assert_eq!(
            counters(&pruned_report.phases),
            counters(&phases),
            "auction {auction}: pruned `rh` left the lists"
        );
        if phases.rescans == 0 {
            assert!(phases.cells_evaluated < (N * K) as u64, "never n × k");
        }
        total.absorb(&phases);
    }
    // A rescan evaluates every row once more, on top of the auction's own.
    let steady = total.cells_evaluated - total.rescans * (N * K) as u64;
    let cells_per_auction = steady as f64 / AUCTIONS as f64;
    let rescans_per_1000 = total.rescans as f64 * 1e3 / AUCTIONS as f64;
    println!(
        "{{\"metric\":\"cells_per_written_auction\",\"auctions\":{AUCTIONS},\"value\":{cells_per_auction:.2}}}"
    );
    println!(
        "{{\"metric\":\"rescans_per_1000_auctions\",\"auctions\":{AUCTIONS},\"value\":{rescans_per_1000:.3}}}"
    );
    // Each auction wrote one row; a write rarely changes who is a candidate.
    assert!(
        cells_per_auction <= 2.0 * K as f64,
        "{cells_per_auction:.2} cells per written auction, {} allowed",
        2 * K
    );
    // A rebuilt list holds 2(k + 1) rows and runs short below k + 1, so
    // k + 1 writes must each take a row off it first; in this traffic far
    // fewer writes do.
    assert!(total.rescans * (K as u64 + 1) <= AUCTIONS);
    assert!(
        rescans_per_1000 <= 2.0,
        "{rescans_per_1000:.3} rescans per 1000 auctions, 2 allowed"
    );
}

/// Pausing the leaders one by one empties the lists from the top: with two
/// slots a list holds six rows and runs short below three, so every fourth
/// pause — and no other — rebuilds the order from all rows. Outcomes are a
/// cold twin's throughout.
#[test]
fn a_list_that_runs_short_is_rebuilt_from_every_row() {
    let (n, k) = (60usize, 2usize);
    let build = |warm_start| {
        let mut market = Marketplace::builder()
            .slots(k)
            .keywords(1)
            .seed(1)
            .warm_start(warm_start)
            .default_click_probs((0..k).map(|j| 0.5 / (j + 1) as f64).collect())
            .build()
            .expect("valid configuration");
        let advertiser = market.register_advertiser("a");
        for i in 0..n {
            let spec = per_click(100 - i as i64);
            market.add_campaign(advertiser, 0, spec).expect("accepted");
        }
        market
    };
    let mut markets = [build(true), build(true), build(false)];
    let serve = |markets: &mut [Marketplace; 3]| {
        let [solo, tallied, cold] = markets;
        assert_eq!(
            solo.serve(QueryRequest::new(0)).unwrap(),
            cold.serve(QueryRequest::new(0)).unwrap()
        );
        serve_run(tallied, 1).phases
    };
    serve(&mut markets);
    for leader in 0..12 {
        for market in &mut markets {
            market.pause_campaign(id(leader)).expect("known campaign");
        }
        let phases = serve(&mut markets);
        let rescan = leader % 4 == 3;
        assert_eq!(phases.rescans, u64::from(rescan), "pause {leader}");
        // The paused row; on a rescan every row again, and then the whole
        // reduced graph of k rows (the rebuild forgets the rows it held);
        // otherwise the one row that moved up into it.
        let (rebuilt, newcomers) = if rescan { (n, k) } else { (0, 1) };
        assert_eq!(
            phases.cells_evaluated,
            ((1 + rebuilt + newcomers) * k) as u64,
            "pause {leader}"
        );
    }
}
