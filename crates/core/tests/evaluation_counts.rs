//! Who is asked for a table, and when.
//!
//! A *standing* bidder ([`Bidder::standing_table`] is `Some`) is read, not
//! asked: the engine holds no copy of its table, reads it off the bidder
//! when it needs it, and re-solves after a write through
//! [`AuctionEngine::bidder_mut`] only if the write changed it — it never
//! calls [`Bidder::on_query`] on it. A *program* is asked at every auction
//! it is matched and not paused, and told every outcome. The counters here
//! are on the bidders themselves, so they count calls the engine actually
//! made.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssa_bidlang::targeting::UserAttrs;
use ssa_bidlang::{BidsTable, Money};
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{
    AuctionEngine, Bidder, BidderOutcome, ClickModel, CompiledTargeting, EngineConfig,
    PurchaseModel, QueryContext,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls the engine made to one bidder.
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

/// A per-click bidder that counts the engine's questions and
/// notifications, is standing (its table is read through
/// [`Bidder::standing_table`], so it is never asked) or a program as told,
/// and may target.
#[derive(Debug)]
struct Counting {
    cents: i64,
    standing: bool,
    calls: Calls,
    targeting: Option<Arc<CompiledTargeting>>,
}

impl Counting {
    fn new(cents: i64, standing: bool) -> (Self, Calls) {
        let calls = Calls::default();
        let bidder = Counting {
            cents,
            standing,
            calls: calls.clone(),
            targeting: None,
        };
        (bidder, calls)
    }

    fn targeted(self, matcher: Arc<CompiledTargeting>) -> Self {
        Counting {
            targeting: Some(matcher),
            ..self
        }
    }
}

impl Counting {
    fn table(&self) -> BidsTable {
        BidsTable::single_feature(Money::from_cents(self.cents))
    }
}

impl Bidder for Counting {
    fn on_query(&mut self, _ctx: &QueryContext) -> BidsTable {
        self.calls.asked.fetch_add(1, Ordering::Relaxed);
        self.table()
    }

    fn on_outcome(&mut self, _ctx: &QueryContext, _outcome: &BidderOutcome) {
        self.calls.told.fetch_add(1, Ordering::Relaxed);
    }

    fn standing_table(&self) -> Option<Cow<'_, BidsTable>> {
        self.standing.then(|| Cow::Owned(self.table()))
    }

    fn targeting(&self) -> Option<&CompiledTargeting> {
        self.targeting.as_deref()
    }
}

const CLICKS: [f64; 2] = [0.6, 0.3];

fn engine_of(bidders: Vec<Counting>) -> AuctionEngine<Counting> {
    let n = bidders.len();
    AuctionEngine::new(
        bidders,
        ClickModel::from_fn(n, 2, |_, j| CLICKS[j]),
        PurchaseModel::never(n, 2),
        1,
        EngineConfig::default(),
    )
}

#[test]
fn a_standing_bidder_is_read_not_asked_and_never_told() {
    let (a, a_calls) = Counting::new(10, true);
    let (b, b_calls) = Counting::new(20, true);
    let mut engine = engine_of(vec![a, b]);
    let mut rng = StdRng::seed_from_u64(1);

    // The first auction reads everybody and solves; unchanged auctions
    // are warm.
    let first = engine.run_batch(&[0usize; 5], &mut rng);
    assert_eq!((first.phases.solves, first.phases.warm_solves), (1, 4));

    // A write that changes the table: the next auction solves.
    engine.bidder_mut(0).cents = 30;
    let changed = engine.run_batch(&[0usize; 3], &mut rng);
    assert_eq!((changed.phases.solves, changed.phases.warm_solves), (1, 2));

    // Two writes before one auction are compared as one; writes that end
    // on the value already there dirty nothing.
    engine.bidder_mut(1).cents = 25;
    engine.bidder_mut(1).cents = 20;
    let same = engine.run_batch(&[0usize; 3], &mut rng);
    assert_eq!((same.phases.solves, same.phases.warm_solves), (0, 3));

    // With warm starts off every auction refills from every row and
    // solves.
    engine.config.warm_start = false;
    let cold = engine.run_batch(&[0usize; 3], &mut rng);
    assert_eq!((cold.phases.solves, cold.phases.warm_solves), (3, 0));

    // A bidder added to the warm engine is read at the next auction.
    let (c, c_calls) = Counting::new(5, true);
    engine.config.warm_start = true;
    engine.push_bidder(c, &CLICKS, None);
    let grown = engine.run_batch(&[0usize; 2], &mut rng);
    assert_eq!((grown.phases.solves, grown.phases.warm_solves), (1, 1));
    assert_eq!(grown.filled_slots, 4, "three bidders, two slots");

    for calls in [&a_calls, &b_calls, &c_calls] {
        assert_eq!(
            (calls.asked(), calls.told()),
            (0, 0),
            "standing bidders are read, not asked, and do not listen"
        );
    }
}

#[test]
fn a_program_is_asked_at_every_auction_it_is_matched() {
    let (standing, standing_calls) = Counting::new(10, true);
    let (program, program_calls) = Counting::new(20, false);
    let mut engine = engine_of(vec![standing, program]);
    // A targeted program and a targeted standing bidder join later.
    let mobile = || Arc::new(CompiledTargeting::parse("device = 'mobile'").unwrap());
    let (targeted, targeted_calls) = Counting::new(30, false);
    let (fixed, fixed_calls) = Counting::new(40, true);
    engine.push_bidder(targeted.targeted(mobile()), &CLICKS, None);
    engine.push_bidder(fixed.targeted(mobile()), &CLICKS, None);

    let mut rng = StdRng::seed_from_u64(2);
    let mobile_user = UserAttrs::new().set_str("device", "mobile");
    let desktop_user = UserAttrs::new().set_str("device", "desktop");
    for (auction, attrs) in [&mobile_user, &desktop_user, &desktop_user, &mobile_user]
        .into_iter()
        .enumerate()
    {
        let report = engine.run_auction((0usize, attrs), &mut rng);
        let matched = attrs == &mobile_user;
        let shown: Vec<usize> = report
            .assignment
            .slot_to_adv
            .iter()
            .flatten()
            .copied()
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
    assert_eq!(
        (standing_calls.asked(), fixed_calls.asked()),
        (0, 0),
        "a standing bidder is read, targeted or not"
    );
    // Programs hear every outcome, matched or not; standing bidders none.
    assert_eq!(program_calls.told(), 4);
    assert_eq!(targeted_calls.told(), 4);
    assert_eq!((standing_calls.told(), fixed_calls.told()), (0, 0));
}

#[test]
fn a_paused_program_campaign_is_not_run() {
    let mut market = Marketplace::builder()
        .slots(2)
        .default_click_probs(CLICKS.to_vec())
        .build()
        .expect("valid configuration");
    let advertiser = market.register_advertiser("a");
    let (program, calls) = Counting::new(20, false);
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
// What an auction evaluates at benchmark scale (5 000 bidders, 15 slots).
// ---------------------------------------------------------------------------
//
// On its default path the engine holds no revenue matrix: it keeps each
// slot's best rows current from the rows that changed and evaluates weights
// only for those rows and for rows that newly become candidates. The tests
// below count the cells it evaluated (`PhaseStats::cells_evaluated`, an exact
// count) and hold its candidates, assignment and charges against the dense
// oracle — `revenue_matrix` of the tables the engine must be holding.

use ssa_core::pricing::gsp_prices;
use ssa_core::{revenue_matrix, AuctionReport, PhaseStats, TableBidder};
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

fn per_click(cents: i64) -> BidsTable {
    BidsTable::single_feature(Money::from_cents(cents))
}

/// `N` per-click bidders whose click probabilities do not factor into
/// advertiser × slot, so every slot ranks them differently and the reduced
/// graph has several dozen rows. The last `targeted` of them bid for mobile
/// visitors only.
fn big_engine(stream: &mut Stream, targeted: usize) -> (AuctionEngine<TableBidder>, Vec<i64>) {
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
    let open = N - targeted;
    let mut engine = AuctionEngine::new(
        cents[..open]
            .iter()
            .map(|&c| TableBidder::new(per_click(c)))
            .collect(),
        ClickModel::from_rows(&probs[..open]),
        PurchaseModel::never(open, K),
        1,
        EngineConfig::default(),
    );
    let mobile = Arc::new(CompiledTargeting::parse("device = 'mobile'").unwrap());
    for row in open..N {
        let targeting = Some(mobile.clone());
        let bidder = TableBidder {
            targeting,
            ..TableBidder::new(per_click(cents[row]))
        };
        engine.push_bidder(bidder, &probs[row], None);
    }
    (engine, cents)
}

/// Serves one query on `engine` for its report and on its twin — same
/// bidders, same writes, same RNG position — for the tallies.
fn serve_both(
    engines: &mut [AuctionEngine<TableBidder>; 2],
    rngs: &mut [StdRng; 2],
    attrs: &UserAttrs,
) -> (AuctionReport, PhaseStats) {
    let [solo, tallied] = engines;
    let report = solo.run_auction((0usize, attrs), &mut rngs[0]);
    let phases = tallied.run_batch(&[(0usize, attrs)], &mut rngs[1]).phases;
    (report, phases)
}

#[test]
fn an_auction_evaluates_the_changed_rows_and_the_newcomers_and_matches_the_dense_oracle() {
    const TARGETED: usize = 100;
    let mut stream = Stream(0x5EED_CAFE);
    let (solo, cents) = big_engine(&mut Stream(7), TARGETED);
    let (tallied, _) = big_engine(&mut Stream(7), TARGETED);
    let mut engines = [solo, tallied];
    let mut rngs = [StdRng::seed_from_u64(5), StdRng::seed_from_u64(5)];
    let mobile = UserAttrs::new().set_str("device", "mobile");
    let desktop = UserAttrs::new().set_str("device", "desktop");

    // What each bidder would answer, and what the engine must be holding:
    // the answer, or nothing for a targeted bidder the query missed.
    let mut answers: Vec<BidsTable> = cents.iter().map(|&c| per_click(c)).collect();
    let mut held: Vec<BidsTable> = vec![BidsTable::empty(); N];
    let mut candidates: Vec<usize> = Vec::new();
    let (mut cold_auctions, mut rescans) = (0, 0);
    for auction in 0..160 {
        // A write, a pause, a resume, or nothing.
        let row = stream.below(N);
        let written = match stream.below(10) {
            0..=5 => Some(per_click(1 + stream.below(60) as i64)),
            6 => Some(BidsTable::empty()),
            7 => Some(per_click(cents[row])),
            _ => None,
        };
        if let Some(table) = written {
            for engine in &mut engines {
                engine.bidder_mut(row).bids = table.clone();
            }
            answers[row] = table;
        }
        let attrs = if stream.below(8) == 0 {
            &desktop
        } else {
            &mobile
        };
        let (report, phases) = serve_both(&mut engines, &mut rngs, attrs);

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
        let (clicks, purchases) = (engines[0].clicks(), engines[0].purchases());
        let (matrix, base) = revenue_matrix(&held, clicks, purchases);
        let want = reduced_assignment(&matrix);
        assert_eq!(want.candidates, reduced_candidates(&matrix));
        assert_eq!(report.assignment, want.assignment, "auction {auction}");
        assert_eq!(
            report.expected_revenue.to_bits(),
            (base.total_base + want.assignment.total_weight).to_bits()
        );
        let prices = gsp_prices(&matrix, &want.assignment, &|adv, slot| {
            clicks.row(adv)[slot]
        });
        let charges: Vec<(usize, Money)> = prices
            .iter()
            .filter(|p| report.clicked[p.slot])
            .map(|p| (p.winner, Money::from_f64_rounded(p.amount)))
            .filter(|(_, m)| m.is_positive())
            .collect();
        assert_eq!(report.charges, charges, "auction {auction}");

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

/// The `engine-solve` benchmark's traffic: one bid write, then one auction.
/// Exact counts of a seeded stream, printed for the `perf-smoke` CI job.
#[test]
fn a_write_then_serve_stream_evaluates_a_few_rows_an_auction_and_rescans_rarely() {
    const AUCTIONS: u64 = 6_000;
    let mut stream = Stream(0xB1D_5EED);
    let (mut engine, _) = big_engine(&mut Stream(11), 0);
    let mut rng = StdRng::seed_from_u64(9);
    engine.run_batch(&[0usize], &mut rng);

    let mut total = PhaseStats::default();
    for _ in 0..AUCTIONS {
        let row = stream.below(N);
        engine.bidder_mut(row).bids = per_click(1 + stream.below(60) as i64);
        let phases = engine.run_batch(&[0usize], &mut rng).phases;
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
        AuctionEngine::new(
            (0..n)
                .map(|i| TableBidder::new(per_click(100 - i as i64)))
                .collect(),
            ClickModel::from_fn(n, k, |_, j| 0.5 / (j + 1) as f64),
            PurchaseModel::never(n, k),
            1,
            EngineConfig {
                warm_start,
                ..EngineConfig::default()
            },
        )
    };
    let mut engines = [build(true), build(true), build(false)];
    let mut rngs = [1, 1, 1].map(StdRng::seed_from_u64);
    let mut serve = |engines: &mut [AuctionEngine<TableBidder>; 3]| {
        let [solo, tallied, cold] = engines;
        assert_eq!(
            solo.run_auction(0usize, &mut rngs[0]),
            cold.run_auction(0usize, &mut rngs[2])
        );
        tallied.run_batch(&[0usize], &mut rngs[1]).phases
    };
    serve(&mut engines);
    for leader in 0..12 {
        for engine in &mut engines {
            engine.bidder_mut(leader).bids = BidsTable::empty();
        }
        let phases = serve(&mut engines);
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
