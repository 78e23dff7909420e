//! Who is asked for a table, and when.
//!
//! The engine keeps the last table every bidder produced. A *standing*
//! bidder ([`Bidder::is_standing`]) is asked once and then only after a
//! write through [`AuctionEngine::bidder_mut`]; a *program* is asked at
//! every auction it is matched and not paused, and told every outcome. The
//! counters here are on the bidders themselves, so they count calls the
//! engine actually made.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssa_bidlang::targeting::UserAttrs;
use ssa_bidlang::{BidsTable, Money};
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{
    AuctionEngine, Bidder, BidderOutcome, ClickModel, CompiledTargeting, EngineConfig,
    PurchaseModel, QueryContext,
};
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

/// A per-click bidder that counts its calls and is standing or a program
/// as told.
#[derive(Debug)]
struct Counting {
    cents: i64,
    standing: bool,
    calls: Calls,
}

impl Counting {
    fn new(cents: i64, standing: bool) -> (Self, Calls) {
        let calls = Calls::default();
        let bidder = Counting {
            cents,
            standing,
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

    fn is_standing(&self) -> bool {
        self.standing
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
fn a_standing_bidder_is_asked_once_per_write_and_never_told() {
    let (a, a_calls) = Counting::new(10, true);
    let (b, b_calls) = Counting::new(20, true);
    let mut engine = engine_of(vec![a, b]);
    let mut rng = StdRng::seed_from_u64(1);

    // The first auction asks everybody once; unchanged auctions nobody.
    let first = engine.run_batch(&[0usize; 5], &mut rng);
    assert_eq!((a_calls.asked(), b_calls.asked()), (1, 1));
    assert_eq!((first.phases.solves, first.phases.warm_solves), (1, 4));

    // A write that changes the table: that bidder is asked once, at the
    // next auction, and the auction solves.
    engine.bidder_mut(0).cents = 30;
    let changed = engine.run_batch(&[0usize; 3], &mut rng);
    assert_eq!((a_calls.asked(), b_calls.asked()), (2, 1));
    assert_eq!((changed.phases.solves, changed.phases.warm_solves), (1, 2));

    // Two writes before one auction are one question; a write of the value
    // already there is a question whose answer dirties nothing.
    engine.bidder_mut(1).cents = 25;
    engine.bidder_mut(1).cents = 20;
    let same = engine.run_batch(&[0usize; 3], &mut rng);
    assert_eq!((a_calls.asked(), b_calls.asked()), (2, 2));
    assert_eq!((same.phases.solves, same.phases.warm_solves), (0, 3));

    // With warm starts off every auction refills and solves — from the
    // tables the engine holds: nobody is asked.
    engine.config.warm_start = false;
    let cold = engine.run_batch(&[0usize; 3], &mut rng);
    assert_eq!((a_calls.asked(), b_calls.asked()), (2, 2));
    assert_eq!((cold.phases.solves, cold.phases.warm_solves), (3, 0));

    // A bidder added to the warm engine is asked at the next auction; the
    // ones already there are not asked again.
    let (c, c_calls) = Counting::new(5, true);
    engine.config.warm_start = true;
    engine.push_bidder(c, &CLICKS, None, None);
    let grown = engine.run_batch(&[0usize; 2], &mut rng);
    assert_eq!(
        (a_calls.asked(), b_calls.asked(), c_calls.asked()),
        (2, 2, 1)
    );
    assert_eq!((grown.phases.solves, grown.phases.warm_solves), (1, 1));
    assert_eq!(grown.filled_slots, 4, "three bidders, two slots");

    assert_eq!(
        (a_calls.told(), b_calls.told(), c_calls.told()),
        (0, 0, 0),
        "standing bidders do not listen"
    );
}

#[test]
fn a_program_is_asked_at_every_auction_it_is_matched() {
    let (standing, standing_calls) = Counting::new(10, true);
    let (program, program_calls) = Counting::new(20, false);
    let mut engine = engine_of(vec![standing, program]);
    // A targeted program and a targeted standing bidder join later.
    let mobile = || {
        Some(Arc::new(
            CompiledTargeting::parse("device = 'mobile'").unwrap(),
        ))
    };
    let (targeted, targeted_calls) = Counting::new(30, false);
    let (fixed, fixed_calls) = Counting::new(40, true);
    engine.push_bidder(targeted, &CLICKS, None, mobile());
    engine.push_bidder(fixed, &CLICKS, None, mobile());

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
    assert_eq!(standing_calls.asked(), 1);
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
        fixed_calls.asked(),
        2,
        "a targeted standing bidder likewise"
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
