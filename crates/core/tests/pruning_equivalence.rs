//! Pruning- and warm-start-invariance: top-k pruned winner determination
//! ([`EngineConfig::pruned`]) and warm-started assignments
//! ([`EngineConfig::warm_start`]) are **execution strategies, not semantic
//! ones** — on random marketplaces and query streams they must produce
//! bit-identical winner sets, clicks, and charges to the full cold solve,
//! for every [`WdMethod`], sharded and unsharded, across incremental bid
//! updates.
//!
//! Why pruning is exact: the pruned solver keeps every advertiser whose
//! weight ties the per-slot top-k floor, so any advertiser it drops is
//! *strictly* below k better advertisers in every slot and appears in no
//! optimal assignment; candidate reindexing is monotone, so each inner
//! solver's deterministic tie-breaking is preserved. Why warm starts are
//! exact: solvers are deterministic and draw no randomness, so when no
//! bids table changed since the engine's previous auction the previous
//! assignment *is* the solution.
//!
//! [`EngineConfig::pruned`]: ssa_core::EngineConfig
//! [`EngineConfig::warm_start`]: ssa_core::EngineConfig

use proptest::prelude::*;
use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{MarketplaceBuilder, WdMethod};

const SHARD_COUNTS: [usize; 2] = [1, 4];

const METHODS: [WdMethod; 3] = [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced];

/// A random marketplace population plus a random query stream (the
/// `sharding.rs` scenario, reused for the pruning/warm-start axes).
#[derive(Debug, Clone)]
struct Scenario {
    num_keywords: usize,
    num_slots: usize,
    seed: u64,
    method: WdMethod,
    /// `(advertiser, keyword, bid cents)` campaign registrations.
    campaigns: Vec<(usize, usize, i64)>,
    /// Keyword per query, in stream order.
    stream: Vec<usize>,
    /// `(campaign index, new bid cents)` incremental updates applied
    /// between the two halves of the stream — these dirty exactly one
    /// bidder's row, the warm-start refresh's interesting case.
    updates: Vec<(usize, i64)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=9, 1usize..=3, 0u64..10_000, 0usize..METHODS.len()).prop_map(
        |(num_keywords, num_slots, seed, method_idx)| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let method = METHODS[method_idx];
            let num_advertisers = 1 + next(8) as usize;
            let mut campaigns = Vec::new();
            for adv in 0..num_advertisers {
                for kw in 0..num_keywords {
                    if next(3) > 0 {
                        // Bids from a narrow range so per-slot top-k floors
                        // are often tied — the pruning edge case that must
                        // keep every tied advertiser.
                        campaigns.push((adv, kw, next(8) as i64));
                    }
                }
            }
            let stream: Vec<usize> = (0..next(60) as usize)
                .map(|_| next(num_keywords as u64) as usize)
                .collect();
            let updates: Vec<(usize, i64)> = if campaigns.is_empty() {
                Vec::new()
            } else {
                (0..next(5) as usize)
                    .map(|_| (next(campaigns.len() as u64) as usize, next(80) as i64))
                    .collect()
            };
            Scenario {
                num_keywords,
                num_slots,
                seed,
                method,
                campaigns,
                stream,
                updates,
            }
        },
    )
}

fn builder(s: &Scenario) -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(s.num_slots)
        .keywords(s.num_keywords)
        .seed(s.seed)
        .method(s.method)
        .default_click_probs((0..s.num_slots).map(|j| 0.8 / (j + 1) as f64).collect())
        .default_purchase_probs(
            (0..s.num_slots)
                .map(|j| (0.2 / (j + 1) as f64, 0.0))
                .collect(),
        )
}

/// Registers the scenario's population, returning the campaign ids in
/// registration order.
fn populate(market: &mut Marketplace, s: &Scenario) -> Vec<CampaignId> {
    let handles: Vec<AdvertiserHandle> = (0..9)
        .map(|adv| market.register_advertiser(format!("adv-{adv}")))
        .collect();
    s.campaigns
        .iter()
        .map(|&(adv, kw, cents)| {
            market
                .add_campaign(
                    handles[adv],
                    kw,
                    CampaignSpec::per_click(Money::from_cents(cents)),
                )
                .expect("campaign accepted")
        })
        .collect()
}

/// Runs the scenario's split stream (updates in the middle) and returns
/// the first half's aggregate report plus every per-query response of the
/// second.
fn run_scenario(
    market: &mut Marketplace,
    s: &Scenario,
    ids: &[CampaignId],
) -> (MarketBatchReport, Vec<AuctionResponse>) {
    let mid = s.stream.len() / 2;
    let first: Vec<QueryRequest> = s.stream[..mid]
        .iter()
        .map(|&k| QueryRequest::new(k))
        .collect();
    let a = market.serve_batch(&first).expect("in range");
    for &(c, cents) in &s.updates {
        market
            .update_bid(ids[c], Money::from_cents(cents))
            .expect("per-click");
    }
    let responses = s.stream[mid..]
        .iter()
        .map(|&k| market.serve(QueryRequest::new(k)).expect("in range"))
        .collect();
    (a, responses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Top-k pruned winner determination is bit-identical to the full
    /// solve — aggregates, per-query winners, clicks, and charges — for
    /// every method, across incremental bid updates, sharded at 1 and 4
    /// shards and unsharded.
    #[test]
    fn pruned_serving_is_bit_identical(s in arb_scenario()) {
        let mut reference = builder(&s).pruned(false).build().expect("valid");
        let ref_ids = populate(&mut reference, &s);
        let (want_a, want_rs) = run_scenario(&mut reference, &s, &ref_ids);

        let mut pruned = builder(&s).pruned(true).build().expect("valid");
        let ids = populate(&mut pruned, &s);
        let (got_a, got_rs) = run_scenario(&mut pruned, &s, &ids);
        prop_assert_eq!(&got_a, &want_a, "unsharded batch halves");
        prop_assert_eq!(&got_rs, &want_rs, "unsharded per-query");

        for shards in SHARD_COUNTS {
            let mut market = builder(&s).pruned(true).build_sharded(shards).expect("valid");
            let ids = populate(&mut market, &s);
            let (got_a, got_rs) = run_scenario(&mut market, &s, &ids);
            prop_assert_eq!(&got_a, &want_a, "shards={}", shards);
            prop_assert_eq!(&got_rs, &want_rs, "shards={}", shards);
        }
    }

    /// Warm-started serving (diff the bids, refresh dirty rows, skip the
    /// solve when nothing changed) is bit-identical to cold serving
    /// (rebuild and resolve every auction) across bid-update sequences —
    /// with and without pruning stacked on top.
    #[test]
    fn warm_start_matches_cold_start(s in arb_scenario()) {
        let mut cold = builder(&s).warm_start(false).build().expect("valid");
        let cold_ids = populate(&mut cold, &s);
        let (want_a, want_rs) = run_scenario(&mut cold, &s, &cold_ids);

        let mut warm = builder(&s).warm_start(true).build().expect("valid");
        let ids = populate(&mut warm, &s);
        let (got_a, got_rs) = run_scenario(&mut warm, &s, &ids);
        prop_assert_eq!(&got_a, &want_a, "warm batch halves");
        prop_assert_eq!(&got_rs, &want_rs, "warm per-query");

        let mut both = builder(&s).warm_start(true).pruned(true).build().expect("valid");
        let ids = populate(&mut both, &s);
        let (got_a, got_rs) = run_scenario(&mut both, &s, &ids);
        prop_assert_eq!(&got_a, &want_a, "warm+pruned batch halves");
        prop_assert_eq!(&got_rs, &want_rs, "warm+pruned per-query");
    }
}

/// Deterministic sweep at the issue's advertiser counts: n ∈ {5, 50, 500},
/// all three methods, pruned+warm versus unpruned cold through `serve` and
/// `serve_batch`, and the pruned run's phase stats must show the solver
/// saw fewer candidates than n once n clears the per-slot floor size.
#[test]
fn pruned_warm_matches_unpruned_cold_at_issue_sizes() {
    for n in [5usize, 50, 500] {
        for method in METHODS {
            let slots = 3;
            let build = |pruned: bool, warm: bool| {
                let mut market = Marketplace::builder()
                    .slots(slots)
                    .keywords(2)
                    .seed(0xF1F0 + n as u64)
                    .method(method)
                    .pruned(pruned)
                    .warm_start(warm)
                    .default_click_probs((0..slots).map(|j| 0.7 / (j + 1) as f64).collect())
                    .build()
                    .expect("valid");
                let mut state = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = move |m: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % m
                };
                let mut ids = Vec::new();
                for adv in 0..n {
                    let handle = market.register_advertiser(format!("adv-{adv}"));
                    // Advertiser-specific click curves keep weight rows
                    // generically distinct (the realistic population), so
                    // the duplicate-row tie fallback stays out of the way
                    // and pruning actually engages.
                    let shape = 0.3 + 0.6 * (adv + 1) as f64 / (n + 1) as f64;
                    let probs: Vec<f64> = (0..slots).map(|j| shape / (j + 1) as f64).collect();
                    for kw in 0..2 {
                        ids.push(
                            market
                                .add_campaign(
                                    handle,
                                    kw,
                                    CampaignSpec::per_click(Money::from_cents(1 + next(40) as i64))
                                        .click_probs(probs.clone()),
                                )
                                .expect("campaign accepted"),
                        );
                    }
                }
                (market, ids)
            };
            let (mut cold, cold_ids) = build(false, false);
            let (mut fast, fast_ids) = build(true, true);
            let stream: Vec<QueryRequest> = (0..10).map(|i| QueryRequest::new(i % 2)).collect();
            let want_a = cold.serve_batch(&stream).expect("in range");
            let got_a = fast.serve_batch(&stream).expect("in range");
            assert_eq!(got_a, want_a, "n={n} method={method} first batch");
            // Dirty one row, then serve again: the warm path must refresh
            // exactly that row and still agree with the cold rebuild.
            cold.update_bid(cold_ids[0], Money::from_cents(55))
                .expect("per-click");
            fast.update_bid(fast_ids[0], Money::from_cents(55))
                .expect("per-click");
            let want_b = cold.serve_batch(&stream).expect("in range");
            let got_b = fast.serve_batch(&stream).expect("in range");
            assert_eq!(got_b, want_b, "n={n} method={method} after update");
            let phases = got_b.total.phases;
            if n >= 50 {
                assert!(
                    phases.solves == 0 || phases.avg_candidates() < n as f64,
                    "n={n} method={method}: pruning never engaged: {phases:?}"
                );
            }
            if n >= 50 && method == WdMethod::Reduced {
                assert!(
                    phases.warm_solves > 0,
                    "n={n}: repeated identical queries never warm-started: {phases:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mixed streams: every kind of write between auctions.
// ---------------------------------------------------------------------------
//
// The engine keeps the last table each campaign produced and re-evaluates a
// per-click or fixed-table campaign only after a write that went through its
// dirty-marking accessor. The property below drives every such write —
// `update_bid` (new values, rewrites of the current value, writes to paused
// campaigns), `pause`/`resume`, `set_roi_target`, queries that flip a
// targeted campaign between matched and unmatched, and `add_campaign` on a
// warm keyword — under a method, pricing rule and pruning flag drawn once per
// scenario, so both the matrix-free and the dense weight sources are driven.
// It holds the market to two standards: every response and every `top_bids`
// read equals those of an unpruned twin built with the same method and
// pricing that refills and solves at every auction, and the number of solves
// it skipped equals the number of auctions the test's own shadow of the
// campaign book says nothing changed for.

use ssa_bidlang::targeting::UserAttrs;
use ssa_bidlang::BidsTable;
use ssa_core::marketplace::{AuctionResponse, MarketBatchReport};
use ssa_core::{AdvertiserHandle, CampaignId, PricingScheme};

const MOBILE_ONLY: &str = "device = 'mobile'";

/// A campaign registration: up front, or mid-stream on a warm keyword.
#[derive(Debug, Clone)]
struct NewCampaign {
    advertiser: usize,
    keyword: usize,
    cents: i64,
    click_value: i64,
    targeted: bool,
    /// A fixed-table campaign (pause/resume only) rather than a per-click
    /// one.
    fixed_table: bool,
}

/// One step of a mixed stream. `campaign` counts registrations in order.
#[derive(Debug, Clone)]
enum Op {
    Serve {
        keyword: usize,
        mobile: bool,
    },
    UpdateBid {
        campaign: usize,
        cents: i64,
    },
    /// `update_bid` to the nominal bid the campaign already has.
    RewriteBid {
        campaign: usize,
    },
    Pause {
        campaign: usize,
    },
    Resume {
        campaign: usize,
    },
    SetRoi {
        campaign: usize,
        target: Option<f64>,
    },
    Add(NewCampaign),
}

const PRICINGS: [PricingScheme; 3] = [
    PricingScheme::Gsp,
    PricingScheme::PayYourBid,
    PricingScheme::Vickrey,
];

#[derive(Debug, Clone)]
struct MixedScenario {
    num_keywords: usize,
    num_slots: usize,
    seed: u64,
    method: WdMethod,
    pricing: PricingScheme,
    /// Whether the market under test is built pruned (its twin never is).
    pruned: bool,
    campaigns: Vec<NewCampaign>,
    ops: Vec<Op>,
}

const MIXED_ADVERTISERS: usize = 6;

fn arb_mixed() -> impl Strategy<Value = MixedScenario> {
    (1usize..=4, 1usize..=3, 0u64..10_000, 0usize..METHODS.len()).prop_map(
        |(num_keywords, num_slots, seed, method_idx)| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let campaign = |next: &mut dyn FnMut(u64) -> u64| NewCampaign {
                advertiser: next(MIXED_ADVERTISERS as u64) as usize,
                keyword: next(num_keywords as u64) as usize,
                cents: next(8) as i64,
                click_value: next(40) as i64,
                targeted: next(3) == 0,
                fixed_table: next(5) == 0,
            };
            let campaigns: Vec<NewCampaign> = (0..next(12)).map(|_| campaign(&mut next)).collect();
            // Per registration: is it per-click (the update API applies)?
            let mut per_click: Vec<bool> = campaigns.iter().map(|c| !c.fixed_table).collect();
            let mut ops = Vec::new();
            for _ in 0..next(80) {
                let any = |next: &mut dyn FnMut(u64) -> u64, n: usize| next(n as u64) as usize;
                let updatable: Vec<usize> =
                    (0..per_click.len()).filter(|&c| per_click[c]).collect();
                let op = match next(14) {
                    0 | 1 if !updatable.is_empty() => Op::UpdateBid {
                        campaign: updatable[any(&mut next, updatable.len())],
                        cents: next(12) as i64,
                    },
                    2 if !updatable.is_empty() => Op::RewriteBid {
                        campaign: updatable[any(&mut next, updatable.len())],
                    },
                    3 if !per_click.is_empty() => Op::Pause {
                        campaign: any(&mut next, per_click.len()),
                    },
                    4 if !per_click.is_empty() => Op::Resume {
                        campaign: any(&mut next, per_click.len()),
                    },
                    5 if !updatable.is_empty() => Op::SetRoi {
                        campaign: updatable[any(&mut next, updatable.len())],
                        target: (next(3) > 0).then(|| 0.5 + next(8) as f64 * 0.5),
                    },
                    6 => {
                        let added = campaign(&mut next);
                        per_click.push(!added.fixed_table);
                        Op::Add(added)
                    }
                    _ => Op::Serve {
                        keyword: next(num_keywords as u64) as usize,
                        mobile: next(3) > 0,
                    },
                };
                ops.push(op);
            }
            // One configuration for the whole stream.
            let pricing = PRICINGS[next(PRICINGS.len() as u64) as usize];
            let pruned = next(2) == 0;
            MixedScenario {
                num_keywords,
                num_slots,
                seed,
                method: METHODS[method_idx],
                pricing,
                pruned,
                campaigns,
                ops,
            }
        },
    )
}

/// What the twin and the market under test are compared on.
#[derive(Debug, Default, PartialEq)]
struct Run {
    /// Per auction: the response (`serve`) …
    responses: Vec<AuctionResponse>,
    /// … or its outcome tallies (`serve_batch` of one, which is where the
    /// solve counters come from).
    tallies: Vec<(f64, u64, u64, u64, Money)>,
    /// `top_bids` of the touched keyword after every write, and of every
    /// keyword at the end.
    books: Vec<Vec<(CampaignId, Money)>>,
    warm_solves: u64,
}

fn book(market: &Marketplace, keyword: usize) -> Vec<(CampaignId, Money)> {
    market.top_bids(keyword, usize::MAX).expect("in range")
}

fn tally_of(response: &AuctionResponse) -> (f64, u64, u64, u64, Money) {
    let placed = &response.placements;
    (
        response.expected_revenue,
        placed.len() as u64,
        placed.iter().filter(|p| p.clicked).count() as u64,
        placed.iter().filter(|p| p.purchased).count() as u64,
        response.realized_revenue,
    )
}

fn register(market: &mut Marketplace, handles: &[AdvertiserHandle], c: &NewCampaign) -> CampaignId {
    let bid = Money::from_cents(c.cents);
    let mut spec = if c.fixed_table {
        CampaignSpec::table(BidsTable::single_feature(bid))
    } else {
        CampaignSpec::per_click(bid).click_value(Money::from_cents(c.click_value))
    };
    if c.targeted {
        spec = spec.targeting(MOBILE_ONLY);
    }
    market
        .add_campaign(handles[c.advertiser], c.keyword, spec)
        .expect("campaign accepted")
}

/// Runs the scenario. `tallied` serves through `serve_batch` of one query
/// instead of `serve`.
fn drive(market: &mut Marketplace, s: &MixedScenario, tallied: bool) -> Run {
    let handles: Vec<AdvertiserHandle> = (0..MIXED_ADVERTISERS)
        .map(|adv| market.register_advertiser(format!("adv-{adv}")))
        .collect();
    // Registration order → (id, current nominal bid).
    let mut ids: Vec<(CampaignId, i64)> = s
        .campaigns
        .iter()
        .map(|c| (register(market, &handles, c), c.cents))
        .collect();
    let mut run = Run::default();
    for op in &s.ops {
        let touched = match op {
            Op::Serve { keyword, mobile } => {
                let device = if *mobile { "mobile" } else { "desktop" };
                let request =
                    QueryRequest::with_attrs(*keyword, UserAttrs::new().set_str("device", device));
                if tallied {
                    let total = market.serve_batch(&[request]).expect("in range").total;
                    run.warm_solves += total.phases.warm_solves;
                    run.tallies.push((
                        total.expected_revenue,
                        total.filled_slots,
                        total.clicks,
                        total.purchases,
                        total.realized_revenue,
                    ));
                } else {
                    let response = market.serve(request).expect("in range");
                    run.tallies.push(tally_of(&response));
                    run.responses.push(response);
                }
                None
            }
            Op::UpdateBid { campaign, cents } => {
                ids[*campaign].1 = *cents;
                market
                    .update_bid(ids[*campaign].0, Money::from_cents(*cents))
                    .expect("per-click");
                Some(ids[*campaign].0)
            }
            Op::RewriteBid { campaign } => {
                let (id, cents) = ids[*campaign];
                market
                    .update_bid(id, Money::from_cents(cents))
                    .expect("per-click");
                Some(id)
            }
            Op::Pause { campaign } => {
                market
                    .pause_campaign(ids[*campaign].0)
                    .expect("known campaign");
                Some(ids[*campaign].0)
            }
            Op::Resume { campaign } => {
                market
                    .resume_campaign(ids[*campaign].0)
                    .expect("known campaign");
                Some(ids[*campaign].0)
            }
            Op::SetRoi { campaign, target } => {
                market
                    .set_roi_target(ids[*campaign].0, *target)
                    .expect("per-click");
                Some(ids[*campaign].0)
            }
            Op::Add(c) => {
                let id = register(market, &handles, c);
                ids.push((id, c.cents));
                Some(id)
            }
        };
        if let Some(id) = touched {
            run.books.push(book(market, id.keyword()));
        }
    }
    run.books
        .extend((0..s.num_keywords).map(|kw| book(market, kw)));
    run
}

/// The test's own account of the campaign book: how many auctions of the
/// stream found every campaign on their keyword bidding exactly what it bid
/// at the keyword's previous auction — with warm starts on, the auctions
/// whose solve must have been skipped, and no others.
fn expected_warm_solves(s: &MixedScenario) -> u64 {
    #[derive(Clone)]
    struct Shadow {
        spec: NewCampaign,
        nominal: i64,
        roi: Option<f64>,
        paused: bool,
    }
    impl Shadow {
        /// The campaign's table on a query, as far as it can differ: `None`
        /// for the empty table of a paused or unmatched campaign.
        fn bids(&self, mobile: bool) -> Option<i64> {
            if self.paused || (self.spec.targeted && !mobile) {
                return None;
            }
            if self.spec.fixed_table {
                return Some(self.spec.cents);
            }
            let capped = match self.roi {
                Some(target) => self
                    .nominal
                    .min((self.spec.click_value as f64 / target).floor() as i64),
                None => self.nominal,
            };
            Some(capped.max(0))
        }
    }
    let shadow_of = |c: &NewCampaign| Shadow {
        spec: c.clone(),
        nominal: c.cents,
        roi: None,
        paused: false,
    };
    let mut book: Vec<Shadow> = s.campaigns.iter().map(shadow_of).collect();
    // Per keyword: the tables of its previous auction.
    let mut previous: Vec<Option<Vec<Option<i64>>>> = vec![None; s.num_keywords];
    let mut warm_solves = 0;
    for op in &s.ops {
        match op {
            Op::Serve { keyword, mobile } => {
                let now: Vec<Option<i64>> = book
                    .iter()
                    .filter(|c| c.spec.keyword == *keyword)
                    .map(|c| c.bids(*mobile))
                    .collect();
                if now.is_empty() {
                    continue; // no campaigns, no engine, no solve to skip
                }
                let auction = Some(now);
                if previous[*keyword] == auction {
                    warm_solves += 1;
                }
                previous[*keyword] = auction;
            }
            Op::UpdateBid { campaign, cents } => book[*campaign].nominal = *cents,
            Op::RewriteBid { .. } => {}
            Op::Pause { campaign } => book[*campaign].paused = true,
            Op::Resume { campaign } => book[*campaign].paused = false,
            Op::SetRoi { campaign, target } => book[*campaign].roi = *target,
            Op::Add(c) => book.push(shadow_of(c)),
        }
    }
    warm_solves
}

fn mixed_builder(s: &MixedScenario) -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(s.num_slots)
        .keywords(s.num_keywords)
        .seed(s.seed)
        .method(s.method)
        .pricing(s.pricing)
        .default_click_probs((0..s.num_slots).map(|j| 0.8 / (j + 1) as f64).collect())
        .default_purchase_probs(
            (0..s.num_slots)
                .map(|j| (0.2 / (j + 1) as f64, 0.0))
                .collect(),
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Evaluating only what changed is bit-identical to evaluating
    /// everything, and skips exactly the solves it may.
    #[test]
    fn mixed_writes_match_a_cold_twin_and_skip_exactly_the_unchanged_auctions(s in arb_mixed()) {
        let mut cold = mixed_builder(&s).warm_start(false).build().expect("valid");
        let want = drive(&mut cold, &s, false);
        prop_assert_eq!(want.warm_solves, 0);
        let want_warm = expected_warm_solves(&s);

        for tallied in [false, true] {
            let mut market = mixed_builder(&s).pruned(s.pruned).build().expect("valid");
            let got = drive(&mut market, &s, tallied);
            prop_assert_eq!(&got.tallies, &want.tallies, "unsharded, tallied={}", tallied);
            prop_assert_eq!(&got.books, &want.books, "unsharded, tallied={}", tallied);
            if tallied {
                prop_assert_eq!(got.warm_solves, want_warm, "unsharded");
            } else {
                prop_assert_eq!(&got.responses, &want.responses, "unsharded");
            }
            for shards in SHARD_COUNTS {
                let mut market = mixed_builder(&s)
                    .pruned(s.pruned)
                    .build_sharded(shards)
                    .expect("valid");
                let got = drive(&mut market, &s, tallied);
                prop_assert_eq!(&got.tallies, &want.tallies, "shards={}, tallied={}", shards, tallied);
                prop_assert_eq!(&got.books, &want.books, "shards={}, tallied={}", shards, tallied);
                if tallied {
                    prop_assert_eq!(got.warm_solves, want_warm, "shards={}", shards);
                } else {
                    prop_assert_eq!(&got.responses, &want.responses, "shards={}", shards);
                }
            }
        }
    }
}
