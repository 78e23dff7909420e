//! The `Marketplace` facade end to end: Section V equivalence against the
//! legacy `Simulation` path, and property tests showing the incremental
//! update API is indistinguishable from re-registering campaigns from
//! scratch.

use proptest::prelude::*;
use sponsored_search::bidlang::Money;
use sponsored_search::core::marketplace::{
    CampaignSpec, Marketplace, MarketplaceBuilder, QueryRequest,
};
use sponsored_search::core::WdMethod;
use sponsored_search::workload::{
    MarketPopulation, MarketSimulation, Method, SectionVConfig, SectionVWorkload, Simulation,
};

/// The facade-native port of the legacy experiment: shared-ROI programs
/// on one shard.
fn roi_facade(workload: SectionVWorkload, method: WdMethod) -> MarketSimulation {
    MarketSimulation::new(workload, method, MarketPopulation::SharedRoi, 1)
        .expect("Section V configuration is valid")
}

/// `Marketplace::serve_batch` over the Section V workload produces the same
/// aggregate revenue, clicks, charges — and the same evolved strategy state
/// — as the pre-existing `Simulation` path, for every full-matrix method.
#[test]
fn serve_batch_matches_legacy_simulation_on_section_v() {
    let config = SectionVConfig {
        num_advertisers: 40,
        num_slots: 5,
        num_keywords: 4,
        seed: 20_08,
    };
    for (legacy_method, facade_method) in [
        (Method::Lp, WdMethod::Lp),
        (Method::H, WdMethod::Hungarian),
        (Method::Rh, WdMethod::Reduced),
    ] {
        let auctions = 250;
        let mut legacy = Simulation::new(SectionVWorkload::generate(config), legacy_method);
        for _ in 0..auctions {
            legacy.run_auction();
        }
        let mut facade = roi_facade(SectionVWorkload::generate(config), facade_method);
        facade.run_auctions(auctions);

        assert_eq!(
            facade.stats.auctions, legacy.stats.auctions,
            "{legacy_method:?}"
        );
        assert_eq!(
            facade.stats.clicks, legacy.stats.clicks,
            "{legacy_method:?}"
        );
        assert_eq!(
            facade.stats.charged_cents, legacy.stats.charged_cents,
            "{legacy_method:?}"
        );
        assert!(
            (facade.stats.total_expected_revenue - legacy.stats.total_expected_revenue).abs()
                < 1e-6,
            "{legacy_method:?}: facade {} vs legacy {}",
            facade.stats.total_expected_revenue,
            legacy.stats.total_expected_revenue
        );
        // The evolved strategy state agrees bid-for-bid: every advertiser's
        // bid on every keyword is identical after 250 auctions of clicks,
        // charges, and ROI adjustments.
        for adv in 0..config.num_advertisers {
            for keyword in 0..config.num_keywords {
                assert_eq!(
                    facade.bid_of(adv, keyword),
                    legacy.bid_of(adv, keyword),
                    "{legacy_method:?}: bid diverged for advertiser {adv} keyword {keyword}"
                );
            }
        }
    }
}

/// A facade driven one `serve` at a time equals one driven by `serve_batch`
/// — the typed single-query API and the chunked batch API are the same
/// pipeline.
#[test]
fn single_serve_equals_serve_batch_on_section_v() {
    let config = SectionVConfig {
        num_advertisers: 25,
        num_slots: 4,
        num_keywords: 3,
        seed: 99,
    };
    let workload = SectionVWorkload::generate(config);
    let mut one_by_one = roi_facade(workload.clone(), WdMethod::Reduced);
    let mut batched = roi_facade(workload, WdMethod::Reduced);
    for _ in 0..60 {
        one_by_one.run_auctions(1);
    }
    batched.run_auctions(60);
    assert_eq!(one_by_one.stats.clicks, batched.stats.clicks);
    assert_eq!(one_by_one.stats.charged_cents, batched.stats.charged_cents);
    assert!(
        (one_by_one.stats.total_expected_revenue - batched.stats.total_expected_revenue).abs()
            < 1e-6
    );
}

// ---------------------------------------------------------------------------
// Incremental updates ≡ re-registering from scratch.
// ---------------------------------------------------------------------------

const SLOTS: usize = 3;
const KEYWORDS: usize = 2;

fn builder(seed: u64) -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(seed)
        .default_click_probs(vec![0.7, 0.4, 0.2])
}

/// One campaign's final nominal state after a scripted update sequence.
#[derive(Debug, Clone)]
struct FinalState {
    bid: i64,
    paused: bool,
    roi_target: Option<u8>, // discrete targets keep the cap arithmetic exact
    click_value: i64,
}

fn apply_roi(target: Option<u8>) -> Option<f64> {
    target.map(|t| t as f64)
}

/// Replays `updates` incrementally on a served marketplace, then compares
/// every subsequent auction against a marketplace registered directly in
/// the final state: identical placements, charges, and revenue.
///
/// Both marketplaces fast-forward through the same warm-up queries, and a
/// warm-up auction consumes one RNG draw per filled slot. So the two RNG
/// streams stay aligned only if the initial state and the final state fill
/// the same number of slots: campaigns below index `SLOTS` are therefore
/// pinned active with a positive bid (which also keeps zero-bid campaigns
/// out of the optimum — a positive candidate always displaces them).
fn incremental_matches_fresh(
    mut initial: Vec<FinalState>,
    updates: Vec<(usize, i64, bool, Option<u8>)>,
    seed: u64,
) {
    for state in initial.iter_mut().take(SLOTS) {
        state.paused = false;
        state.bid = state.bid.max(1);
    }
    let updates: Vec<(usize, i64, bool, Option<u8>)> = updates
        .into_iter()
        .map(|(target, bid, paused, roi)| {
            let campaign = target % initial.len();
            if campaign < SLOTS {
                (campaign, bid.max(1), false, roi)
            } else {
                (campaign, bid, paused, roi)
            }
        })
        .collect();
    // Incremental path: register the initial states, serve a warm-up batch
    // (so engines exist and buffers are warm), then apply the updates
    // through the incremental API.
    let mut incremental = builder(seed).build().expect("valid configuration");
    let mut ids = Vec::new();
    for (i, state) in initial.iter().enumerate() {
        let adv = incremental.register_advertiser(format!("adv-{i}"));
        for keyword in 0..KEYWORDS {
            let mut spec = CampaignSpec::per_click(Money::from_cents(state.bid))
                .click_value(Money::from_cents(state.click_value));
            if let Some(t) = apply_roi(state.roi_target) {
                spec = spec.roi_target(t);
            }
            let id = incremental.add_campaign(adv, keyword, spec).expect("valid");
            if state.paused {
                incremental.pause_campaign(id).expect("known campaign");
            }
            ids.push(id);
        }
    }
    let warmup: Vec<QueryRequest> = (0..6).map(|i| QueryRequest::new(i % KEYWORDS)).collect();
    incremental.serve_batch(&warmup).expect("valid keywords");

    let mut finals = initial;
    for (campaign, bid, paused, roi) in updates {
        let state = &mut finals[campaign];
        state.bid = bid;
        state.paused = paused;
        state.roi_target = roi;
        for keyword in 0..KEYWORDS {
            let id = ids[campaign * KEYWORDS + keyword];
            incremental
                .update_bid(id, Money::from_cents(bid))
                .expect("per-click");
            incremental
                .set_roi_target(id, apply_roi(roi))
                .expect("per-click");
            if paused {
                incremental.pause_campaign(id).expect("known campaign");
            } else {
                incremental.resume_campaign(id).expect("known campaign");
            }
        }
    }

    // Fresh path: a new marketplace registered directly in the final state,
    // fast-forwarded through the same warm-up queries so both RNGs and both
    // market clocks line up before the comparison window.
    let mut fresh = builder(seed).build().expect("valid configuration");
    for (i, state) in finals.iter().enumerate() {
        let adv = fresh.register_advertiser(format!("adv-{i}"));
        for keyword in 0..KEYWORDS {
            let mut spec = CampaignSpec::per_click(Money::from_cents(state.bid))
                .click_value(Money::from_cents(state.click_value));
            if let Some(t) = apply_roi(state.roi_target) {
                spec = spec.roi_target(t);
            }
            let id = fresh.add_campaign(adv, keyword, spec).expect("valid");
            if state.paused {
                fresh.pause_campaign(id).expect("known campaign");
            }
        }
    }
    fresh.serve_batch(&warmup).expect("valid keywords");

    for round in 0..10 {
        let request = QueryRequest::new(round % KEYWORDS);
        let a = incremental.serve(request.clone()).expect("valid keyword");
        let b = fresh.serve(request).expect("valid keyword");
        assert_eq!(a, b, "divergence at round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `update_bid` / `pause_campaign` / `set_roi_target` leave the market
    /// in exactly the state a from-scratch registration would produce.
    #[test]
    fn incremental_updates_match_reregistration(
        initial in proptest::collection::vec(
            // Click values start at 40 so an ROI cap of at most 5 can bind
            // without crushing a pinned campaign's effective bid to zero.
            (0i64..60, any::<bool>(), proptest::option::of(1u8..5), 40i64..80).prop_map(
                |(bid, paused, roi_target, click_value)| FinalState {
                    bid,
                    paused,
                    roi_target,
                    click_value,
                }
            ),
            2..6,
        ),
        updates in proptest::collection::vec(
            (0usize..6, 0i64..60, any::<bool>(), proptest::option::of(1u8..5)),
            1..12,
        ),
        seed in 0u64..1000,
    ) {
        incremental_matches_fresh(initial, updates, seed);
    }
}
