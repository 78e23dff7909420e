//! The `Marketplace` facade end to end: Section V equivalence against the
//! RHTALU reference `Simulation`, and property tests showing the
//! incremental update API is indistinguishable from re-registering
//! campaigns from scratch.

use proptest::prelude::*;
use sponsored_search::bidlang::Money;
use sponsored_search::core::marketplace::{
    CampaignSpec, Marketplace, MarketplaceBuilder, QueryRequest,
};
use sponsored_search::core::WdMethod;
use sponsored_search::workload::{MarketSimulation, SectionVConfig, SectionVWorkload, Simulation};

/// The Section V experiment on the marketplace: shared-ROI programs on one
/// shard.
fn roi_facade(workload: SectionVWorkload, method: WdMethod) -> MarketSimulation {
    MarketSimulation::new(workload, method).expect("Section V configuration is valid")
}

/// The RHTALU reference after `auctions` auctions of `config`.
fn reference(config: SectionVConfig, auctions: usize) -> Simulation {
    let mut reference = Simulation::new(SectionVWorkload::generate(config));
    for _ in 0..auctions {
        reference.run_auction();
    }
    reference
}

/// `facade` ran the same auctions as `reference`: the same aggregate
/// revenue, clicks and charges, and the same evolved strategy state.
fn assert_matches_reference(facade: &MarketSimulation, reference: &Simulation, label: &str) {
    assert_eq!(facade.stats.auctions, reference.stats.auctions, "{label}");
    assert_eq!(facade.stats.clicks, reference.stats.clicks, "{label}");
    assert_eq!(
        facade.stats.charged_cents, reference.stats.charged_cents,
        "{label}"
    );
    assert!(
        (facade.stats.total_expected_revenue - reference.stats.total_expected_revenue).abs() < 1e-6,
        "{label}: facade {} vs reference {}",
        facade.stats.total_expected_revenue,
        reference.stats.total_expected_revenue
    );
    // Every advertiser's bid on every keyword is identical after all the
    // clicks, charges, and ROI adjustments.
    let config = reference.workload.config;
    for adv in 0..config.num_advertisers {
        for keyword in 0..config.num_keywords {
            assert_eq!(
                facade.bid_of(adv, keyword),
                reference.bid_of(adv, keyword),
                "{label}: bid diverged for advertiser {adv} keyword {keyword}"
            );
        }
    }
}

/// `Marketplace::serve_batch` over the Section V workload produces the same
/// aggregate revenue, clicks, charges — and the same evolved strategy state
/// — as the RHTALU reference `Simulation`, for every marketplace method.
#[test]
fn serve_batch_matches_legacy_simulation_on_section_v() {
    let config = SectionVConfig {
        num_advertisers: 40,
        num_slots: 5,
        num_keywords: 4,
        seed: 20_08,
    };
    let auctions = 250;
    let reference = reference(config, auctions);
    for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
        let mut facade = roi_facade(SectionVWorkload::generate(config), method);
        facade.run_auctions(auctions).expect("in range");
        assert_matches_reference(&facade, &reference, &method.to_string());
    }
}

/// A facade driven one `serve` at a time equals one driven by `serve_batch`
/// — the typed single-query API and the chunked batch API are the same
/// pipeline — and both equal the RHTALU reference.
#[test]
fn single_serve_equals_serve_batch_on_section_v() {
    let config = SectionVConfig {
        num_advertisers: 25,
        num_slots: 4,
        num_keywords: 3,
        seed: 99,
    };
    let reference = reference(config, 60);
    for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
        let workload = SectionVWorkload::generate(config);
        let mut one_by_one = roi_facade(workload.clone(), method);
        let mut batched = roi_facade(workload, method);
        for _ in 0..60 {
            one_by_one.run_auctions(1).expect("in range");
        }
        batched.run_auctions(60).expect("in range");
        assert_eq!(one_by_one.stats.clicks, batched.stats.clicks);
        assert_eq!(one_by_one.stats.charged_cents, batched.stats.charged_cents);
        assert!(
            (one_by_one.stats.total_expected_revenue - batched.stats.total_expected_revenue).abs()
                < 1e-6
        );
        assert_matches_reference(&one_by_one, &reference, &format!("{method} one by one"));
        assert_matches_reference(&batched, &reference, &format!("{method} batched"));
    }
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
