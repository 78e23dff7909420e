//! Cross-crate integration tests: the full auction pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sponsored_search::bidlang::{BidsTable, Formula, Money, SlotId};
use sponsored_search::core::marketplace::{
    AuctionResponse, CampaignSpec, Marketplace, QueryRequest,
};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::prob::SeparableClickModel;
use sponsored_search::core::WdMethod;
use sponsored_search::workload::{MarketSimulation, SectionVConfig, SectionVWorkload, Simulation};

/// A one-keyword market over `k` slots under `method` and `pricing`.
fn one_keyword_market(
    k: usize,
    seed: u64,
    method: WdMethod,
    pricing: PricingScheme,
) -> Marketplace {
    Marketplace::builder()
        .slots(k)
        .keywords(1)
        .seed(seed)
        .method(method)
        .pricing(pricing)
        .build()
        .expect("valid configuration")
}

/// A one-keyword market of `n` fixed-table campaigns — per-click, some with
/// a purchase bid or a slot bid — each with random click and purchase
/// probabilities drawn from `seed`; the market's own seed is `market_seed`.
fn random_market(
    n: usize,
    k: usize,
    (seed, market_seed): (u64, u64),
    method: WdMethod,
    pricing: PricingScheme,
) -> Marketplace {
    let mut rng = StdRng::seed_from_u64(seed);
    let tables: Vec<BidsTable> = (0..n)
        .map(|_| {
            let mut table = BidsTable::single_feature(Money::from_cents(rng.gen_range(1..=50)));
            if rng.gen_bool(0.4) {
                table.push(
                    Formula::purchase(),
                    Money::from_cents(rng.gen_range(1..=80)),
                );
            }
            if rng.gen_bool(0.3) {
                table.push(
                    Formula::slot(SlotId::new(1)) | Formula::slot(SlotId::new(k as u16)),
                    Money::from_cents(rng.gen_range(1..=10)),
                );
            }
            table
        })
        .collect();
    let clicks: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..k)
                .map(|j| rng.gen_range(0.05..0.9) / (1 + j) as f64)
                .collect()
        })
        .collect();
    let purchases: Vec<Vec<(f64, f64)>> = (0..n)
        .map(|_| (0..k).map(|_| (rng.gen_range(0.0..0.5), 0.0)).collect())
        .collect();
    let mut market = one_keyword_market(k, market_seed, method, pricing);
    let advertiser = market.register_advertiser("a");
    for ((table, clicks), purchases) in tables.into_iter().zip(clicks).zip(purchases) {
        let spec = CampaignSpec::table(table)
            .click_probs(clicks)
            .purchase_probs(purchases);
        market.add_campaign(advertiser, 0, spec).expect("accepted");
    }
    market
}

fn serve(market: &mut Marketplace) -> AuctionResponse {
    market
        .serve(QueryRequest::new(0))
        .expect("keyword 0 exists")
}

#[test]
fn all_wd_methods_agree_across_engines() {
    for seed in [1u64, 2, 3] {
        let mut reference: Option<f64> = None;
        for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
            let mut market = random_market(25, 4, (seed, seed), method, PricingScheme::PayYourBid);
            let response = serve(&mut market);
            match reference {
                None => reference = Some(response.expected_revenue),
                Some(r) => assert!(
                    (response.expected_revenue - r).abs() < 1e-6,
                    "seed {seed}: {method:?} got {} expected {r}",
                    response.expected_revenue
                ),
            }
        }
    }
}

#[test]
fn vcg_charges_never_exceed_gsp_expected_value_bounds() {
    // Sanity across pricing schemes: charges are non-negative and VCG never
    // charges a winner more than its own expected edge.
    for pricing in [
        PricingScheme::Gsp,
        PricingScheme::Vickrey,
        PricingScheme::PayYourBid,
    ] {
        let mut market = random_market(20, 3, (9, 10), WdMethod::Reduced, pricing);
        for _ in 0..50 {
            let response = serve(&mut market);
            for (_, m) in &response.charges {
                assert!(
                    m.is_positive(),
                    "{pricing:?} produced a non-positive charge"
                );
            }
            assert!(response.realized_revenue >= Money::ZERO);
        }
    }
}

#[test]
fn separable_case_matches_sort_allocation() {
    // Under separability + single-feature bids, the matching must produce
    // the same allocation as the O(n log k) sort (Section III-C).
    let advertiser_factors = vec![0.9, 0.7, 0.5, 0.3, 0.2];
    let slot_factors = vec![0.9, 0.6, 0.3];
    let sep = SeparableClickModel::new(advertiser_factors.clone(), slot_factors.clone());
    let clicks = sep.to_click_model().unwrap();
    let values = [10i64, 20, 30, 40, 5];

    let mut market = one_keyword_market(3, 5, WdMethod::Hungarian, PricingScheme::Gsp);
    let advertiser = market.register_advertiser("a");
    for (i, &v) in values.iter().enumerate() {
        let spec =
            CampaignSpec::per_click(Money::from_cents(v)).click_probs(clicks.row(i).to_vec());
        market.add_campaign(advertiser, 0, spec).expect("accepted");
    }
    let response = serve(&mut market);
    let mut slot_to_adv = vec![None; slot_factors.len()];
    for placement in &response.placements {
        slot_to_adv[placement.slot.index0()] = Some(placement.campaign.index());
    }

    let per_click: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let sorted = sep.sort_allocation(&per_click);
    assert_eq!(slot_to_adv, sorted);
}

/// The marketplace under LP, H and RH tracks the RHTALU reference
/// `Simulation` on `config`: the same winner-determination objective on
/// every one of `auctions` auctions, then the same clicks, charges and
/// evolved bids.
fn assert_marketplace_tracks_rhtalu(config: SectionVConfig, auctions: usize) {
    for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
        let mut market = MarketSimulation::new(SectionVWorkload::generate(config), method)
            .expect("Section V configuration is valid");
        let mut reference = Simulation::new(SectionVWorkload::generate(config));
        for auction in 0..auctions {
            let before = market.stats.total_expected_revenue;
            let objective = market
                .run_auctions(1)
                .expect("in range")
                .total_expected_revenue
                - before;
            let rhtalu = reference.run_auction();
            assert!(
                (objective - rhtalu).abs() < 1e-6,
                "auction {auction}: {method} objective {objective} != RHTALU objective {rhtalu}"
            );
        }
        assert_eq!(market.stats.clicks, reference.stats.clicks, "{method}");
        assert_eq!(
            market.stats.charged_cents, reference.stats.charged_cents,
            "{method}"
        );
        for adv in 0..config.num_advertisers {
            for keyword in 0..config.num_keywords {
                assert_eq!(
                    market.bid_of(adv, keyword),
                    reference.bid_of(adv, keyword),
                    "{method}: bid diverged for advertiser {adv} keyword {keyword}"
                );
            }
        }
    }
}

#[test]
fn simulation_methods_agree_long_run() {
    // The marketplace's methods and RHTALU stay in lockstep over hundreds
    // of auctions (shared RNG stream, identical GSP charges thanks to the
    // k+1-deep selection).
    assert_marketplace_tracks_rhtalu(
        SectionVConfig {
            num_advertisers: 60,
            num_slots: 6,
            num_keywords: 5,
            seed: 2024,
        },
        300,
    );
}

#[test]
fn all_four_paper_methods_agree_on_shared_workload() {
    // LP, H and RH on the marketplace and RHTALU on the reference run over
    // the *same* generated Section V workload and must report the same
    // winner-determination objective on every auction of the stream.
    assert_marketplace_tracks_rhtalu(
        SectionVConfig {
            num_advertisers: 40,
            num_slots: 5,
            num_keywords: 4,
            seed: 7171,
        },
        40,
    );
}

#[test]
fn engine_expected_revenue_matches_realized_average_pay_your_bid() {
    // Law of large numbers check: with pay-your-bid pricing, average
    // realised revenue over many auctions approaches the (constant)
    // expected revenue of the repeated optimal allocation.
    let mut market = random_market(
        10,
        3,
        (21, 99),
        WdMethod::Hungarian,
        PricingScheme::PayYourBid,
    );
    let mut expected = 0.0;
    let mut realized = 0i64;
    let rounds = 4000;
    for _ in 0..rounds {
        let response = serve(&mut market);
        expected = response.expected_revenue; // constant: static bidders
        realized += response.realized_revenue.cents();
    }
    let avg = realized as f64 / rounds as f64;
    let rel_err = (avg - expected).abs() / expected.max(1.0);
    assert!(
        rel_err < 0.05,
        "realised average {avg} differs from expected {expected} by {rel_err:.3}"
    );
}
