//! Cross-crate integration tests: the full auction pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sponsored_search::bidlang::{BidsTable, Formula, Money, SlotId};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::prob::{ClickModel, PurchaseModel, SeparableClickModel};
use sponsored_search::core::{AuctionEngine, EngineConfig, TableBidder, WdMethod};
use sponsored_search::workload::{MarketSimulation, SectionVConfig, SectionVWorkload, Simulation};

fn random_engine(
    n: usize,
    k: usize,
    seed: u64,
    method: WdMethod,
    pricing: PricingScheme,
) -> AuctionEngine<TableBidder> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bidders: Vec<TableBidder> = (0..n)
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
            TableBidder::new(table)
        })
        .collect();
    let clicks =
        ClickModel::from_fn(n, k, |_, j| rng.gen_range(0.05..0.9) / (1 + j) as f64).unwrap();
    let purchases = PurchaseModel::from_fn(n, k, |_, _| (rng.gen_range(0.0..0.5), 0.0));
    AuctionEngine::new(
        bidders,
        clicks,
        purchases,
        1,
        EngineConfig {
            method,
            pricing,
            ..EngineConfig::default()
        },
    )
}

#[test]
fn all_wd_methods_agree_across_engines() {
    for seed in [1u64, 2, 3] {
        let mut reference: Option<f64> = None;
        for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
            let mut engine = random_engine(25, 4, seed, method, PricingScheme::PayYourBid);
            let mut rng = StdRng::seed_from_u64(seed);
            let report = engine.run_auction(0, &mut rng);
            match reference {
                None => reference = Some(report.expected_revenue),
                Some(r) => assert!(
                    (report.expected_revenue - r).abs() < 1e-6,
                    "seed {seed}: {method:?} got {} expected {r}",
                    report.expected_revenue
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
        let mut engine = random_engine(20, 3, 9, WdMethod::Reduced, pricing);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..50 {
            let report = engine.run_auction(0, &mut rng);
            for (_, m) in &report.charges {
                assert!(
                    m.is_positive(),
                    "{pricing:?} produced a non-positive charge"
                );
            }
            assert!(report.realized_revenue >= Money::ZERO);
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
    let values = [10i64, 20, 30, 40, 5];

    let bidders: Vec<TableBidder> = values
        .iter()
        .map(|&v| TableBidder::per_click(Money::from_cents(v)))
        .collect();
    let mut engine = AuctionEngine::new(
        bidders,
        sep.to_click_model().unwrap(),
        PurchaseModel::never(5, 3),
        1,
        EngineConfig {
            method: WdMethod::Hungarian,
            pricing: PricingScheme::Gsp,
            ..EngineConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let report = engine.run_auction(0, &mut rng);

    let per_click: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let sorted = sep.sort_allocation(&per_click);
    assert_eq!(report.assignment.slot_to_adv, sorted);
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
    let mut engine = random_engine(10, 3, 21, WdMethod::Hungarian, PricingScheme::PayYourBid);
    let mut rng = StdRng::seed_from_u64(99);
    let mut expected = 0.0;
    let mut realized = 0i64;
    let rounds = 4000;
    for _ in 0..rounds {
        let report = engine.run_auction(0, &mut rng);
        expected = report.expected_revenue; // constant: static bidders
        realized += report.realized_revenue.cents();
    }
    let avg = realized as f64 / rounds as f64;
    let rel_err = (avg - expected).abs() / expected.max(1.0);
    assert!(
        rel_err < 0.05,
        "realised average {avg} differs from expected {expected} by {rel_err:.3}"
    );
}
