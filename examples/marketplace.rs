//! Marketplace quickstart: run a sponsored-search *service*, not a
//! hand-assembled auction.
//!
//! Three advertisers register with the marketplace, open campaigns on two
//! keywords ("shoes" and "running"), and the market serves a query stream
//! while bids change incrementally between auctions — the facade-level view
//! of the paper's system (campaign registration, typed query serving,
//! incremental bid updates). For the raw single-auction engine underneath, see
//! `examples/quickstart.rs`.
//!
//! ```text
//! cargo run --example marketplace
//! ```

use sponsored_search::bidlang::{BidsTable, Formula, Money};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::WdMethod;
use sponsored_search::marketplace::{CampaignSpec, Marketplace, QueryRequest};

fn main() {
    let keywords = ["shoes", "running"];
    let mut market = Marketplace::builder()
        .slots(2)
        .keywords(keywords.len())
        .method(WdMethod::Reduced)
        .pricing(PricingScheme::Gsp)
        .seed(2008)
        .default_click_probs(vec![0.30, 0.18])
        .build()
        .expect("valid configuration");

    // Register advertisers once; campaigns hang off the handles.
    let click_shop = market.register_advertiser("ClickShop");
    let conversion_co = market.register_advertiser("ConversionCo");
    let brand_house = market.register_advertiser("BrandHouse");

    // ClickShop: classical per-click campaigns on both keywords. These
    // support the whole incremental update API.
    let shoes_campaign = market
        .add_campaign(
            click_shop,
            0,
            CampaignSpec::per_click(Money::from_cents(12)).click_value(Money::from_cents(30)),
        )
        .expect("campaign accepted");
    market
        .add_campaign(click_shop, 1, CampaignSpec::per_click(Money::from_cents(8)))
        .expect("campaign accepted");

    // ConversionCo: a multi-feature table — 5¢ per click plus 40¢ per
    // purchase — with its own click/purchase models.
    market
        .add_campaign(
            conversion_co,
            0,
            CampaignSpec::table(BidsTable::new(vec![
                (Formula::click(), Money::from_cents(5)),
                (Formula::purchase(), Money::from_cents(40)),
            ]))
            .click_probs(vec![0.22, 0.12])
            .purchase_probs(vec![(0.5, 0.0), (0.5, 0.0)]),
        )
        .expect("campaign accepted");

    // BrandHouse: pays for prominent placement whether or not anyone
    // clicks (the paper's Figure 3 shape), on the "shoes" keyword only.
    let brand_campaign = market
        .add_campaign(
            brand_house,
            0,
            CampaignSpec::table(BidsTable::figure3()).click_probs(vec![0.25, 0.15]),
        )
        .expect("campaign accepted");

    println!("serving 6 queries with GSP pricing…\n");
    for (round, &keyword) in [0usize, 0, 1, 0, 1, 0].iter().enumerate() {
        // Incremental updates between auctions: after two rounds ClickShop
        // lowers its bid and BrandHouse pauses its campaign — one write to
        // each campaign and its bidder, no engine rebuild.
        if round == 2 {
            market
                .update_bid(shoes_campaign, Money::from_cents(6))
                .expect("per-click campaign");
            market
                .pause_campaign(brand_campaign)
                .expect("known campaign");
            println!("-- ClickShop drops to 6¢, BrandHouse pauses --\n");
        }
        let response = market
            .serve(QueryRequest::new(keyword))
            .expect("known keyword");
        println!(
            "auction {} on {:?}: expected revenue {:.2}¢",
            response.time, keywords[keyword], response.expected_revenue
        );
        for p in &response.placements {
            println!(
                "  slot {} -> {:<12} clicked: {:<5} purchased: {:<5} charged: {}",
                p.slot.position(),
                market.advertiser_name(p.advertiser).expect("registered"),
                p.clicked,
                p.purchased,
                p.charge
            );
        }
        println!("  realised revenue: {}\n", response.realized_revenue);
    }

    // The keyword's book answers serving-side questions directly.
    let top = market.top_bids(0, 3).expect("known keyword");
    println!("top per-click bids on {:?} now:", keywords[0]);
    for (campaign, bid) in top {
        let owner = market.campaign_advertiser(campaign).expect("registered");
        println!(
            "  {:<12} {}",
            market.advertiser_name(owner).expect("registered"),
            bid
        );
    }
}
