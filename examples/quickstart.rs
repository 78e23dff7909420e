//! Quickstart: run multi-feature sponsored search auctions end to end on a
//! one-keyword [`Marketplace`].
//!
//! **See `examples/marketplace.rs`** for the rest of the service surface —
//! several keywords, incremental bid updates and batched serving. This
//! example keeps to one keyword and three campaigns, each bringing its own
//! bids table and click and purchase probabilities.
//!
//! Three advertisers with different goals compete for two slots:
//! a retailer bidding per click, a conversion-focused store bidding on
//! purchases, and a brand bidding on prominent placement (the paper's
//! Figure 3 shape).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sponsored_search::bidlang::{BidsTable, Formula, Money, SlotId};
use sponsored_search::core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::WdMethod;

fn main() {
    let mut market = Marketplace::builder()
        .slots(2)
        .keywords(1)
        .seed(2008)
        .method(WdMethod::Reduced)
        .pricing(PricingScheme::Gsp)
        .build()
        .expect("valid configuration");

    // ClickShop: classical single-feature bid — 12¢ per click.
    let click_shop = CampaignSpec::per_click(Money::from_cents(12));

    // ConversionCo: 5¢ per click plus 40¢ per purchase.
    let conversion_co = CampaignSpec::table(BidsTable::new(vec![
        (Formula::click(), Money::from_cents(5)),
        (Formula::purchase(), Money::from_cents(40)),
    ]));

    // BrandHouse: the Figure 3 bid — 2¢ for appearing in slot 1 or 2, paid
    // whether or not anyone clicks, plus 6¢ per click.
    let brand_house = CampaignSpec::table(BidsTable::new(vec![
        (
            Formula::any_slot([SlotId::new(1), SlotId::new(2)]),
            Money::from_cents(2),
        ),
        (Formula::click(), Money::from_cents(6)),
    ]));

    // Click probabilities per slot (slot 1 is better), and purchase
    // probabilities conditional on a click: ConversionCo's landing page
    // converts well.
    let names = ["ClickShop", "ConversionCo", "BrandHouse"];
    let campaigns = [
        (click_shop, [0.30, 0.18], 0.1),
        (conversion_co, [0.22, 0.12], 0.5),
        (brand_house, [0.25, 0.15], 0.1),
    ];
    for (name, (spec, clicks, p_buy)) in names.into_iter().zip(campaigns) {
        let advertiser = market.register_advertiser(name);
        let spec = spec
            .click_probs(clicks.to_vec())
            .purchase_probs(vec![(p_buy, 0.0); 2]);
        market
            .add_campaign(advertiser, 0, spec)
            .expect("campaign accepted");
    }

    println!("running 5 auctions with GSP pricing…\n");
    for auction in 1..=5 {
        let response = market
            .serve(QueryRequest::new(0))
            .expect("keyword 0 exists");
        assert_eq!(response.time, auction);
        println!(
            "auction {auction}: expected revenue {:.2}¢",
            response.expected_revenue
        );
        for placement in &response.placements {
            println!(
                "  slot {} -> {:<12} clicked: {:<5} purchased: {}",
                placement.slot.index0() + 1,
                names[placement.campaign.index()],
                placement.clicked,
                placement.purchased
            );
        }
        for (campaign, price) in &response.charges {
            println!("  charged {:<12} {}", names[campaign.index()], price);
        }
        println!("  realised revenue: {}\n", response.realized_revenue);
    }
}
