//! Quickstart for the low-level engine: run one multi-feature sponsored
//! search auction end to end with a hand-assembled [`AuctionEngine`].
//!
//! **Start with `examples/marketplace.rs` instead** if you want the service
//! surface — registered advertisers, campaigns, incremental bid updates,
//! and typed query serving. This example is the documented escape hatch
//! underneath it: you own the bidder vector, the probability models, and
//! the RNG yourself.
//!
//! Three advertisers with different goals compete for two slots:
//! a retailer bidding per click, a conversion-focused store bidding on
//! purchases, and a brand bidding on prominent placement (the paper's
//! Figure 3 shape).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sponsored_search::bidlang::{BidsTable, Formula, Money, SlotId};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::prob::{ClickModel, PurchaseModel};
use sponsored_search::core::{AuctionEngine, EngineConfig, TableBidder, WdMethod};

fn main() {
    let names = ["ClickShop", "ConversionCo", "BrandHouse"];

    // ClickShop: classical single-feature bid — 12¢ per click.
    let click_shop = TableBidder::per_click(Money::from_cents(12));

    // ConversionCo: 5¢ per click plus 40¢ per purchase.
    let conversion_co = TableBidder::new(BidsTable::new(vec![
        (Formula::click(), Money::from_cents(5)),
        (Formula::purchase(), Money::from_cents(40)),
    ]));

    // BrandHouse: the Figure 3 bid — 2¢ for appearing in slot 1 or 2, paid
    // whether or not anyone clicks, plus 6¢ per click.
    let brand_house = TableBidder::new(BidsTable::new(vec![
        (
            Formula::any_slot([SlotId::new(1), SlotId::new(2)]),
            Money::from_cents(2),
        ),
        (Formula::click(), Money::from_cents(6)),
    ]));

    // Click probabilities per advertiser and slot (slot 1 is better), and
    // purchase probabilities conditional on a click.
    let clicks = ClickModel::from_rows(&[vec![0.30, 0.18], vec![0.22, 0.12], vec![0.25, 0.15]])
        .expect("probabilities in [0, 1]");
    let purchases = PurchaseModel::from_fn(3, 2, |adv, _| {
        // ConversionCo's landing page converts well.
        if adv == 1 {
            (0.5, 0.0)
        } else {
            (0.1, 0.0)
        }
    });

    let mut engine = AuctionEngine::new(
        vec![click_shop, conversion_co, brand_house],
        clicks,
        purchases,
        1,
        EngineConfig {
            method: WdMethod::Reduced,
            pricing: PricingScheme::Gsp,
            ..EngineConfig::default()
        },
    );

    let mut rng = StdRng::seed_from_u64(2008);
    println!("running 5 auctions with GSP pricing…\n");
    for auction in 1..=5 {
        let report = engine.run_auction(0, &mut rng);
        println!(
            "auction {auction}: expected revenue {:.2}¢",
            report.expected_revenue
        );
        for (j, adv) in report.assignment.slot_to_adv.iter().enumerate() {
            match adv {
                Some(a) => println!(
                    "  slot {} -> {:<12} clicked: {:<5} purchased: {}",
                    j + 1,
                    names[*a],
                    report.clicked[j],
                    report.purchased[j]
                ),
                None => println!("  slot {} -> (empty)", j + 1),
            }
        }
        for (adv, price) in &report.charges {
            println!("  charged {:<12} {}", names[*adv], price);
        }
        println!("  realised revenue: {}\n", report.realized_revenue);
    }
}
