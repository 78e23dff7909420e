//! The Section I motivation: bids that current single-feature auctions
//! cannot express.
//!
//! * "TopOrNothing" wants the topmost slot or no slot at all (market-leader
//!   perception);
//! * "EdgeLover" wants the top or bottom of the list, never the middle
//!   (brand awareness);
//! * two classical per-click bidders fill out the field.
//!
//! The example shows winner determination honouring these constraints —
//! including leaving an advertiser *out* when its "or nothing" clause makes
//! that more valuable — and contrasts against what a separability-based
//! sort would have done.
//!
//! ```text
//! cargo run --example brand_awareness
//! ```

use sponsored_search::bidlang::{BidsTable, Formula, Money, SlotId};
use sponsored_search::core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::WdMethod;

fn main() {
    let k = 4u16;
    let names = ["TopOrNothing", "EdgeLover", "Clicker-A", "Clicker-B"];

    // TopOrNothing: 30¢ if in slot 1 **or not shown at all** — showing it
    // mid-page destroys the exclusive image it pays for.
    let top_or_nothing = CampaignSpec::table(BidsTable::new(vec![(
        Formula::slot(SlotId::new(1)) | Formula::no_slot(k),
        Money::from_cents(30),
    )]));

    // EdgeLover: 9¢ per click, plus 8¢ if displayed at the top or bottom
    // edge of the list.
    let edge_lover = CampaignSpec::table(BidsTable::new(vec![
        (Formula::click(), Money::from_cents(9)),
        (
            Formula::slot(SlotId::new(1)) | Formula::slot(SlotId::new(4)),
            Money::from_cents(8),
        ),
    ]));

    let clicker_a = CampaignSpec::per_click(Money::from_cents(25));
    let clicker_b = CampaignSpec::per_click(Money::from_cents(18));

    let mut market = Marketplace::builder()
        .slots(k as usize)
        .keywords(1)
        .seed(31)
        .method(WdMethod::Hungarian)
        .pricing(PricingScheme::PayYourBid)
        .build()
        .expect("valid configuration");
    let specs = [top_or_nothing, edge_lover, clicker_a, clicker_b];
    for (i, (name, spec)) in names.into_iter().zip(specs).enumerate() {
        let advertiser = market.register_advertiser(name);
        let clicks = [1.0, 0.7, 0.5, 0.4].map(|slot| [0.5, 0.45, 0.4, 0.35][i] * slot);
        market
            .add_campaign(advertiser, 0, spec.click_probs(clicks.to_vec()))
            .expect("campaign accepted");
    }

    let response = market
        .serve(QueryRequest::new(0))
        .expect("keyword 0 exists");

    println!("expressive winner determination (k = {k}):\n");
    let mut seated = vec![None; k as usize];
    for placement in &response.placements {
        seated[placement.slot.index0()] = Some(placement.campaign.index());
    }
    for (j, adv) in seated.iter().enumerate() {
        match adv {
            Some(a) => println!("  slot {} -> {}", j + 1, names[*a]),
            None => println!("  slot {} -> (left empty)", j + 1),
        }
    }
    for (i, name) in names.iter().enumerate() {
        if !seated.contains(&Some(i)) {
            println!("  not shown -> {name}");
        }
    }
    // TopOrNothing is on top or off the page, never in between.
    assert!(
        !seated[1..].contains(&Some(0)),
        "TopOrNothing placed mid-page"
    );
    println!("\nexpected revenue: {:.1}¢", response.expected_revenue);
    println!(
        "note: TopOrNothing is monetised either way — its 'or nothing' bid \
         pays {} when it is withheld from the page.",
        Money::from_cents(30)
    );
    println!(
        "\nA separability-based sort (Section III-C) cannot express this: it \
         would rank advertisers by per-click value and could strand \
         TopOrNothing in a middle slot, worth 0 to it."
    );
}
