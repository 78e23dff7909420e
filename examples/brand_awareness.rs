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

use rand::rngs::StdRng;
use rand::SeedableRng;
use sponsored_search::bidlang::{BidsTable, Formula, Money, SlotId};
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::prob::{ClickModel, PurchaseModel};
use sponsored_search::core::{AuctionEngine, EngineConfig, TableBidder, WdMethod};

fn main() {
    let k = 4u16;
    let names = ["TopOrNothing", "EdgeLover", "Clicker-A", "Clicker-B"];

    // TopOrNothing: 30¢ if in slot 1 **or not shown at all** — showing it
    // mid-page destroys the exclusive image it pays for.
    let top_or_nothing = TableBidder::new(BidsTable::new(vec![(
        Formula::slot(SlotId::new(1)) | Formula::no_slot(k),
        Money::from_cents(30),
    )]));

    // EdgeLover: 9¢ per click, plus 8¢ if displayed at the top or bottom
    // edge of the list.
    let edge_lover = TableBidder::new(BidsTable::new(vec![
        (Formula::click(), Money::from_cents(9)),
        (
            Formula::slot(SlotId::new(1)) | Formula::slot(SlotId::new(4)),
            Money::from_cents(8),
        ),
    ]));

    let clicker_a = TableBidder::per_click(Money::from_cents(25));
    let clicker_b = TableBidder::per_click(Money::from_cents(18));

    let clicks = ClickModel::from_fn(4, k as usize, |i, j| {
        [0.5, 0.45, 0.4, 0.35][i] * [1.0, 0.7, 0.5, 0.4][j]
    })
    .expect("probabilities in [0, 1]");
    let purchases = PurchaseModel::never(4, k as usize);

    let mut engine = AuctionEngine::new(
        vec![top_or_nothing, edge_lover, clicker_a, clicker_b],
        clicks,
        purchases,
        1,
        EngineConfig {
            method: WdMethod::Hungarian,
            pricing: PricingScheme::PayYourBid,
            ..EngineConfig::default()
        },
    );

    let mut rng = StdRng::seed_from_u64(31);
    let report = engine.run_auction(0, &mut rng);

    println!("expressive winner determination (k = {k}):\n");
    for (j, adv) in report.assignment.slot_to_adv.iter().enumerate() {
        match adv {
            Some(a) => println!("  slot {} -> {}", j + 1, names[*a]),
            None => println!("  slot {} -> (left empty)", j + 1),
        }
    }
    let placed: Vec<bool> = {
        let mut p = vec![false; 4];
        for a in report.assignment.slot_to_adv.iter().flatten() {
            p[*a] = true;
        }
        p
    };
    for (i, name) in names.iter().enumerate() {
        if !placed[i] {
            println!("  not shown -> {name}");
        }
    }
    println!("\nexpected revenue: {:.1}¢", report.expected_revenue);
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
