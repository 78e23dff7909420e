//! The Section II-C scenario: a boot retailer running the Equalize-ROI
//! strategy against a field of competitors, watching its spending rate
//! converge towards the target.
//!
//! ```text
//! cargo run --example roi_campaign
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sponsored_search::bidlang::Money;
use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::prob::{ClickModel, PurchaseModel};
use sponsored_search::core::{AuctionEngine, EngineConfig, WdMethod};
use sponsored_search::strategy::{KeywordEntry, RoiBidder};

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let n = 30;
    let keywords = 2; // "boot" and "shoe"
    let k = 4;

    // Our focal advertiser: values boots highly, shoes less; target spend
    // rate of 3¢ per auction.
    let focal = RoiBidder::new(
        vec![
            KeywordEntry::new(40, 10, 2.0),
            KeywordEntry::new(25, 10, 1.0),
        ],
        3.0,
    );

    // A crowd of competitors with random parameters, all using the same
    // heuristic (the Section V population in miniature).
    let mut bidders = vec![focal];
    for _ in 1..n {
        let entries = (0..keywords)
            .map(|_| {
                let value = rng.gen_range(5..=50);
                KeywordEntry::new(value, rng.gen_range(1..=value), rng.gen_range(0.5..2.5))
            })
            .collect();
        bidders.push(RoiBidder::new(entries, rng.gen_range(1.0..6.0)));
    }

    let clicks = ClickModel::from_fn(n, k, |_, j| {
        let hi = 0.9 - j as f64 * 0.2;
        rng.gen_range((hi - 0.2)..hi)
    })
    .expect("probabilities in [0, 1]");
    let purchases = PurchaseModel::never(n, k);

    let mut engine = AuctionEngine::new(
        bidders,
        clicks,
        purchases,
        keywords,
        EngineConfig {
            method: WdMethod::Reduced,
            pricing: PricingScheme::Gsp,
            ..EngineConfig::default()
        },
    );

    println!("target spend rate: 3.00 ¢/auction\n");
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10}",
        "auction", "spent(¢)", "rate(¢/a)", "bid[boot]", "bid[shoe]"
    );
    let mut sample_rng = StdRng::seed_from_u64(1234);
    for t in 1..=400u64 {
        let keyword = sample_rng.gen_range(0..keywords);
        engine.run_auction(keyword, &mut sample_rng);
        if t % 50 == 0 {
            let focal = &engine.bidders()[0];
            println!(
                "{:>8} {:>12.0} {:>12.3} {:>10} {:>10}",
                t,
                focal.amt_spent,
                focal.amt_spent / t as f64,
                Money::from_cents(focal.keywords[0].bid),
                Money::from_cents(focal.keywords[1].bid),
            );
        }
    }
    let focal = &engine.bidders()[0];
    let final_rate = focal.amt_spent / 400.0;
    println!(
        "\nfinal spending rate {:.3} ¢/auction (target 3.0); ROI boot {:.2}, shoe {:.2}",
        final_rate, focal.keywords[0].roi, focal.keywords[1].roi
    );
}
