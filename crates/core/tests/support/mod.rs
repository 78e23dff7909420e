//! The market the footprint tests weigh, on the shape of the `engine-solve`
//! benchmark market: advertisers with one per-click campaign on each of 10
//! keywords, 15 slots, and every keyword served twice, so the engines,
//! per-slot lists and solver scratch exist. Each test binary uses the part
//! it needs.

#![allow(dead_code)]

use ssa_bidlang::Money;
use ssa_core::footprint::Ledger;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};

pub const SLOTS: usize = 15;
pub const KEYWORDS: usize = 10;
/// Advertisers of the per-campaign footprint tests.
pub const ADVERTISERS: usize = 2_000;
pub const CAMPAIGNS: usize = ADVERTISERS * KEYWORDS;

/// Builds and serves the per-campaign market, with campaign
/// `(advertiser, keyword)` bringing the click probabilities `click_probs`
/// returns, and returns its ledger's bytes in use per campaign after
/// printing them as one JSON line named `metric` (the line the
/// `perf-smoke` CI job appends to `bench-report.json`).
pub fn ledger_bytes_per_campaign(
    metric: &str,
    click_probs: impl Fn(usize, usize) -> Vec<f64>,
) -> f64 {
    let market = served_market(ADVERTISERS, click_probs);
    assert_eq!(market.num_campaigns_total(), CAMPAIGNS);
    let ledger = market.footprint();
    print_ledger(&ledger);
    let per_campaign = ledger.total().in_use as f64 / CAMPAIGNS as f64;
    println!("{{\"metric\":\"{metric}\",\"campaigns\":{CAMPAIGNS},\"value\":{per_campaign:.1}}}");
    per_campaign
}

/// The ledger's lines, largest first, for the test log.
pub fn print_ledger(ledger: &Ledger) {
    for (component, heap) in ledger.largest_first() {
        println!(
            "{:>24}: {:>10} B in use, {:>10} B reserved, {:>6} allocations",
            component.name(),
            heap.in_use,
            heap.reserved,
            heap.allocations
        );
    }
}

/// `advertisers` advertisers with a campaign on every keyword, every
/// keyword served twice.
pub fn served_market(
    advertisers: usize,
    click_probs: impl Fn(usize, usize) -> Vec<f64>,
) -> Marketplace {
    let mut market = Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(7)
        .build()
        .expect("valid configuration");
    for adv in 0..advertisers {
        let advertiser = market.register_advertiser(format!("advertiser-{adv}"));
        for keyword in 0..KEYWORDS {
            let bid = Money::from_cents(1 + ((adv * 31 + keyword * 17) % 50) as i64);
            market
                .add_campaign(
                    advertiser,
                    keyword,
                    CampaignSpec::per_click(bid).click_probs(click_probs(adv, keyword)),
                )
                .expect("campaign accepted");
        }
    }
    for _ in 0..2 {
        for keyword in 0..KEYWORDS {
            let response = market.serve(QueryRequest::new(keyword)).expect("in range");
            assert_eq!(response.placements.len(), SLOTS);
        }
    }
    market
}

/// The click probabilities advertiser `adv` of `advertisers` brings to
/// every keyword: its quality falls with the slot.
pub fn advertiser_row(adv: usize, advertisers: usize) -> Vec<f64> {
    falling(0.2 + 0.7 * (adv + 1) as f64 / (advertisers + 1) as f64)
}

/// Click probabilities falling with the slot from `quality` in slot 1.
pub fn falling(quality: f64) -> Vec<f64> {
    (0..SLOTS).map(|j| quality / (j + 1) as f64).collect()
}
