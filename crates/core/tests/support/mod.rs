//! The market both per-click footprint binaries measure, on the shape of
//! the `engine-solve` benchmark market: 2 000 advertisers with one per-click
//! campaign on each of 10 keywords, 15 slots, and every keyword served
//! twice, so the engines, per-slot lists and solver scratch exist. Each
//! binary is one `#[test]` because resident set size is process-wide.
//! Linux-only: it is read from `/proc/self/status`.

use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};

pub const SLOTS: usize = 15;
pub const KEYWORDS: usize = 10;
pub const ADVERTISERS: usize = 2_000;
pub const CAMPAIGNS: usize = ADVERTISERS * KEYWORDS;

/// Resident set size of this process in bytes (`VmRSS`).
fn resident_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kb * 1024.0
}

/// Builds and serves the market, with campaign `(advertiser, keyword)`
/// bringing the click probabilities `click_probs` returns, and returns the
/// resident bytes per campaign after printing them as one JSON line named
/// `metric` (the line the `perf-smoke` CI job appends to
/// `bench-report.json`).
pub fn resident_bytes_per_campaign(
    metric: &str,
    click_probs: impl Fn(usize, usize) -> Vec<f64>,
) -> f64 {
    // A market too small to weigh anything first, so the code every
    // campaign runs is resident before the reading: a debug build's is
    // ≈ 350 KB more than a release build's.
    drop(served_market(SLOTS, &click_probs));
    let before = resident_bytes();
    let market = served_market(ADVERTISERS, &click_probs);
    let per_campaign = (resident_bytes() - before) / CAMPAIGNS as f64;
    println!("{{\"metric\":\"{metric}\",\"campaigns\":{CAMPAIGNS},\"value\":{per_campaign:.0}}}");
    assert_eq!(market.num_campaigns_total(), CAMPAIGNS);
    per_campaign
}

/// `advertisers` advertisers with a campaign on every keyword, every
/// keyword served twice.
fn served_market(
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

/// Click probabilities falling with the slot from `quality` in slot 1.
pub fn falling(quality: f64) -> Vec<f64> {
    (0..SLOTS).map(|j| quality / (j + 1) as f64).collect()
}
