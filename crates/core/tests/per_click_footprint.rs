//! Resident footprint of a per-click campaign.
//!
//! A per-click campaign owns, once each: its metadata, its bidder (a bid in
//! cents), its row of the keyword's click model, the one-row table the
//! engine holds for it, its no-slot value, and its entry in the keyword's
//! logical bid index. It owns no purchase row (it never purchases), no
//! second copy of its probabilities, no second or third copy of its table,
//! and no row of a revenue matrix: the default engine keeps each slot's
//! few best rows instead of all of them. This file pins the sum down from
//! outside, on the shape of the `engine-solve` benchmark market: every
//! campaign brings its own 15 click probabilities, and every keyword has
//! been served twice, so the engines, per-slot lists and solver scratch
//! exist.
//!
//! It is a test binary of its own, and one `#[test]`, because resident set
//! size is process-wide. Linux-only: it is read from `/proc/self/status`.
//!
//! The run prints one JSON line (`per_click_campaign_footprint_bytes`) that
//! the `perf-smoke` CI job appends to `bench-report.json`.

#![cfg(target_os = "linux")]

use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};

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

#[test]
fn a_per_click_campaign_costs_one_copy_of_everything() {
    const SLOTS: usize = 15;
    const KEYWORDS: usize = 10;
    const ADVERTISERS: usize = 2_000;
    const CAMPAIGNS: usize = ADVERTISERS * KEYWORDS;

    let before = resident_bytes();
    let mut market = Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(7)
        .build()
        .expect("valid configuration");
    for adv in 0..ADVERTISERS {
        let advertiser = market.register_advertiser(format!("advertiser-{adv}"));
        let quality = 0.2 + 0.7 * (adv + 1) as f64 / (ADVERTISERS + 1) as f64;
        let probs: Vec<f64> = (0..SLOTS).map(|j| quality / (j + 1) as f64).collect();
        for keyword in 0..KEYWORDS {
            let bid = Money::from_cents(1 + ((adv * 31 + keyword * 17) % 50) as i64);
            market
                .add_campaign(
                    advertiser,
                    keyword,
                    CampaignSpec::per_click(bid).click_probs(probs.clone()),
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
    let per_campaign = (resident_bytes() - before) / CAMPAIGNS as f64;
    println!(
        "{{\"metric\":\"per_click_campaign_footprint_bytes\",\"campaigns\":{CAMPAIGNS},\"value\":{per_campaign:.0}}}"
    );
    assert!(
        per_campaign <= 520.0,
        "a per-click campaign costs {per_campaign:.0} B resident, 520 B allowed \
         (563 B with its row of a revenue matrix; 1 340 B when probabilities \
         were stored twice and tables three times)"
    );
    assert_eq!(market.num_campaigns_total(), CAMPAIGNS);
}
