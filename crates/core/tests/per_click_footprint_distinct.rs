//! Resident footprint of a per-click campaign whose click row nobody
//! shares: every advertiser brings different probabilities to each of its
//! 10 keywords, so each campaign's row is an allocation of its own (its 120
//! bytes plus the allocation's 16-byte header and the 16-byte pointer).
//! Everything else is what `per_click_footprint` lists: the one record,
//! held one-row table, slot index and no-slot value, with no second copy
//! of the campaign, no sorted bid index and no stored id. This is the
//! price of sharing where there is nothing to share; the common case is
//! `per_click_footprint`.
//!
//! The run prints one JSON line (`per_click_campaign_footprint_distinct_bytes`)
//! that the `perf-smoke` CI job appends to `bench-report.json`.

#![cfg(target_os = "linux")]

mod support;

use support::{falling, CAMPAIGNS, KEYWORDS};

#[test]
fn a_per_click_campaign_with_a_row_of_its_own_costs_little_more() {
    let per_campaign = support::resident_bytes_per_campaign(
        "per_click_campaign_footprint_distinct_bytes",
        |adv, keyword| {
            falling(0.2 + 0.7 * (adv * KEYWORDS + keyword + 1) as f64 / (CAMPAIGNS + 1) as f64)
        },
    );
    assert!(
        per_campaign <= 310.0,
        "a per-click campaign with its own click row costs {per_campaign:.0} B \
         resident, 310 B allowed (≈ 340 B with the campaign stored twice; \
         ≈ 430 B with a sorted bid index beside the book and a stored id)"
    );
}
