//! Heap footprint of a per-click campaign whose click row nobody shares,
//! read off the market's ledger ([`ssa_core::footprint`]): every
//! advertiser brings different probabilities to each of its 10 keywords,
//! so each campaign's row is one of its own in the market's click table:
//! 120 flat bytes, with no allocation or counts of its own. Everything
//! else is what `per_click_footprint` lists: the one 16-byte record (bid
//! and click value in `u32` cents inline; an ROI target, a larger amount
//! or a program costs one more small box), click
//! row id, no-slot value, slot index and row state, with no table held by the
//! engine, no second copy of the campaign, no sorted bid index, no
//! purchase index and no stored id. This is the price of sharing where
//! there is nothing to share; the common case is `per_click_footprint`.
//!
//! The run prints the ledger and one JSON line
//! (`per_click_campaign_footprint_distinct_bytes`) that the `perf-smoke` CI
//! job appends to `bench-report.json`.

mod support;

use support::{falling, CAMPAIGNS, KEYWORDS};

#[test]
fn a_per_click_campaign_with_a_row_of_its_own_costs_little_more() {
    let per_campaign = support::ledger_bytes_per_campaign(
        "per_click_campaign_footprint_distinct_bytes",
        |adv, keyword| {
            falling(0.2 + 0.7 * (adv * KEYWORDS + keyword + 1) as f64 / (CAMPAIGNS + 1) as f64)
        },
    );
    assert!(
        per_campaign <= 165.0,
        "a per-click campaign with its own click row holds {per_campaign:.1} B \
         in the ledger, 165 B allowed (178.6 B, 181 allowed, with a 32-byte \
         record; 209.4 B, 210 allowed, with each row an \
         `Arc` allocation behind a 16-byte pointer; ≈ 237 B with a 56-byte record and a \
         purchase index of every row; when read off resident memory, 270 B \
         allowed and ≈ 241 B measured; ≈ 290 B with the engine holding a copy \
         of every standing table; ≈ 340 B with the campaign stored twice; \
         ≈ 430 B with a sorted bid index beside the book and a stored id)"
    );
}
