//! Resident footprint of a per-click campaign.
//!
//! A per-click campaign owns, once each: its record, which is the keyword
//! engine's bidder (advertiser, nominal bid, click value, ROI target, pause
//! flag, targeting pointer), its pointer to a row of click probabilities,
//! its 2-byte slot index and its no-slot value. Its bid is stored in the
//! record and nowhere else: no one-row table held by the engine (the engine
//! derives it from the record when it needs it), no effective bid copied
//! into a second bidder, no sorted bid index beside the book, and no stored
//! campaign id (an id is the keyword and the campaign's position).
//! It owns no purchase row (it never purchases), no row of a revenue matrix
//! (the default engine keeps each slot's few best rows instead of all of
//! them), no program-notification scratch (only engines with programs size
//! one), and — the paper's outcome model, and every population this repo
//! generates — no click row of its own: its advertiser brings the same 15
//! probabilities to all 10 keywords, and the market stores them once for
//! all of them.
//! `per_click_footprint_distinct` prices the worst case, a different row
//! on every keyword.
//!
//! The run prints one JSON line (`per_click_campaign_footprint_bytes`) that
//! the `perf-smoke` CI job appends to `bench-report.json`.

#![cfg(target_os = "linux")]

mod support;

use support::{falling, ADVERTISERS};

#[test]
fn a_per_click_campaign_costs_one_copy_of_everything() {
    let per_campaign =
        support::resident_bytes_per_campaign("per_click_campaign_footprint_bytes", |adv, _| {
            falling(0.2 + 0.7 * (adv + 1) as f64 / (ADVERTISERS + 1) as f64)
        });
    assert!(
        per_campaign <= 135.0,
        "a per-click campaign costs {per_campaign:.0} B resident, 135 B allowed \
         (≈ 162 B with the engine holding a copy of every standing table; \
         ≈ 209 B with the campaign stored twice; \
         ≈ 300 B with a sorted bid index beside the book and a stored id; \
         ≈ 430 B with a click row and a heap-allocated table per campaign; \
         563 B with its row of a revenue matrix; 1 340 B when probabilities \
         were stored twice and tables three times)"
    );
}
