//! Heap footprint of a per-click campaign, read off the market's ledger
//! ([`ssa_core::footprint`]): deterministic, so the bound is the exact
//! figure rounded up.
//!
//! A per-click campaign owns, once each: its 16-byte record, which is the
//! keyword engine's bidder (advertiser, pause flag, and nominal bid and
//! click value in `u32` cents, all inline; a campaign with an ROI target
//! or a larger amount, and every program, costs one more small box, and
//! this population has none), the 4-byte id of its row of click
//! probabilities in the market's one click table, its 8-byte no-slot value,
//! its 2-byte slot index and its 1-byte row state. Its bid is stored in the
//! record and nowhere else: no one-row table held by the engine (the engine
//! derives it from the record when it needs it), no effective bid copied
//! into a second bidder, no sorted bid index beside the book, and no stored
//! campaign id (an id is the keyword and the campaign's position). It owns
//! no targeting pointer (a targeted campaign's record points to a box that
//! holds one), no purchase row and no entry of a purchase index (nobody in
//! the market purchases), no row of a revenue matrix (the default engine
//! keeps each slot's few best rows instead of all of them), no
//! program-notification scratch (only engines with programs size one), and
//! — the paper's outcome model, and every population this repo generates —
//! no click row of its own: its advertiser brings the same 15 probabilities
//! to all 10 keywords, and the market stores them once for all of them,
//! flat, with no allocation of their own. The figure also spreads what the
//! market holds once — names, lists, solver scratch — over the campaigns.
//! `per_click_footprint_distinct` prices the worst case, a different row on
//! every keyword.
//!
//! The run prints the ledger and one JSON line
//! (`per_click_campaign_footprint_bytes`) that the `perf-smoke` CI job
//! appends to `bench-report.json`.

mod support;

use support::{advertiser_row, ADVERTISERS};

#[test]
fn a_per_click_campaign_costs_one_copy_of_everything() {
    let per_campaign =
        support::ledger_bytes_per_campaign("per_click_campaign_footprint_bytes", |adv, _| {
            advertiser_row(adv, ADVERTISERS)
        });
    assert!(
        per_campaign <= 57.0,
        "a per-click campaign holds {per_campaign:.1} B in the ledger, 57 B allowed \
         (70.6 B, 73 allowed, with a 32-byte record; \
         87.0 B, 88 allowed, with a 16-byte pointer per campaign to an `Arc` row; \
         ≈ 115 B with a 56-byte record and a purchase index of every row; \
         when read off resident memory, 135 B allowed and ≈ 113 B measured; \
         ≈ 162 B with the engine holding a copy of every standing table; \
         ≈ 209 B with the campaign stored twice; \
         ≈ 300 B with a sorted bid index beside the book and a stored id; \
         ≈ 430 B with a click row and a heap-allocated table per campaign; \
         563 B with its row of a revenue matrix; 1 340 B when probabilities \
         were stored twice and tables three times)"
    );
}
