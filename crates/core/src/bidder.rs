//! The bidder abstraction: anything that can react to a query with a Bids
//! table (Section I-B's "program evaluation" step).

use ssa_bidlang::{BidsTable, Money, SlotId};

/// What a bidding program sees when an auction starts: the read-only shared
/// variables of Section II-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryContext {
    /// Monotone auction clock (the shared `time` variable).
    pub time: u64,
    /// Index of the keyword in the user's query (the §V workload gives each
    /// query exactly one keyword with relevance 1).
    pub keyword: usize,
    /// Size of the keyword universe.
    pub num_keywords: usize,
}

/// What a bidder learns after the auction resolves (the paper's trigger
/// notifications for slots, clicks, and purchases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BidderOutcome {
    /// Slot won, if any.
    pub slot: Option<SlotId>,
    /// Whether the user clicked the ad.
    pub clicked: bool,
    /// Whether the user purchased via the ad.
    pub purchased: bool,
    /// Amount charged by the provider.
    pub price: Money,
}

impl BidderOutcome {
    /// Outcome for a bidder that won nothing.
    pub fn lost() -> Self {
        BidderOutcome {
            slot: None,
            clicked: false,
            purchased: false,
            price: Money::ZERO,
        }
    }
}

/// A bidding program: a campaign's program
/// ([`crate::marketplace::CampaignSpec::program`]), asked at every auction
/// on its keyword and told every outcome. Per-click and fixed-table
/// campaigns are not programs: the market reads their tables off the
/// campaign.
pub trait Bidder {
    /// Step 3 of the auction: produce this auction's Bids table.
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable;

    /// Step 6: learn the outcome (slot, click, purchase, price). Default:
    /// ignore.
    fn on_outcome(&mut self, _ctx: &QueryContext, _outcome: &BidderOutcome) {}
}

/// The simplest bidder: a fixed Bids table, independent of the query.
#[derive(Debug, Clone)]
pub struct TableBidder {
    /// The table submitted at every auction.
    pub bids: BidsTable,
}

impl TableBidder {
    /// Wraps a fixed table.
    pub fn new(bids: BidsTable) -> Self {
        TableBidder { bids }
    }

    /// A classical single-feature (per-click) bidder.
    pub fn per_click(value: Money) -> Self {
        TableBidder::new(BidsTable::single_feature(value))
    }
}

impl Bidder for TableBidder {
    fn on_query(&mut self, _ctx: &QueryContext) -> BidsTable {
        self.bids.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_bidder_is_constant() {
        let mut b = TableBidder::per_click(Money::from_cents(7));
        let ctx = QueryContext {
            time: 1,
            keyword: 0,
            num_keywords: 1,
        };
        assert_eq!(
            b.on_query(&ctx),
            BidsTable::single_feature(Money::from_cents(7))
        );
        assert_eq!(b.on_query(&ctx), b.bids);
        b.on_outcome(&ctx, &BidderOutcome::lost()); // default no-op
    }
}
