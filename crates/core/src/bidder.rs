//! The bidder abstraction: anything that can react to a query with a Bids
//! table (Section I-B's "program evaluation" step).

use ssa_bidlang::targeting::CompiledTargeting;
use ssa_bidlang::{BidsTable, Money, SlotId};
use std::sync::Arc;

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

/// A bidding program from the engine's point of view.
pub trait Bidder {
    /// Step 3 of the auction: produce this auction's Bids table.
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable;

    /// Step 6: learn the outcome (slot, click, purchase, price). Default:
    /// ignore.
    fn on_outcome(&mut self, _ctx: &QueryContext, _outcome: &BidderOutcome) {}

    /// Whether this bidder's table is a *standing* bid: a function of the
    /// bidder's own fields alone — not of the query, the clock or past
    /// outcomes — so it can change only when somebody writes to the bidder.
    /// The engine asks a standing bidder for its table once, keeps it, and
    /// asks again only after a write through
    /// [`crate::AuctionEngine::bidder_mut`]; it never notifies it of
    /// outcomes. Everything else (the default) is a *program*: evaluated at
    /// every auction and told every outcome.
    ///
    /// The answer must not change over the bidder's life.
    fn is_standing(&self) -> bool {
        false
    }

    /// The matcher deciding which queries this bidder bids on (`None`, the
    /// default: every query); it must not change over the bidder's life.
    /// The engine visits a targeted bidder at every auction, and on a query
    /// the matcher rejects holds an empty table for it without asking it.
    fn targeting(&self) -> Option<&CompiledTargeting> {
        None
    }
}

/// The simplest bidder: a fixed Bids table, independent of the query.
#[derive(Debug, Clone)]
pub struct TableBidder {
    /// The table submitted at every auction.
    pub bids: BidsTable,
    /// The queries it bids on ([`Bidder::targeting`]; `None`: every query).
    pub targeting: Option<Arc<CompiledTargeting>>,
}

impl TableBidder {
    /// Wraps a fixed table.
    pub fn new(bids: BidsTable) -> Self {
        TableBidder {
            bids,
            targeting: None,
        }
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

    fn is_standing(&self) -> bool {
        true
    }

    fn targeting(&self) -> Option<&CompiledTargeting> {
        self.targeting.as_deref()
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
        assert!(b.is_standing());
        b.on_outcome(&ctx, &BidderOutcome::lost()); // default no-op
    }
}
